/**
 * @file
 * The persistent run-cache tier, bottom to top: the CRC-64/XZ
 * checksum (known-answer vectors, chaining, a bit-at-a-time
 * reference), the raw DiskCache blob store (roundtrip,
 * atomicity-adjacent framing checks, quarantine of corrupted and
 * truncated blobs, stale-schema clean misses, filename-bucket key
 * comparison), the cache codec (byte-canonical encodings of every
 * section's artifact type, proven by end-to-end equality; out-of-range
 * enum bytes and static indices rejected), and the RunCache
 * integration (disk_hit outcome, per-tier counters and profiling
 * scopes across a simulated process restart).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness/cache_codec.hh"
#include "harness/disk_cache.hh"
#include "harness/experiment.hh"
#include "harness/run_cache.hh"
#include "sim/crc64.hh"
#include "sim/prof.hh"
#include "workloads/suite.hh"

using namespace ser;

// ---------------------------------------------------------------
// CRC-64/XZ

namespace
{

/** CRC-64/XZ by its definition: one bit at a time, reflected. */
std::uint64_t
crc64Bitwise(std::uint64_t crc, const void *data, std::size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    crc = ~crc;
    while (len--) {
        crc ^= *p++;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (crc & 1 ? 0xC96C5795D7870F42ull : 0);
    }
    return ~crc;
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** 'len' bytes of the splitmix64 stream from 'seed', each word
 * little-endian. */
std::vector<unsigned char>
splitmixBytes(std::size_t len, std::uint64_t seed)
{
    std::vector<unsigned char> out(len);
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < len; ++i) {
        if (i % 8 == 0)
            word = splitmix64(seed);
        out[i] = static_cast<unsigned char>(word >> (8 * (i % 8)));
    }
    return out;
}

} // namespace

TEST(Crc64, KnownAnswerVectors)
{
    // The CRC-64/XZ check value (reveng catalogue): the ASCII
    // digits "123456789".
    EXPECT_EQ(crc64(0, "123456789", 9), 0x995DC9BBDF1939FAull);
    // Empty input is the identity.
    EXPECT_EQ(crc64(0, "", 0), 0ull);
    // A single zero byte is not (the reflected ~0 init/xorout see
    // it).
    EXPECT_NE(crc64(0, "\0", 1), 0ull);
}

TEST(Crc64, ChainingMatchesOneShot)
{
    const char *text = "The quick brown fox jumps over the lazy dog";
    std::size_t len = std::string(text).size();
    std::uint64_t oneshot = crc64(0, text, len);
    for (std::size_t split = 0; split <= len; ++split) {
        std::uint64_t part = crc64(0, text, split);
        EXPECT_EQ(crc64(part, text + split, len - split), oneshot)
            << "split at " << split;
    }
    // Long enough that both halves of most splits reach the 64-byte
    // folds, so a chained init must enter the folded path intact.
    std::vector<unsigned char> data = splitmixBytes(1500, 7);
    std::uint64_t whole = crc64(0, data.data(), data.size());
    for (std::size_t split = 0; split <= data.size(); ++split) {
        std::uint64_t part = crc64(0, data.data(), split);
        EXPECT_EQ(crc64(part, data.data() + split,
                        data.size() - split),
                  whole)
            << "split at " << split;
    }
}

TEST(Crc64, MatchesBitwiseReference)
{
    // The reference is pinned to the catalogue first.
    EXPECT_EQ(crc64Bitwise(0, "123456789", 9), 0x995DC9BBDF1939FAull);

    std::uint64_t seed = 2;
    std::vector<unsigned char> big = splitmixBytes((1u << 20) + 63, 3);
    for (std::size_t extra : {0, 1, 15, 63}) {
        std::size_t len = (1u << 20) + extra;
        std::uint64_t init = splitmix64(seed);
        EXPECT_EQ(crc64(init, big.data(), len),
                  crc64Bitwise(init, big.data(), len))
            << "1 MiB + " << extra;
    }
    // Every fold count and tail length, at every alignment; the first
    // mismatch stops the sweep.
    std::vector<unsigned char> data = splitmixBytes(1024 + 16, 1);
    for (std::size_t offset = 0; offset < 16; ++offset) {
        for (std::size_t len = 0; len <= 1024; ++len) {
            std::uint64_t init = splitmix64(seed);
            ASSERT_EQ(crc64(init, data.data() + offset, len),
                      crc64Bitwise(init, data.data() + offset, len))
                << "offset " << offset << " len " << len;
        }
    }
}

TEST(Crc64, OneMibBufferMatchesEarlierBuilds)
{
    // Printed by the bytewise-only build: blobs written before the
    // folded kernel must still verify after it.
    std::vector<unsigned char> data = splitmixBytes(1u << 20, 0);
    EXPECT_EQ(crc64(0, data.data(), data.size()),
              0x31138a70a226b5e8ull);
}

TEST(Crc64, SingleBitFlipChangesEveryPrefix)
{
    std::string data(256, '\0');
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<char>(i * 37 + 11);
    std::uint64_t clean = crc64(0, data.data(), data.size());
    std::string flipped = data;
    flipped[100] ^= 0x10;
    EXPECT_NE(crc64(0, flipped.data(), flipped.size()), clean);
}

// ---------------------------------------------------------------
// Cache codec: structurally impossible campaign blobs

TEST(CampaignCodec, OutOfRangeEnumBytesFailDecode)
{
    // One of every record that carries an enum byte: a sampled
    // structure, and a site with its structure and bit role.
    faults::CampaignSample good;
    good.structures.emplace_back();
    good.structures[0].structure = faults::Structure::PredRegFile;
    good.sites.emplace_back();
    good.sites[0].site.structure = faults::Structure::PredRegFile;
    good.sites[0].verdict.role = faults::BitRole::Pi;

    auto decodes = [](const faults::CampaignSample &sample) {
        std::string blob = harness::codec::encodeCampaign(sample);
        faults::CampaignSample back;
        return harness::codec::decodeCampaign(blob.data(), blob.size(),
                                              &back);
    };
    ASSERT_TRUE(decodes(good));

    // Each enum field in turn holds a byte past its last value.
    auto rejects = [&](auto corrupt) {
        faults::CampaignSample sample = good;
        corrupt(sample);
        return !decodes(sample);
    };
    constexpr std::uint8_t bad = 0x7f;
    EXPECT_TRUE(rejects([](faults::CampaignSample &s) {
        s.structures[0].structure = static_cast<faults::Structure>(bad);
    }));
    EXPECT_TRUE(rejects([](faults::CampaignSample &s) {
        s.sites[0].site.structure = static_cast<faults::Structure>(bad);
    }));
    EXPECT_TRUE(rejects([](faults::CampaignSample &s) {
        s.sites[0].verdict.role = static_cast<faults::BitRole>(bad);
    }));
    // An in-range structure the sample did not draw from is just as
    // impossible: the label fold has no tally for it.
    EXPECT_TRUE(rejects([](faults::CampaignSample &s) {
        s.sites[0].site.structure = faults::Structure::Iq;
    }));
}

TEST(SimCodec, OutOfRangeStaticIndexFailsDecode)
{
    // One commit and one incarnation, both naming the program's
    // last instruction.
    harness::SimProducts good;
    good.program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", 1000));
    const std::uint32_t last =
        static_cast<std::uint32_t>(good.program->size() - 1);
    good.trace.commits.push_back({last, 1, 0});
    good.trace.incarnations.push_back({last, 0, 1, 2, 3, 0, 0});

    auto decodes = [](const harness::SimProducts &products) {
        std::string blob = harness::codec::encodeSimProducts(products);
        harness::SimProducts back;
        return harness::codec::decodeSimProducts(blob.data(),
                                                 blob.size(), &back);
    };
    ASSERT_TRUE(decodes(good));

    // Each index column in turn names one past the last instruction,
    // which the AVF fold, the classifier and attribution would read
    // (or write) past their per-instruction tables.
    auto rejects = [&](auto corrupt) {
        harness::SimProducts products = good;
        corrupt(products);
        return !decodes(products);
    };
    EXPECT_TRUE(rejects([&](harness::SimProducts &p) {
        p.trace.commits[0].staticIdx = last + 1;
    }));
    EXPECT_TRUE(rejects([&](harness::SimProducts &p) {
        p.trace.incarnations.staticIdx[0] = last + 1;
    }));
}

// ---------------------------------------------------------------
// DiskCache blob store

namespace
{

class DiskCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char tmpl[] = "/tmp/ser_disk_cache_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        _dir = tmpl;
        disk().setDirectory(_dir,
                            harness::codec::kSchemaVersion);
        cache().setEnabled(true);
        cache().clear();
    }

    void TearDown() override
    {
        // Disable the singleton tier so later tests (and suites) are
        // unaffected, then remove the temp tree.
        disk().setDirectory("", harness::codec::kSchemaVersion);
        cache().clear();
        std::string cmd = "rm -rf '" + _dir + "'";
        ASSERT_EQ(std::system(cmd.c_str()), 0);
    }

    static harness::DiskCache &disk()
    {
        return harness::DiskCache::instance();
    }

    static harness::RunCache &cache()
    {
        return harness::RunCache::instance();
    }

    /** The single *.blob under <dir>/<section>/. */
    std::string
    onlyBlob(const std::string &section) const
    {
        std::string dir = _dir + "/" + section;
        DIR *d = ::opendir(dir.c_str());
        if (!d)
            return "";
        std::string found;
        while (dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name.size() > 5 &&
                name.substr(name.size() - 5) == ".blob")
                found = dir + "/" + name;
        }
        ::closedir(d);
        return found;
    }

    static int
    countEntries(const std::string &dir, const std::string &suffix)
    {
        DIR *d = ::opendir(dir.c_str());
        if (!d)
            return 0;
        int n = 0;
        while (dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name.size() >= suffix.size() &&
                name.substr(name.size() - suffix.size()) == suffix)
                ++n;
        }
        ::closedir(d);
        return n;
    }

    std::string _dir;
};

/** load() wrapper capturing the payload bytes. */
harness::DiskCache::LoadResult
loadPayload(const std::string &section, const std::string &key,
            std::string *payload)
{
    return harness::DiskCache::instance().load(
        section, key, [&](const void *data, std::size_t len) {
            payload->assign(static_cast<const char *>(data), len);
            return true;
        });
}

} // namespace

TEST_F(DiskCacheTest, StoreLoadRoundtrip)
{
    std::string payload = "the payload bytes \x01\x02\x00 end";
    payload.push_back('\0');
    std::uint64_t written = disk().store("test", "key-A", payload);
    EXPECT_GT(written, payload.size());  // header + key + payload

    std::string got;
    auto result = loadPayload("test", "key-A", &got);
    EXPECT_EQ(result.status, harness::DiskCache::LoadStatus::Ok);
    EXPECT_EQ(result.payloadBytes, payload.size());
    EXPECT_EQ(got, payload);
}

TEST_F(DiskCacheTest, MissingKeyIsNoEntry)
{
    std::string got;
    auto result = loadPayload("test", "absent", &got);
    EXPECT_EQ(result.status,
              harness::DiskCache::LoadStatus::NoEntry);
}

TEST_F(DiskCacheTest, DisabledTierAnswersDisabled)
{
    disk().setDirectory("", harness::codec::kSchemaVersion);
    EXPECT_FALSE(disk().enabled());
    EXPECT_EQ(disk().store("test", "k", "v"), 0u);
    std::string got;
    EXPECT_EQ(loadPayload("test", "k", &got).status,
              harness::DiskCache::LoadStatus::Disabled);
}

TEST_F(DiskCacheTest, BucketCollisionWithDifferentKeyIsCleanMiss)
{
    // Simulate a CRC64 filename collision: copy key-A's blob to the
    // path key-B hashes to. The stored key bytes say "key-A", so a
    // load for key-B must answer NoEntry — never key-A's payload.
    ASSERT_GT(disk().store("test", "key-A", "payload-A"), 0u);
    std::string src = disk().blobPath("test", "key-A");
    std::string dst = disk().blobPath("test", "key-B");
    ASSERT_NE(src, dst);
    std::string cmd = "cp '" + src + "' '" + dst + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);

    std::string got;
    EXPECT_EQ(loadPayload("test", "key-B", &got).status,
              harness::DiskCache::LoadStatus::NoEntry);
    // And the impostor file is left alone (it is not corrupt).
    struct stat st;
    EXPECT_EQ(::stat(dst.c_str(), &st), 0);
}

TEST_F(DiskCacheTest, FlippedPayloadByteQuarantines)
{
    ASSERT_GT(disk().store("test", "key-A",
                           std::string(1000, 'x')), 0u);
    std::string path = disk().blobPath("test", "key-A");

    // Flip one byte near the end (inside the payload region).
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(0, std::ios::end);
        std::streamoff size = f.tellg();
        f.seekp(size - 8);
        char c;
        f.seekg(size - 8);
        f.get(c);
        c ^= 0x40;
        f.seekp(size - 8);
        f.put(c);
    }

    std::string got;
    EXPECT_EQ(loadPayload("test", "key-A", &got).status,
              harness::DiskCache::LoadStatus::Corrupt);
    // The blob was renamed aside, so the next lookup is a clean
    // miss, not a repeated CRC failure.
    struct stat st;
    EXPECT_NE(::stat(path.c_str(), &st), 0);
    EXPECT_EQ(countEntries(_dir + "/test", ".quarantine"), 1);
    EXPECT_EQ(loadPayload("test", "key-A", &got).status,
              harness::DiskCache::LoadStatus::NoEntry);
}

TEST_F(DiskCacheTest, TruncatedBlobQuarantines)
{
    ASSERT_GT(disk().store("test", "key-A",
                           std::string(1000, 'y')), 0u);
    std::string path = disk().blobPath("test", "key-A");
    ASSERT_EQ(::truncate(path.c_str(), 200), 0);

    std::string got;
    EXPECT_EQ(loadPayload("test", "key-A", &got).status,
              harness::DiskCache::LoadStatus::Corrupt);
    EXPECT_EQ(countEntries(_dir + "/test", ".quarantine"), 1);
}

TEST_F(DiskCacheTest, RejectedDecodeQuarantines)
{
    ASSERT_GT(disk().store("test", "key-A", "valid bytes"), 0u);
    // The framing and CRC are intact; the decoder still rejects —
    // exactly what a schema-compatible but semantically bad payload
    // (e.g. an out-of-range enum) looks like.
    auto result = disk().load(
        "test", "key-A",
        [](const void *, std::size_t) { return false; });
    EXPECT_EQ(result.status,
              harness::DiskCache::LoadStatus::Corrupt);
    EXPECT_EQ(countEntries(_dir + "/test", ".quarantine"), 1);
}

TEST_F(DiskCacheTest, StaleSchemaVersionIsCleanMiss)
{
    ASSERT_GT(disk().store("test", "key-A", "old payload"), 0u);
    // A future build with a bumped payload schema must treat the old
    // blob as a miss (and not quarantine it: it is not damaged).
    disk().setDirectory(_dir,
                        harness::codec::kSchemaVersion + 1);
    std::string got;
    EXPECT_EQ(loadPayload("test", "key-A", &got).status,
              harness::DiskCache::LoadStatus::Stale);
    EXPECT_EQ(countEntries(_dir + "/test", ".quarantine"), 0);

    // Re-publishing under the new schema overwrites atomically and
    // hits again.
    ASSERT_GT(disk().store("test", "key-A", "new payload"), 0u);
    EXPECT_EQ(loadPayload("test", "key-A", &got).status,
              harness::DiskCache::LoadStatus::Ok);
    EXPECT_EQ(got, "new payload");
}

TEST_F(DiskCacheTest, LastWriteWinsOnOverwrite)
{
    ASSERT_GT(disk().store("test", "k", "first"), 0u);
    ASSERT_GT(disk().store("test", "k", "second"), 0u);
    std::string got;
    EXPECT_EQ(loadPayload("test", "k", &got).status,
              harness::DiskCache::LoadStatus::Ok);
    EXPECT_EQ(got, "second");
    // No temp files left behind.
    EXPECT_EQ(countEntries(_dir + "/test", ".blob"), 1);
}

// ---------------------------------------------------------------
// RunCache integration: the disk tier across a simulated process
// restart (clear() empties the in-process map exactly like a new
// process, while the blob directory persists).

namespace
{

harness::ExperimentConfig
smallConfig()
{
    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = 5000;
    cfg.warmupInsts = 500;
    return cfg;
}

} // namespace

TEST_F(DiskCacheTest, DiskHitAfterRestartReproducesArtifacts)
{
    auto program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", 5000));
    harness::ExperimentConfig cfg = smallConfig();
    cfg.campaign.samples = 200;  // exercise the campaign section too
    cfg.intervalCycles = 500;    // and the interval and epoch columns

    auto r1 = harness::runProgram(program, cfg, "gzip");
    EXPECT_EQ(r1.cacheSim, harness::CacheOutcome::Miss);
    auto cold = cache().simCounters();
    EXPECT_EQ(cold.misses, 1u);
    EXPECT_GT(cold.diskBytesWritten, 0u);

    // "Restart": drop the in-process map, keep the blob directory.
    cache().clear();

    auto r2 = harness::runProgram(program, cfg, "gzip");
    EXPECT_EQ(r2.cacheSim, harness::CacheOutcome::DiskHit);
    EXPECT_EQ(r2.cacheDeadness, harness::CacheOutcome::DiskHit);
    EXPECT_EQ(r2.cacheAvf, harness::CacheOutcome::DiskHit);
    EXPECT_EQ(r2.cacheCampaign, harness::CacheOutcome::DiskHit);

    auto warm = cache().simCounters();
    EXPECT_EQ(warm.misses, 0u);
    EXPECT_EQ(warm.diskHits, 1u);
    EXPECT_GT(warm.diskBytesRead, 0u);
    EXPECT_EQ(warm.diskCorrupt, 0u);

    // The decoded artifacts are semantically identical: the codec
    // encodings are canonical (no padding, no pointers), so
    // byte-equal re-encodings prove member-level equality of every
    // artifact the manifest is derived from.
    EXPECT_EQ(r1.ipc, r2.ipc);
    EXPECT_EQ(r1.statsJson, r2.statsJson);
    EXPECT_EQ(r1.statsDump, r2.statsDump);
    EXPECT_EQ(r1.cyclesSkipped, r2.cyclesSkipped);
    EXPECT_EQ(r1.poolHighWater, r2.poolHighWater);
    // IntervalSample has no padding (the codec asserts it), so byte
    // equality is member equality.
    ASSERT_FALSE(r1.intervals.empty());
    ASSERT_EQ(r1.intervals.size(), r2.intervals.size());
    EXPECT_EQ(std::memcmp(r1.intervals.data(), r2.intervals.data(),
                          r1.intervals.size() *
                              sizeof(cpu::IntervalSample)),
              0);
    ASSERT_FALSE(r1.avf->epochs.empty());
    EXPECT_EQ(
        harness::codec::encodeDeadness(*r1.deadness),
        harness::codec::encodeDeadness(*r2.deadness));
    EXPECT_EQ(harness::codec::encodeAvf(*r1.avf),
              harness::codec::encodeAvf(*r2.avf));
    // Both outcomes are labelled from the cached sample; the summary
    // covers every tally, band and re-run counter, and the per-site
    // records are compared directly.
    EXPECT_EQ(r1.campaign->summary(), r2.campaign->summary());
    ASSERT_EQ(r1.campaign->sites.size(), cfg.campaign.samples);
    ASSERT_EQ(r2.campaign->sites.size(), r1.campaign->sites.size());
    for (std::size_t i = 0; i < r1.campaign->sites.size(); ++i)
        EXPECT_EQ(r1.campaign->sites[i], r2.campaign->sites[i])
            << "site " << i;
    // The false-DUE fold is recomputed per run from the shared
    // trace; equal traces must give equal folds.
    EXPECT_EQ(r1.falseDue.baseFalseDueAvf,
              r2.falseDue.baseFalseDueAvf);
    EXPECT_EQ(r1.falseDue.trueDueAvf, r2.falseDue.trueDueAvf);

    // A third lookup in the same "process" is a plain memory hit.
    auto r3 = harness::runProgram(program, cfg, "gzip");
    EXPECT_EQ(r3.cacheSim, harness::CacheOutcome::Hit);
    EXPECT_EQ(r3.trace.get(), r2.trace.get());
}

TEST_F(DiskCacheTest, DiskTierTimeHasItsOwnScopes)
{
    auto program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", 5000));
    prof::reset();
    prof::setEnabled(true);
    harness::runProgram(program, smallConfig(), "gzip");  // stores
    cache().clear();
    harness::runProgram(program, smallConfig(), "gzip");  // loads
    prof::setEnabled(false);

    std::map<std::string, std::uint64_t> calls;
    for (const prof::ScopeSample &scope : prof::snapshot().scopes)
        calls[scope.path] = scope.calls;
    prof::reset();
    for (const char *phase : {"pipeline", "deadness", "avf"}) {
        for (const char *leaf :
             {"disk_store", "disk_verify", "disk_decode"})
        {
            std::string path =
                std::string("run/") + phase + "/" + leaf;
            EXPECT_EQ(calls[path], 1u) << path;
        }
    }
}

TEST_F(DiskCacheTest, CorruptBlobFallsBackToComputeAndCounts)
{
    auto program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", 5000));
    harness::ExperimentConfig cfg = smallConfig();

    auto r1 = harness::runProgram(program, cfg, "gzip");
    ASSERT_EQ(r1.cacheSim, harness::CacheOutcome::Miss);

    // Corrupt the sim blob, restart, re-run: the integrity check
    // must reject it, count it, quarantine it, and recompute — and
    // the recomputed result must match the original.
    std::string path = onlyBlob("sim");
    ASSERT_FALSE(path.empty());
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        ASSERT_TRUE(f.good());
        // Flip a byte near the end: well inside the payload (a flip
        // in the key region reads as a bucket collision — a clean
        // miss — not as corruption).
        f.seekg(0, std::ios::end);
        std::streamoff size = f.tellg();
        char c;
        f.seekg(size - 8);
        f.get(c);
        f.seekp(size - 8);
        f.put(static_cast<char>(c ^ 0x7f));
    }
    cache().clear();

    auto r2 = harness::runProgram(program, cfg, "gzip");
    EXPECT_EQ(r2.cacheSim, harness::CacheOutcome::Miss);
    EXPECT_EQ(r2.ipc, r1.ipc);
    EXPECT_EQ(r2.statsJson, r1.statsJson);

    auto counters = cache().simCounters();
    EXPECT_EQ(counters.diskCorrupt, 1u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(countEntries(_dir + "/sim", ".quarantine"), 1);

    // The recompute re-published a good blob: another restart hits.
    cache().clear();
    auto r3 = harness::runProgram(program, cfg, "gzip");
    EXPECT_EQ(r3.cacheSim, harness::CacheOutcome::DiskHit);
}

TEST_F(DiskCacheTest, NoRunCacheNeverTouchesDisk)
{
    cache().setEnabled(false);
    auto program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", 5000));
    auto r = harness::runProgram(program, smallConfig(), "gzip");
    EXPECT_EQ(r.cacheSim, harness::CacheOutcome::Off);
    EXPECT_EQ(onlyBlob("sim"), "");
    cache().setEnabled(true);
}
