/**
 * @file
 * The persistent run-cache tier, bottom to top: the CRC-64/XZ
 * checksum (known-answer vectors, chaining, a bit-at-a-time
 * reference), the raw DiskCache blob store (roundtrip, a directory
 * made with its parents, atomicity-adjacent framing checks,
 * quarantine of corrupted and truncated blobs, stale-schema clean
 * misses, filename-bucket key comparison, every integrity check on a
 * crafted blob, payloads of more ranges than one writev takes, racing
 * stores), the cache codec (byte-canonical encodings of every
 * section's artifact type, proven by end-to-end equality and pinned
 * by payload CRCs; bulk columns borrowed by the encoders;
 * out-of-range enum bytes and static indices, duplicate labels and
 * counts that the bytes left cannot hold rejected, the last before
 * anything is sized; sim and deadness columns and program data words
 * decoded as aligned views into the buffer), and
 * the RunCache integration (disk_hit outcome, per-tier counters and
 * profiling scopes across a simulated process restart, served traces
 * outliving the blob they were read from, and a served value stored
 * into a second tier).
 *
 * A disk hit's trace and deadness columns and its program's data
 * words view the blob's mapping, and a MAP_PRIVATE mapping can see
 * writes to its file, so a test that corrupts a blob in place first
 * drops every artifact it served (the disk tier itself never rewrites
 * a blob in place).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "harness/cache_codec.hh"
#include "harness/disk_cache.hh"
#include "harness/experiment.hh"
#include "harness/run_cache.hh"
#include "sim/column.hh"
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

harness::ExperimentConfig
smallConfig()
{
    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = 5000;
    cfg.warmupInsts = 500;
    return cfg;
}

/** 'blob' in a fresh 64-byte-aligned buffer, after 'shift' bytes of
 * slack; the owner frees the buffer. */
std::shared_ptr<const void>
alignedCopy(const std::string &blob, std::size_t shift = 0)
{
    const std::size_t bytes = (blob.size() + shift + 64) / 64 * 64;
    void *buf = std::aligned_alloc(64, bytes);
    std::memcpy(static_cast<char *>(buf) + shift, blob.data(),
                blob.size());
    return std::shared_ptr<const void>(buf, std::free);
}

/** A payload's bytes as one string: the one way these tests compare
 * encodings. */
std::string
flatten(const harness::codec::Payload &payload)
{
    std::string out;
    for (std::span<const std::byte> range : payload.ranges)
        out.append(reinterpret_cast<const char *>(range.data()),
                   range.size());
    return out;
}

/** Store 'bytes' as a one-range payload. */
std::uint64_t
storeBytes(const std::string &section, const std::string &key,
           const std::string &bytes)
{
    const std::span<const std::byte> range(
        reinterpret_cast<const std::byte *>(bytes.data()), bytes.size());
    return harness::DiskCache::instance().store(section, key,
                                                {&range, 1});
}

/** A small gzip run, computed with the run cache off (so every
 * column is an adopted vector), as the bundle the sim section
 * caches. */
harness::SimProducts
computedProducts()
{
    harness::RunCache &cache = harness::RunCache::instance();
    const bool enabled = cache.enabled();
    cache.setEnabled(false);
    auto program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", 5000));
    harness::RunArtifacts r =
        harness::runProgram(program, smallConfig(), "gzip");
    cache.setEnabled(enabled);

    harness::SimProducts p;
    p.program = r.program;
    p.trace = *r.trace;
    p.ipc = r.ipc;
    p.statsDump = r.statsDump;
    p.statsJson = r.statsJson;
    p.intervals = r.intervals;
    p.poolHighWater = r.poolHighWater;
    p.cyclesSkipped = r.cyclesSkipped;
    return p;
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
// Cache codec: structurally impossible blobs, zero-copy columns

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
        std::string blob = flatten(harness::codec::encode(sample));
        faults::CampaignSample back;
        return harness::codec::decode(blob.data(), blob.size(), nullptr,
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

namespace
{

/** Decode a sim blob from an aligned copy of its bytes. */
bool
decodesSim(const harness::SimProducts &products)
{
    std::string blob = flatten(harness::codec::encode(products));
    auto buf = alignedCopy(blob);
    harness::SimProducts back;
    return harness::codec::decode(buf.get(), blob.size(), buf, &back);
}

/** 'view' reads back element for element as 'computed'. Each element
 * is read by a typed load, which UBSan's alignment check sees. */
template <typename T>
void
expectSameElements(const sim::Column<T> &view,
                   const sim::Column<T> &computed, const char *name)
{
    ASSERT_EQ(view.size(), computed.size()) << name;
    for (std::size_t i = 0; i < view.size(); ++i) {
        const T got = view[i];
        const T want = computed[i];
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(T)), 0)
            << name << " element " << i;
    }
}

/** Every bulk column of a served trace and deadness result against
 * the computed ones. */
void
expectSameColumns(const cpu::SimTrace &served,
                  const avf::DeadnessResult *served_dead,
                  const cpu::SimTrace &computed,
                  const avf::DeadnessResult *computed_dead)
{
    const cpu::IncarnationColumns &a = served.incarnations;
    const cpu::IncarnationColumns &b = computed.incarnations;
    expectSameElements(served.commits, computed.commits, "commits");
    expectSameElements(a.staticIdx, b.staticIdx, "staticIdx");
    expectSameElements(a.oracleSeq, b.oracleSeq, "oracleSeq");
    expectSameElements(a.enqueueCycle, b.enqueueCycle, "enqueueCycle");
    expectSameElements(a.issueCycle, b.issueCycle, "issueCycle");
    expectSameElements(a.evictCycle, b.evictCycle, "evictCycle");
    expectSameElements(a.iqEntry, b.iqEntry, "iqEntry");
    expectSameElements(a.flags, b.flags, "flags");
    if (served_dead) {
        expectSameElements(served_dead->kind, computed_dead->kind,
                           "kind");
        expectSameElements(served_dead->overwriteDist,
                           computed_dead->overwriteDist,
                           "overwriteDist");
    }
}

/** 'view' lies in [buf, buf+len), at an address aligned for T. */
template <typename T>
void
expectViewInside(const sim::Column<T> &view, const void *buf,
                 std::size_t len, const char *name)
{
    ASSERT_FALSE(view.empty()) << name;
    const auto lo = reinterpret_cast<std::uintptr_t>(buf);
    const auto at = reinterpret_cast<std::uintptr_t>(view.data());
    EXPECT_GE(at, lo) << name;
    EXPECT_LE(at + view.size() * sizeof(T), lo + len) << name;
    EXPECT_EQ(at % alignof(T), 0u) << name;
}

} // namespace

TEST(SimCodec, OutOfRangeStaticIndexFailsDecode)
{
    // One commit and one incarnation, both naming the program's
    // last instruction.
    harness::SimProducts good;
    good.program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", 1000));
    const std::uint32_t last =
        static_cast<std::uint32_t>(good.program->size() - 1);
    auto withIndices = [&](std::uint32_t commit_idx,
                           std::uint32_t inc_idx) {
        harness::SimProducts p = good;
        p.trace.commits =
            std::vector<cpu::CommitRecord>{{commit_idx, 1, 0}};
        cpu::IncarnationLog incs;
        incs.push_back({inc_idx, 0, 1, 2, 3, 0, 0});
        p.trace.incarnations = std::move(incs);
        return p;
    };
    ASSERT_TRUE(decodesSim(withIndices(last, last)));

    // Each index column in turn names one past the last instruction,
    // which the AVF fold, the classifier and attribution would read
    // (or write) past their per-instruction tables.
    EXPECT_FALSE(decodesSim(withIndices(last + 1, last)));
    EXPECT_FALSE(decodesSim(withIndices(last, last + 1)));
}

TEST(SimCodec, ColumnsViewTheAlignedBuffer)
{
    const harness::SimProducts computed = computedProducts();
    const std::string blob = flatten(harness::codec::encode(computed));
    auto buf = alignedCopy(blob);
    const void *lo = buf.get();

    harness::SimProducts back;
    ASSERT_TRUE(harness::codec::decode(lo, blob.size(), buf, &back));
    const cpu::IncarnationColumns &inc = back.trace.incarnations;
    const std::size_t n = blob.size();
    expectViewInside(back.trace.commits, lo, n, "commits");
    expectViewInside(inc.staticIdx, lo, n, "staticIdx");
    expectViewInside(inc.oracleSeq, lo, n, "oracleSeq");
    expectViewInside(inc.enqueueCycle, lo, n, "enqueueCycle");
    expectViewInside(inc.issueCycle, lo, n, "issueCycle");
    expectViewInside(inc.evictCycle, lo, n, "evictCycle");
    expectViewInside(inc.iqEntry, lo, n, "iqEntry");
    expectViewInside(inc.flags, lo, n, "flags");
    expectViewInside(back.program->dataInits(), lo, n, "dataInits");

    // The views hold the buffer: they outlive the test's handle.
    buf.reset();
    expectSameColumns(back.trace, nullptr, computed.trace, nullptr);
    EXPECT_EQ(flatten(harness::codec::encode(back)), blob);

    // A buffer one byte off alignment fails the decode rather than
    // handing out misaligned views.
    auto skewed = alignedCopy(blob, 1);
    harness::SimProducts rejected;
    EXPECT_FALSE(harness::codec::decode(
        static_cast<const char *>(skewed.get()) + 1, blob.size(),
        skewed, &rejected));
}

TEST(DeadnessCodec, ColumnsViewTheAlignedBuffer)
{
    const harness::SimProducts computed = computedProducts();
    const avf::DeadnessResult dead = avf::analyzeDeadness(computed.trace);
    ASSERT_GT(dead.numDead(), 0u);
    const std::string blob = flatten(harness::codec::encode(dead));
    auto buf = alignedCopy(blob);
    const void *lo = buf.get();

    avf::DeadnessResult back;
    ASSERT_TRUE(harness::codec::decode(lo, blob.size(), buf, &back));
    expectViewInside(back.kind, lo, blob.size(), "kind");
    expectViewInside(back.overwriteDist, lo, blob.size(),
                     "overwriteDist");
    expectViewInside(back.returnFddWords, lo, blob.size(),
                     "returnFddWords");
    buf.reset();
    expectSameElements(back.kind, dead.kind, "kind");
    expectSameElements(back.overwriteDist, dead.overwriteDist,
                       "overwriteDist");
    expectSameElements(back.returnFddWords, dead.returnFddWords,
                       "returnFddWords");
    EXPECT_EQ(flatten(harness::codec::encode(back)), blob);
}

TEST(AvfCodec, ColumnsViewTheAlignedBuffer)
{
    const harness::SimProducts computed = computedProducts();
    const avf::AvfResult avf = avf::computeAvf(
        computed.trace, avf::analyzeDeadness(computed.trace), 500);
    const std::string blob = flatten(harness::codec::encode(avf));
    auto buf = alignedCopy(blob);
    const void *lo = buf.get();

    avf::AvfResult back;
    ASSERT_TRUE(harness::codec::decode(lo, blob.size(), buf, &back));
    expectViewInside(back.fddBitCycles, lo, blob.size(),
                     "fddBitCycles");
    expectViewInside(back.fddOverwriteDist, lo, blob.size(),
                     "fddOverwriteDist");
    expectViewInside(back.epochs, lo, blob.size(), "epochs");
    buf.reset();
    expectSameElements(back.fddBitCycles, avf.fddBitCycles,
                       "fddBitCycles");
    expectSameElements(back.fddOverwriteDist, avf.fddOverwriteDist,
                       "fddOverwriteDist");
    expectSameElements(back.epochs, avf.epochs, "epochs");
    EXPECT_EQ(flatten(harness::codec::encode(back)), blob);

    // Four bytes off alignment still suits the u32 column, but not
    // the u64 bit-cycles: the decode fails.
    auto skewed = alignedCopy(blob, 4);
    avf::AvfResult rejected;
    EXPECT_FALSE(harness::codec::decode(
        static_cast<const char *>(skewed.get()) + 4, blob.size(),
        skewed, &rejected));
}

namespace
{

/** A hand-built sim bundle: every field set, every column non-empty
 * (three instructions, two labels, three data words). */
harness::SimProducts
handBuiltSim()
{
    harness::SimProducts p;
    p.program = std::make_shared<const isa::Program>(
        std::vector<isa::StaticInst>{
            {isa::Opcode::Addi, 0, 1, 2, 0, 7},
            {isa::Opcode::Out, 0, 0, 1, 0, 0},
            {isa::Opcode::Halt, 0, 0, 0, 0, 0}},
        std::map<std::string, std::size_t>{{"main", 0}, {"done", 2}},
        0,
        std::vector<isa::DataInit>{
            {0x1000, 11}, {0x1008, 22}, {0x2000, 33}});
    p.trace.program = p.program.get();
    p.trace.commits = std::vector<cpu::CommitRecord>{
        {0, 1, 0}, {1, 1, 0x1008}, {2, 0, 0}};
    cpu::IncarnationLog incs;
    incs.push_back({0, 0, 1, 2, 3, 4, 1});
    incs.push_back({1, 1, 2, 5, 6, 7, 0});
    p.trace.incarnations = std::move(incs);
    p.trace.startCycle = 1;
    p.trace.endCycle = 9;
    p.trace.committedInsts = 3;
    p.trace.programHalted = true;
    p.trace.iqEntries = 32;
    p.ipc = 0.375;
    p.statsDump = "cycles 8\n";
    p.statsJson = "{\"cycles\":8}";
    cpu::IntervalSample sample;
    sample.startCycle = 1;
    sample.endCycle = 9;
    sample.committed = 3;
    sample.fetched = 4;
    sample.mispredicts = 1;
    sample.triggerSquashes = 2;
    sample.triggerSquashedInsts = 5;
    sample.iqValidEntryCycles = 12;
    sample.iqWaitingEntryCycles = 6;
    p.intervals = std::vector<cpu::IntervalSample>{sample};
    p.poolHighWater = 5;
    p.cyclesSkipped = 2;
    return p;
}

/** 70 commits, so returnFdd spans two bit words. */
avf::DeadnessResult
handBuiltDeadness()
{
    std::vector<avf::DeadKind> kind;
    std::vector<std::uint32_t> dist;
    std::vector<std::uint64_t> returnFdd(2, 0);
    avf::DeadnessResult d;
    for (std::uint32_t i = 0; i < 70; ++i) {
        kind.push_back(static_cast<avf::DeadKind>(i % 5));
        dist.push_back(i * 3);
        if (i % 3 == 0)
            returnFdd[i / 64] |= 1ull << (i % 64);
    }
    d.kind = std::move(kind);
    d.overwriteDist = std::move(dist);
    d.returnFddWords = std::move(returnFdd);
    d.numInsts = 70;
    d.numDefs = 56;
    d.numFddReg = 14;
    d.numTddReg = 14;
    d.numFddMem = 14;
    d.numTddMem = 14;
    d.numReturnFdd = 5;
    return d;
}

avf::AvfResult
handBuiltAvf()
{
    avf::AvfResult a;
    a.windowCycles = 100;
    a.totalBitCycles = 6400;
    a.idle = 10;
    a.exAce = 20;
    a.squashedUnread = 30;
    a.ace = 40;
    a.aceRefined = 35;
    for (int s = 0; s < avf::numUnAceSources; ++s)
        a.unAceRead[s] = static_cast<std::uint64_t>(s + 1);
    a.fddBitCycles = std::vector<std::uint64_t>{5, 7};
    a.fddOverwriteDist = std::vector<std::uint32_t>{2, 3};
    a.epochs = std::vector<avf::EpochAce>{{0, 50, 100, 60, 10},
                                          {50, 50, 90, 50, 12}};
    return a;
}

faults::CampaignSample
handBuiltCampaign()
{
    faults::CampaignSample c;
    c.structures = {{faults::Structure::Iq, 204800, 0.25, 0.5},
                    {faults::Structure::IntRegFile, 4096, 0.125, 0.0625}};
    c.goldenSteps = 1234;
    c.checkpoints = 17;
    faults::SampledSite iq;
    iq.site = {3, 41, 77, faults::Structure::Iq};
    iq.verdict.residency = 5;
    iq.verdict.inst = 2;
    iq.verdict.rerunSteps = 99;
    iq.verdict.role = faults::BitRole::Pi;
    iq.verdict.readAfter = true;
    iq.verdict.committed = true;
    iq.verdict.reRan = true;
    iq.verdict.outputChanged = true;
    faults::SampledSite reg;
    reg.site = {9, 63, 80, faults::Structure::IntRegFile};
    reg.verdict.wrongPath = true;
    c.sites = {iq, reg};
    c.aceShares = {{2, 0.75}, {7, 0.25}};
    return c;
}

} // namespace

TEST(DeadnessCodec, ReturnFddBitsCrossAWordBoundary)
{
    // Every third of the 70 commits, so commits 66 and 69 sit in the
    // second word.
    const std::string blob =
        flatten(harness::codec::encode(handBuiltDeadness()));
    auto buf = alignedCopy(blob);
    avf::DeadnessResult back;
    ASSERT_TRUE(harness::codec::decode(buf.get(), blob.size(), buf,
                                       &back));
    ASSERT_EQ(back.returnFddWords.size(), 2u);
    for (std::size_t i = 0; i < 70; ++i)
        EXPECT_EQ(back.returnFdd(i), i % 3 == 0) << "commit " << i;
}

TEST(SimCodec, CountsTheBytesLeftCannotHoldFailDecode)
{
    // The instruction count leads the payload, and the label count
    // sits just before the first label's name length and name
    // ("done"). Each in turn claims 100M elements: at 8 bytes per
    // instruction word and 16 per label, far more than follow.
    const std::string blob =
        flatten(harness::codec::encode(handBuiltSim()));
    const std::size_t labelsAt = blob.find("done") - 16;
    std::uint64_t labels = 0;
    std::memcpy(&labels, blob.data() + labelsAt, 8);
    ASSERT_EQ(labels, 2u);
    for (std::size_t at : {std::size_t{0}, labelsAt}) {
        std::string bytes = blob;
        const std::uint64_t huge = 100'000'000;
        std::memcpy(bytes.data() + at, &huge, 8);
        auto buf = alignedCopy(bytes);
        harness::SimProducts back;
        EXPECT_FALSE(harness::codec::decode(buf.get(), bytes.size(), buf,
                                            &back))
            << "count at " << at;
    }
}

TEST(CampaignCodec, CountsTheBytesLeftCannotHoldFailUnallocated)
{
    // Each of the three counts in turn claims 100M elements of a
    // payload that ends just after it: structures take 25 bytes at
    // least, sites 38 and shares 12. The decode fails before it
    // sizes any vector from the count.
    constexpr std::uint64_t huge = 100'000'000;
    // structures, golden steps, checkpoints, sites, shares
    const std::vector<std::vector<std::uint64_t>> payloads = {
        {huge, 0, 0, 0}, {0, 0, 0, huge}, {0, 0, 0, 0, huge}};
    for (const std::vector<std::uint64_t> &words : payloads) {
        faults::CampaignSample back;
        EXPECT_FALSE(harness::codec::decode(
            words.data(), words.size() * 8, nullptr, &back));
        EXPECT_EQ(back.structures.capacity(), 0u);
        EXPECT_EQ(back.sites.capacity(), 0u);
        EXPECT_EQ(back.aceShares.capacity(), 0u);
    }
}

TEST(CodecPins, PayloadCrcsMatchTheStringEncoder)
{
    // The sim and campaign pins were printed by the encoder that
    // built each payload as one string before the gather encoder
    // replaced it: equal CRCs mean equal bytes, so tiers filled by
    // either build serve the other. The deadness and AVF pins are
    // cache schema 7's, which made every bulk array a column.
    auto crc = [](const harness::codec::Payload &payload) {
        const std::string bytes = flatten(payload);
        return crc64(0, bytes.data(), bytes.size());
    };
    EXPECT_EQ(crc(harness::codec::encode(handBuiltSim())),
              0x4d883a0da0f96f06ull);
    EXPECT_EQ(crc(harness::codec::encode(handBuiltDeadness())),
              0xcecf50c37fce8a6dull);
    EXPECT_EQ(crc(harness::codec::encode(handBuiltAvf())),
              0xa8a76b90a3c77f4eull);
    EXPECT_EQ(crc(harness::codec::encode(handBuiltCampaign())),
              0x664cce1e7191f1d5ull);
}

namespace
{

/** Each column is a range of 'payload' over the value itself, and
 * the owned buffer holds every other byte. */
template <typename... Columns>
void
expectBorrowed(const harness::codec::Payload &payload,
               const Columns &...columns)
{
    std::size_t columnBytes = 0;
    auto borrowed = [&](const auto &column) {
        using T = typename std::decay_t<decltype(column)>::value_type;
        columnBytes += column.size() * sizeof(T);
        for (std::span<const std::byte> range : payload.ranges) {
            if (range.data() ==
                    reinterpret_cast<const std::byte *>(column.data()) &&
                range.size() == column.size() * sizeof(T))
                return true;
        }
        return false;
    };
    const bool found[] = {borrowed(columns)...};
    for (std::size_t i = 0; i < sizeof...(columns); ++i)
        EXPECT_TRUE(found[i]) << "column " << i;
    EXPECT_EQ(payload.owned.size() + columnBytes,
              flatten(payload).size());
}

} // namespace

TEST(CodecPins, BulkColumnsAreBorrowedNotCopied)
{
    const harness::SimProducts sim = handBuiltSim();
    const cpu::IncarnationColumns &inc = sim.trace.incarnations;
    expectBorrowed(harness::codec::encode(sim),
                   sim.program->dataInits(), sim.trace.commits,
                   inc.staticIdx, inc.oracleSeq, inc.enqueueCycle,
                   inc.issueCycle, inc.evictCycle, inc.iqEntry,
                   inc.flags, sim.intervals);
    const avf::DeadnessResult dead = handBuiltDeadness();
    expectBorrowed(harness::codec::encode(dead), dead.kind,
                   dead.overwriteDist, dead.returnFddWords);
    const avf::AvfResult avf = handBuiltAvf();
    expectBorrowed(harness::codec::encode(avf), avf.fddBitCycles,
                   avf.fddOverwriteDist, avf.epochs);
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
        section, key,
        [&](const void *data, std::size_t len,
            const std::shared_ptr<const void> &) {
            payload->assign(static_cast<const char *>(data), len);
            return true;
        });
}

} // namespace

TEST_F(DiskCacheTest, StoreLoadRoundtrip)
{
    std::string payload = "the payload bytes \x01\x02\x00 end";
    payload.push_back('\0');
    std::uint64_t written = storeBytes("test", "key-A", payload);
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
    EXPECT_EQ(storeBytes("test", "k", "v"), 0u);
    std::string got;
    EXPECT_EQ(loadPayload("test", "k", &got).status,
              harness::DiskCache::LoadStatus::Disabled);
}

TEST_F(DiskCacheTest, DirectoryIsMadeWithItsParents)
{
    const std::string nested = _dir + "/nest/a/b";
    ASSERT_TRUE(disk().setDirectory(nested, harness::codec::kSchemaVersion));
    ASSERT_GT(storeBytes("test", "k", "nested payload"), 0u);
    std::string got;
    EXPECT_EQ(loadPayload("test", "k", &got).status,
              harness::DiskCache::LoadStatus::Ok);
    EXPECT_EQ(got, "nested payload");

    // A regular file can hold no blobs: refused, and the tier is off.
    const std::string file = _dir + "/plain";
    std::ofstream(file) << "not a directory";
    EXPECT_FALSE(disk().setDirectory(file, harness::codec::kSchemaVersion));
    EXPECT_FALSE(disk().enabled());
}

TEST_F(DiskCacheTest, BucketCollisionWithDifferentKeyIsCleanMiss)
{
    // Simulate a CRC64 filename collision: copy key-A's blob to the
    // path key-B hashes to. The stored key bytes say "key-A", so a
    // load for key-B must answer NoEntry — never key-A's payload.
    ASSERT_GT(storeBytes("test", "key-A", "payload-A"), 0u);
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
    ASSERT_GT(storeBytes("test", "key-A", std::string(1000, 'x')), 0u);
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
    ASSERT_GT(storeBytes("test", "key-A", std::string(1000, 'y')), 0u);
    std::string path = disk().blobPath("test", "key-A");
    ASSERT_EQ(::truncate(path.c_str(), 200), 0);

    std::string got;
    EXPECT_EQ(loadPayload("test", "key-A", &got).status,
              harness::DiskCache::LoadStatus::Corrupt);
    EXPECT_EQ(countEntries(_dir + "/test", ".quarantine"), 1);
}

TEST_F(DiskCacheTest, RejectedDecodeQuarantines)
{
    ASSERT_GT(storeBytes("test", "key-A", "valid bytes"), 0u);
    // The framing and CRC are intact; the decoder still rejects —
    // exactly what a schema-compatible but semantically bad payload
    // (e.g. an out-of-range enum) looks like.
    auto result = disk().load(
        "test", "key-A",
        [](const void *, std::size_t,
           const std::shared_ptr<const void> &) { return false; });
    EXPECT_EQ(result.status,
              harness::DiskCache::LoadStatus::Corrupt);
    EXPECT_EQ(countEntries(_dir + "/test", ".quarantine"), 1);
}

TEST_F(DiskCacheTest, StaleSchemaVersionIsCleanMiss)
{
    ASSERT_GT(storeBytes("test", "key-A", "old payload"), 0u);
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
    ASSERT_GT(storeBytes("test", "key-A", "new payload"), 0u);
    EXPECT_EQ(loadPayload("test", "key-A", &got).status,
              harness::DiskCache::LoadStatus::Ok);
    EXPECT_EQ(got, "new payload");
}

TEST_F(DiskCacheTest, LastWriteWinsOnOverwrite)
{
    ASSERT_GT(storeBytes("test", "k", "first"), 0u);
    ASSERT_GT(storeBytes("test", "k", "second"), 0u);
    std::string got;
    EXPECT_EQ(loadPayload("test", "k", &got).status,
              harness::DiskCache::LoadStatus::Ok);
    EXPECT_EQ(got, "second");
    // No temp files left behind.
    EXPECT_EQ(countEntries(_dir + "/test", ".blob"), 1);
}

TEST_F(DiskCacheTest, MoreRangesThanIovMaxStoreIntact)
{
    // Three full writev batches and a partial one, each range its own
    // buffer of 1 to 7 bytes.
    std::vector<std::string> pieces;
    std::string whole;
    for (int i = 0; i < 3 * IOV_MAX + 5; ++i) {
        pieces.emplace_back(static_cast<std::size_t>(i % 7 + 1),
                            static_cast<char>('a' + i % 26));
        whole += pieces.back();
    }
    std::vector<std::span<const std::byte>> ranges;
    for (const std::string &piece : pieces)
        ranges.emplace_back(
            reinterpret_cast<const std::byte *>(piece.data()),
            piece.size());
    const std::uint64_t written = disk().store("test", "many", ranges);
    // 32-byte header, the 4-byte key and padding to offset 64.
    EXPECT_EQ(written, 64 + whole.size());

    std::string got;
    auto result = loadPayload("test", "many", &got);
    EXPECT_EQ(result.status, harness::DiskCache::LoadStatus::Ok);
    EXPECT_EQ(got, whole);
    struct stat st;
    ASSERT_EQ(::stat(disk().blobPath("test", "many").c_str(), &st), 0);
    EXPECT_EQ(static_cast<std::uint64_t>(st.st_size), written);
}

TEST_F(DiskCacheTest, RacingStoresKeepEveryBlobWhole)
{
    // Four threads at once, each storing its own key and one shared
    // key, several times over: each own key holds its thread's bytes,
    // the shared key one thread's bytes whole, and no temp file is
    // left behind.
    constexpr int kThreads = 4;
    constexpr int kRounds = 8;
    std::vector<std::string> payloads;
    for (int t = 0; t < kThreads; ++t) {
        std::vector<unsigned char> bytes = splitmixBytes(200000, t);
        payloads.emplace_back(bytes.begin(), bytes.end());
    }
    // Three ranges per payload, split off its alignment.
    auto rangesOf = [](const std::string &payload) {
        const auto *p = reinterpret_cast<const std::byte *>(payload.data());
        return std::vector<std::span<const std::byte>>{
            {p, 1000}, {p + 1000, 99001}, {p + 100001, 99999}};
    };
    std::vector<std::uint64_t> written(kThreads * kRounds * 2);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const auto ranges = rangesOf(payloads[t]);
            const std::string own = "own-" + std::to_string(t);
            start.arrive_and_wait();
            for (int r = 0; r < kRounds; ++r) {
                written[(t * kRounds + r) * 2] =
                    disk().store("race", own, ranges);
                written[(t * kRounds + r) * 2 + 1] =
                    disk().store("race", "shared", ranges);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (std::uint64_t bytes : written)
        EXPECT_GT(bytes, 200000u);
    std::string got;
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(loadPayload("race", "own-" + std::to_string(t), &got)
                      .status,
                  harness::DiskCache::LoadStatus::Ok);
        EXPECT_EQ(got, payloads[t]) << "own-" << t;
    }
    ASSERT_EQ(loadPayload("race", "shared", &got).status,
              harness::DiskCache::LoadStatus::Ok);
    EXPECT_NE(std::find(payloads.begin(), payloads.end(), got),
              payloads.end());
    EXPECT_EQ(countEntries(_dir + "/race", ".blob"), kThreads + 1);
    EXPECT_EQ(countEntries(_dir + "/race", ""), kThreads + 1 + 2)
        << "a temp file is left (the 2 are . and ..)";
}

namespace
{

/** Load (section, key) through that section's real decoder. */
harness::DiskCache::LoadStatus
loadThroughCodec(const std::string &section, const std::string &key)
{
    harness::SimProducts sim;
    avf::DeadnessResult dead;
    avf::AvfResult avf;
    return harness::DiskCache::instance()
        .load(section, key,
              [&](const void *data, std::size_t len,
                  const std::shared_ptr<const void> &owner) {
                  if (section == "sim")
                      return harness::codec::decode(data, len, owner,
                                                    &sim);
                  if (section == "deadness")
                      return harness::codec::decode(data, len, owner,
                                                    &dead);
                  return harness::codec::decode(data, len, owner, &avf);
              })
        .status;
}

/** XOR one byte of a file, in place. */
void
flipByte(const std::string &path, std::streamoff offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    char c;
    f.seekg(offset);
    f.get(c);
    f.seekp(offset);
    f.put(static_cast<char>(c ^ 0x20));
}

/** A copy of a column's elements, to edit before re-adopting. */
template <typename T>
std::vector<T>
copyOf(const sim::Column<T> &column)
{
    return std::vector<T>(column.begin(), column.end());
}

} // namespace

TEST_F(DiskCacheTest, EveryCheckQuarantinesACraftedBlob)
{
    using Status = harness::DiskCache::LoadStatus;
    const harness::SimProducts good = computedProducts();
    const avf::DeadnessResult goodDead =
        avf::analyzeDeadness(good.trace);
    const std::string goodSim = flatten(harness::codec::encode(good));

    auto quarantined = [&](const std::string &section,
                           const std::string &key) {
        std::string path = disk().blobPath(section, key);
        struct stat st;
        return ::stat(path.c_str(), &st) != 0 &&
               ::stat((path + ".quarantine").c_str(), &st) == 0;
    };

    // Container checks: each case edits one byte of a good blob's
    // file. No view of these blobs exists yet.
    auto edited = [&](const std::string &key, std::streamoff offset) {
        EXPECT_GT(storeBytes("sim", key, goodSim), 0u);
        if (offset >= 0)
            flipByte(disk().blobPath("sim", key), offset);
        return loadThroughCodec("sim", key);
    };
    ASSERT_EQ(edited("intact", -1), Status::Ok);
    EXPECT_EQ(edited("magic", 0), Status::Corrupt);
    EXPECT_TRUE(quarantined("sim", "magic"));
    // A version mismatch is a clean miss: the blob is not damaged,
    // only from another build, so it stays where it is.
    EXPECT_EQ(edited("format", 4), Status::Stale);
    EXPECT_EQ(edited("schema", 8), Status::Stale);
    EXPECT_FALSE(quarantined("sim", "format"));
    EXPECT_FALSE(quarantined("sim", "schema"));
    // Framing: a payload length the file size disagrees with.
    EXPECT_EQ(edited("length", 16), Status::Corrupt);
    EXPECT_TRUE(quarantined("sim", "length"));
    // The CRC covers every byte after the header: the zero padding
    // between the key and the aligned payload (the key "pad" ends at
    // offset 35) and the payload itself.
    EXPECT_EQ(edited("pad", 40), Status::Corrupt);
    EXPECT_TRUE(quarantined("sim", "pad"));
    EXPECT_EQ(edited("payload", 64 + 8), Status::Corrupt);
    EXPECT_TRUE(quarantined("sim", "payload"));

    // Codec checks: crafted payloads under a valid CRC.
    auto crafted = [&](const std::string &section,
                       const std::string &key,
                       const std::string &payload) {
        EXPECT_GT(storeBytes(section, key, payload), 0u);
        Status status = loadThroughCodec(section, key);
        EXPECT_TRUE(status == Status::Ok || quarantined(section, key))
            << key;
        return status;
    };
    const std::uint32_t past =
        static_cast<std::uint32_t>(good.program->size());
    auto simWith = [&](auto edit) {
        harness::SimProducts p = good;
        edit(p.trace);
        return flatten(harness::codec::encode(p));
    };
    EXPECT_EQ(crafted("sim", "commit-index", simWith([&](auto &t) {
                  auto commits = copyOf(t.commits);
                  commits.back().staticIdx = past;
                  t.commits = std::move(commits);
              })),
              Status::Corrupt);
    EXPECT_EQ(crafted("sim", "inc-index", simWith([&](auto &t) {
                  auto idx = copyOf(t.incarnations.staticIdx);
                  idx.back() = past;
                  t.incarnations.staticIdx = std::move(idx);
              })),
              Status::Corrupt);
    EXPECT_EQ(crafted("sim", "inc-lengths", simWith([&](auto &t) {
                  auto entries = copyOf(t.incarnations.iqEntry);
                  entries.pop_back();
                  t.incarnations.iqEntry = std::move(entries);
              })),
              Status::Corrupt);

    // The program: a label named twice (a map cannot hold one, so
    // rename "dup1" to "dup0" in the bytes) and a data column whose
    // count runs past the payload's end.
    harness::SimProducts dup = good;
    auto labels = good.program->labels();
    labels.emplace("dup0", 0);
    labels.emplace("dup1", 0);
    dup.program = std::make_shared<const isa::Program>(
        good.program->instructions(), std::move(labels),
        good.program->entry(), good.program->dataInits());
    std::string dupSim = flatten(harness::codec::encode(dup));
    const std::size_t dupAt = dupSim.find("dup1");
    ASSERT_NE(dupAt, std::string::npos);
    ASSERT_EQ(dupSim.rfind("dup1"), dupAt);
    dupSim[dupAt + 3] = '0';
    EXPECT_EQ(crafted("sim", "dup-label", dupSim), Status::Corrupt);

    // The data count follows the instruction count, the instruction
    // words and the entry.
    std::string shortData = goodSim;
    const std::size_t countAt = 16 + 8 * good.program->size();
    std::uint64_t words = 0;
    std::memcpy(&words, shortData.data() + countAt, 8);
    ASSERT_EQ(words, good.program->dataInits().size());
    words = shortData.size() / sizeof(isa::DataInit) + 1;
    std::memcpy(shortData.data() + countAt, &words, 8);
    EXPECT_EQ(crafted("sim", "data-short", shortData), Status::Corrupt);

    auto deadWith = [&](auto edit) {
        avf::DeadnessResult d = goodDead;
        edit(d);
        return flatten(harness::codec::encode(d));
    };
    ASSERT_EQ(crafted("deadness", "intact",
                      deadWith([](avf::DeadnessResult &) {})),
              Status::Ok);
    EXPECT_EQ(crafted("deadness", "kind-range",
                      deadWith([](avf::DeadnessResult &d) {
                          auto kind = copyOf(d.kind);
                          kind.back() = static_cast<avf::DeadKind>(
                              static_cast<int>(avf::DeadKind::TddMem) +
                              1);
                          d.kind = std::move(kind);
                      })),
              Status::Corrupt);
    EXPECT_EQ(crafted("deadness", "dead-lengths",
                      deadWith([](avf::DeadnessResult &d) {
                          auto dist = copyOf(d.overwriteDist);
                          dist.pop_back();
                          d.overwriteDist = std::move(dist);
                      })),
              Status::Corrupt);
    // returnFdd holds ceil(commits / 64) words, no more.
    EXPECT_EQ(crafted("deadness", "return-words",
                      deadWith([](avf::DeadnessResult &d) {
                          auto words = copyOf(d.returnFddWords);
                          words.push_back(0);
                          d.returnFddWords = std::move(words);
                      })),
              Status::Corrupt);

    const avf::AvfResult goodAvf = avf::computeAvf(good.trace, goodDead);
    ASSERT_FALSE(goodAvf.fddBitCycles.empty());
    auto avfWith = [&](auto edit) {
        avf::AvfResult a = goodAvf;
        edit(a);
        return flatten(harness::codec::encode(a));
    };
    ASSERT_EQ(crafted("avf", "intact", avfWith([](avf::AvfResult &) {})),
              Status::Ok);
    EXPECT_EQ(crafted("avf", "exposure-lengths",
                      avfWith([](avf::AvfResult &a) {
                          auto dist = copyOf(a.fddOverwriteDist);
                          dist.pop_back();
                          a.fddOverwriteDist = std::move(dist);
                      })),
              Status::Corrupt);
    // The bit-cycles column written straight after its count, off
    // the 64-byte grid: its count follows the 14 u64 totals, and 8
    // zero bytes pad it to offset 128.
    std::string unpadded = avfWith([](avf::AvfResult &) {});
    std::uint64_t exposures = 0;
    std::memcpy(&exposures, unpadded.data() + 14 * 8, 8);
    ASSERT_EQ(exposures, goodAvf.fddBitCycles.size());
    ASSERT_EQ(unpadded.substr(15 * 8, 8), std::string(8, '\0'));
    unpadded.erase(15 * 8, 8);
    EXPECT_EQ(crafted("avf", "misaligned-exposures", unpadded),
              Status::Corrupt);
}

// ---------------------------------------------------------------
// RunCache integration: the disk tier across a simulated process
// restart (clear() empties the in-process map exactly like a new
// process, while the blob directory persists).

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
    EXPECT_EQ(flatten(harness::codec::encode(*r1.deadness)),
              flatten(harness::codec::encode(*r2.deadness)));
    EXPECT_EQ(flatten(harness::codec::encode(*r1.avf)),
              flatten(harness::codec::encode(*r2.avf)));
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

TEST_F(DiskCacheTest, ServedArtifactsOutliveTheirBlob)
{
    const harness::SimProducts computed = computedProducts();
    const avf::DeadnessResult dead = avf::analyzeDeadness(computed.trace);
    const avf::AvfResult avf = avf::computeAvf(computed.trace, dead, 500);
    const std::string simBlob = flatten(harness::codec::encode(computed));
    const std::string deadBlob = flatten(harness::codec::encode(dead));
    const std::string avfBlob = flatten(harness::codec::encode(avf));
    const std::string deadKey = "served|deadness=";
    const std::string avfKey = "served|avf";

    // Publish all three, "restart", and take them back from disk.
    cache().getSim("served", [&] { return computed; });
    cache().getDeadness(deadKey, [&] { return dead; });
    cache().getAvf(avfKey, [&] { return avf; });
    cache().clear();
    harness::CacheOutcome simOut{}, deadOut{}, avfOut{};
    auto sim = cache().getSim(
        "served",
        [&] {
            ADD_FAILURE() << "sim recomputed";
            return computed;
        },
        &simOut);
    auto served = cache().getDeadness(
        deadKey,
        [&] {
            ADD_FAILURE() << "deadness recomputed";
            return dead;
        },
        &deadOut);
    auto servedAvf = cache().getAvf(
        avfKey,
        [&] {
            ADD_FAILURE() << "avf recomputed";
            return avf;
        },
        &avfOut);
    ASSERT_EQ(simOut, harness::CacheOutcome::DiskHit);
    ASSERT_EQ(deadOut, harness::CacheOutcome::DiskHit);
    ASSERT_EQ(avfOut, harness::CacheOutcome::DiskHit);
    cache().clear();  // only this test's handles hold the views now

    // Re-encoding reads every byte of every view, and the column
    // compare reads every element as its type.
    auto unchanged = [&](const char *when) {
        SCOPED_TRACE(when);
        EXPECT_EQ(flatten(harness::codec::encode(*sim)), simBlob);
        EXPECT_EQ(flatten(harness::codec::encode(*served)), deadBlob);
        EXPECT_EQ(flatten(harness::codec::encode(*servedAvf)), avfBlob);
        expectSameColumns(sim->trace, served.get(), computed.trace,
                          &dead);
        expectSameElements(served->returnFddWords, dead.returnFddWords,
                           "returnFddWords");
        expectSameElements(sim->program->dataInits(),
                           computed.program->dataInits(), "dataInits");
        expectSameElements(servedAvf->fddBitCycles, avf.fddBitCycles,
                           "fddBitCycles");
        expectSameElements(servedAvf->fddOverwriteDist,
                           avf.fddOverwriteDist, "fddOverwriteDist");
        expectSameElements(servedAvf->epochs, avf.epochs, "epochs");
    };
    unchanged("as served");

    // store() replaces a blob by rename, never in place, so the
    // views keep reading the bytes they were verified from.
    ASSERT_GT(storeBytes("sim", "served", "replacement"), 0u);
    ASSERT_GT(storeBytes("deadness", deadKey, "replacement"), 0u);
    ASSERT_GT(storeBytes("avf", avfKey, "replacement"), 0u);
    unchanged("after store() replaced the blobs");

    std::string cmd = "rm -rf '" + _dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    unchanged("after the cache directory was removed");
    // The served program's data image is first built now, from the
    // viewed words.
    EXPECT_TRUE(sim->program->dataImage().equals(
        computed.program->dataImage()));
}

TEST_F(DiskCacheTest, ServedValueStoresIntoASecondTier)
{
    const harness::SimProducts computed = computedProducts();
    const avf::DeadnessResult dead = avf::analyzeDeadness(computed.trace);
    ASSERT_GT(disk().store("sim", "k",
                           harness::codec::encode(computed).ranges),
              0u);
    ASSERT_GT(disk().store("deadness", "k",
                           harness::codec::encode(dead).ranges),
              0u);
    const avf::AvfResult avf = avf::computeAvf(computed.trace, dead, 500);
    ASSERT_GT(disk().store("avf", "k", harness::codec::encode(avf).ranges),
              0u);

    // Load all three from the current tier; every column of the
    // served values views that tier's mapping.
    auto serve = [&](harness::SimProducts *sim,
                     avf::DeadnessResult *served,
                     avf::AvfResult *servedAvf) {
        const void *at = nullptr;
        std::size_t len = 0;
        // Load one section through 'decode', noting where it lies.
        auto load = [&](const char *section, auto decode) {
            auto status =
                disk()
                    .load(section, "k",
                          [&](const void *data, std::size_t n,
                              const std::shared_ptr<const void> &owner) {
                              at = data;
                              len = n;
                              return decode(data, n, owner);
                          })
                    .status;
            ASSERT_EQ(status, harness::DiskCache::LoadStatus::Ok)
                << section;
        };
        load("sim", [&](const void *data, std::size_t n,
                        const std::shared_ptr<const void> &owner) {
            return harness::codec::decode(data, n, owner, sim);
        });
        const cpu::IncarnationColumns &inc = sim->trace.incarnations;
        expectViewInside(sim->trace.commits, at, len, "commits");
        expectViewInside(inc.staticIdx, at, len, "staticIdx");
        expectViewInside(inc.flags, at, len, "flags");
        expectViewInside(sim->program->dataInits(), at, len, "dataInits");
        load("deadness", [&](const void *data, std::size_t n,
                             const std::shared_ptr<const void> &owner) {
            return harness::codec::decode(data, n, owner, served);
        });
        expectViewInside(served->kind, at, len, "kind");
        expectViewInside(served->overwriteDist, at, len, "overwriteDist");
        expectViewInside(served->returnFddWords, at, len,
                         "returnFddWords");
        load("avf", [&](const void *data, std::size_t n,
                        const std::shared_ptr<const void> &owner) {
            return harness::codec::decode(data, n, owner, servedAvf);
        });
        expectViewInside(servedAvf->fddBitCycles, at, len, "fddBitCycles");
        expectViewInside(servedAvf->fddOverwriteDist, at, len,
                         "fddOverwriteDist");
        expectViewInside(servedAvf->epochs, at, len, "epochs");
    };
    harness::SimProducts first;
    avf::DeadnessResult firstDead;
    avf::AvfResult firstAvf;
    serve(&first, &firstDead, &firstAvf);

    // Store the served values, whose borrowed columns lie in the first
    // tier's mapping, into a second tier, and serve them from there.
    disk().setDirectory(_dir + "/second", harness::codec::kSchemaVersion);
    ASSERT_GT(disk().store("sim", "k",
                           harness::codec::encode(first).ranges),
              0u);
    ASSERT_GT(disk().store("deadness", "k",
                           harness::codec::encode(firstDead).ranges),
              0u);
    ASSERT_GT(disk().store("avf", "k",
                           harness::codec::encode(firstAvf).ranges),
              0u);
    harness::SimProducts second;
    avf::DeadnessResult secondDead;
    avf::AvfResult secondAvf;
    serve(&second, &secondDead, &secondAvf);
    EXPECT_NE(second.trace.commits.data(), first.trace.commits.data());

    EXPECT_EQ(flatten(harness::codec::encode(second)),
              flatten(harness::codec::encode(computed)));
    EXPECT_EQ(flatten(harness::codec::encode(secondDead)),
              flatten(harness::codec::encode(dead)));
    EXPECT_EQ(flatten(harness::codec::encode(secondAvf)),
              flatten(harness::codec::encode(avf)));
    expectSameColumns(second.trace, &secondDead, computed.trace, &dead);
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
