#include "run_cache.hh"

#include <cstring>
#include <sstream>

#include "harness/cache_codec.hh"
#include "harness/disk_cache.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "sim/prof.hh"

namespace ser
{
namespace harness
{
namespace
{

/** One program's committed stream up to a maxInsts bound: the
 * stream layer's unit of sharing (see the file comment). */
struct CommitStream
{
    sim::Column<cpu::CommitRecord> commits;
    bool programHalted = false;
};

std::uint64_t
approxBytes(const CommitStream &stream)
{
    return sizeof(CommitStream) +
           stream.commits.size() * sizeof(cpu::CommitRecord);
}

// Per-type dispatch into the cache codec, so the one get<T> template
// can serve the disk tier for every section.
std::string
encodeValue(const SimProducts &v)
{
    return codec::encodeSimProducts(v);
}
std::string
encodeValue(const avf::DeadnessResult &v)
{
    return codec::encodeDeadness(v);
}
std::string
encodeValue(const avf::AvfResult &v)
{
    return codec::encodeAvf(v);
}
std::string
encodeValue(const faults::CampaignSample &v)
{
    return codec::encodeCampaign(v);
}
// The stream sections are memory-only, so a commit stream never
// reaches the codec.
std::string
encodeValue(const CommitStream &)
{
    SER_PANIC("run cache: commit streams are memory-only");
}

// 'owner' keeps the payload mapped for the sim and deadness
// decoders' column views; the AVF and campaign decoders copy.
bool
decodeValue(const void *data, std::size_t len,
            const std::shared_ptr<const void> &owner, SimProducts *out)
{
    return codec::decodeSimProducts(data, len, owner, out);
}
bool
decodeValue(const void *data, std::size_t len,
            const std::shared_ptr<const void> &owner,
            avf::DeadnessResult *out)
{
    return codec::decodeDeadness(data, len, owner, out);
}
bool
decodeValue(const void *data, std::size_t len,
            const std::shared_ptr<const void> &, avf::AvfResult *out)
{
    return codec::decodeAvf(data, len, out);
}
bool
decodeValue(const void *data, std::size_t len,
            const std::shared_ptr<const void> &,
            faults::CampaignSample *out)
{
    return codec::decodeCampaign(data, len, out);
}
bool
decodeValue(const void *, std::size_t,
            const std::shared_ptr<const void> &, CommitStream *)
{
    SER_PANIC("run cache: commit streams are memory-only");
}

} // namespace

const char *
cacheOutcomeName(CacheOutcome outcome)
{
    switch (outcome) {
      case CacheOutcome::Off: return "off";
      case CacheOutcome::Miss: return "miss";
      case CacheOutcome::Hit: return "hit";
      case CacheOutcome::DiskHit: return "disk_hit";
    }
    return "off";
}

RunCache::RunCache()
{
    _sim.name = "sim";
    _deadness.name = "deadness";
    _avf.name = "avf";
    _campaign.name = "campaign";
    _stream.memoryOnly = true;
    _streamDeadness.memoryOnly = true;
}

RunCache &
RunCache::instance()
{
    // Leaked intentionally (like the --metrics-out path and prof's
    // registry): the --metrics-out atexit snapshot reads the cache's
    // counters after main returns, which must not race static
    // destruction. The OS reclaims the entries at process exit.
    static RunCache *cache = new RunCache;
    return *cache;
}

void
RunCache::clear()
{
    for (Section *section : {&_sim, &_deadness, &_avf, &_campaign,
                             &_stream, &_streamDeadness}) {
        std::lock_guard<std::mutex> guard(section->lock);
        section->map.clear();
        section->counters = Counters{};
    }
}

template <typename T>
std::shared_ptr<const T>
RunCache::get(Section &section, const std::string &key,
              const std::function<T()> &compute,
              CacheOutcome *outcome)
{
    std::shared_ptr<Entry> entry;
    bool mapHit;
    {
        std::lock_guard<std::mutex> guard(section.lock);
        auto it = section.map.find(key);
        mapHit = it != section.map.end();
        if (mapHit) {
            entry = it->second;
            ++section.counters.hits;
        } else {
            // Inserted now; whether this is a disk hit or a full
            // miss is decided inside the once-lambda below, which
            // also owns the miss/diskHits counter increment.
            entry = std::make_shared<Entry>();
            section.map.emplace(key, entry);
        }
    }
    // Resolve outside the section lock: concurrent misses on
    // *different* keys overlap; racers on the same key block here
    // and share the first thread's result.
    std::call_once(entry->once, [&] {
        DiskCache &disk = DiskCache::instance();
        const bool on_disk = !section.memoryOnly && disk.enabled();
        std::shared_ptr<T> value;
        CacheOutcome source = CacheOutcome::Miss;
        if (on_disk) {
            auto candidate = std::make_shared<T>();
            DiskCache::LoadResult loaded = disk.load(
                section.name, key,
                [&](const void *data, std::size_t len,
                    const std::shared_ptr<const void> &owner) {
                    return decodeValue(data, len, owner,
                                       candidate.get());
                });
            if (loaded.status == DiskCache::LoadStatus::Ok) {
                value = std::move(candidate);
                source = CacheOutcome::DiskHit;
                std::lock_guard<std::mutex> guard(section.lock);
                ++section.counters.diskHits;
                section.counters.diskBytesRead +=
                    loaded.payloadBytes;
            } else if (loaded.status ==
                       DiskCache::LoadStatus::Corrupt)
            {
                std::lock_guard<std::mutex> guard(section.lock);
                ++section.counters.diskCorrupt;
            }
        }
        if (!value) {
            value = std::make_shared<T>(compute());
            {
                std::lock_guard<std::mutex> guard(section.lock);
                ++section.counters.misses;
            }
            if (on_disk) {
                SER_PROF_SCOPE("disk_store");
                std::uint64_t written = disk.store(
                    section.name, key, encodeValue(*value));
                std::lock_guard<std::mutex> guard(section.lock);
                section.counters.diskBytesWritten += written;
            }
        }
        entry->bytes.store(approxBytes(*value));
        entry->value = std::move(value);
        entry->source.store(static_cast<int>(source));
    });
    if (outcome) {
        *outcome = mapHit ? CacheOutcome::Hit
                          : static_cast<CacheOutcome>(
                                entry->source.load());
    }
    return std::static_pointer_cast<const T>(entry->value);
}

std::shared_ptr<const SimProducts>
RunCache::getSim(const std::string &key,
                 const std::function<SimProducts()> &compute,
                 CacheOutcome *outcome)
{
    return get<SimProducts>(_sim, key, compute, outcome);
}

std::shared_ptr<const avf::DeadnessResult>
RunCache::getDeadness(const std::string &key,
                      const std::function<avf::DeadnessResult()> &
                          compute,
                      CacheOutcome *outcome)
{
    return get<avf::DeadnessResult>(_deadness, key, compute, outcome);
}

std::shared_ptr<const avf::AvfResult>
RunCache::getAvf(const std::string &key,
                 const std::function<avf::AvfResult()> &compute,
                 CacheOutcome *outcome)
{
    return get<avf::AvfResult>(_avf, key, compute, outcome);
}

std::shared_ptr<const faults::CampaignSample>
RunCache::getCampaign(
    const std::string &key,
    const std::function<faults::CampaignSample()> &compute,
    CacheOutcome *outcome)
{
    return get<faults::CampaignSample>(_campaign, key, compute,
                                       outcome);
}

void
RunCache::shareCommits(const std::string &stream_key,
                       cpu::SimTrace &trace)
{
    bool first = false;
    auto stream = get<CommitStream>(
        _stream, stream_key,
        [&] {
            first = true;
            return CommitStream{trace.commits, trace.programHalted};
        },
        nullptr);
    if (first)
        return;  // the trace's own column is the stored one
    const sim::Column<cpu::CommitRecord> &mine = trace.commits;
    if (stream->commits.size() != mine.size() ||
        stream->programHalted != trace.programHalted ||
        (!mine.empty() &&
         std::memcmp(stream->commits.data(), mine.data(),
                     mine.size() * sizeof(cpu::CommitRecord)) != 0))
        SER_PANIC("run cache: a trace's commits differ from the "
                  "stream stored under '{}'", stream_key);
    trace.commits = stream->commits;
}

std::shared_ptr<const avf::DeadnessResult>
RunCache::streamDeadness(const std::string &stream_key,
                         const cpu::SimTrace &trace)
{
    return get<avf::DeadnessResult>(
        _streamDeadness, stream_key,
        [&] { return avf::analyzeDeadness(trace); }, nullptr);
}

RunCache::Counters
RunCache::sectionCounters(const Section &section)
{
    std::lock_guard<std::mutex> guard(section.lock);
    Counters counters = section.counters;
    for (const auto &entry : section.map)
        counters.bytes += entry.second->bytes.load();
    return counters;
}

RunCache::Counters
RunCache::simCounters() const
{
    return sectionCounters(_sim);
}

RunCache::Counters
RunCache::deadnessCounters() const
{
    return sectionCounters(_deadness);
}

RunCache::Counters
RunCache::avfCounters() const
{
    return sectionCounters(_avf);
}

RunCache::Counters
RunCache::campaignCounters() const
{
    return sectionCounters(_campaign);
}

std::uint64_t
approxBytes(const SimProducts &products)
{
    std::uint64_t bytes = sizeof(SimProducts);
    bytes += products.trace.commits.size() *
             sizeof(cpu::CommitRecord);
    bytes += products.trace.incarnations.size() *
             sizeof(cpu::IncarnationRecord);
    bytes += products.statsDump.size() + products.statsJson.size();
    bytes += products.intervals.size() * sizeof(cpu::IntervalSample);
    if (products.program) {
        bytes += sizeof(isa::Program);
        bytes += products.program->size() * sizeof(isa::StaticInst);
        bytes += products.program->dataInits().size() *
                 sizeof(isa::DataInit);
    }
    return bytes;
}

std::uint64_t
approxBytes(const avf::DeadnessResult &result)
{
    return sizeof(avf::DeadnessResult) +
           result.kind.size() * sizeof(avf::DeadKind) +
           result.overwriteDist.size() * sizeof(std::uint32_t) +
           result.returnFdd.size() / 8;
}

std::uint64_t
approxBytes(const avf::AvfResult &result)
{
    return sizeof(avf::AvfResult) +
           result.fddRegExposures.size() * sizeof(avf::FddExposure) +
           result.epochs.size() * sizeof(avf::EpochAce);
}

std::uint64_t
approxBytes(const faults::CampaignSample &sample)
{
    return sizeof(faults::CampaignSample) +
           sample.structures.size() *
               sizeof(faults::CampaignSample::Space) +
           sample.sites.size() * sizeof(faults::SampledSite) +
           sample.aceShares.size() *
               sizeof(std::pair<std::uint32_t, double>);
}

std::string
RunCache::simKey(const isa::Program &program,
                 const ExperimentConfig &config,
                 const cpu::PipelineParams &p)
{
    const memory::HierarchyParams &m = p.hierarchy;
    auto cache = [](std::ostringstream &os,
                    const memory::CacheParams &c) {
        os << c.sizeBytes << ',' << c.lineBytes << ',' << c.assoc
           << ',' << c.hitLatency;
    };
    std::ostringstream os;
    os << std::hex << program.contentHash() << std::dec
       << "|warmup=" << config.warmupInsts
       << "|trigger=" << config.triggerLevel << '/'
       << config.triggerAction
       << "|interval=" << config.intervalCycles
       << "|w=" << p.fetchWidth << ',' << p.enqueueWidth << ','
       << p.issueWidth << "|iq=" << p.iqEntries
       << "|fe=" << p.frontEndDepth << "|evict=" << p.evictDelay
       << "|br=" << p.branchResolveDelay << ',' << p.redirectDelay
       << ',' << p.takenBranchBubble << "|pred=gshare,"
       << p.predictorEntries << ',' << p.historyBits << ','
       << p.btbEntries << ',' << p.rasEntries
       << "|lat=" << p.latIntAlu << ',' << p.latIntMul << ','
       << p.latIntDiv << ',' << p.latFpAdd << ',' << p.latFpMul
       << ',' << p.latFpDiv << ',' << p.latFpCvt
       << "|max=" << p.maxInsts << ',' << p.maxCycles
       // cycleSkip changes no simulated result, but keying on it
       // keeps the reported cycles_skipped truthful if one process
       // ever mixes both settings.
       << "|skip=" << p.cycleSkip << "|l0=";
    cache(os, m.l0);
    os << "|l1=";
    cache(os, m.l1);
    os << "|l2=";
    cache(os, m.l2);
    os << "|mem=" << m.memLatency;
    return os.str();
}

std::string
RunCache::streamKey(const isa::Program &program,
                    std::uint64_t max_insts)
{
    std::ostringstream os;
    os << std::hex << program.contentHash() << std::dec
       << "|max=" << max_insts;
    return os.str();
}

std::string
RunCache::deadnessKey(const std::string &sim_key)
{
    return sim_key + "|deadness=";
}

std::string
RunCache::avfKey(const std::string &sim_key)
{
    return sim_key + "|avf";
}

std::string
RunCache::campaignKey(const std::string &sim_key,
                      const faults::CampaignSpec &spec)
{
    return sim_key + "|campaign|" + spec.cacheKey();
}

} // namespace harness
} // namespace ser
