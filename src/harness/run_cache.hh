/**
 * @file
 * The memoized run cache: content-addressed sharing of simulation
 * traces and post-hoc analyses across sweep points.
 *
 * Every figure and table in the paper sweeps a post-commit parameter
 * (PET size, π granularity, anti-π roster, attribution depth) over
 * the same committed instruction stream; only the post-commit fold
 * differs between sweep points. The cache keys a finished simulation
 * by the *content* of its inputs — a hash of the program image plus
 * every timing-relevant parameter — so sweep points whose timing
 * behaviour is provably identical simulate once and analyze once per
 * process, and merely share `shared_ptr<const ...>` artifacts
 * afterwards.
 *
 * Four sections, each keyed by an exact (collision-free modulo the
 * 64-bit program hash) string:
 *
 *   sim       (program content, effective PipelineParams, trigger
 *              policy, warmup, interval grid)    → SimProducts
 *   deadness  (sim key, deadness options)        → DeadnessResult
 *   avf       (sim key; the epoch grid is already in the sim key)
 *                                                → AvfResult
 *   campaign  (sim key + every knob that can change the sample;
 *              protection only with a CI target)  → CampaignSample
 *
 * The campaign section holds the protection-free sample, not an
 * outcome: runProgram labels every request from it, on hits and
 * misses alike, so a none/parity/ECC sweep runs one golden run and
 * one set of forks per benchmark.
 *
 * Stream layer: beneath the four sections, a memory-only layer keyed
 * by what a committed stream depends on, "<program content
 * hash>|max=<maxInsts>" (streamKey). The pipeline executes at fetch
 * with a functional oracle, so no trigger, IQ size or latency
 * changes which instructions commit, only when. The layer holds one
 * commit column (with its programHalted flag) and one DeadnessResult
 * per stream:
 *
 *   - a sim miss checks its fresh trace against the stored stream
 *     (size, halted flag, every byte; SER_PANIC naming the key on any
 *     difference) and adopts the stored column, freeing its own;
 *   - a deadness miss takes its columns from the stream's result,
 *     which analyzeDeadness computes at most once per stream.
 *
 * So a Table 1 sweep's none/l1/l0 points hold one commit column and
 * analyse deadness once per program. The four section keys, their
 * counters, blobs and outcomes stay as they were: a sim or deadness
 * entry still stands for one design point, so disk tiers, the
 * manifest's run_cache block and its count checks see no difference.
 * Only the compute lambdas of a sim or deadness miss touch the layer,
 * so hits of either tier pay nothing for it.
 *
 * Thread-safety: lookups run concurrently under --jobs. The first
 * thread to miss computes the value under a per-entry once_flag;
 * late arrivals for the same key block on that flag and then share
 * the result, so a sweep never simulates the same point twice even
 * when two workers race to it. Entries live until clear() or
 * process exit; nothing is evicted.
 *
 * Persistent tier: with `--cache-dir DIR`, a miss in the
 * process-local map falls through to the content-addressed blob
 * store (harness/disk_cache.hh) before computing, and every
 * computed value is published back. Warm re-runs of an identical
 * sweep then skip simulation entirely across *processes*. Outputs
 * are byte-identical with the tier cold, warm, or absent.
 *
 * Escape hatch: `--no-run-cache` (BenchOptions) disables the cache
 * process-wide, stream layer included; outputs are byte-identical
 * either way, which tests/check_determinism.cc enforces.
 */

#ifndef SER_HARNESS_RUN_CACHE_HH
#define SER_HARNESS_RUN_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "cpu/params.hh"
#include "cpu/sampler.hh"
#include "cpu/trace.hh"
#include "faults/campaign_engine.hh"
#include "isa/program.hh"

namespace ser
{
namespace harness
{

struct ExperimentConfig;

/** How one cache section answered for one run (manifest
 * observability; "off" covers --no-run-cache and trace-event runs,
 * which need a live pipeline). "disk_hit" means the process-local
 * map missed but the persistent tier (--cache-dir) supplied the
 * value; subsequent lookups in the same process are plain hits. */
enum class CacheOutcome
{
    Off,
    Miss,
    Hit,
    DiskHit,
};

const char *cacheOutcomeName(CacheOutcome outcome);

/**
 * Everything one pipeline simulation produces, bundled so a cache
 * hit reproduces the full miss result (stats text included) and so
 * the trace's program pointer stays valid: the bundle owns the
 * program the pipeline ran.
 */
struct SimProducts
{
    std::shared_ptr<const isa::Program> program;
    cpu::SimTrace trace;
    double ipc = 0.0;
    std::string statsDump;
    std::string statsJson;
    std::vector<cpu::IntervalSample> intervals;
    std::uint64_t poolHighWater = 0;

    /** Cycles the event-driven scheduler fast-forwarded (0 under
     * --no-cycle-skip; every simulated result is identical). */
    std::uint64_t cyclesSkipped = 0;
};

/** The process-wide memoization cache (see the file comment). */
class RunCache
{
  public:
    static RunCache &instance();

    /** Master switch (--no-run-cache). Disabled lookups are not
     * routed here at all; runProgram computes directly. */
    void setEnabled(bool on) { _enabled.store(on); }
    bool enabled() const { return _enabled.load(); }

    /** Drop every entry and zero the counters (tests). */
    void clear();

    struct Counters
    {
        /** Memory-tier hits: the key was already in the process-
         * local map. */
        std::uint64_t hits = 0;
        /** Disk-tier hits: the map missed but a verified blob under
         * --cache-dir supplied the value. */
        std::uint64_t diskHits = 0;
        /** Full misses: computed fresh (neither tier answered). */
        std::uint64_t misses = 0;
        /** Approximate bytes retained by the entries currently in
         * the section (summed at query time). A column that several
         * entries share (a program's data words, a stream's commits
         * and deadness) counts once per entry, so this does not
         * fall when sharing lowers the process's RSS. */
        std::uint64_t bytes = 0;
        /** Disk-tier traffic: blob payload bytes deserialized on
         * disk hits / full blob bytes published on misses. */
        std::uint64_t diskBytesRead = 0;
        std::uint64_t diskBytesWritten = 0;
        /** Blobs rejected by the integrity checks (CRC/framing/
         * decode) and quarantined; each also counts as a miss. */
        std::uint64_t diskCorrupt = 0;
    };

    Counters simCounters() const;
    Counters deadnessCounters() const;
    Counters avfCounters() const;
    Counters campaignCounters() const;

    std::shared_ptr<const SimProducts>
    getSim(const std::string &key,
           const std::function<SimProducts()> &compute,
           CacheOutcome *outcome = nullptr);

    std::shared_ptr<const avf::DeadnessResult>
    getDeadness(const std::string &key,
                const std::function<avf::DeadnessResult()> &compute,
                CacheOutcome *outcome = nullptr);

    std::shared_ptr<const avf::AvfResult>
    getAvf(const std::string &key,
           const std::function<avf::AvfResult()> &compute,
           CacheOutcome *outcome = nullptr);

    std::shared_ptr<const faults::CampaignSample>
    getCampaign(
        const std::string &key,
        const std::function<faults::CampaignSample()> &compute,
        CacheOutcome *outcome = nullptr);

    /**
     * The sim-section key: program content (isa::Program::
     * contentHash, memoized on the program) plus every parameter that
     * can change the timing trace (effective_params must be the
     * post-adjustment PipelineParams the pipeline actually runs
     * with). Post-commit knobs — petSize, attributionTopN,
     * traceEventsPid — are deliberately absent: that is the whole
     * point of the cache.
     */
    static std::string simKey(const isa::Program &program,
                              const ExperimentConfig &config,
                              const cpu::PipelineParams &
                                  effective_params);

    /** One deadness entry per design point, like the sim and avf
     * sections, so a disk tier answers a point's three lookups from
     * three blobs. Deadness depends only on the committed stream, so
     * entries of one stream share one analysis in memory (the stream
     * layer); the blobs stay per point. */
    static std::string deadnessKey(const std::string &sim_key);

    /** The AVF fold's epoch grid rides in the sim key already. */
    static std::string avfKey(const std::string &sim_key);

    /** The campaign section key: the sim key (the trace the sites
     * are sampled from) plus CampaignSpec::cacheKey() — two configs
     * differing in any knob that could change a sampled site or its
     * verdict never share an entry. */
    static std::string campaignKey(const std::string &sim_key,
                                   const faults::CampaignSpec &spec);

    /** The stream-layer key: "<program content hash>|max=<maxInsts>",
     * everything a committed stream depends on. */
    static std::string streamKey(const isa::Program &program,
                                 std::uint64_t max_insts);

    /**
     * Make a fresh trace share the commit column stored under
     * 'stream_key', storing the trace's own column if the key is
     * new. Panics, naming the key, if the stored stream differs from
     * the trace's in size, halted flag or any byte.
     */
    void shareCommits(const std::string &stream_key,
                      cpu::SimTrace &trace);

    /** The deadness of the stream under 'stream_key', analysed from
     * 'trace' by the first caller only. */
    std::shared_ptr<const avf::DeadnessResult>
    streamDeadness(const std::string &stream_key,
                   const cpu::SimTrace &trace);

  private:
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<void> value;
        /** approxBytes() of the value, stored by the computing
         * thread; atomic so counters() can read it without joining
         * the once_flag. */
        std::atomic<std::uint64_t> bytes{0};
        /** How the once-lambda resolved the value (a CacheOutcome:
         * DiskHit or Miss), so the inserting thread can report the
         * true source even if a racer ran the lambda. */
        std::atomic<int> source{0};
    };

    struct Section
    {
        /** Disk-tier subdirectory name ("sim", "deadness", ...). */
        const char *name = "";
        /** The stream layer's sections skip the disk tier. */
        bool memoryOnly = false;
        mutable std::mutex lock;
        std::unordered_map<std::string, std::shared_ptr<Entry>> map;
        Counters counters;
    };

    RunCache();

    template <typename T>
    std::shared_ptr<const T> get(Section &section,
                                 const std::string &key,
                                 const std::function<T()> &compute,
                                 CacheOutcome *outcome);

    static Counters sectionCounters(const Section &section);

    std::atomic<bool> _enabled{true};
    Section _sim;
    Section _deadness;
    Section _avf;
    Section _campaign;
    Section _stream;
    Section _streamDeadness;
};

/** Approximate retained footprint of a cached value: sizeof the
 * struct plus its containers' element storage. Used for the
 * per-section bytes counters. */
std::uint64_t approxBytes(const SimProducts &products);
std::uint64_t approxBytes(const avf::DeadnessResult &result);
std::uint64_t approxBytes(const avf::AvfResult &result);
std::uint64_t approxBytes(const faults::CampaignSample &sample);

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_RUN_CACHE_HH
