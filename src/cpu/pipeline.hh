/**
 * @file
 * The in-order pipeline model.
 *
 * An Itanium(R)2-like in-order machine: fetch (with real wrong-path
 * fetching driven by the branch predictor), a front-end delay pipe,
 * a 64-entry instruction queue with strict in-order issue, scoreboard
 * interlocks with full bypass, per-class execution latencies, and
 * in-order eviction/commit.
 *
 * The timing model is execute-at-fetch: a functional Executor oracle
 * is stepped once per correct-path fetch, providing branch outcomes
 * and effective addresses. Wrong-path instructions are decoded from
 * the real program image at the (wrong) predicted pc and occupy the
 * queue until the mispredicted branch resolves, but have no
 * functional effects (matching the paper's methodology, which fetches
 * wrong paths without correct memory addresses).
 *
 * Exposure-reduction support (the paper's Section 3): an attached
 * ExposurePolicy is consulted when a load's service level becomes
 * known; it can squash all not-yet-issued queue entries (which are
 * replayed through the front end from a replay queue, preserving the
 * oracle stream) and/or throttle fetch.
 *
 * The run leaves behind a SimTrace of per-incarnation queue
 * residencies and the committed stream for post-hoc AVF analysis.
 */

#ifndef SER_CPU_PIPELINE_HH
#define SER_CPU_PIPELINE_HH

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "branch/btb.hh"
#include "branch/predictor.hh"
#include "branch/ras.hh"
#include "cpu/hooks.hh"
#include "cpu/inst_arena.hh"
#include "cpu/params.hh"
#include "cpu/trace.hh"
#include "isa/executor.hh"
#include "isa/program.hh"
#include "memory/hierarchy.hh"
#include "sim/stats.hh"

namespace ser
{

namespace trace
{
class TraceWriter;
}

namespace cpu
{

class IntervalSampler;
struct IntervalCounters;

/** The in-order core. One instance simulates one program run. */
class InOrderPipeline : public statistics::StatGroup
{
  public:
    InOrderPipeline(const isa::Program &program,
                    const PipelineParams &params,
                    statistics::StatGroup *parent = nullptr);
    ~InOrderPipeline() override;

    /** Attach the exposure trigger/action policy (may be null). */
    void setExposurePolicy(ExposurePolicy *policy)
    {
        _policy = policy;
    }

    /**
     * Commit this many instructions before opening the measurement
     * window (stats are reset and the AVF window starts there).
     */
    void setWarmupInsts(std::uint64_t insts) { _warmupInsts = insts; }

    /**
     * Attach an interval time-series sampler (may be null). The
     * sampler is ticked at the end of every simulated cycle and told
     * when the measurement window opens, so its epoch grid matches
     * the stats window.
     */
    void setIntervalSampler(IntervalSampler *sampler)
    {
        _sampler = sampler;
    }

    /**
     * Attach an instruction-lifetime trace writer (may be null).
     * Every queue residency becomes a duration slice on its physical
     * entry's track; squashes, trigger firings and the measurement-
     * window opening become instants; fetch-throttle windows become
     * slices on their own track; queue occupancy becomes a counter.
     * Costs one branch per emission site when null.
     */
    void setTraceWriter(trace::TraceWriter *tw) { _tw = tw; }

    /** Run to completion and return the analysis trace. */
    SimTrace run();

    /** Most arena ids simultaneously live (must stay within the
     * reserved front-end + queue bound; reported in the manifest). */
    std::size_t poolHighWater() const { return _arena.highWater(); }

    /** Cycles the event-driven scheduler fast-forwarded over instead
     * of ticking (0 with cycleSkip off; reported in the manifest).
     * Deliberately not a registered stat: it is a simulator-speed
     * observation, and the stats dump must stay byte-identical
     * across --no-cycle-skip. */
    std::uint64_t cyclesSkipped() const { return _cyclesSkipped; }

    /** Total arena ids reserved (fixed unless the bound is ever
     * exceeded, which would indicate a leak). */
    std::size_t poolCapacity() const { return _arena.capacity(); }

    const isa::ArchState &archState() const
    {
        return _oracle->state();
    }

  private:
    /** A squashed correct-path instruction awaiting refetch. */
    struct ReplayItem
    {
        std::uint64_t oracleSeq;
        std::uint32_t pc;
        isa::StaticInst inst;
        bool qpTrue;
        bool actualTaken;
        std::uint32_t actualNextPc;
        std::uint64_t memAddr;
    };

    /** A load whose service level is about to become known. */
    struct TriggerEvent
    {
        std::uint64_t detectCycle;
        std::uint64_t fillCycle;
        memory::HitLevel level;
    };

    /** A correct-path control instruction awaiting resolution. */
    struct Resolution
    {
        std::uint64_t cycle;
        InstId inst;
    };

    // --- per-cycle phases, in reverse pipeline order ---
    void evictAndCommit();
    void resolveBranches();
    void processTriggers();
    void issue();
    void enqueue();
    void fetch();

    // --- helpers ---
    bool operandsReady(InstId id) const;
    void recordStallReason();
    statistics::Scalar &stallReasonAt(std::uint64_t cycle);
    std::uint64_t nextEventCycle(std::uint64_t limit) const;
    IntervalCounters snapshotCounters() const;
    void issueOne(InstId id);
    void handleControlPrediction(InstId id, bool &taken_break);
    InstId fetchOracle(bool &taken_break);
    InstId fetchReplay(bool &taken_break);
    InstId fetchWrongPath(bool &taken_break);
    void doMispredictSquash(InstId branch);
    void doTriggerSquash();
    void finalizeIncarnation(InstId id, std::uint64_t evict_cycle,
                             std::uint8_t extra_flags);
    void traceIncarnation(InstId id, const IncarnationRecord &rec,
                          std::uint8_t extra_flags,
                          std::uint64_t evict_cycle);
    void sampleOccupancy(std::uint64_t weight);
    bool drained() const;

    unsigned latencyOf(const isa::StaticInst &inst) const;

    // --- configuration and structure ---
    const isa::Program &_program;
    PipelineParams _params;
    ExposurePolicy *_policy = nullptr;
    IntervalSampler *_sampler = nullptr;
    trace::TraceWriter *_tw = nullptr;
    std::uint64_t _warmupInsts = 0;

    // Trace-emission state (only touched when _tw is set).
    bool _throttleSliceOpen = false;
    std::size_t _tracedOccupancy = ~std::size_t{0};
    std::size_t _tracedWaiting = ~std::size_t{0};

    std::unique_ptr<isa::Executor> _oracle;
    std::unique_ptr<memory::CacheHierarchy> _dcache;
    std::unique_ptr<branch::GsharePredictor> _dirPred;
    std::unique_ptr<branch::Btb> _btb;
    std::unique_ptr<branch::Ras> _ras;

    // --- machine state ---
    InstArena _arena;  ///< SoA storage of every in-flight incarnation
    std::uint64_t _cycle = 0;
    std::uint64_t _nextSeq = 0;

    Ring<InstId> _fePipe;  ///< fetched, not yet in the IQ
    Ring<InstId> _iq;      ///< program order; issued prefix first
    std::size_t _iqIssued = 0;  ///< length of the issued prefix
    std::vector<std::uint16_t> _freeEntries;

    std::deque<ReplayItem> _replay;
    std::vector<TriggerEvent> _triggers;
    Ring<Resolution> _resolutions;

    bool _wrongPathMode = false;
    std::uint32_t _wrongPc = 0;
    bool _doneFetching = false;
    bool _oracleHalted = false;
    std::uint64_t _fetchResumeCycle = 0;
    std::uint64_t _throttleUntil = 0;

    // Scoreboard: cycle each architectural register becomes ready,
    // plus whether the pending writer is a load (stall accounting).
    // The by-load flags are bytes, not vector<bool>: the bit-packed
    // specialization turns every probe of the operand-ready scan into
    // a masked read-modify-word and defeats vectorization.
    std::vector<std::uint64_t> _intReady;
    std::vector<std::uint64_t> _fpReady;
    std::vector<std::uint64_t> _predReady;
    std::vector<std::uint8_t> _intByLoad;
    std::vector<std::uint8_t> _fpByLoad;

    // Scoreboard bases indexed by a packed-descriptor RegClass value
    // (None/Int/Fp/Pred), so the issue gate resolves "when is this
    // operand ready" with one unconditional double-indexed load
    // instead of a class switch. Entry 0 points at an all-zero
    // array: a None operand is permanently ready. Valid for the
    // pipeline's lifetime because the scoreboards are sized once in
    // the constructor and never reallocated.
    std::array<const std::uint64_t *, 4> _readyByClass{};

    // --- results ---
    /** The scalars of the trace run() returns; its columns grow in
     * the two plain vectors below and are handed over at the end. */
    SimTrace _trace;
    std::vector<CommitRecord> _commits;
    IncarnationLog _incarnations;
    std::uint64_t _cyclesSkipped = 0;
    std::uint64_t _committedTotal = 0;
    std::uint64_t _windowStart = 0;
    bool _windowOpen = false;

    // --- statistics ---
    statistics::Scalar statCycles;
    statistics::Scalar statCommitted;
    statistics::Scalar statFetched;
    statistics::Scalar statWrongPathFetched;
    statistics::Scalar statReplayFetched;
    statistics::Scalar statMispredicts;
    statistics::Scalar statTriggerSquashes;
    statistics::Scalar statTriggerSquashedInsts;
    statistics::Scalar statThrottleCycles;
    statistics::Average statIqOccupancy;
    statistics::Average statIqValid;
    statistics::Distribution statIssueWidth;
    statistics::Scalar statStallLoad;   ///< cycles stalled on a load
    statistics::Scalar statStallExec;   ///< cycles stalled on an ALU/fp op
    statistics::Scalar statStallEmpty;  ///< cycles with nothing to issue
};

} // namespace cpu
} // namespace ser

#endif // SER_CPU_PIPELINE_HH
