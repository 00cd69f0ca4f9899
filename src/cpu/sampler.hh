/**
 * @file
 * Interval time-series sampling of the pipeline.
 *
 * The end-of-run AVF numbers hide *when* vulnerable state
 * accumulates: a run whose instruction queue fills during a burst of
 * L2 misses has the same average occupancy as one that is uniformly
 * half full, but very different exposure dynamics — and the IPC cost
 * of trigger squashing is only visible at the epochs where the
 * triggers actually fire. The IntervalSampler closes an epoch every
 * N cycles (plus one partial epoch at drain) and records the deltas
 * of the interesting counters, so IPC-vs-time, occupancy-vs-time and
 * squash bursts become plottable per epoch.
 *
 * Warmup handling matches the stats window: the pipeline notifies
 * the sampler when the measurement window opens; everything sampled
 * before that is discarded and the epoch grid restarts at the window
 * start cycle, so the per-epoch committed counts sum exactly to the
 * run's in-window committed-instruction count (and the epoch grid
 * lines up with the AVF fold's per-epoch ACE accounting).
 */

#ifndef SER_CPU_SAMPLER_HH
#define SER_CPU_SAMPLER_HH

#include <cstdint>
#include <vector>

namespace ser
{
namespace cpu
{

/** Cumulative in-window counters handed to the sampler each cycle. */
struct IntervalCounters
{
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t triggerSquashes = 0;
    std::uint64_t triggerSquashedInsts = 0;

    /** Instantaneous end-of-cycle queue state. */
    std::uint64_t iqOccupancy = 0;
    std::uint64_t iqWaiting = 0;
};

/** One closed epoch: counter deltas over [startCycle, endCycle). */
struct IntervalSample
{
    std::uint64_t startCycle = 0;
    std::uint64_t endCycle = 0;

    std::uint64_t committed = 0;
    std::uint64_t fetched = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t triggerSquashes = 0;
    std::uint64_t triggerSquashedInsts = 0;

    /** Sum over the epoch's cycles of the valid-entry count: the
     * occupied entry-cycles this epoch, i.e. the exposure the paper's
     * squashing attacks. */
    std::uint64_t iqValidEntryCycles = 0;
    std::uint64_t iqWaitingEntryCycles = 0;

    std::uint64_t cycles() const { return endCycle - startCycle; }

    double
    ipc() const
    {
        return cycles() ? static_cast<double>(committed) /
                              static_cast<double>(cycles())
                        : 0.0;
    }

    double
    avgIqOccupancy() const
    {
        return cycles() ? static_cast<double>(iqValidEntryCycles) /
                              static_cast<double>(cycles())
                        : 0.0;
    }
};

/** Closes an epoch every intervalCycles ticks; see file comment. */
class IntervalSampler
{
  public:
    explicit IntervalSampler(std::uint64_t interval_cycles);

    std::uint64_t intervalCycles() const { return _intervalCycles; }

    /** Record the end of one simulated cycle. */
    void tick(std::uint64_t cycle, const IntervalCounters &counters);

    /**
     * Batch tick: cover the `span` cycles [cycle, cycle + span)
     * during which every cumulative counter — and the instantaneous
     * queue occupancy — held the values in `counters`. Closes every
     * epoch the span crosses (an idle span can cross several), with
     * arithmetic identical to `span` repeated tick() calls: interior
     * closes see the same cumulative values on both sides, so their
     * deltas are zero, exactly as per-cycle ticking would record.
     */
    void advance(std::uint64_t cycle, std::uint64_t span,
                 const IntervalCounters &counters);

    /**
     * True when advance(cycle, span, ...) would close an epoch, i.e.
     * the caller must materialize real cumulative counters.
     * Otherwise only the occupancy accumulators are touched and the
     * caller may use the snapshot-free advanceMidEpoch() fast path —
     * this is what keeps the five Stat::value() conversions off the
     * per-cycle path.
     */
    bool
    needsCounters(std::uint64_t span) const
    {
        return _active && _epochTicks + span >= _intervalCycles;
    }

    /**
     * Counter-free fast path for a span that stays strictly inside
     * the current epoch (!needsCounters(span)). Does not refresh the
     * last-seen counters, so callers mixing this in must finish with
     * the finish(end_cycle, counters) overload.
     */
    void advanceMidEpoch(std::uint64_t span, std::uint64_t occupancy,
                         std::uint64_t waiting);

    /** The measurement window opened at 'cycle': discard warmup
     * accumulation and restart the epoch grid there. */
    void windowOpen(std::uint64_t cycle);

    /** The run drained at 'end_cycle': close any partial epoch. */
    void finish(std::uint64_t end_cycle);

    /** As finish(end_cycle), but with an explicit final snapshot —
     * required when advanceMidEpoch() may have been used. */
    void finish(std::uint64_t end_cycle,
                const IntervalCounters &counters);

    const std::vector<IntervalSample> &samples() const
    {
        return _samples;
    }

  private:
    void closeEpoch(std::uint64_t end_cycle,
                    const IntervalCounters &counters);

    std::uint64_t _intervalCycles;
    std::uint64_t _epochStart = 0;
    std::uint64_t _epochTicks = 0;
    bool _active = false;       ///< measurement window open?

    IntervalCounters _last;     ///< cumulative values at epoch start
    IntervalCounters _lastSeen; ///< cumulative values at last tick
    IntervalSample _current;    ///< accumulating epoch
    std::vector<IntervalSample> _samples;
};

} // namespace cpu
} // namespace ser

#endif // SER_CPU_SAMPLER_HH
