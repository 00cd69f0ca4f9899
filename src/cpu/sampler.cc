#include "sampler.hh"

#include "sim/logging.hh"

namespace ser
{
namespace cpu
{

IntervalSampler::IntervalSampler(std::uint64_t interval_cycles)
    : _intervalCycles(interval_cycles)
{
    if (interval_cycles == 0)
        SER_FATAL("sampler: interval must be at least one cycle");
}

void
IntervalSampler::windowOpen(std::uint64_t cycle)
{
    // Warmup accumulation (if any) is discarded; the epoch grid
    // restarts at the window-start cycle, aligned with the stats
    // reset and the AVF window.
    _epochStart = cycle;
    _epochTicks = 0;
    _last = IntervalCounters{};
    _current = IntervalSample{};
    _active = true;
}

void
IntervalSampler::closeEpoch(std::uint64_t end_cycle,
                            const IntervalCounters &counters)
{
    _current.startCycle = _epochStart;
    _current.endCycle = end_cycle;
    _current.committed = counters.committed - _last.committed;
    _current.fetched = counters.fetched - _last.fetched;
    _current.mispredicts =
        counters.mispredicts - _last.mispredicts;
    _current.triggerSquashes =
        counters.triggerSquashes - _last.triggerSquashes;
    _current.triggerSquashedInsts =
        counters.triggerSquashedInsts - _last.triggerSquashedInsts;
    _samples.push_back(_current);

    _last = counters;
    _epochStart = end_cycle;
    _epochTicks = 0;
    _current = IntervalSample{};
}

void
IntervalSampler::tick(std::uint64_t cycle,
                      const IntervalCounters &counters)
{
    advance(cycle, 1, counters);
}

void
IntervalSampler::advance(std::uint64_t cycle, std::uint64_t span,
                         const IntervalCounters &counters)
{
    if (!_active || span == 0)
        return;  // warmup: the measurement window is not open yet

    // Fill (and possibly close) the current partial epoch.
    std::uint64_t take = std::min(span, _intervalCycles - _epochTicks);
    _current.iqValidEntryCycles += counters.iqOccupancy * take;
    _current.iqWaitingEntryCycles += counters.iqWaiting * take;
    _epochTicks += take;
    cycle += take;
    span -= take;
    if (_epochTicks >= _intervalCycles)
        closeEpoch(cycle, counters);

    // Epochs fully interior to the remaining span are identical by
    // construction — the cumulative counters held constant across the
    // whole span, so every interior close records zero deltas and a
    // flat occupancy integral. Emit them as one batch instead of
    // re-deriving each through the delta machinery.
    if (span >= _intervalCycles) {
        const std::uint64_t full = span / _intervalCycles;
        IntervalSample s;
        s.iqValidEntryCycles =
            counters.iqOccupancy * _intervalCycles;
        s.iqWaitingEntryCycles =
            counters.iqWaiting * _intervalCycles;
        _samples.reserve(_samples.size() + full);
        for (std::uint64_t i = 0; i < full; ++i) {
            s.startCycle = cycle;
            cycle += _intervalCycles;
            s.endCycle = cycle;
            _samples.push_back(s);
        }
        _epochStart = cycle;
        _last = counters;
        span -= full * _intervalCycles;
    }

    // Trailing partial epoch.
    if (span) {
        _current.iqValidEntryCycles += counters.iqOccupancy * span;
        _current.iqWaitingEntryCycles += counters.iqWaiting * span;
        _epochTicks += span;
    }
    _lastSeen = counters;
}

void
IntervalSampler::advanceMidEpoch(std::uint64_t span,
                                 std::uint64_t occupancy,
                                 std::uint64_t waiting)
{
    if (!_active || span == 0)
        return;
    if (_epochTicks + span >= _intervalCycles)
        SER_FATAL("sampler: advanceMidEpoch would close an epoch "
                  "(use advance with real counters)");
    _current.iqValidEntryCycles += occupancy * span;
    _current.iqWaitingEntryCycles += waiting * span;
    _epochTicks += span;
}

void
IntervalSampler::finish(std::uint64_t end_cycle)
{
    finish(end_cycle, _lastSeen);
}

void
IntervalSampler::finish(std::uint64_t end_cycle,
                        const IntervalCounters &counters)
{
    if (_active && _epochTicks > 0)
        closeEpoch(end_cycle, counters);
}

} // namespace cpu
} // namespace ser
