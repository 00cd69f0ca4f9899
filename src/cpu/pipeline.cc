#include "pipeline.hh"

#include <algorithm>

#include "cpu/sampler.hh"
#include "sim/compiler.hh"
#include "sim/logging.hh"
#include "sim/prof.hh"
#include "sim/trace_event.hh"

namespace ser
{
namespace cpu
{

namespace
{
/** Ready-cycle array a RegClass::None operand indexes: always 0,
 * i.e. ready since cycle 0. Sized like the real register files so
 * any 6-bit register field is in range. */
constexpr std::uint64_t kNeverPending[64] = {};
} // namespace

unsigned
PipelineParams::latencyFor(isa::OpClass oc) const
{
    using isa::OpClass;
    switch (oc) {
      case OpClass::Nop: return 1;
      case OpClass::IntAlu: return latIntAlu;
      case OpClass::IntMul: return latIntMul;
      case OpClass::IntDiv: return latIntDiv;
      case OpClass::FpAdd: return latFpAdd;
      case OpClass::FpMul: return latFpMul;
      case OpClass::FpDiv: return latFpDiv;
      case OpClass::FpCvt: return latFpCvt;
      case OpClass::Load: return 2;   // overridden by the dcache
      case OpClass::Store: return 1;
      case OpClass::Branch: return 1;
      case OpClass::Other: return 1;
    }
    return 1;
}

InOrderPipeline::InOrderPipeline(const isa::Program &program,
                                 const PipelineParams &params,
                                 statistics::StatGroup *parent)
    : StatGroup("cpu", parent), _program(program), _params(params),
      _oracle(std::make_unique<isa::Executor>(program)),
      _dcache(std::make_unique<memory::CacheHierarchy>(
          params.hierarchy, this)),
      _dirPred(std::make_unique<branch::GsharePredictor>(
          params.predictorEntries, params.historyBits, this)),
      _btb(std::make_unique<branch::Btb>(params.btbEntries, this)),
      _ras(std::make_unique<branch::Ras>(params.rasEntries, this)),
      statCycles(this, "cycles", "simulated cycles in the window"),
      statCommitted(this, "committed",
                    "instructions committed in the window"),
      statFetched(this, "fetched", "instructions fetched (all paths)"),
      statWrongPathFetched(this, "wrong_path_fetched",
                           "wrong-path instructions fetched"),
      statReplayFetched(this, "replay_fetched",
                        "squashed instructions refetched"),
      statMispredicts(this, "mispredicts",
                      "branches resolved mispredicted"),
      statTriggerSquashes(this, "trigger_squashes",
                          "exposure-trigger squash events"),
      statTriggerSquashedInsts(this, "trigger_squashed_insts",
                               "queue entries squashed by triggers"),
      statThrottleCycles(this, "throttle_cycles",
                         "cycles fetch was throttled"),
      statIqOccupancy(this, "iq_occupancy",
                      "valid IQ entries per cycle"),
      statIqValid(this, "iq_waiting",
                  "not-yet-issued IQ entries per cycle"),
      statIssueWidth(this, "issue_width",
                     "instructions issued per cycle", 0,
                     params.issueWidth + 1, 1),
      statStallLoad(this, "stall_load",
                    "issue cycles lost waiting on load data"),
      statStallExec(this, "stall_exec",
                    "issue cycles lost waiting on execution results"),
      statStallEmpty(this, "stall_empty",
                     "issue cycles with an empty (or fresh) queue")
{
    if (_params.iqEntries == 0 || _params.iqEntries > 0xffff)
        SER_FATAL("pipeline: bad iq size {}", _params.iqEntries);
    if (_params.branchResolveDelay >= _params.evictDelay)
        SER_FATAL("pipeline: branchResolveDelay ({}) must be < "
                  "evictDelay ({}) so branches resolve before their "
                  "queue entry retires",
                  _params.branchResolveDelay, _params.evictDelay);
    _freeEntries.resize(_params.iqEntries);
    for (unsigned i = 0; i < _params.iqEntries; ++i)
        _freeEntries[i] = static_cast<std::uint16_t>(
            _params.iqEntries - 1 - i);
    _intReady.assign(isa::numIntRegs, 0);
    _fpReady.assign(isa::numFpRegs, 0);
    _predReady.assign(isa::numPredRegs, 0);
    _intByLoad.assign(isa::numIntRegs, 0);
    _fpByLoad.assign(isa::numFpRegs, 0);
    _readyByClass = {kNeverPending, _intReady.data(),
                     _fpReady.data(), _predReady.data()};
    _trace.program = &program;
    _trace.iqEntries = _params.iqEntries;

    // The in-flight population is bounded by the front-end pipe
    // capacity plus the queue; reserving it up front makes the
    // fetch→commit loop allocation-free. The rings are sized to the
    // same architectural bounds (resolutions: at most one pending
    // branch per queue entry).
    const std::size_t fe_cap =
        static_cast<std::size_t>(_params.frontEndDepth) *
        _params.enqueueWidth;
    _arena.reserve(fe_cap + _params.iqEntries);
    _iq.reset(_params.iqEntries);
    _fePipe.reset(fe_cap);
    _resolutions.reset(_params.iqEntries);

    // Pre-size the trace from the maxInsts hint (clamped: the vector
    // blocks are virtual until touched, but stay reasonable for the
    // pathological hint values some tests use). Incarnations get
    // headroom for replays and wrong-path fetches.
    const std::uint64_t hint =
        std::min<std::uint64_t>(_params.maxInsts, 4'000'000);
    _trace.commits.reserve(hint);
    _trace.incarnations.reserve(2 * hint);
}

InOrderPipeline::~InOrderPipeline() = default;

unsigned
InOrderPipeline::latencyOf(const isa::StaticInst &inst) const
{
    return _params.latencyFor(inst.opClass());
}

bool
InOrderPipeline::drained() const
{
    return _doneFetching && _fePipe.empty() && _iq.empty() &&
           _replay.empty() && _resolutions.empty() &&
           _triggers.empty() && !_wrongPathMode;
}

SimTrace
InOrderPipeline::run()
{
    SER_PROF_SCOPE("tick_loop");
    std::uint64_t loop_ticks = 0;
    std::uint64_t max_cycles =
        _params.maxCycles
            ? _params.maxCycles
            : _params.maxInsts * 1000 + 1'000'000;
    if (_tw) {
        _tw->threadName(trace::tracks::pipeline, "pipeline events");
        _tw->threadName(trace::tracks::throttle, "fetch throttle");
        for (unsigned i = 0; i < _params.iqEntries; ++i)
            _tw->threadName(trace::tracks::iqBase + i,
                            "iq[" + std::to_string(i) + "]");
    }
    if (_warmupInsts == 0) {
        _windowOpen = true;
        _windowStart = 0;
        if (_sampler)
            _sampler->windowOpen(0);
        if (_tw)
            _tw->instant(trace::tracks::pipeline, "window_open", 0,
                         {{"warmup_commits", std::uint64_t{0}}});
    }

    while (!drained()) {
        if (_cycle >= max_cycles)
            SER_PANIC("pipeline: exceeded {} cycles without draining "
                      "(committed {}, iq {}, fe {})",
                      max_cycles, _committedTotal, _iq.size(),
                      _fePipe.size());
        ++loop_ticks;
        evictAndCommit();
        resolveBranches();
        processTriggers();
        issue();
        enqueue();
        fetch();

        // Event-driven fast-forward: after ticking cycle C, every
        // cycle before the next event provably repeats this tick's
        // no-op, so the whole idle span [C, next) is accounted in
        // closed form and _cycle jumps straight to the event. The
        // drained() guard keeps the final tick advancing by exactly
        // one cycle, preserving the non-skipping end cycle.
        std::uint64_t next = _cycle + 1;
        if (_params.cycleSkip && !drained()) {
            std::uint64_t ev = nextEventCycle(max_cycles);
            if (ev > next) {
                _cyclesSkipped += ev - next;
                next = ev;
            }
        }
        const std::uint64_t span = next - _cycle;

        sampleOccupancy(span);
        statCycles += static_cast<double>(span);
        bool throttled = _cycle < _throttleUntil;
        if (throttled)
            statThrottleCycles += static_cast<double>(
                std::min(next, _throttleUntil) - _cycle);
        if (_tw) {
            if (throttled && !_throttleSliceOpen)
                _tw->begin(trace::tracks::throttle, "fetch_throttle",
                           _cycle, {{"until", _throttleUntil}});
            else if (!throttled && _throttleSliceOpen)
                _tw->end(trace::tracks::throttle, _cycle);
            _throttleSliceOpen = throttled;
            std::size_t waiting = _iq.size() - _iqIssued;
            if (_iq.size() != _tracedOccupancy ||
                waiting != _tracedWaiting) {
                _tw->counter(
                    "iq_occupancy", _cycle,
                    {{"valid",
                      static_cast<std::uint64_t>(_iq.size())},
                     {"waiting",
                      static_cast<std::uint64_t>(waiting)}});
                _tracedOccupancy = _iq.size();
                _tracedWaiting = waiting;
            }
            if (_throttleSliceOpen && _throttleUntil < next) {
                // The throttle expires inside the skipped span: emit
                // the end event at the cycle the per-cycle loop
                // would have, keeping the trace byte-identical.
                _tw->end(trace::tracks::throttle, _throttleUntil);
                _throttleSliceOpen = false;
            }
        }
        if (_sampler && _windowOpen) {
            // The cumulative counters (and the queue state) hold
            // their post-tick values through the whole idle span, so
            // one batch advance covers [C, next). Materializing the
            // counter snapshot costs five double->int conversions;
            // only pay it when the span closes an epoch.
            if (_sampler->needsCounters(span)) {
                _sampler->advance(_cycle, span, snapshotCounters());
            } else {
                _sampler->advanceMidEpoch(span, _iq.size(),
                                          _iq.size() - _iqIssued);
            }
        }
        if (span > 1) {
            // The issue stage's per-cycle bookkeeping for the inert
            // cycles: zero-width issue samples, and the stall reason
            // (constant across the span by construction — every
            // classification flip is itself an event).
            statIssueWidth.sample(0.0, span - 1);
            if (_params.issueWidth > 0)
                stallReasonAt(_cycle + 1) +=
                    static_cast<double>(span - 1);
        }
        _cycle = next;
        if (_cycle >= 0xffffffffULL)
            SER_FATAL("pipeline: run exceeded 2^32 cycles; trace "
                      "records use 32-bit cycles");
    }

    if (_tw && _throttleSliceOpen) {
        _tw->end(trace::tracks::throttle, _cycle);
        _throttleSliceOpen = false;
    }
    if (_sampler)
        _sampler->finish(_cycle, snapshotCounters());

    // Flush the run's totals to the prof layer in one batch — a
    // local accumulator in the loop, one Counter::add here, so the
    // tick loop itself carries no telemetry cost. The tick/skip
    // counts are simulator-speed observations (they change under
    // --no-cycle-skip); committed instructions and the drain cycle
    // are architectural and byte-stable across jobs and skip modes.
    {
        static prof::Counter ticks(
            "speed.tick_loop_iterations",
            "Tick-loop iterations executed (events, not cycles, "
            "under cycle skipping).");
        static prof::Counter skipped(
            "speed.cycles_skipped",
            "Idle cycles fast-forwarded by the event-driven "
            "scheduler.");
        static prof::Counter cycles(
            "pipeline.simulated_cycles",
            "Total simulated cycles (identical with or without "
            "cycle skipping).");
        static prof::Counter commits(
            "pipeline.committed_insts",
            "Committed instructions across all simulations.");
        ticks.add(loop_ticks);
        skipped.add(_cyclesSkipped);
        cycles.add(_cycle);
        commits.add(_committedTotal);
    }

    _trace.startCycle = _windowStart;
    _trace.endCycle = _cycle;
    return std::move(_trace);
}

IntervalCounters
InOrderPipeline::snapshotCounters() const
{
    IntervalCounters c;
    c.committed = static_cast<std::uint64_t>(statCommitted.value());
    c.fetched = static_cast<std::uint64_t>(statFetched.value());
    c.mispredicts =
        static_cast<std::uint64_t>(statMispredicts.value());
    c.triggerSquashes =
        static_cast<std::uint64_t>(statTriggerSquashes.value());
    c.triggerSquashedInsts = static_cast<std::uint64_t>(
        statTriggerSquashedInsts.value());
    c.iqOccupancy = _iq.size();
    c.iqWaiting = _iq.size() - _iqIssued;
    return c;
}

/**
 * The earliest cycle after _cycle at which any pipeline stage could
 * act (or any stat/trace observation could change), given that the
 * tick of _cycle just completed. Every stage is driven by a
 * scoreboard cycle, a queued event cycle, or a structural condition
 * that only another stage can change, so the minimum below is a
 * provable lower bound: every cycle strictly before it repeats the
 * just-executed no-op tick exactly. Returns at most `limit`
 * (clamped also to the 32-bit trace ceiling) so a hang still hits
 * the same panic as per-cycle ticking.
 */
std::uint64_t
InOrderPipeline::nextEventCycle(std::uint64_t limit) const
{
    const std::uint64_t floor = _cycle + 1;
    std::uint64_t next =
        std::min<std::uint64_t>(limit, 0xffffffffULL);
    auto consider = [&](std::uint64_t c) {
        if (c > _cycle && c < next)
            next = c;
    };

    // Every candidate below is > _cycle, so the minimum can never
    // drop under _cycle + 1: once any candidate lands there the
    // remaining (costlier) checks cannot change the answer. The
    // early returns fire on the busy-pipeline common case, where
    // something acts next cycle and no skip happens anyway.

    // Evict/commit: the queue head is issued and completes later (the
    // issued prefix completes in order, so the head is the minimum —
    // one load from the completeCycle column).
    if (!_iq.empty() && _arena.issued(_iq.front()))
        consider(_arena.completeCycle[_iq.front()]);

    // Branch resolution: the ring is ordered by resolve cycle.
    if (!_resolutions.empty())
        consider(_resolutions.front().cycle);
    if (next == floor)
        return next;

    // Trigger detections (unordered, but tiny).
    for (const TriggerEvent &t : _triggers)
        consider(t.detectCycle);
    if (next == floor)
        return next;

    // Issue: the oldest non-issued instruction can issue once its
    // age and operand gates all pass...
    if (_iqIssued < _iq.size()) {
        const InstId head = _iq[_iqIssued];
        const std::uint32_t w = _arena.opnd[head];
        std::uint64_t r1 = _readyByClass[opndSrc1Class(w)][opndSrc1(w)];
        std::uint64_t r2 = _readyByClass[opndSrc2Class(w)][opndSrc2(w)];
        std::uint64_t rp = _predReady[opndQp(w)];
        std::uint64_t t = std::max(
            _arena.enqueueCycle[head] + 1, _cycle + 1);
        t = std::max(t, rp);
        if (_arena.flags[head] & (diWrongPath | diQpTrue))
            t = std::max({t, r1, r2});
        consider(t);
        // ...and the stall-reason classification (load vs exec)
        // re-evaluates whenever any pending operand write lands,
        // even for operands issue itself would not wait on.
        consider(r1);
        consider(r2);
        consider(rp);
    }

    if (next == floor)
        return next;

    // Enqueue: the front-end head ages into a free queue entry.
    if (!_fePipe.empty() && !_freeEntries.empty())
        consider(std::max(
            _arena.fetchCycle[_fePipe.front()] +
                _params.frontEndDepth,
            _cycle + 1));
    if (next == floor)
        return next;

    // Fetch: something is fetchable (wrong-path image pc in range, a
    // replay pending, or the oracle stream not yet flagged done —
    // flagging done *is* fetch's act) and the front end has room;
    // it resumes once both the redirect and the throttle lift.
    const std::size_t fe_cap =
        static_cast<std::size_t>(_params.frontEndDepth) *
        _params.enqueueWidth;
    bool fetchable =
        _wrongPathMode
            ? _wrongPc < _program.size()
            : (!_replay.empty() || !_doneFetching);
    if (fetchable && _fePipe.size() < fe_cap)
        consider(std::max(
            {_fetchResumeCycle, _throttleUntil, _cycle + 1}));

    return next;
}

void
InOrderPipeline::sampleOccupancy(std::uint64_t weight)
{
    statIqOccupancy.sample(static_cast<double>(_iq.size()), weight);
    statIqValid.sample(
        static_cast<double>(_iq.size() - _iqIssued), weight);
}

void
InOrderPipeline::finalizeIncarnation(InstId id,
                                     std::uint64_t evict_cycle,
                                     std::uint8_t extra_flags)
{
    const std::uint8_t f = _arena.flags[id];
    IncarnationRecord rec;
    rec.staticIdx = _arena.pc[id];
    rec.oracleSeq =
        (f & diWrongPath)
            ? noSeq32
            : static_cast<std::uint32_t>(_arena.cold[id].oracleSeq);
    rec.enqueueCycle =
        static_cast<std::uint32_t>(_arena.enqueueCycle[id]);
    rec.issueCycle =
        _arena.issued(id)
            ? static_cast<std::uint32_t>(_arena.issueCycle[id])
            : noCycle32;
    rec.evictCycle = static_cast<std::uint32_t>(evict_cycle);
    rec.iqEntry = _arena.iqEntry[id];
    std::uint8_t flags = extra_flags;
    if (f & diWrongPath)
        flags |= incWrongPath;
    else if (!(f & diQpTrue))
        flags |= incPredFalse;
    rec.flags = flags;
    _trace.incarnations.push_back(rec);

    if (SER_UNLIKELY(_tw != nullptr))
        traceIncarnation(id, rec, extra_flags, evict_cycle);
}

/** The trace-writer half of finalizeIncarnation, split out so the
 * record-building half stays small enough to inline into the commit
 * loop (this path costs a toString() and an args list — far too much
 * code to drag into the hot path for a disabled-by-default writer). */
void
InOrderPipeline::traceIncarnation(InstId id,
                                  const IncarnationRecord &rec,
                                  std::uint8_t extra_flags,
                                  std::uint64_t evict_cycle)
{
    // One slice per residency on the physical entry's track.
    // Residencies of one entry never overlap and are finalized
    // in evict order, so both events can be written here and the
    // track stays monotonic. The outcome is known now, so it
    // rides on the B event's args.
    const std::uint8_t f = _arena.flags[id];
    const char *outcome = "evict";
    if (extra_flags & incCommitted)
        outcome = "commit";
    else if (extra_flags & incSquashTrigger)
        outcome = "trigger_squash";
    else if (extra_flags & incSquashMispredict)
        outcome = "mispredict_squash";
    std::uint32_t tid = trace::tracks::iqBase + rec.iqEntry;
    _tw->begin(
        tid, _arena.cold[id].inst.toString(), rec.enqueueCycle,
        {{"seq", _arena.seq[id]},
         {"pc", static_cast<std::uint64_t>(_arena.pc[id])},
         {"fetch", static_cast<std::uint64_t>(
                       _arena.fetchCycle[id])},
         {"issue",
          rec.issueCycle == noCycle32
              ? std::int64_t{-1}
              : static_cast<std::int64_t>(rec.issueCycle)},
         {"outcome", outcome},
         {"wrong_path", (f & diWrongPath) ? 1 : 0}});
    _tw->end(tid, evict_cycle);
}

void
InOrderPipeline::evictAndCommit()
{
    while (!_iq.empty()) {
        const InstId front = _iq.front();
        if (!_arena.issued(front) ||
            _arena.completeCycle[front] > _cycle)
            break;
        if (_arena.flags[front] & diWrongPath)
            SER_PANIC("pipeline: wrong-path instruction reached "
                      "commit (seq {})", _arena.seq[front]);
        finalizeIncarnation(front, _cycle, incCommitted);
        _freeEntries.push_back(_arena.iqEntry[front]);
        _iq.pop_front();
        _arena.release(front);
        --_iqIssued;

        ++_committedTotal;
        if (_windowOpen) {
            ++_trace.committedInsts;
            ++statCommitted;
        } else if (_committedTotal >= _warmupInsts) {
            _windowOpen = true;
            _windowStart = _cycle;
            resetStats();
            if (_sampler)
                _sampler->windowOpen(_cycle);
            if (_tw)
                _tw->instant(trace::tracks::pipeline, "window_open",
                             _cycle,
                             {{"warmup_commits", _committedTotal}});
        }
    }
}

void
InOrderPipeline::resolveBranches()
{
    while (!_resolutions.empty() &&
           _resolutions.front().cycle <= _cycle) {
        const InstId branch = _resolutions.front().inst;
        _resolutions.pop_front();
        const std::uint8_t f = _arena.flags[branch];
        const InstCold &cold = _arena.cold[branch];

        // Train the direction predictor and the BTB.
        if (f & diUsedDirPred) {
            _dirPred->update(_arena.pc[branch],
                             f & diActualTaken, cold.predLookup);
            _dirPred->recordResolution(!(f & diMispredicted));
        }
        if (cold.inst.opcode() == isa::Opcode::Bri &&
            (f & diActualTaken)) {
            _btb->update(_arena.pc[branch], cold.actualNextPc);
        }

        if (f & diMispredicted) {
            ++statMispredicts;
            if (_tw)
                _tw->instant(
                    trace::tracks::pipeline, "mispredict_squash",
                    _cycle,
                    {{"branch_pc", static_cast<std::uint64_t>(
                                       _arena.pc[branch])},
                     {"branch_seq", _arena.seq[branch]}});
            doMispredictSquash(branch);
        }
    }
}

void
InOrderPipeline::doMispredictSquash(InstId branch)
{
    // The branch is issued and still resident (resolve < evict), and
    // the queue is seq-ordered, so everything after its position is
    // younger and must go. Ids are unique while live, so the scan
    // compares ids directly instead of dereferencing for seq.
    std::size_t bi = _iq.size();
    for (std::size_t i = 0; i < _iq.size(); ++i) {
        if (_iq[i] == branch) {
            bi = i;
            break;
        }
    }
    if (bi == _iq.size())
        SER_PANIC("pipeline: resolving branch seq {} not in queue",
                  _arena.seq[branch]);

    for (std::size_t i = bi + 1; i < _iq.size(); ++i) {
        const InstId victim = _iq[i];
        if (!(_arena.flags[victim] & diWrongPath))
            SER_PANIC("pipeline: correct-path instruction younger "
                      "than an unresolved mispredict (seq {})",
                      _arena.seq[victim]);
        finalizeIncarnation(victim, _cycle, incSquashMispredict);
        _freeEntries.push_back(_arena.iqEntry[victim]);
        _arena.release(victim);
    }
    _iq.truncate(bi + 1);
    _iqIssued = std::min(_iqIssued, bi + 1);

    // Everything in the front end is younger than the branch.
    for (std::size_t i = 0; i < _fePipe.size(); ++i)
        _arena.release(_fePipe[i]);
    _fePipe.clear();

    // Repair speculative predictor state: history as of just after
    // this branch's actual outcome; RAS rewound, then replayed.
    const std::uint8_t f = _arena.flags[branch];
    const InstCold &cold = _arena.cold[branch];
    if (f & diUsedDirPred)
        _dirPred->restoreHistory(cold.predLookup,
                                 f & diActualTaken);
    if (f & diRasCheckpointed) {
        _ras->restore(cold.rasCp);
        if ((f & diActualTaken) && cold.inst.isCall())
            _ras->push(_arena.pc[branch] + 1);
        else if ((f & diActualTaken) && cold.inst.isReturn())
            _ras->pop();
    }

    _wrongPathMode = false;
    _fetchResumeCycle = std::max(
        _fetchResumeCycle, _cycle + _params.redirectDelay);
}

void
InOrderPipeline::processTriggers()
{
    if (_triggers.empty())
        return;
    bool squash = false;
    std::uint64_t throttle_until = 0;
    auto it = _triggers.begin();
    while (it != _triggers.end()) {
        if (it->detectCycle > _cycle) {
            ++it;
            continue;
        }
        if (_policy) {
            ExposureDecision d = _policy->onLoadServiced(
                it->level, it->detectCycle, it->fillCycle);
            if (_tw && (d.squash || d.throttleUntilCycle))
                _tw->instant(
                    trace::tracks::pipeline, "trigger_fire", _cycle,
                    {{"level", static_cast<int>(it->level)},
                     {"squash", d.squash ? 1 : 0},
                     {"throttle_until", d.throttleUntilCycle}});
            squash = squash || d.squash;
            throttle_until =
                std::max(throttle_until, d.throttleUntilCycle);
        }
        it = _triggers.erase(it);
    }
    if (throttle_until > _throttleUntil)
        _throttleUntil = throttle_until;
    if (squash)
        doTriggerSquash();
}

void
InOrderPipeline::doTriggerSquash()
{
    // Victims: the not-yet-issued queue suffix plus the whole front
    // end, oldest first. Correct-path victims are replayed through
    // fetch; wrong-path victims just die (their mispredicted branch,
    // if squashed too, is replayed and will re-predict).
    std::vector<InstId> victims;
    for (std::size_t i = _iqIssued; i < _iq.size(); ++i)
        victims.push_back(_iq[i]);
    std::size_t iq_victims = victims.size();
    for (std::size_t i = 0; i < _fePipe.size(); ++i)
        victims.push_back(_fePipe[i]);
    if (victims.empty())
        return;

    ++statTriggerSquashes;
    statTriggerSquashedInsts += static_cast<double>(iq_victims);
    if (_tw)
        _tw->instant(
            trace::tracks::pipeline, "trigger_squash", _cycle,
            {{"iq_victims", static_cast<std::uint64_t>(iq_victims)},
             {"fe_victims", static_cast<std::uint64_t>(
                                victims.size() - iq_victims)}});

    for (std::size_t i = 0; i < iq_victims; ++i) {
        finalizeIncarnation(victims[i], _cycle, incSquashTrigger);
        _freeEntries.push_back(_arena.iqEntry[victims[i]]);
    }
    _iq.truncate(_iqIssued);
    _fePipe.clear();

    // Rewind speculative predictor state to before the oldest victim
    // that touched it; every victim will re-predict at refetch.
    for (const InstId victim : victims) {
        const std::uint8_t f = _arena.flags[victim];
        if (f & diUsedDirPred) {
            _dirPred->rewindHistory(_arena.cold[victim].predLookup);
        }
        if (f & diRasCheckpointed) {
            _ras->restore(_arena.cold[victim].rasCp);
        }
        if (f & (diUsedDirPred | diRasCheckpointed))
            break;
    }

    // If the branch whose misprediction put fetch on the wrong path
    // is itself squashed, that misprediction evaporates: it will be
    // re-predicted at replay.
    std::deque<ReplayItem> replaced;
    for (const InstId victim : victims) {
        const std::uint8_t f = _arena.flags[victim];
        if (f & diWrongPath)
            continue;
        if (f & diMispredicted)
            _wrongPathMode = false;
        const InstCold &cold = _arena.cold[victim];
        ReplayItem item;
        item.oracleSeq = cold.oracleSeq;
        item.pc = _arena.pc[victim];
        item.inst = cold.inst;
        item.qpTrue = f & diQpTrue;
        item.actualTaken = f & diActualTaken;
        item.actualNextPc = cold.actualNextPc;
        item.memAddr = cold.memAddr;
        replaced.push_back(item);
    }
    // New victims are older than anything already awaiting replay.
    for (auto it = replaced.rbegin(); it != replaced.rend(); ++it)
        _replay.push_front(*it);

    // Everything a victim carried has been copied out (incarnation
    // record, predictor repair, replay item); recycle the ids.
    for (const InstId victim : victims)
        _arena.release(victim);
}

bool
InOrderPipeline::operandsReady(InstId id) const
{
    const std::uint32_t w = _arena.opnd[id];
    if (_predReady[opndQp(w)] > _cycle)
        return false;
    // A nullified instruction consumes only its predicate.
    bool needs_sources =
        _arena.flags[id] & (diWrongPath | diQpTrue);
    if (!needs_sources)
        return true;
    return _readyByClass[opndSrc1Class(w)][opndSrc1(w)] <= _cycle &&
           _readyByClass[opndSrc2Class(w)][opndSrc2(w)] <= _cycle;
}

void
InOrderPipeline::issueOne(InstId id)
{
    _arena.issueCycle[id] = _cycle;
    _arena.completeCycle[id] = _cycle + _params.evictDelay;
    const std::uint8_t f = _arena.flags[id];

    const isa::StaticInst &inst = _arena.cold[id].inst;
    bool executes = !(f & diWrongPath) && (f & diQpTrue);

    if (executes && inst.isLoad()) {
        memory::AccessResult r =
            _dcache->access(_arena.cold[id].memAddr, _cycle);
        std::uint64_t fill = _cycle + r.latency;
        std::uint8_t dst = inst.dst();
        if (inst.writesIntReg() && dst != 0) {
            _intReady[dst] = fill;
            _intByLoad[dst] = 1;
        } else if (inst.writesFpReg() && dst > 1) {
            _fpReady[dst] = fill;
            _fpByLoad[dst] = 1;
        }
        if (r.level != memory::HitLevel::L0) {
            // The memory system's miss signal arrives once the next
            // level's lookup fails; for a secondary (MSHR) miss the
            // outstanding request is found at the L0 lookup.
            unsigned detect = 0;
            if (r.secondary) {
                detect = _params.hierarchy.l0.hitLatency;
            } else {
                switch (r.level) {
                  case memory::HitLevel::L1:
                    detect = _params.hierarchy.l0.hitLatency;
                    break;
                  case memory::HitLevel::L2:
                    detect = _params.hierarchy.l1.hitLatency;
                    break;
                  case memory::HitLevel::Memory:
                    detect = _params.hierarchy.l2.hitLatency;
                    break;
                  case memory::HitLevel::L0:
                    break;
                }
            }
            _triggers.push_back(
                {_cycle + detect, fill, r.level});
        }
    } else if (executes && inst.isStore()) {
        _dcache->access(_arena.cold[id].memAddr, _cycle);
    } else if (executes && inst.isPrefetch()) {
        _dcache->prefetch(_arena.cold[id].memAddr, _cycle);
    } else if (executes && inst.hasDst()) {
        std::uint64_t ready = _cycle + latencyOf(inst);
        std::uint8_t dst = inst.dst();
        if (inst.writesIntReg() && dst != 0) {
            _intReady[dst] = ready;
            _intByLoad[dst] = 0;
        } else if (inst.writesFpReg() && dst > 1) {
            _fpReady[dst] = ready;
            _fpByLoad[dst] = 0;
        } else if (inst.writesPredReg() && dst != 0) {
            _predReady[dst] = ready;
        }
    }

    if (inst.isBranch() && !(f & diWrongPath)) {
        // Correct-path control resolves (and possibly redirects)
        // after the resolve delay; wrong-path control never
        // resolves — it dies with its mispredicted ancestor.
        _resolutions.push_back(
            {_cycle + _params.branchResolveDelay, id});
    }
}

/** Why the oldest non-issued instruction cannot issue at `cycle`,
 * as the scalar to charge. Factored out of recordStallReason so the
 * cycle-skipping scheduler can charge a whole idle span to the same
 * (provably constant) classification in one weighted add. */
statistics::Scalar &
InOrderPipeline::stallReasonAt(std::uint64_t cycle)
{
    if (_iqIssued >= _iq.size())
        return statStallEmpty;
    const InstId head = _iq[_iqIssued];
    if (_arena.enqueueCycle[head] >= cycle)
        return statStallEmpty;
    const std::uint32_t w = _arena.opnd[head];
    constexpr auto clsInt =
        static_cast<std::uint32_t>(isa::RegClass::Int);
    constexpr auto clsFp =
        static_cast<std::uint32_t>(isa::RegClass::Fp);
    bool on_load = false;
    auto check = [&](std::uint32_t cls, std::uint32_t reg) {
        if (cls == clsInt && _intReady[reg] > cycle &&
            _intByLoad[reg])
            on_load = true;
        if (cls == clsFp && _fpReady[reg] > cycle && _fpByLoad[reg])
            on_load = true;
    };
    check(opndSrc1Class(w), opndSrc1(w));
    check(opndSrc2Class(w), opndSrc2(w));
    if (on_load)
        return statStallLoad;
    return statStallExec;
}

/** Why the oldest non-issued instruction cannot issue (stats). */
void
InOrderPipeline::recordStallReason()
{
    ++stallReasonAt(_cycle);
}

void
InOrderPipeline::issue()
{
    unsigned budget = _params.issueWidth;
    unsigned issued = 0;
    while (budget > 0 && _iqIssued < _iq.size()) {
        const InstId di = _iq[_iqIssued];
        if (_arena.enqueueCycle[di] >= _cycle)
            break;  // entered the queue this cycle
        if (!operandsReady(di))
            break;  // strict in-order issue
        issueOne(di);
        ++_iqIssued;
        --budget;
        ++issued;
    }
    if (budget > 0)
        recordStallReason();
    statIssueWidth.sample(static_cast<double>(issued));
}

void
InOrderPipeline::enqueue()
{
    unsigned budget = _params.enqueueWidth;
    while (budget > 0 && !_fePipe.empty() && !_freeEntries.empty()) {
        const InstId di = _fePipe.front();
        if (_arena.fetchCycle[di] + _params.frontEndDepth > _cycle)
            break;
        _fePipe.pop_front();
        _arena.iqEntry[di] = _freeEntries.back();
        _freeEntries.pop_back();
        _arena.enqueueCycle[di] = _cycle;
        _iq.push_back(di);
        --budget;
    }
}

void
InOrderPipeline::handleControlPrediction(InstId id,
                                         bool &taken_break)
{
    InstCold &cold = _arena.cold[id];
    const isa::StaticInst &inst = cold.inst;
    if (!inst.isBranch())
        return;

    const std::uint32_t pc = _arena.pc[id];
    std::uint8_t f = _arena.flags[id];
    cold.rasCp = _ras->checkpoint();
    f |= diRasCheckpointed;

    bool pred_taken;
    if (inst.qp() == 0) {
        pred_taken = true;
    } else {
        cold.predLookup = _dirPred->predict(pc);
        f |= diUsedDirPred;
        pred_taken = cold.predLookup.taken;
    }

    std::uint32_t pred_target = pc + 1;
    if (pred_taken) {
        if (inst.isDirectBranch()) {
            pred_target = static_cast<std::uint32_t>(
                static_cast<std::uint32_t>(inst.imm()));
        } else if (inst.isReturn()) {
            pred_target = _ras->pop();
        } else {  // bri
            pred_target = _btb->lookup(pc).value_or(pc + 1);
        }
        if (inst.isCall())
            _ras->push(pc + 1);
    }
    if (pred_taken)
        f |= diPredictedTaken;
    cold.predictedTarget = pred_target;

    if (f & diWrongPath) {
        // No oracle outcome: fetch simply follows the prediction.
        _wrongPc = pred_taken ? pred_target : pc + 1;
    } else {
        const bool actual_taken = f & diActualTaken;
        const bool mispredicted =
            pred_taken != actual_taken ||
            (actual_taken && pred_target != cold.actualNextPc);
        if (mispredicted) {
            f |= diMispredicted;
            _wrongPathMode = true;
            _wrongPc = pred_taken ? pred_target : pc + 1;
        }
    }
    _arena.flags[id] = f;
    if (pred_taken)
        taken_break = true;
}

InstId
InOrderPipeline::fetchOracle(bool &taken_break)
{
    isa::StepInfo si;
    isa::Termination term = _oracle->step(&si);
    if (term == isa::Termination::Trap)
        SER_FATAL("pipeline: program trapped at pc {} after {} "
                  "instructions", _oracle->pc(), _oracle->steps());

    const InstId di = _arena.allocate();
    _arena.seq[di] = _nextSeq++;
    _arena.pc[di] = si.pc;
    _arena.fetchCycle[di] = _cycle;
    std::uint8_t f = 0;
    if (si.qpTrue)
        f |= diQpTrue;
    if (si.taken)
        f |= diActualTaken;
    _arena.flags[di] = f;
    InstCold &cold = _arena.cold[di];
    cold.oracleSeq = si.seq;
    cold.inst = si.inst;
    cold.actualNextPc = si.nextPc;
    cold.memAddr = si.memAddr;
    _arena.opnd[di] = packOperands(si.inst);

    CommitRecord cr;
    cr.staticIdx = si.pc;
    cr.qpTrue = si.qpTrue ? 1 : 0;
    cr.memAddr = (si.qpTrue && si.inst.isMem() &&
                  !si.inst.isPrefetch())
                     ? si.memAddr
                     : 0;
    _trace.commits.push_back(cr);

    if (term == isa::Termination::Halted) {
        _doneFetching = true;
        _trace.programHalted = true;
    } else {
        handleControlPrediction(di, taken_break);
    }
    return di;
}

InstId
InOrderPipeline::fetchReplay(bool &taken_break)
{
    ReplayItem item = _replay.front();
    _replay.pop_front();

    const InstId di = _arena.allocate();
    _arena.seq[di] = _nextSeq++;
    _arena.pc[di] = item.pc;
    _arena.fetchCycle[di] = _cycle;
    std::uint8_t f = 0;
    if (item.qpTrue)
        f |= diQpTrue;
    if (item.actualTaken)
        f |= diActualTaken;
    _arena.flags[di] = f;
    InstCold &cold = _arena.cold[di];
    cold.oracleSeq = item.oracleSeq;
    cold.inst = item.inst;
    cold.actualNextPc = item.actualNextPc;
    cold.memAddr = item.memAddr;
    _arena.opnd[di] = packOperands(item.inst);

    if (!cold.inst.isHalt())
        handleControlPrediction(di, taken_break);
    ++statReplayFetched;
    return di;
}

InstId
InOrderPipeline::fetchWrongPath(bool &taken_break)
{
    const InstId di = _arena.allocate();
    _arena.seq[di] = _nextSeq++;
    _arena.pc[di] = _wrongPc;
    _arena.fetchCycle[di] = _cycle;
    // Wrong-path incarnations keep the default-true predicate: the
    // issue gate treats them as consuming their sources, exactly as
    // the oracle-path default did.
    _arena.flags[di] = diQpTrue | diWrongPath;
    _arena.cold[di].inst = _program.inst(_wrongPc);
    _arena.opnd[di] = packOperands(_arena.cold[di].inst);

    _wrongPc = _wrongPc + 1;  // default; prediction may redirect
    if (_arena.cold[di].inst.isBranch())
        handleControlPrediction(di, taken_break);
    ++statWrongPathFetched;
    return di;
}

void
InOrderPipeline::fetch()
{
    if (_cycle < _fetchResumeCycle || _cycle < _throttleUntil)
        return;

    const std::size_t fe_cap =
        static_cast<std::size_t>(_params.frontEndDepth) *
        _params.enqueueWidth;
    unsigned budget = _params.fetchWidth;
    const unsigned budget0 = budget;
    while (budget > 0 && _fePipe.size() < fe_cap) {
        bool taken_break = false;
        InstId di;
        if (_wrongPathMode) {
            if (_wrongPc >= _program.size())
                break;  // ran off the image; wait for resolution
            di = fetchWrongPath(taken_break);
        } else if (!_replay.empty()) {
            di = fetchReplay(taken_break);
        } else {
            if (_doneFetching ||
                _trace.commits.size() >= _params.maxInsts) {
                _doneFetching = true;
                break;
            }
            di = fetchOracle(taken_break);
        }
        _fePipe.push_back(di);
        --budget;
        if (taken_break) {
            // The fetch group ends at a predicted-taken branch and
            // the front end pays a redirect bubble.
            _fetchResumeCycle = std::max(
                _fetchResumeCycle,
                _cycle + 1 + _params.takenBranchBubble);
            break;
        }
        if (_doneFetching)
            break;
    }
    // One weighted add per tick instead of a float add per fetch.
    statFetched += static_cast<double>(budget0 - budget);
}

} // namespace cpu
} // namespace ser
