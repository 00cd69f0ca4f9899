#include "fork_server.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ser
{
namespace faults
{

ForkServer::ForkServer(const isa::Program &program,
                       std::uint64_t budget, unsigned checkpoints)
    : _program(program), _budget(budget)
{
    // Pass 1 learns the golden length N and output. No snapshots: a
    // snapshot copies the page table, thousands of pages on the
    // large-working-set surrogates.
    const std::uint64_t limit = _budget ? _budget : (1ULL << 26);
    isa::Executor golden(_program);
    if (golden.run(limit) != isa::Termination::Halted) {
        SER_PANIC("ForkServer: golden run did not halt within {} "
                  "steps", limit);
    }
    _goldenSteps = golden.steps();
    _goldenOutput = golden.state().output();
    if (!_budget)
        _budget = 2 * _goldenSteps + 10000;

    // Pass 2 snapshots step 0 and every multiple of the stride s
    // before the halting step, where s is the smallest power of two
    // with (2T - 1) * s >= N: 1 + floor((N - 1) / s) checkpoints,
    // within [T, 2T) for any run of at least T steps. The checkpoint
    // steps fix every fork's rerun length, which the campaign tables
    // print, so this set must not move.
    const std::uint64_t target = std::max(1u, checkpoints);
    std::uint64_t stride = 1;
    while ((2 * target - 1) * stride < _goldenSteps)
        stride *= 2;
    isa::Executor executor(_program);
    _checkpoints.push_back(executor.snapshot());
    for (std::uint64_t step = stride; step < _goldenSteps;
         step += stride) {
        executor.run(step - executor.steps());
        _checkpoints.push_back(executor.snapshot());
    }
}

const isa::ExecCheckpoint &
ForkServer::checkpointAtOrBefore(std::uint64_t step) const
{
    auto it = std::upper_bound(
        _checkpoints.begin(), _checkpoints.end(), step,
        [](std::uint64_t s, const isa::ExecCheckpoint &cp) {
            return s < cp.steps;
        });
    // Checkpoint 0 is step 0, so the range before 'it' is never
    // empty.
    return *(it - 1);
}

ForkServer::Verdict
ForkServer::runFork(isa::Executor &executor,
                    std::uint64_t fork_start,
                    std::uint64_t corrupt_after) const
{
    // First checkpoint whose state can have absorbed the corruption.
    std::size_t cpi =
        static_cast<std::size_t>(std::upper_bound(
            _checkpoints.begin(), _checkpoints.end(), corrupt_after,
            [](std::uint64_t s, const isa::ExecCheckpoint &cp) {
                return s < cp.steps;
            }) - _checkpoints.begin());

    // The restored prefix of the output is golden by construction;
    // only newly appended values need prefix-checking.
    std::size_t checked = executor.state().output().size();
    auto outputDiverged = [&] {
        const auto &out = executor.state().output();
        if (out.size() > _goldenOutput.size())
            return true;
        for (; checked < out.size(); ++checked) {
            if (out[checked] != _goldenOutput[checked])
                return true;
        }
        return false;
    };

    for (;;) {
        std::uint64_t target = cpi < _checkpoints.size()
                                   ? _checkpoints[cpi].steps
                                   : _budget;
        target = std::min(target, _budget);
        isa::Termination term = isa::Termination::Running;
        while (executor.steps() < target) {
            term = executor.step();
            if (term != isa::Termination::Running)
                break;
        }
        std::uint64_t ran = executor.steps() - fork_start;
        if (term == isa::Termination::Halted) {
            bool changed =
                outputDiverged() || executor.state().output().size()
                                        != _goldenOutput.size();
            return {changed, ran};
        }
        if (term == isa::Termination::Trap)
            return {true, ran};
        if (outputDiverged())
            return {true, ran};
        if (executor.steps() >= _budget)
            return {true, ran};  // same verdict as a full-rerun
                                 // MaxSteps: failed to terminate
        if (cpi < _checkpoints.size() &&
            executor.steps() == _checkpoints[cpi].steps) {
            const isa::ExecCheckpoint &cp = _checkpoints[cpi];
            if (executor.pc() == cp.pc &&
                executor.callDepth() == cp.callDepth &&
                executor.state().equals(cp.state)) {
                // Reconverged with the golden run at the same step
                // count: the deterministic suffix is identical, so
                // the fault is architecturally masked.
                return {false, ran};
            }
            ++cpi;
        }
    }
}

ForkServer::Verdict
ForkServer::corruptEncoding(std::uint64_t seq,
                            std::uint64_t mask) const
{
    const isa::ExecCheckpoint &cp = checkpointAtOrBefore(seq);
    isa::Executor executor(_program, cp);
    executor.setCorruption(seq, mask);
    return runFork(executor, cp.steps, seq);
}

ForkServer::Verdict
ForkServer::corruptRegister(std::uint64_t step, isa::RegClass file,
                            int reg, int bit) const
{
    const isa::ExecCheckpoint &cp = checkpointAtOrBefore(step);
    isa::Executor executor(_program, cp);
    while (executor.steps() < step) {
        isa::Termination term = executor.step();
        if (term != isa::Termination::Running) {
            // The golden prefix halts exactly at 'step' (a strike in
            // the very last commit's cycle): the output is already
            // complete, so a register flip can no longer be read.
            return {false, executor.steps() - cp.steps};
        }
    }

    isa::ArchState &state = executor.state();
    switch (file) {
      case isa::RegClass::Int:
        state.writeInt(reg, state.readInt(reg) ^ (1ULL << bit));
        break;
      case isa::RegClass::Fp:
        state.writeFpBits(reg,
                          state.readFpBits(reg) ^ (1ULL << bit));
        break;
      case isa::RegClass::Pred:
        state.writePred(reg, !state.readPred(reg));
        break;
      case isa::RegClass::None:
        SER_PANIC("corruptRegister: not a register file");
    }
    return runFork(executor, cp.steps, step);
}

} // namespace faults
} // namespace ser
