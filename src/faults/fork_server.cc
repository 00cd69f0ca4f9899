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
    unsigned target = std::max(1u, checkpoints);
    isa::Executor executor(_program);
    _checkpoints.push_back(executor.snapshot());  // step 0

    // Single golden pass with stride doubling: capture every
    // 'stride' steps, and when the capture count reaches twice the
    // target, drop every other checkpoint and double the stride. The
    // final count lands in [target, 2*target) without knowing the
    // run length in advance.
    std::uint64_t stride = 1;
    std::uint64_t limit = _budget ? _budget : (1ULL << 26);
    isa::Termination term = isa::Termination::Running;
    while (executor.steps() < limit) {
        term = executor.step();
        if (term != isa::Termination::Running)
            break;
        if (executor.steps() % stride == 0) {
            _checkpoints.push_back(executor.snapshot());
            if (_checkpoints.size() >= 2 * target) {
                std::vector<isa::ExecCheckpoint> kept;
                kept.reserve(target + 1);
                for (std::size_t i = 0; i < _checkpoints.size();
                     i += 2)
                    kept.push_back(std::move(_checkpoints[i]));
                _checkpoints = std::move(kept);
                stride *= 2;
            }
        }
    }
    if (term != isa::Termination::Halted) {
        SER_PANIC("ForkServer: golden run did not halt within {} "
                  "steps", limit);
    }
    _goldenSteps = executor.steps();
    _goldenOutput = executor.state().output();
    if (!_budget)
        _budget = 2 * _goldenSteps + 10000;
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
ForkServer::corruptRegister(std::uint64_t step, RegClass file,
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
      case RegClass::Int:
        state.writeInt(reg, state.readInt(reg) ^ (1ULL << bit));
        break;
      case RegClass::Fp:
        state.writeFpBits(reg,
                          state.readFpBits(reg) ^ (1ULL << bit));
        break;
      case RegClass::Pred:
        state.writePred(reg, !state.readPred(reg));
        break;
    }
    return runFork(executor, cp.steps, step);
}

} // namespace faults
} // namespace ser
