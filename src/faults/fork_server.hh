/**
 * @file
 * Checkpoint/fork service for fault-injection re-runs.
 *
 * A full counterfactual re-run replays the program from the entry
 * point for every injection. The ForkServer instead runs the golden
 * program twice, once to learn its length and once more to capture
 * evenly spaced ExecCheckpoints, and serves each injection by forking
 * from the last checkpoint at or before the strike — so an injection
 * pays only its post-strike suffix.
 *
 * Checkpoints and forks share memory pages copy-on-write (see
 * isa::SparseMemory): a checkpoint costs the page table plus the
 * pages the golden run writes before the next one, a fork start
 * costs the page table, and a fork clones only the pages it writes.
 * The convergence check below skips every page the fork still
 * shares with the golden checkpoint without reading it.
 *
 * A fork terminates early in either direction:
 *
 *  - Convergence: at a (post-strike) checkpoint boundary the forked
 *    state equals the golden checkpoint. The executor is
 *    deterministic, so the suffix is identical to the golden run and
 *    the fault is masked (changed = false).
 *  - Divergence: the forked output stream stops being a prefix of
 *    the golden output. Output is append-only, so the final outputs
 *    must differ (changed = true).
 *
 * The verdict is exactly the full-rerun verdict (the equivalence is
 * property-tested): trap or exceeding the same absolute step budget
 * counts as changed, and a run that halts compares its full output
 * against the golden stream.
 */

#ifndef SER_FAULTS_FORK_SERVER_HH
#define SER_FAULTS_FORK_SERVER_HH

#include <cstdint>
#include <vector>

#include "isa/executor.hh"
#include "isa/isa.hh"
#include "isa/program.hh"

namespace ser
{
namespace faults
{

class ForkServer
{
  public:
    /** Outcome of one forked counterfactual. */
    struct Verdict
    {
        bool changed = false;     ///< program output would differ
        std::uint64_t steps = 0;  ///< instructions the fork executed
    };

    /**
     * Run the golden program and capture checkpoints.
     *
     * @param program the program to serve forks of
     * @param budget absolute step budget for golden and forked runs
     *        (0 derives one later from the golden length: 2x + 10000)
     * @param checkpoints target number of checkpoints T (>= 1): step
     *        0 and every multiple of the smallest power-of-two stride
     *        s with (2T - 1) * s >= golden length, so the count lies
     *        in [T, 2T) for any golden run of at least T steps
     *
     * Panics if the golden run does not halt within the budget — a
     * campaign against a non-terminating golden run has no baseline
     * output to compare against.
     */
    ForkServer(const isa::Program &program, std::uint64_t budget = 0,
               unsigned checkpoints = 32);

    std::uint64_t goldenSteps() const { return _goldenSteps; }
    const std::vector<std::uint64_t> &goldenOutput() const
    {
        return _goldenOutput;
    }
    std::size_t numCheckpoints() const { return _checkpoints.size(); }
    const std::vector<isa::ExecCheckpoint> &checkpoints() const
    {
        return _checkpoints;
    }

    /**
     * Counterfactual: XOR the encoding of the instruction fetched at
     * dynamic step 'seq' with 'mask'. Thread-safe (const: forks its
     * own executor, which only reads the shared checkpoint pages).
     */
    Verdict corruptEncoding(std::uint64_t seq,
                            std::uint64_t mask) const;

    /**
     * Counterfactual: flip one bit of an architectural register in
     * the state reached after 'step' dynamic instructions, i.e. the
     * next reader of the register sees the flipped value.
     */
    Verdict corruptRegister(std::uint64_t step, isa::RegClass file,
                            int reg, int bit) const;

  private:
    /** Last checkpoint with steps <= step (checkpoint 0 is step 0). */
    const isa::ExecCheckpoint &checkpointAtOrBefore(
        std::uint64_t step) const;

    /**
     * Run a forked executor to termination with convergence /
     * divergence early exits. Convergence is only tested at
     * checkpoints strictly after 'corrupt_after' steps.
     */
    Verdict runFork(isa::Executor &executor,
                    std::uint64_t fork_start,
                    std::uint64_t corrupt_after) const;

    const isa::Program &_program;
    std::uint64_t _budget;
    std::uint64_t _goldenSteps = 0;
    std::vector<std::uint64_t> _goldenOutput;
    std::vector<isa::ExecCheckpoint> _checkpoints;
};

} // namespace faults
} // namespace ser

#endif // SER_FAULTS_FORK_SERVER_HH
