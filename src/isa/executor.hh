/**
 * @file
 * The TIA64 functional executor.
 *
 * Executes a Program against an ArchState one instruction at a time.
 * Two users:
 *
 *  - The timing model (src/cpu) drives an Executor as its oracle: one
 *    step per correct-path fetched instruction, in fetch order. The
 *    StepInfo it returns (taken branches, effective addresses, the
 *    qp outcome) is what lets fetch detect mispredictions and lets
 *    the dcache model see real addresses.
 *
 *  - The fault injector re-runs programs functionally with a single
 *    dynamic instruction's encoding corrupted (setCorruption) and
 *    compares the output stream against the golden run to decide
 *    whether a fault would have affected the program output.
 *
 * Execution is fully deterministic: divide-by-zero yields 0 rather
 *  than trapping, shift counts are masked, and memory reads of
 * untouched locations return 0.
 */

#ifndef SER_ISA_EXECUTOR_HH
#define SER_ISA_EXECUTOR_HH

#include <cstdint>
#include <optional>

#include "isa/arch_state.hh"
#include "isa/program.hh"

namespace ser
{
namespace isa
{

/** Why the executor stopped (or didn't). */
enum class Termination : std::uint8_t
{
    Running,   ///< step() executed normally
    Halted,    ///< executed a halt
    MaxSteps,  ///< run() hit its step bound
    Trap,      ///< illegal opcode / bad branch target / pc off the end
};

/** What one dynamic instruction did. */
struct StepInfo
{
    std::uint64_t seq;       ///< dynamic step index (0-based)
    std::uint32_t pc;        ///< instruction index executed
    StaticInst inst;         ///< as executed (post-corruption if any)
    bool qpTrue;             ///< false: instruction was nullified
    bool taken;              ///< control transfer redirected the pc
    std::uint32_t nextPc;    ///< instruction index executed next
    std::uint64_t memAddr;   ///< effective address for memory ops
    std::uint64_t storeValue;///< raw value written, for stores
    int callDepthDelta;      ///< +1 for call, -1 for ret (if qpTrue)
};

/**
 * A resumable snapshot of an execution in flight: the architectural
 * state plus the executor's own position (pc, step count, call
 * depth). Forking an Executor from one is equivalent to replaying
 * the program from the entry for 'steps' instructions — the
 * checkpoint/fork primitive the fault-injection campaign engine uses
 * to pay only an injection's post-strike suffix. Memory pages are
 * shared copy-on-write (SparseMemory), so taking a snapshot or
 * forking from one copies the registers, the output stream and the
 * page table, and the fork pays for a page only when it writes it.
 */
struct ExecCheckpoint
{
    ArchState state;
    std::uint32_t pc = 0;
    std::uint64_t steps = 0;
    int callDepth = 0;
};

/** Functional executor over one Program. */
class Executor
{
  public:
    explicit Executor(const Program &program);

    /**
     * Resume from a checkpoint of a run of 'program'. The step
     * counter resumes too, so a setCorruption keyed on an absolute
     * dynamic seq still fires at the right instruction.
     */
    Executor(const Program &program, const ExecCheckpoint &checkpoint);

    /** Capture the current execution position and state. */
    ExecCheckpoint snapshot() const;

    /**
     * Corrupt the instruction fetched at dynamic step 'seq' by XORing
     * its encoding with 'mask' (single-event upset model). At most
     * one corruption is in effect per run.
     */
    void setCorruption(std::uint64_t seq, std::uint64_t mask);
    void clearCorruption() { _corruptSeq.reset(); }

    /**
     * Execute one instruction. Returns Termination::Running on a
     * normal step, or the terminal condition. info (optional)
     * receives the step's details; it is filled in even for the
     * halting step, but not for traps detected before decode.
     */
    Termination step(StepInfo *info = nullptr);

    /** Run until halt/trap or until max_steps more instructions. */
    Termination run(std::uint64_t max_steps);

    const ArchState &state() const { return _state; }
    ArchState &state() { return _state; }
    const Program &program() const { return _program; }

    std::uint64_t steps() const { return _steps; }
    std::uint32_t pc() const { return _pc; }
    int callDepth() const { return _callDepth; }

  private:
    Termination execute(const StaticInst &inst, StepInfo &info);

    const Program &_program;
    ArchState _state;
    std::uint32_t _pc;
    std::uint64_t _steps = 0;
    int _callDepth = 0;
    std::optional<std::uint64_t> _corruptSeq;
    std::uint64_t _corruptMask = 0;
};

} // namespace isa
} // namespace ser

#endif // SER_ISA_EXECUTOR_HH
