/**
 * @file
 * Single-bit fault injection and outcome classification.
 *
 * The injector classifies a fault site against a finished timing run
 * into a Verdict that does not depend on the protection configured.
 * An IQ site maps (entry, cycle) to the incarnation that occupied the
 * entry; a register-file site maps (file, reg, cycle) to the value
 * window the avf/regfile_avf walk recorded. The verdict says whether
 * the struck bit was read afterwards and — for read payload bits —
 * answers "would the program output have changed" by *functionally
 * re-running the program with the corruption applied* and comparing
 * the output stream against the golden run. This is the statistical
 * fault-injection methodology of the related work (Kim & Somani;
 * Wang et al.) that the paper cites as the alternative to ACE
 * analysis, and it lets the test suite cross-validate the analytical
 * AVF numbers.
 *
 * Parity, ECC and the pi bit change only how one strike is reported:
 * label() maps a verdict to the Figure 1 outcome under each scheme.
 */

#ifndef SER_FAULTS_INJECTOR_HH
#define SER_FAULTS_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "avf/regfile_avf.hh"
#include "cpu/trace.hh"
#include "faults/fault.hh"
#include "faults/fork_server.hh"
#include "isa/executor.hh"
#include "isa/program.hh"

namespace ser
{
namespace faults
{

/** Maps (entry, cycle) -> incarnation record. */
class ResidencyIndex
{
  public:
    /** No residency occupies the probed (entry, cycle). */
    static constexpr std::int64_t noIncarnation = -1;

    explicit ResidencyIndex(const cpu::SimTrace &trace);

    /** Index (into the trace's incarnation columns) of the
     * incarnation occupying 'entry' at 'cycle', or noIncarnation. */
    std::int64_t find(std::uint16_t entry, std::uint64_t cycle) const;

  private:
    const cpu::SimTrace &_trace;
    /** Per entry, residency row indices sorted by enqueue cycle. */
    std::vector<std::vector<std::uint32_t>> _byEntry;
};

/** What the struck bit is. */
enum class BitRole : std::uint8_t
{
    Payload,  ///< instruction encoding, or a register's value
    Valid,    ///< the IQ entry's valid bit
    Parity,   ///< the IQ entry's parity bit
    Pi,       ///< the IQ entry's pi bit
};

/** What one strike does, whatever protects the structure. */
struct Verdict
{
    /** The incarnation (IQ) or the value window within the struck
     * register (register files) the site hits; -1 for an idle entry
     * or an unwritten register. */
    std::int64_t residency = -1;
    /** Instructions the counterfactual re-run executed (suffix-only
     * with a fork server attached; the full dynamic length
     * otherwise). */
    std::uint64_t rerunSteps = 0;
    BitRole role = BitRole::Payload;
    /** The bit is read after the strike: before the IQ entry issues,
     * or before the register window's last read. */
    bool readAfter = false;
    bool wrongPath = false;  ///< the instruction was on the wrong path
    bool committed = false;  ///< the instruction committed
    /** The counterfactual re-run was evaluated... */
    bool reRan = false;
    /** ...and changed the program output. */
    bool outputChanged = false;

    /** Unprotected and parity outcomes hinge on the re-run: a read
     * payload bit of a correct-path instruction. */
    bool needsRerun() const
    {
        return residency >= 0 && role == BitRole::Payload &&
               readAfter && !wrongPath;
    }

    bool operator==(const Verdict &) const = default;
};

/**
 * The Figure 1 outcome of one verdict under one protection scheme.
 * Panics under None or Parity if the verdict skipped a re-run it
 * needs.
 */
Outcome label(const Verdict &verdict, Protection protection);

/** Classifies faults against one finished run. */
class FaultInjector
{
  public:
    /**
     * @param program the program that was run
     * @param trace the finished timing trace
     * @param golden_output the fault-free program output
     * @param rerun_budget max instructions for a corrupted re-run
     *        (defaults to 2x the golden dynamic length)
     */
    FaultInjector(const isa::Program &program,
                  const cpu::SimTrace &trace,
                  std::vector<std::uint64_t> golden_output,
                  std::uint64_t rerun_budget = 0);

    /**
     * Classify one fault site. With 'counterfactual' false nothing
     * re-runs: a verdict that needsRerun() comes back unevaluated,
     * and only ECC may label it.
     */
    Verdict classify(const FaultSite &site,
                     bool counterfactual = true) const;

    /** The static instruction whose state a classified site struck
     * (cpu::noSeq32 if it hit no residency). */
    std::uint32_t struckInst(const FaultSite &site,
                             const Verdict &verdict) const;

    /**
     * Serve counterfactual re-runs from checkpoints instead of
     * replaying from the program entry. The fork server must have
     * been built over the same program (its golden output must match
     * the one this injector was constructed with). Register strikes
     * always re-run through it. Not owned.
     */
    void attachForkServer(const ForkServer *fork) { _fork = fork; }

    /** Classify register-file sites against these windows, walked
     * over the same trace. Not owned. */
    void attachRegisterWindows(const avf::RegFileWindows *windows)
    {
        _regs = windows;
    }

  private:
    Verdict classifyIq(const FaultSite &site,
                       bool counterfactual) const;
    Verdict classifyRegister(const FaultSite &site,
                             bool counterfactual) const;

    /** Re-run with the given bit of a committed (oracle-order)
     * instruction's encoding flipped. */
    ForkServer::Verdict rerunWithCorruption(std::uint64_t oracle_seq,
                                            int bit) const;

    const isa::Program &_program;
    const cpu::SimTrace &_trace;
    std::vector<std::uint64_t> _golden;
    std::uint64_t _rerunBudget;
    ResidencyIndex _index;
    const ForkServer *_fork = nullptr;
    const avf::RegFileWindows *_regs = nullptr;
};

} // namespace faults
} // namespace ser

#endif // SER_FAULTS_INJECTOR_HH
