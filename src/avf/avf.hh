/**
 * @file
 * Per-bit AVF accounting for the instruction queue (paper Section 2).
 *
 * Folds the per-incarnation queue residencies recorded by the timing
 * model together with the deadness classification into bit-cycle
 * counts per ACE class, and derives from them:
 *
 *  - SDC AVF of the unprotected queue (= ACE bit-cycles / total);
 *  - DUE AVF of a parity-protected queue that signals on detection
 *    (= true DUE + false DUE, where true DUE equals the unprotected
 *    SDC AVF and false DUE comes from un-ACE bits that get read);
 *  - the un-ACE breakdown by source (wrong-path, predicated-false,
 *    neutral, FDD/TDD via registers/memory) that drives the paper's
 *    Figure 2 coverage analysis.
 *
 * Field-sensitive rules (Section 4.1, plus refinements documented in
 * DESIGN.md):
 *  - dynamically dead register defs: destination-specifier bits are
 *    ACE, everything else un-ACE;
 *  - dynamically dead stores: address bits (base register specifier
 *    and immediate offset) are ACE, everything else un-ACE;
 *  - neutral instructions: opcode bits ACE, everything else un-ACE;
 *  - predicated-false instructions: qualifying-predicate bits ACE,
 *    everything else un-ACE;
 *  - wrong-path instructions: fully un-ACE;
 *  - residencies that are squashed before ever being read are fully
 *    un-ACE and undetectable (the refetch wipes any strike);
 *  - post-last-read residency is Ex-ACE: never read again, so it
 *    contributes to neither SDC nor DUE (except in the
 *    decode-at-retire ablation, where it becomes readable).
 */

#ifndef SER_AVF_AVF_HH
#define SER_AVF_AVF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "avf/deadness.hh"
#include "cpu/trace.hh"
#include "sim/column.hh"

namespace ser
{
namespace avf
{

/** The un-ACE sources the paper's tracking mechanisms cover. */
enum class UnAceSource : std::uint8_t
{
    WrongPath,
    PredFalse,
    Neutral,
    FddReg,
    TddReg,
    FddMem,
    TddMem,
    NumSources
};

constexpr int numUnAceSources =
    static_cast<int>(UnAceSource::NumSources);

const char *unAceSourceName(UnAceSource src);

/**
 * Per-epoch ACE accounting: the window's bit-cycle classes binned
 * onto the same epoch grid the runtime IntervalSampler uses (anchored
 * at the window start), so vulnerability-vs-time lines up with the
 * IPC/occupancy time series. An incarnation residency spanning an
 * epoch boundary contributes to each epoch in proportion to the
 * cycles it spends there.
 */
struct EpochAce
{
    std::uint64_t startCycle = 0;
    std::uint64_t cycles = 0;
    std::uint64_t occupied = 0;   ///< valid bit-cycles (any class)
    std::uint64_t ace = 0;        ///< ACE bit-cycles
    std::uint64_t unAceRead = 0;  ///< read un-ACE (false-DUE source)
};

/** Bit-cycle totals and the AVFs derived from them. */
struct AvfResult
{
    // Window geometry.
    std::uint64_t windowCycles = 0;
    std::uint64_t totalBitCycles = 0;  ///< entries * 64 * cycles

    // Occupancy classes.
    std::uint64_t idle = 0;
    std::uint64_t exAce = 0;
    std::uint64_t squashedUnread = 0;  ///< squashed before any read
    std::uint64_t ace = 0;             ///< read, affects output

    /** Field-refined ACE bit-cycles: like 'ace' but counting only
     * the encoding fields a live instruction actually uses (unused
     * source/immediate fields cannot affect the outcome). This is a
     * tighter SDC estimate; the headline sdcAvf() stays with the
     * conservative whole-payload rule so that the false-DUE
     * decomposition still covers 100% of the un-ACE bits. */
    std::uint64_t aceRefined = 0;

    /** Read (parity-detectable) un-ACE bit-cycles by source. */
    std::uint64_t unAceRead[numUnAceSources] = {};

    /** Exposures of read FDD-via-register bits (PET study), one
     * element per exposure in both columns: its read un-ACE
     * bit-cycles, and the commits until the overwrite. */
    sim::Column<std::uint64_t> fddBitCycles;
    sim::Column<std::uint32_t> fddOverwriteDist;

    /** Per-epoch accounting; empty unless an epoch size was given. */
    sim::Column<EpochAce> epochs;

    // --- derived metrics ---
    double frac(std::uint64_t x) const
    {
        return totalBitCycles
                   ? static_cast<double>(x) /
                         static_cast<double>(totalBitCycles)
                   : 0.0;
    }

    std::uint64_t unAceReadTotal() const;

    /** SDC AVF of the unprotected queue. */
    double sdcAvf() const { return frac(ace); }

    /** Field-refined SDC AVF (tighter; see aceRefined). */
    double sdcAvfRefined() const { return frac(aceRefined); }

    /** True DUE AVF of the parity-protected queue. */
    double trueDueAvf() const { return frac(ace); }

    /** False DUE AVF of the parity-protected queue. */
    double falseDueAvf() const { return frac(unAceReadTotal()); }

    /** Total DUE AVF (signal-on-detect parity). */
    double dueAvf() const { return trueDueAvf() + falseDueAvf(); }

    /** False DUE AVF if instructions were re-decoded at retire
     * instead of carrying an anti-pi bit: Ex-ACE time becomes
     * readable (the paper's 33% -> 41% observation). */
    double falseDueAvfDecodeAtRetire() const
    {
        return frac(unAceReadTotal() + exAce);
    }

    /** Fraction of all bit-cycles that are idle (invalid entries). */
    double idleFraction() const { return frac(idle); }
    double exAceFraction() const { return frac(exAce); }

    /** Valid-but-un-ACE fraction (the paper's "valid un-ACE"). */
    double validUnAceFraction() const
    {
        return frac(unAceReadTotal()) + frac(squashedUnread);
    }

    /** Human-readable summary block. */
    std::string summary() const;
};

/**
 * Window-clipped ACE classification of a single incarnation record.
 *
 * This is the one classification routine shared by computeAvf() and
 * the per-PC attribution fold (avf/attribution.hh): both multiply
 * the same per-cycle bit rates by the same clipped intervals, so the
 * per-PC ACE bit-cycle totals sum *exactly* to the run-level
 * AvfResult::ace (and likewise for every other class).
 */
struct IncarnationClass
{
    /** Pre-read residency [preLo, preHi): enqueue to issue, clipped
     * to the measurement window. For a never-issued incarnation this
     * covers the whole residency (all of it squashed-unread). */
    std::uint64_t preLo = 0;
    std::uint64_t preHi = 0;

    /** Post-read (Ex-ACE) residency [postLo, postHi), clipped.
     * Empty for a never-issued incarnation. */
    std::uint64_t postLo = 0;
    std::uint64_t postHi = 0;

    /** False when squashed before any read: the whole residency is
     * un-ACE and undetectable, and every rate below is zero. */
    bool issued = false;

    // Bits per pre-read resident cycle, by class. The three rates
    // need not cover the payload: Live instructions have no read
    // un-ACE bits, dead ones split between ACE and read un-ACE.
    std::uint64_t aceRate = 0;
    std::uint64_t aceRefinedRate = 0;
    std::uint64_t unAceReadRate = 0;

    /** Source of the read un-ACE bits (valid when unAceReadRate). */
    UnAceSource source = UnAceSource::WrongPath;

    /** FDD-via-register def: callers seeing preCycles() > 0 record a
     * PET exposure of preCycles() * unAceReadRate bit-cycles. */
    bool fddRegExposure = false;
    std::uint32_t overwriteDist = noOverwrite;

    std::uint64_t preCycles() const { return preHi - preLo; }
    std::uint64_t postCycles() const { return postHi - postLo; }
    std::uint64_t residentCycles() const
    {
        return preCycles() + postCycles();
    }
};

/** Classify one incarnation against the trace's window and the
 * deadness labels (see IncarnationClass). */
IncarnationClass classifyIncarnation(const cpu::SimTrace &trace,
                                     const DeadnessResult &deadness,
                                     const cpu::IncarnationRecord &inc);

/**
 * Memoized static-instruction constants of the classification:
 * everything classifyIncarnation derives from the opcode alone — the
 * neutral flag and the field-refined used-bits sum of a Live def.
 * (The per-DeadKind rates are already compile-time constants of the
 * encoding and need no table.) computeAvf() and the per-PC
 * attribution fold build this once per program and hand it to the
 * table overload below, so their per-incarnation loops stop
 * re-deriving OpInfo fields; results are bit-identical.
 */
struct StaticClassInfo
{
    bool isNeutral = false;
    std::uint16_t liveRefinedRate = 0;  ///< used bits of a Live def
};
using StaticClassTable = std::vector<StaticClassInfo>;

/** One StaticClassInfo per static instruction of the program. */
StaticClassTable buildStaticClassTable(const isa::Program &program);

/** classifyIncarnation with the per-program memo table. */
IncarnationClass classifyIncarnation(const cpu::SimTrace &trace,
                                     const DeadnessResult &deadness,
                                     const cpu::IncarnationRecord &inc,
                                     const StaticClassTable &table);

/**
 * Fold a run's trace + deadness labels into AVF accounting.
 *
 * When epoch_cycles is nonzero, the result additionally carries
 * per-epoch occupied/ACE/read-un-ACE bit-cycles on an epoch grid of
 * that size anchored at the window start (see EpochAce).
 */
AvfResult computeAvf(const cpu::SimTrace &trace,
                     const DeadnessResult &deadness,
                     std::uint64_t epoch_cycles = 0);

} // namespace avf
} // namespace ser

#endif // SER_AVF_AVF_HH
