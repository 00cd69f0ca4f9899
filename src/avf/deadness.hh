/**
 * @file
 * Dynamically-dead instruction analysis (paper Section 4.1).
 *
 * Classifies every committed instruction as live or dynamically dead,
 * by a backward pass over the committed stream:
 *
 *  - FDD (first-level dynamically dead): the instruction's result is
 *    never read by any other instruction — the destination register
 *    is overwritten before any read (or never accessed again, when
 *    the trace ends at a halt), or the stored memory word is
 *    overwritten before any load.
 *  - TDD (transitively dynamically dead): every reader of the result
 *    is itself dynamically dead.
 *
 * Dead instructions are further split by whether they are tracked via
 * a register or via memory, and register FDDs are tagged with whether
 * their death is established by a procedure return (the defining
 * frame is exited before the overwrite) — the category the paper's
 * Figure 3 separates out.
 *
 * Conservative (ACE-style) choices, documented in DESIGN.md:
 *  - qualifying-predicate reads always count as live uses (we do not
 *    extend transitivity through predication);
 *  - control transfers and output instructions are always live;
 *  - when the trace is truncated (no halt), defs with no future
 *    access are treated as live;
 *  - misaligned memory accesses are treated as live.
 */

#ifndef SER_AVF_DEADNESS_HH
#define SER_AVF_DEADNESS_HH

#include <cstddef>
#include <cstdint>

#include "cpu/trace.hh"
#include "isa/program.hh"
#include "sim/column.hh"

namespace ser
{
namespace avf
{

/** Liveness class of one committed instruction. */
enum class DeadKind : std::uint8_t
{
    Live,    ///< affects program output (or assumed to, conservatively)
    FddReg,  ///< register result never read
    TddReg,  ///< register result read only by dead instructions
    FddMem,  ///< stored word never loaded before overwrite
    TddMem,  ///< stored word loaded only by dead instructions
};

const char *deadKindName(DeadKind kind);

/** No overwrite in the trace (dead-at-end defs). */
constexpr std::uint32_t noOverwrite = ~0u;

/** Per-commit-index classification. The bulk columns are immutable
 * sim::Columns, like the trace's (cpu/trace.hh). */
struct DeadnessResult
{
    sim::Column<DeadKind> kind;

    /** For dead register defs: distance (in committed instructions)
     * to the overwriting write, for PET-buffer coverage; noOverwrite
     * if the def simply dies at program end. Same for dead stores
     * (distance to the overwriting store). */
    sim::Column<std::uint32_t> overwriteDist;

    /** FDD-via-register defs whose death crosses a procedure return
     * (the defining frame is exited before the overwrite), packed:
     * commit i is bit i % 64 of word i / 64. Read via returnFdd(). */
    sim::Column<std::uint64_t> returnFddWords;

    // Aggregate counts over qpTrue, committed instructions.
    std::uint64_t numInsts = 0;      ///< all committed (incl nullified)
    std::uint64_t numDefs = 0;       ///< register-writing + stores
    std::uint64_t numFddReg = 0;
    std::uint64_t numTddReg = 0;
    std::uint64_t numFddMem = 0;
    std::uint64_t numTddMem = 0;
    std::uint64_t numReturnFdd = 0;  ///< subset of numFddReg

    bool isDead(std::size_t i) const
    {
        return kind[i] != DeadKind::Live;
    }

    bool returnFdd(std::size_t i) const
    {
        return (returnFddWords[i / 64] >> (i % 64)) & 1;
    }

    std::uint64_t numDead() const
    {
        return numFddReg + numTddReg + numFddMem + numTddMem;
    }

    /** Fraction of committed instructions that are dynamically dead
     * (the paper reports ~20% on average). */
    double deadFraction() const
    {
        return numInsts
                   ? static_cast<double>(numDead()) /
                         static_cast<double>(numInsts)
                   : 0.0;
    }
};

/** Run the backward deadness analysis over a trace. */
DeadnessResult analyzeDeadness(const cpu::SimTrace &trace);

} // namespace avf
} // namespace ser

#endif // SER_AVF_DEADNESS_HH
