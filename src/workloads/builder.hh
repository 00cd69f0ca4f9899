/**
 * @file
 * A programmatic emitter of TIA64 assembly.
 *
 * The workload generators compose benchmark programs as assembler
 * text (so every generated program is also a valid input to the
 * assembler, and can be dumped for inspection). The builder tracks
 * the instruction count (for loop-trip sizing), hands out unique
 * labels, and provides the decorations the surrogate suite needs:
 * bundle-padding no-ops, prefetches, dead-code injection and
 * if-converted predicated arms.
 *
 * Register conventions used by the generators:
 *   r1        main loop counter
 *   r2-r15    primary kernel registers
 *   r16-r39   secondary kernel registers
 *   r40-r49   dead-code pool (written, rarely read)
 *   r50-r60   address/base registers
 *   r61       in-program LCG state
 *   r62       link register
 *   r63       checksum accumulator
 *   p2-p15    kernel predicates
 */

#ifndef SER_WORKLOADS_BUILDER_HH
#define SER_WORKLOADS_BUILDER_HH

#include <cstdint>
#include <sstream>
#include <string>

#include "sim/rng.hh"

namespace ser
{
namespace workloads
{

/** Accumulates assembler text. */
class AsmBuilder
{
  public:
    explicit AsmBuilder(std::uint64_t seed) : _rng(seed) {}

    /** Emit one instruction line; counts toward size(). */
    void op(const std::string &text);

    /** Emit a predicated instruction: "(pN) text". */
    void pred(int p, const std::string &text);

    /** Define a label here. */
    void label(const std::string &name);

    /** A fresh unique label with a readable hint. */
    std::string newLabel(const std::string &hint);

    /** Set the program entry label. */
    void entry(const std::string &label_name);

    /** Emit a comment line (no instruction). */
    void comment(const std::string &text);

    /** Instructions emitted so far. */
    std::uint64_t size() const { return _instCount; }

    /** The generator's deterministic random stream. */
    Rng &rng() { return _rng; }

    /** Append another builder's text (sizes are combined). */
    void append(const AsmBuilder &other);

    std::string str() const { return _text.str(); }

    // --- surrogate-suite decorations ---

    /** With the given probability, emit a no-op or branch hint
     * (emulating IA64 bundle padding). */
    void maybeNoop(double density);

    /** Emit a short dead-code pattern into the dead pool: a def of
     * a pool register that a later pool def overwrites unread.
     * 'transitive' adds a TDD link, 'via_store' kills the value
     * through a dead store instead. */
    void deadCode(bool transitive, bool via_store,
                  std::uint64_t scratch_addr);

    /** Emit an if-converted pair: a compare whose predicate guards
     * two complementary arms (one arm is predicated false each
     * iteration). 'value_reg' supplies varying data. */
    void predicatedArms(int pred_reg, int value_reg, int dst_reg);

    /** Emit a dead write to a reserved slot (r46-r49) guarded by a
     * rarely-true data-dependent predicate on 'value_reg'. The slot
     * reuses only every few thousand dynamic instructions, producing
     * the long-overwrite-distance FDDs that need large PET buffers
     * (the tail of the paper's Figure 3). */
    void rareDeadWrite(int value_reg);

  private:
    /** Pick a dead-pool register (bimodal hot/cold reuse). */
    std::string deadPoolReg();

    std::ostringstream _text;
    std::uint64_t _instCount = 0;
    std::uint64_t _labelCounter = 0;
    Rng _rng;
    int _deadToggle = 0;
};

} // namespace workloads
} // namespace ser

#endif // SER_WORKLOADS_BUILDER_HH
