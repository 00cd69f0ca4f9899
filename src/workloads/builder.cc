#include "builder.hh"

namespace ser
{
namespace workloads
{

void
AsmBuilder::op(const std::string &text)
{
    _text << "    " << text << "\n";
    ++_instCount;
}

void
AsmBuilder::pred(int p, const std::string &text)
{
    _text << "    (p" << p << ") " << text << "\n";
    ++_instCount;
}

void
AsmBuilder::label(const std::string &name)
{
    _text << name << ":\n";
}

std::string
AsmBuilder::newLabel(const std::string &hint)
{
    return "L_" + hint + "_" + std::to_string(_labelCounter++);
}

void
AsmBuilder::entry(const std::string &label_name)
{
    _text << ".entry " << label_name << "\n";
}

void
AsmBuilder::comment(const std::string &text)
{
    _text << "    // " << text << "\n";
}

void
AsmBuilder::append(const AsmBuilder &other)
{
    _text << other._text.str();
    _instCount += other._instCount;
    _labelCounter += other._labelCounter;
}

void
AsmBuilder::maybeNoop(double density)
{
    if (!_rng.chance(density))
        return;
    // IA64 bundle templates pad with no-ops; the occasional branch
    // hint mimics 'brp' style hint slots.
    if (_rng.chance(0.2))
        op("hint");
    else
        op("nop");
}

void
AsmBuilder::deadCode(bool transitive, bool via_store,
                     std::uint64_t scratch_addr)
{
    (void)scratch_addr;  // the scratch base lives in r60
    // Bimodal pool reuse: two hot registers (r40-r41) absorb about
    // half the dead writes and are overwritten within tens of
    // instructions; a cold pool (r32-r35, r42-r45) reuses only every
    // few hundred. Together with the rare-path sites on r46-r49 this
    // spreads overwrite distances from tens to thousands of
    // instructions — the distribution behind the paper's Figure 3.
    _deadToggle++;
    std::string pool = deadPoolReg();

    // A def of the pool register; the next reuse of the same slot
    // overwrites it unread, making this first-level dead.
    op("add " + pool + " = r2, r3");
    if (transitive) {
        _deadToggle++;
        std::string pool2 = deadPoolReg();
        // pool is read only by the (dead) def of pool2: transitively
        // dead via registers.
        op("addi " + pool2 + " = " + pool + ", 17");
    } else if (via_store) {
        // The value dies through a dead store: the slot word is
        // overwritten (by the next via_store use of a shared slot,
        // or by this site's own next execution for the site-private
        // offsets) before any load, so the store is FDD via memory
        // and the def above is TDD via memory. Site-private offsets
        // give the memory series its longer overwrite distances.
        std::uint64_t off =
            _rng.chance(0.5)
                ? _rng.range(8) * 8           // shared hot words
                : 64 + _rng.range(1024) * 8;  // site-private words
        op("st8 [r60, " + std::to_string(off) + "] = " + pool);
    }
}

std::string
AsmBuilder::deadPoolReg()
{
    if (_rng.chance(0.55))
        return std::string(1, 'r') + std::to_string(40 + _rng.range(2));
    static const int cold[] = {32, 33, 34, 35, 42, 43, 44, 45};
    return std::string(1, 'r') + std::to_string(cold[_rng.range(8)]);
}

void
AsmBuilder::rareDeadWrite(int value_reg)
{
    int slot = 46 + static_cast<int>(_rng.range(4));
    // Execution probability between 2/256 and 16/256 per visit.
    auto window = 2 + _rng.range(15);
    op("andi r35 = r" + std::to_string(value_reg) + ", 255");
    op("cmpilt p8 = r35, " + std::to_string(window));
    pred(8, "add r" + std::to_string(slot) + " = r2, r3");
}

void
AsmBuilder::predicatedArms(int pred_reg, int value_reg, int dst_reg)
{
    // std::string(1, c), not "c": GCC 12's -Wrestrict misfires on a
    // one-character literal prepended to a temporary at -O3.
    std::string v = std::string(1, 'r') + std::to_string(value_reg);
    std::string d = std::string(1, 'r') + std::to_string(dst_reg);
    std::string p0s = std::string(1, 'p') + std::to_string(pred_reg);
    std::string p1s =
        std::string(1, 'p') + std::to_string(pred_reg + 1);
    // If-conversion: exactly one arm is nullified each execution.
    op("andi r39 = " + v + ", 1");
    op("cmpieq " + p0s + " = r39, 0");
    op("cmpieq " + p1s + " = r39, 1");
    pred(pred_reg, "addi " + d + " = " + v + ", 3");
    pred(pred_reg + 1, "addi " + d + " = " + v + ", 5");
}

} // namespace workloads
} // namespace ser
