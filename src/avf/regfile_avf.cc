#include "regfile_avf.hh"

#include <algorithm>
#include <array>
#include <sstream>
#include <vector>

#include "isa/isa.hh"
#include "sim/logging.hh"

namespace ser
{
namespace avf
{

namespace
{

/** One register's open value window during the forward walk. */
struct Window
{
    std::uint64_t defCycle = 0;
    std::uint64_t lastReadCycle = 0;
    bool open = false;
    bool read = false;
    bool dead = false;
};

/** Folds one file's value windows, clipped to the measurement
 * window [lo, hi) the IQ fold and the campaign's sampler use. */
class FileAccum
{
  public:
    FileAccum(std::uint64_t regs, std::uint64_t bits,
              std::uint64_t window_lo, std::uint64_t window_hi)
        : lo(window_lo), hi(window_hi)
    {
        result.regs = regs;
        result.bitsPerReg = bits;
        windows.assign(regs, Window{});
    }

    void
    def(std::size_t reg, std::uint64_t cycle, bool dead)
    {
        close(reg, cycle);
        Window &w = windows[reg];
        w.open = true;
        w.defCycle = cycle;
        w.lastReadCycle = cycle;
        w.read = false;
        w.dead = dead;
    }

    void
    read(std::size_t reg, std::uint64_t cycle)
    {
        Window &w = windows[reg];
        if (!w.open)
            return;  // reading architectural init state
        w.read = true;
        if (cycle > w.lastReadCycle)
            w.lastReadCycle = cycle;
    }

    void
    close(std::size_t reg, std::uint64_t cycle)
    {
        Window &w = windows[reg];
        if (!w.open)
            return;
        std::uint64_t end = std::max(cycle, w.defCycle);
        std::uint64_t bits = result.bitsPerReg;
        if (w.dead || !w.read) {
            // Dead values (or values never read before overwrite):
            // the whole window is un-ACE — and is exactly what the
            // pi-per-register bit proves false.
            result.deadValue += clipped(w.defCycle, end) * bits;
        } else {
            std::uint64_t last =
                std::min(std::max(w.lastReadCycle, w.defCycle), end);
            result.ace += clipped(w.defCycle, last) * bits;
            result.exAce += clipped(last, end) * bits;
        }
        w.open = false;
    }

    void
    finish()
    {
        for (std::size_t r = 0; r < windows.size(); ++r)
            close(r, hi);
        result.totalBitCycles =
            result.regs * result.bitsPerReg * (hi - lo);
        // A register holds one value at a time, so its clipped
        // windows tile at most [lo, hi).
        std::uint64_t used =
            result.ace + result.exAce + result.deadValue;
        if (used > result.totalBitCycles)
            SER_PANIC("computeRegFileAvf: {} classified bit-cycles "
                      "exceed the {}-bit-cycle window", used,
                      result.totalBitCycles);
        result.unwritten = result.totalBitCycles - used;
    }

    RegFileAvf result;

  private:
    /** Cycles of [a, b) inside [lo, hi). */
    std::uint64_t
    clipped(std::uint64_t a, std::uint64_t b) const
    {
        a = std::max(a, lo);
        b = std::min(b, hi);
        return b > a ? b - a : 0;
    }

    std::uint64_t lo;
    std::uint64_t hi;
    std::vector<Window> windows;
};

} // namespace

RegFileAvfResult
computeRegFileAvf(const cpu::SimTrace &trace,
                  const DeadnessResult &deadness)
{
    if (!trace.program)
        SER_PANIC("computeRegFileAvf: trace has no program");
    const isa::Program &program = *trace.program;

    // Commit cycle of each oracle-order instruction, from its
    // committed incarnation.
    std::vector<std::uint32_t> commit_cycle(trace.commits.size(), 0);
    for (const auto &inc : trace.incarnations) {
        if ((inc.flags & cpu::incCommitted) &&
            inc.oracleSeq != cpu::noSeq32 &&
            inc.oracleSeq < commit_cycle.size())
            commit_cycle[inc.oracleSeq] = inc.evictCycle;
    }

    const std::uint64_t lo = trace.startCycle;
    const std::uint64_t hi = trace.endCycle;
    FileAccum int_file(isa::numIntRegs, 64, lo, hi);
    FileAccum fp_file(isa::numFpRegs, 64, lo, hi);
    FileAccum pred_file(isa::numPredRegs, 1, lo, hi);

    auto file_for = [&](isa::RegClass rc) -> FileAccum * {
        switch (rc) {
          case isa::RegClass::Int: return &int_file;
          case isa::RegClass::Fp: return &fp_file;
          case isa::RegClass::Pred: return &pred_file;
          case isa::RegClass::None: return nullptr;
        }
        return nullptr;
    };

    for (std::size_t i = 0; i < trace.commits.size(); ++i) {
        const auto &cr = trace.commits[i];
        const isa::StaticInst &inst = program.inst(cr.staticIdx);
        const isa::OpInfo &oi = inst.info();
        std::uint64_t cycle = commit_cycle[i];

        // Reads first (they consult the previous def).
        if (inst.qp() != 0)
            pred_file.read(inst.qp(), cycle);
        if (cr.qpTrue) {
            if (auto *f = file_for(oi.src1Class))
                f->read(inst.src1(), cycle);
            if (auto *f = file_for(oi.src2Class))
                f->read(inst.src2(), cycle);
            if (inst.hasDst()) {
                if (auto *f = file_for(inst.dstClass())) {
                    bool dead = deadness.isDead(i);
                    f->def(inst.dst(), cycle, dead);
                }
            }
        }
    }

    RegFileAvfResult out;
    int_file.finish();
    fp_file.finish();
    pred_file.finish();
    out.intFile = int_file.result;
    out.fpFile = fp_file.result;
    out.predFile = pred_file.result;
    return out;
}

std::string
RegFileAvfResult::summary() const
{
    std::ostringstream os;
    auto line = [&](const char *name, const RegFileAvf &f) {
        os << name << ": SDC AVF " << f.sdcAvf() * 100
           << "%, ex-ACE " << f.frac(f.exAce) * 100
           << "%, dead-value (pi-reg removable) "
           << f.falseDueAvf() * 100 << "%, unwritten "
           << f.frac(f.unwritten) * 100 << "%\n";
    };
    line("int  file", intFile);
    line("fp   file", fpFile);
    line("pred file", predFile);
    return os.str();
}

} // namespace avf
} // namespace ser
