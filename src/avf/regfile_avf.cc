#include "regfile_avf.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ser
{
namespace avf
{

namespace
{

std::size_t
fileIndex(isa::RegClass rc)
{
    switch (rc) {
      case isa::RegClass::Int: return 0;
      case isa::RegClass::Fp: return 1;
      case isa::RegClass::Pred: return 2;
      case isa::RegClass::None: break;
    }
    SER_PANIC("RegFileWindows: not a register file");
}

/** Clip each window of one file to the measurement window and sum
 * its classes. */
RegFileAvf
foldFile(const RegFileWindows &windows, isa::RegClass file,
         std::uint64_t regs, std::uint64_t bits)
{
    const std::uint64_t lo = windows.startCycle();
    const std::uint64_t hi = windows.endCycle();
    // Cycles of [a, b) inside [lo, hi).
    auto clipped = [lo, hi](std::uint64_t a, std::uint64_t b) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        return b > a ? b - a : 0;
    };
    RegFileAvf f;
    f.regs = regs;
    f.bitsPerReg = bits;
    for (std::size_t reg = 0; reg < regs; ++reg) {
        for (const RegWindow &w : windows.windows(file, reg)) {
            std::uint64_t last = std::min(
                std::max(w.lastReadCycle, w.defCycle), w.closeCycle);
            if (w.read)
                f.preRead += clipped(w.defCycle, last) * bits;
            if (w.dead || !w.read) {
                // Dead values (or values never read before
                // overwrite): the whole window is un-ACE — and is
                // exactly what the pi-per-register bit proves false.
                f.deadValue += clipped(w.defCycle, w.closeCycle) * bits;
            } else {
                f.ace += clipped(w.defCycle, last) * bits;
                f.exAce += clipped(last, w.closeCycle) * bits;
            }
        }
    }
    f.totalBitCycles = regs * bits * (hi - lo);
    // A register holds one value at a time, so its clipped windows
    // tile at most [lo, hi).
    std::uint64_t used = f.ace + f.exAce + f.deadValue;
    if (used > f.totalBitCycles)
        SER_PANIC("computeRegFileAvf: {} classified bit-cycles exceed "
                  "the {}-bit-cycle window", used, f.totalBitCycles);
    f.unwritten = f.totalBitCycles - used;
    return f;
}

} // namespace

RegFileWindows::RegFileWindows(const cpu::SimTrace &trace,
                               const DeadnessResult &deadness)
    : _files{std::vector<std::vector<RegWindow>>(isa::numIntRegs),
             std::vector<std::vector<RegWindow>>(isa::numFpRegs),
             std::vector<std::vector<RegWindow>>(isa::numPredRegs)},
      _startCycle(trace.startCycle), _endCycle(trace.endCycle)
{
    if (!trace.program)
        SER_PANIC("RegFileWindows: trace has no program");
    const isa::Program &program = *trace.program;

    // Commit cycle of each oracle-order instruction, from its
    // committed incarnation.
    _commitCycle.assign(trace.commits.size(), 0);
    for (const auto &inc : trace.incarnations) {
        if ((inc.flags & cpu::incCommitted) &&
            inc.oracleSeq != cpu::noSeq32 &&
            inc.oracleSeq < _commitCycle.size())
            _commitCycle[inc.oracleSeq] = inc.evictCycle;
    }

    // A register's last window is open until its next def (or the
    // end of the trace); before its first def it has none.
    auto close = [&](std::size_t file, std::size_t reg,
                     std::uint64_t cycle) {
        if (_files[file][reg].empty())
            return;
        RegWindow &w = _files[file][reg].back();
        w.closeCycle = std::max(cycle, w.defCycle);
    };
    auto def = [&](isa::RegClass rc, std::size_t reg,
                   std::uint64_t cycle, std::uint32_t commit,
                   bool dead) {
        const std::size_t file = fileIndex(rc);
        close(file, reg, cycle);
        _files[file][reg].push_back(
            RegWindow{cycle, cycle, cycle, commit, false, dead});
    };
    auto read = [&](isa::RegClass rc, std::size_t reg,
                    std::uint64_t cycle) {
        if (rc == isa::RegClass::None)
            return;
        const std::size_t file = fileIndex(rc);
        if (_files[file][reg].empty())
            return;  // reading architectural init state
        RegWindow &w = _files[file][reg].back();
        w.read = true;
        if (cycle > w.lastReadCycle)
            w.lastReadCycle = cycle;
    };

    for (std::size_t i = 0; i < trace.commits.size(); ++i) {
        const auto &cr = trace.commits[i];
        const isa::StaticInst &inst = program.inst(cr.staticIdx);
        const isa::OpInfo &oi = inst.info();
        std::uint64_t cycle = _commitCycle[i];

        // Reads first (they consult the previous def).
        if (inst.qp() != 0)
            read(isa::RegClass::Pred, inst.qp(), cycle);
        if (cr.qpTrue) {
            read(oi.src1Class, inst.src1(), cycle);
            read(oi.src2Class, inst.src2(), cycle);
            if (inst.hasDst() &&
                inst.dstClass() != isa::RegClass::None)
                def(inst.dstClass(), inst.dst(), cycle,
                    static_cast<std::uint32_t>(i), deadness.isDead(i));
        }
    }
    for (std::size_t file = 0; file < _files.size(); ++file) {
        for (std::size_t reg = 0; reg < _files[file].size(); ++reg)
            close(file, reg, _endCycle);
    }
}

const std::vector<RegWindow> &
RegFileWindows::windows(isa::RegClass file, std::size_t reg) const
{
    return _files[fileIndex(file)][reg];
}

std::int64_t
RegFileWindows::find(isa::RegClass file, std::size_t reg,
                     std::uint64_t cycle) const
{
    const std::vector<RegWindow> &vec = windows(file, reg);
    auto it = std::upper_bound(vec.begin(), vec.end(), cycle,
                               [](std::uint64_t c, const RegWindow &w) {
                                   return c < w.defCycle;
                               });
    if (it == vec.begin() || cycle >= (it - 1)->closeCycle)
        return noWindow;
    return (it - 1) - vec.begin();
}

std::uint64_t
RegFileWindows::stepFor(std::uint64_t cycle) const
{
    auto it = std::upper_bound(_commitCycle.begin(), _commitCycle.end(),
                               cycle);
    return static_cast<std::uint64_t>(it - _commitCycle.begin());
}

RegFileAvfResult
computeRegFileAvf(const RegFileWindows &windows)
{
    RegFileAvfResult out;
    out.intFile =
        foldFile(windows, isa::RegClass::Int, isa::numIntRegs, 64);
    out.fpFile =
        foldFile(windows, isa::RegClass::Fp, isa::numFpRegs, 64);
    out.predFile =
        foldFile(windows, isa::RegClass::Pred, isa::numPredRegs, 1);
    return out;
}

RegFileAvfResult
computeRegFileAvf(const cpu::SimTrace &trace,
                  const DeadnessResult &deadness)
{
    return computeRegFileAvf(RegFileWindows(trace, deadness));
}

} // namespace avf
} // namespace ser
