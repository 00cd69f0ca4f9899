#include "executor.hh"

#include <bit>
#include <cmath>
#include <limits>

#include "sim/compiler.hh"
#include "sim/logging.hh"

namespace ser
{
namespace isa
{

Executor::Executor(const Program &program)
    : _program(program),
      _pc(static_cast<std::uint32_t>(program.entry()))
{
    _state.reset(program);
}

Executor::Executor(const Program &program,
                   const ExecCheckpoint &checkpoint)
    : _program(program), _state(checkpoint.state),
      _pc(checkpoint.pc), _steps(checkpoint.steps),
      _callDepth(checkpoint.callDepth)
{
}

ExecCheckpoint
Executor::snapshot() const
{
    return ExecCheckpoint{_state, _pc, _steps, _callDepth};
}

void
Executor::setCorruption(std::uint64_t seq, std::uint64_t mask)
{
    _corruptSeq = seq;
    _corruptMask = mask;
}

Termination
Executor::step(StepInfo *info)
{
    if (_pc >= _program.size())
        return Termination::Trap;

    StaticInst inst = _program.inst(_pc);
    if (SER_UNLIKELY(_corruptSeq && *_corruptSeq == _steps)) {
        std::uint64_t word = inst.encode() ^ _corruptMask;
        if (!StaticInst::decode(word, inst))
            return Termination::Trap;  // illegal opcode after upset
    }

    StepInfo local;
    StepInfo &si = info ? *info : local;
    // Field-at-a-time reset: this is the per-fetch oracle step, and
    // a whole-struct clear rewrites every byte the next lines
    // immediately overwrite again.
    si.seq = _steps;
    si.pc = _pc;
    si.inst = inst;
    si.qpTrue = _state.readPred(inst.qp());
    si.taken = false;
    si.nextPc = _pc + 1;
    si.memAddr = 0;
    si.storeValue = 0;
    si.callDepthDelta = 0;

    Termination term = Termination::Running;
    if (si.qpTrue)
        term = execute(inst, si);

    ++_steps;
    if (term == Termination::Running || term == Termination::Halted)
        _pc = si.nextPc;
    _callDepth += si.callDepthDelta;
    return term;
}

Termination
Executor::run(std::uint64_t max_steps)
{
    for (std::uint64_t i = 0; i < max_steps; ++i) {
        Termination term = step();
        if (term != Termination::Running)
            return term;
    }
    return Termination::MaxSteps;
}

namespace
{

std::uint32_t
branchTargetFromAddr(const Program &program, std::uint64_t addr,
                     bool &ok)
{
    if (!Program::addrInCode(addr, program.size())) {
        ok = false;
        return 0;
    }
    ok = true;
    return static_cast<std::uint32_t>(Program::addrToIndex(addr));
}

} // namespace

Termination
Executor::execute(const StaticInst &inst, StepInfo &si)
{
    ArchState &st = _state;
    auto rd1 = [&]() { return st.readInt(inst.src1()); };
    auto rd2 = [&]() { return st.readInt(inst.src2()); };
    auto imm = [&]() {
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(inst.imm()));
    };
    auto wrInt = [&](std::uint64_t v) { st.writeInt(inst.dst(), v); };
    auto wrPred = [&](bool v) { st.writePred(inst.dst(), v); };
    auto f1 = [&]() { return st.readFp(inst.src1()); };
    auto f2 = [&]() { return st.readFp(inst.src2()); };
    auto wrFp = [&](double v) { st.writeFp(inst.dst(), v); };
    auto ea = [&]() {
        return rd1() + imm();
    };

    switch (inst.opcode()) {
      case Opcode::Nop:
      case Opcode::Hint:
        break;
      case Opcode::Prefetch:
        si.memAddr = ea();  // timing-only; no architectural effect
        break;

      case Opcode::Halt:
        return Termination::Halted;
      case Opcode::Out:
        st.appendOutput(rd1());
        break;
      case Opcode::FOut:
        st.appendOutput(st.readFpBits(inst.src1()));
        break;

      case Opcode::Add: wrInt(rd1() + rd2()); break;
      case Opcode::Sub: wrInt(rd1() - rd2()); break;
      case Opcode::Mul: wrInt(rd1() * rd2()); break;
      case Opcode::Divq: {
        std::uint64_t d = rd2();
        wrInt(d == 0 ? 0 : rd1() / d);
        break;
      }
      case Opcode::Remq: {
        std::uint64_t d = rd2();
        wrInt(d == 0 ? 0 : rd1() % d);
        break;
      }
      case Opcode::And: wrInt(rd1() & rd2()); break;
      case Opcode::Or: wrInt(rd1() | rd2()); break;
      case Opcode::Xor: wrInt(rd1() ^ rd2()); break;
      case Opcode::Andc: wrInt(rd1() & ~rd2()); break;
      case Opcode::Shl: wrInt(rd1() << (rd2() & 63)); break;
      case Opcode::Shr: wrInt(rd1() >> (rd2() & 63)); break;
      case Opcode::Sar:
        wrInt(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(rd1()) >>
            static_cast<std::int64_t>(rd2() & 63)));
        break;

      case Opcode::Addi: wrInt(rd1() + imm()); break;
      case Opcode::Andi: wrInt(rd1() & imm()); break;
      case Opcode::Ori: wrInt(rd1() | imm()); break;
      case Opcode::Xori: wrInt(rd1() ^ imm()); break;
      case Opcode::Shli:
        wrInt(rd1() << (static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(inst.imm())) &
                        63));
        break;
      case Opcode::Shri:
        wrInt(rd1() >> (static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(inst.imm())) &
                        63));
        break;

      case Opcode::Movi: wrInt(imm()); break;

      case Opcode::CmpEq: wrPred(rd1() == rd2()); break;
      case Opcode::CmpNe: wrPred(rd1() != rd2()); break;
      case Opcode::CmpLt:
        wrPred(static_cast<std::int64_t>(rd1()) <
               static_cast<std::int64_t>(rd2()));
        break;
      case Opcode::CmpLe:
        wrPred(static_cast<std::int64_t>(rd1()) <=
               static_cast<std::int64_t>(rd2()));
        break;
      case Opcode::CmpLtu: wrPred(rd1() < rd2()); break;
      case Opcode::CmpiEq: wrPred(rd1() == imm()); break;
      case Opcode::CmpiLt:
        wrPred(static_cast<std::int64_t>(rd1()) <
               static_cast<std::int64_t>(imm()));
        break;

      case Opcode::Fadd: wrFp(f1() + f2()); break;
      case Opcode::Fsub: wrFp(f1() - f2()); break;
      case Opcode::Fmul: wrFp(f1() * f2()); break;
      case Opcode::Fdiv: {
        double d = f2();
        wrFp(d == 0.0 ? 0.0 : f1() / d);
        break;
      }
      case Opcode::FcmpLt: wrPred(f1() < f2()); break;
      case Opcode::FcmpEq: wrPred(f1() == f2()); break;
      case Opcode::I2f:
        wrFp(static_cast<double>(static_cast<std::int64_t>(rd1())));
        break;
      case Opcode::F2i: {
        // Deterministic, trap-free conversion: NaN and out-of-range
        // values (where the C++ cast would be UB) saturate.
        double v = f1();
        std::int64_t result;
        if (std::isnan(v))
            result = 0;
        else if (v >= 9.2233720368547758e18)
            result = std::numeric_limits<std::int64_t>::max();
        else if (v <= -9.2233720368547758e18)
            result = std::numeric_limits<std::int64_t>::min();
        else
            result = static_cast<std::int64_t>(v);
        wrInt(static_cast<std::uint64_t>(result));
        break;
      }

      case Opcode::Ld8:
        si.memAddr = ea();
        wrInt(st.memory().readWord(si.memAddr));
        break;
      case Opcode::St8:
        si.memAddr = ea();
        si.storeValue = rd2();
        st.memory().writeWord(si.memAddr, si.storeValue);
        break;
      case Opcode::Fld:
        si.memAddr = ea();
        st.writeFpBits(inst.dst(), st.memory().readWord(si.memAddr));
        break;
      case Opcode::Fst:
        si.memAddr = ea();
        si.storeValue = st.readFpBits(inst.src2());
        st.memory().writeWord(si.memAddr, si.storeValue);
        break;

      case Opcode::Br: {
        auto target = static_cast<std::uint32_t>(
            static_cast<std::uint32_t>(inst.imm()));
        if (target >= _program.size())
            return Termination::Trap;
        si.taken = true;
        si.nextPc = target;
        break;
      }
      case Opcode::Bri:
      case Opcode::Ret: {
        bool ok;
        std::uint32_t target =
            branchTargetFromAddr(_program, rd1(), ok);
        if (!ok)
            return Termination::Trap;
        si.taken = true;
        si.nextPc = target;
        if (inst.opcode() == Opcode::Ret)
            si.callDepthDelta = -1;
        break;
      }
      case Opcode::Call: {
        auto target = static_cast<std::uint32_t>(
            static_cast<std::uint32_t>(inst.imm()));
        if (target >= _program.size())
            return Termination::Trap;
        wrInt(Program::indexToAddr(_pc + 1));
        si.taken = true;
        si.nextPc = target;
        si.callDepthDelta = 1;
        break;
      }

      case Opcode::NumOpcodes:
        SER_PANIC("executor: NumOpcodes is not an opcode");
    }
    return Termination::Running;
}

} // namespace isa
} // namespace ser
