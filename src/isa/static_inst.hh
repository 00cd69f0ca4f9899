/**
 * @file
 * StaticInst: one decoded TIA64 instruction.
 *
 * A StaticInst is a value type decoded from (and re-encodable to) the
 * 64-bit encoding word. All structural questions the pipeline, AVF
 * analysis, and fault injector ask — does it write a register, is it
 * neutral, is it a branch, which fields does it actually use — are
 * answered here, from the shared opInfo table.
 */

#ifndef SER_ISA_STATIC_INST_HH
#define SER_ISA_STATIC_INST_HH

#include <cstdint>
#include <string>

#include "isa/encoding.hh"
#include "isa/isa.hh"

namespace ser
{
namespace isa
{

/** A decoded instruction. */
class StaticInst
{
  public:
    /** Default: a nop predicated on p0. */
    StaticInst() = default;

    StaticInst(Opcode op, std::uint8_t qp, std::uint8_t dst,
               std::uint8_t src1, std::uint8_t src2, std::int32_t imm);

    /**
     * Decode a raw word. Returns false (and leaves the instruction
     * as a nop) if the opcode field is not a defined opcode — the
     * caller decides whether that is an illegal-instruction trap.
     */
    static bool decode(std::uint64_t word, StaticInst &inst);

    /** Re-encode to the canonical 64-bit word. */
    std::uint64_t encode() const;

    Opcode opcode() const { return _op; }
    const OpInfo &info() const { return opInfo(_op); }

    std::uint8_t qp() const { return _qp; }
    std::uint8_t dst() const { return _dst; }
    std::uint8_t src1() const { return _src1; }
    std::uint8_t src2() const { return _src2; }
    std::int32_t imm() const { return _imm; }

    /** Destination register class (RegClass::None if no dest). */
    RegClass dstClass() const { return info().dstClass; }
    bool writesIntReg() const { return dstClass() == RegClass::Int; }
    bool writesFpReg() const { return dstClass() == RegClass::Fp; }
    bool writesPredReg() const { return dstClass() == RegClass::Pred; }
    bool hasDst() const { return dstClass() != RegClass::None; }

    bool isNop() const { return _op == Opcode::Nop; }
    bool isNeutral() const { return info().isNeutral; }
    bool isLoad() const
    {
        return _op == Opcode::Ld8 || _op == Opcode::Fld;
    }
    bool isStore() const
    {
        return _op == Opcode::St8 || _op == Opcode::Fst;
    }
    bool isPrefetch() const { return _op == Opcode::Prefetch; }
    bool isMem() const { return info().isMem; }
    bool isBranch() const { return info().opClass == OpClass::Branch; }
    bool isCall() const { return _op == Opcode::Call; }
    bool isReturn() const { return _op == Opcode::Ret; }
    bool isIndirectBranch() const
    {
        return _op == Opcode::Bri || _op == Opcode::Ret;
    }
    bool isDirectBranch() const
    {
        return _op == Opcode::Br || _op == Opcode::Call;
    }
    /** Direct branches/calls are always-taken when qp is true;
     * conditionality comes entirely from the qualifying predicate. */
    bool isConditionalBranch() const
    {
        return _op == Opcode::Br && _qp != 0;
    }
    bool isOutput() const { return info().isOutput; }
    bool isHalt() const { return _op == Opcode::Halt; }

    OpClass opClass() const { return info().opClass; }

    /** Disassemble to assembler syntax. */
    std::string toString() const;

  private:
    Opcode _op = Opcode::Nop;
    std::uint8_t _qp = 0;
    std::uint8_t _dst = 0;
    std::uint8_t _src1 = 0;
    std::uint8_t _src2 = 0;
    std::int32_t _imm = 0;
};

} // namespace isa
} // namespace ser

#endif // SER_ISA_STATIC_INST_HH
