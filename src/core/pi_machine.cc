#include "pi_machine.hh"

#include <array>
#include <unordered_set>

#include "core/pet_buffer.hh"
#include "sim/logging.hh"

namespace ser
{
namespace core
{

const char *
piSignalPointName(PiSignalPoint point)
{
    switch (point) {
      case PiSignalPoint::Suppressed: return "suppressed";
      case PiSignalPoint::AtDetection: return "at-detection";
      case PiSignalPoint::AtCommit: return "at-commit";
      case PiSignalPoint::AtPetEviction: return "at-pet-eviction";
      case PiSignalPoint::AtRegisterRead: return "at-register-read";
      case PiSignalPoint::AtStoreCommit: return "at-store-commit";
      case PiSignalPoint::AtControl: return "at-control";
      case PiSignalPoint::AtPredicate: return "at-predicate";
      case PiSignalPoint::AtOutput: return "at-output";
      case PiSignalPoint::OutOfScope: return "out-of-scope";
    }
    return "?";
}

PiMachine::PiMachine(const cpu::SimTrace &trace, TrackingLevel level,
                     std::size_t pet_size)
    : _trace(trace), _level(level), _petSize(pet_size)
{
    if (!trace.program)
        SER_PANIC("PiMachine: trace has no program");
}

namespace
{

PiOutcome
signalAt(PiSignalPoint point, std::uint64_t seq)
{
    return {true, point, seq};
}

constexpr PiOutcome suppressed{};

/** Poison state over the three register files. */
struct PoisonRegs
{
    std::array<bool, isa::numIntRegs> intRegs{};
    std::array<bool, isa::numFpRegs> fpRegs{};
    std::array<bool, isa::numPredRegs> predRegs{};

    bool &slot(isa::RegClass rc, std::uint8_t reg)
    {
        // Write-sink for ignored registers; thread_local because
        // SuiteRunner workers run independent machines concurrently.
        thread_local bool scratch;
        switch (rc) {
          case isa::RegClass::Int:
            if (reg != 0)
                return intRegs[reg];
            break;
          case isa::RegClass::Fp:
            if (reg > 1)
                return fpRegs[reg];
            break;
          case isa::RegClass::Pred:
            if (reg != 0)
                return predRegs[reg];
            break;
          case isa::RegClass::None:
            break;
        }
        scratch = false;  // hardwired registers never carry poison
        return scratch;
    }

    bool any() const
    {
        for (bool b : intRegs)
            if (b)
                return true;
        for (bool b : fpRegs)
            if (b)
                return true;
        for (bool b : predRegs)
            if (b)
                return true;
        return false;
    }
};

} // namespace

PiOutcome
PiMachine::runPet(std::uint64_t seq, int dst_override) const
{
    const auto &commits = _trace.commits;
    PetBuffer pet(_petSize);

    auto entry_for = [&](std::uint64_t j, bool poisoned) {
        PetEntry e;
        e.seq = j;
        e.inst = _trace.program->inst(commits[j].staticIdx);
        e.qpTrue = commits[j].qpTrue != 0;
        e.memAddr = commits[j].memAddr;
        e.pi = poisoned;
        if (poisoned && dst_override >= 0 && e.inst.hasDst()) {
            // The PET logs the instruction as fetched — with the
            // (possibly corrupted) destination specifier.
            e.inst = isa::StaticInst(
                e.inst.opcode(), e.inst.qp(),
                static_cast<std::uint8_t>(dst_override),
                e.inst.src1(), e.inst.src2(), e.inst.imm());
        }
        return e;
    };

    // Only the poisoned instruction and its PET window matter; the
    // scan resolves by the time _petSize more instructions retire.
    std::uint64_t end =
        std::min<std::uint64_t>(commits.size(),
                                seq + _petSize + 2);
    for (std::uint64_t j = seq; j < end; ++j) {
        auto ev = pet.retire(entry_for(j, j == seq));
        if (ev && ev->seq == seq) {
            return ev->provenDead
                       ? suppressed
                       : signalAt(PiSignalPoint::AtPetEviction, j);
        }
    }
    for (const auto &ev : pet.drain()) {
        if (ev.seq == seq) {
            return ev.provenDead
                       ? suppressed
                       : signalAt(PiSignalPoint::AtPetEviction,
                                  commits.size() - 1);
        }
    }
    SER_PANIC("PiMachine: PET never evicted the poisoned entry");
}

PiOutcome
PiMachine::runRegisterTracking(std::uint64_t seq, bool with_memory,
                               int dst_override) const
{
    const auto &commits = _trace.commits;
    const isa::Program &program = *_trace.program;
    const cpu::CommitRecord &rec = commits[seq];
    const isa::StaticInst &pinst = program.inst(rec.staticIdx);

    const bool reg_file_only = _level == TrackingLevel::PiRegFile;

    PoisonRegs poison;
    std::unordered_set<std::uint64_t> poison_mem;

    // Seed the poison from the flagged instruction itself.
    if (pinst.isBranch())
        return signalAt(PiSignalPoint::AtControl, seq);
    if (pinst.isOutput())
        return signalAt(PiSignalPoint::AtOutput, seq);
    if (pinst.isHalt())
        return signalAt(PiSignalPoint::AtCommit, seq);
    if (pinst.isStore()) {
        if (_level == TrackingLevel::PiMemory &&
            rec.memAddr % 8 == 0) {
            poison_mem.insert(rec.memAddr);
        } else if (_level == TrackingLevel::PiMemory) {
            return signalAt(PiSignalPoint::OutOfScope, seq);
        } else {
            return signalAt(PiSignalPoint::AtStoreCommit, seq);
        }
    } else if (pinst.hasDst()) {
        // The pi bit follows the value to the register actually
        // written — which, if the destination specifier itself was
        // struck, is not the architectural destination.
        std::uint8_t dst =
            dst_override >= 0
                ? static_cast<std::uint8_t>(dst_override)
                : pinst.dst();
        poison.slot(pinst.dstClass(), dst) = true;
        // Writes to hardwired registers are discarded; the poison
        // dies with them.
        if (!poison.slot(pinst.dstClass(), dst))
            return suppressed;
    } else {
        // No destination and no memory effect (should not happen
        // for non-neutral instructions).
        return signalAt(PiSignalPoint::AtCommit, seq);
    }

    for (std::uint64_t j = seq + 1; j < commits.size(); ++j) {
        const cpu::CommitRecord &cr = commits[j];
        const isa::StaticInst &inst = program.inst(cr.staticIdx);
        const isa::OpInfo &oi = inst.info();

        // Qualifying predicates are consulted even when they
        // nullify: a poisoned predicate means the nullification
        // decision itself is suspect.
        if (inst.qp() != 0 && poison.predRegs[inst.qp()])
            return signalAt(PiSignalPoint::AtPredicate, j);
        if (!cr.qpTrue)
            continue;

        bool src1_poisoned =
            oi.src1Class != isa::RegClass::None &&
            poison.slot(oi.src1Class, inst.src1());
        bool src2_poisoned =
            oi.src2Class != isa::RegClass::None &&
            poison.slot(oi.src2Class, inst.src2());

        if (reg_file_only) {
            // Level 4: signal on any read of a poisoned register.
            if (src1_poisoned || src2_poisoned)
                return signalAt(PiSignalPoint::AtRegisterRead, j);
            // Overwrite before read clears the poison.
            if (inst.hasDst())
                poison.slot(inst.dstClass(), inst.dst()) = false;
            if (!poison.any())
                return suppressed;
            continue;
        }

        bool gather = src1_poisoned || src2_poisoned;
        if (with_memory && inst.isLoad()) {
            if (cr.memAddr % 8 == 0) {
                gather = gather || poison_mem.count(cr.memAddr) > 0;
            } else {
                // Misaligned loads of a poisoned word: treat as a
                // poisoned read of both touched words.
                std::uint64_t w0 = cr.memAddr / 8 * 8;
                gather = gather || poison_mem.count(w0) ||
                         poison_mem.count(w0 + 8);
            }
        }

        if (inst.isPrefetch())
            continue;  // neutral reader: poison is harmless here

        if (inst.isStore()) {
            if (src1_poisoned) {
                // Poisoned address: we no longer know where the
                // value went.
                return signalAt(PiSignalPoint::OutOfScope, j);
            }
            if (!with_memory) {
                if (src2_poisoned)
                    return signalAt(PiSignalPoint::AtStoreCommit, j);
                continue;
            }
            if (cr.memAddr % 8 == 0) {
                // The store overwrites the word: poison follows the
                // data (set or cleared).
                if (src2_poisoned)
                    poison_mem.insert(cr.memAddr);
                else
                    poison_mem.erase(cr.memAddr);
            } else if (src2_poisoned) {
                return signalAt(PiSignalPoint::OutOfScope, j);
            }
            continue;
        }
        if (inst.isOutput()) {
            if (gather)
                return signalAt(PiSignalPoint::AtOutput, j);
            continue;
        }
        if (inst.isBranch()) {
            if (gather)
                return signalAt(PiSignalPoint::AtControl, j);
            continue;
        }
        if (inst.isHalt())
            break;

        if (inst.hasDst())
            poison.slot(inst.dstClass(), inst.dst()) = gather;
        if (!gather && !poison.any() && poison_mem.empty())
            return suppressed;
    }

    // End of the trace. With a complete program, anything still
    // poisoned is dead state; with a truncated trace we must assume
    // it could still matter.
    if (_trace.programHalted)
        return suppressed;
    if (poison.any() || !poison_mem.empty())
        return signalAt(PiSignalPoint::OutOfScope,
                        commits.size() - 1);
    return suppressed;
}

PiOutcome
PiMachine::run(std::uint64_t poisoned_seq, int dst_override) const
{
    const auto &commits = _trace.commits;
    if (poisoned_seq >= commits.size())
        SER_PANIC("PiMachine: seq {} out of range ({})", poisoned_seq,
                  commits.size());

    return runLevel(poisoned_seq, dst_override);
}

PiOutcome
PiMachine::runLevel(std::uint64_t poisoned_seq,
                    int dst_override) const
{
    const auto &commits = _trace.commits;

    if (_level == TrackingLevel::None)
        return signalAt(PiSignalPoint::AtDetection, poisoned_seq);

    const cpu::CommitRecord &rec = commits[poisoned_seq];
    const isa::StaticInst &inst =
        _trace.program->inst(rec.staticIdx);

    // The retire unit ignores the pi bit of predicated-false
    // instructions (Section 4.3.1); wrong-path instructions never
    // reach this code because they never commit.
    if (!rec.qpTrue)
        return suppressed;

    // The anti-pi bit neutralises errors on neutral instruction
    // types (Section 4.3.2).
    if (inst.isNeutral()) {
        if (static_cast<int>(_level) >=
            static_cast<int>(TrackingLevel::AntiPi))
            return suppressed;
        return signalAt(PiSignalPoint::AtCommit, poisoned_seq);
    }

    switch (_level) {
      case TrackingLevel::PiToCommit:
      case TrackingLevel::AntiPi:
        return signalAt(PiSignalPoint::AtCommit, poisoned_seq);
      case TrackingLevel::PetBuffer:
        return runPet(poisoned_seq, dst_override);
      case TrackingLevel::PiRegFile:
      case TrackingLevel::PiStoreBuffer:
        return runRegisterTracking(poisoned_seq, false,
                                   dst_override);
      case TrackingLevel::PiMemory:
        return runRegisterTracking(poisoned_seq, true,
                                   dst_override);
      case TrackingLevel::None:
      case TrackingLevel::NumLevels:
        break;
    }
    SER_PANIC("PiMachine: bad tracking level");
}

} // namespace core
} // namespace ser
