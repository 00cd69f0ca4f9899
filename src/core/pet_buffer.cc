#include "pet_buffer.hh"

#include "sim/trace_event.hh"

namespace ser
{
namespace core
{

PetBuffer::PetBuffer(std::size_t size, bool track_memory,
                     statistics::StatGroup *parent)
    : StatGroup("pet", parent), _capacity(size),
      _trackMemory(track_memory),
      statRetired(this, "retired", "instructions logged"),
      statPiEvictions(this, "pi_evictions",
                      "evictions with the pi bit set"),
      statProvenDead(this, "proven_dead",
                     "pi evictions proven first-level dead"),
      statSignalled(this, "signalled",
                    "pi evictions that raised a machine check")
{
}

void
PetBuffer::setTraceWriter(trace::TraceWriter *tw)
{
    _tw = tw;
    if (_tw)
        _tw->threadName(trace::tracks::petBuffer, "pi / PET buffer");
}

bool
PetBuffer::readsReg(const PetEntry &entry, isa::RegClass rc,
                    std::uint8_t reg)
{
    const isa::StaticInst &inst = entry.inst;
    const isa::OpInfo &oi = inst.info();
    // The qualifying predicate is read even when it nullifies.
    if (rc == isa::RegClass::Pred && inst.qp() == reg)
        return true;
    if (!entry.qpTrue)
        return false;
    if (oi.src1Class == rc && inst.src1() == reg)
        return true;
    if (oi.src2Class == rc && inst.src2() == reg)
        return true;
    return false;
}

bool
PetBuffer::writesReg(const PetEntry &entry, isa::RegClass rc,
                     std::uint8_t reg)
{
    return entry.qpTrue && entry.inst.dstClass() == rc &&
           entry.inst.dst() == reg;
}

bool
PetBuffer::scanProvesDead(const PetEntry &victim) const
{
    if (!victim.qpTrue)
        return false;  // nullified instructions produced nothing
    const isa::StaticInst &inst = victim.inst;

    if (inst.hasDst()) {
        isa::RegClass rc = inst.dstClass();
        std::uint8_t reg = inst.dst();
        for (const PetEntry &later : _entries) {
            // Reads are checked before the write so an instruction
            // that both reads and overwrites the register (e.g.
            // addi r4 = r4, 1) counts as a read.
            if (readsReg(later, rc, reg))
                return false;
            if (writesReg(later, rc, reg))
                return true;
        }
        return false;  // no overwrite in window: cannot prove
    }

    if (_trackMemory && inst.isStore() && victim.memAddr % 8 == 0) {
        for (const PetEntry &later : _entries) {
            if (!later.qpTrue)
                continue;
            if (later.inst.isLoad() &&
                later.memAddr == victim.memAddr)
                return false;
            if (later.inst.isStore() &&
                later.memAddr == victim.memAddr)
                return true;
        }
        return false;
    }

    return false;
}

PetEviction
PetBuffer::evict()
{
    PetEntry victim = _entries.front();
    _entries.pop_front();
    PetEviction ev;
    ev.seq = victim.seq;
    ev.provenDead = scanProvesDead(victim);
    ev.signalled = !ev.provenDead;
    ++statPiEvictions;
    if (ev.provenDead)
        ++statProvenDead;
    else
        ++statSignalled;
    if (_tw)
        _tw->instant(trace::tracks::petBuffer, "pet_evict",
                     _retireTicks,
                     {{"seq", ev.seq},
                      {"proven_dead", ev.provenDead ? 1 : 0},
                      {"signalled", ev.signalled ? 1 : 0}});
    return ev;
}

std::optional<PetEviction>
PetBuffer::retire(const PetEntry &entry)
{
    ++statRetired;
    ++_retireTicks;
    if (_tw && entry.pi)
        _tw->instant(trace::tracks::petBuffer, "pi_set",
                     _retireTicks, {{"seq", entry.seq}});
    // Log first, then trim: the eviction scan thus sees a full
    // 'capacity' window of younger instructions, so an overwrite at
    // distance <= capacity proves the victim dead (matching the
    // analytical petCoverage()).
    _entries.push_back(entry);
    std::optional<PetEviction> result;
    if (_entries.size() > _capacity) {
        if (_entries.front().pi) {
            result = evict();
        } else {
            _entries.pop_front();
        }
    }
    return result;
}

std::vector<PetEviction>
PetBuffer::drain()
{
    std::vector<PetEviction> out;
    while (!_entries.empty()) {
        if (_entries.front().pi)
            out.push_back(evict());
        else
            _entries.pop_front();
    }
    return out;
}

PetCoverage
petCoverage(const avf::DeadnessResult &deadness, std::uint32_t size)
{
    PetCoverage cov;
    for (std::size_t i = 0; i < deadness.kind.size(); ++i) {
        std::uint32_t dist = deadness.overwriteDist[i];
        bool covered =
            dist != avf::noOverwrite && dist <= size;
        switch (deadness.kind[i]) {
          case avf::DeadKind::FddReg:
            if (deadness.returnFdd(i)) {
                ++cov.fddRegReturn;
                if (covered)
                    ++cov.coveredReturn;
            } else {
                ++cov.fddRegNonReturn;
                if (covered)
                    ++cov.coveredNonReturn;
            }
            break;
          case avf::DeadKind::FddMem:
            ++cov.fddMem;
            if (covered)
                ++cov.coveredMem;
            break;
          default:
            break;
        }
    }
    return cov;
}

} // namespace core
} // namespace ser
