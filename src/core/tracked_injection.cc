#include "tracked_injection.hh"

#include "isa/encoding.hh"
#include "sim/logging.hh"

namespace ser
{
namespace core
{

faults::Outcome
labelTracked(const faults::SiteRecord &record,
             const cpu::SimTrace &trace, const PiMachine &machine)
{
    using faults::Outcome;
    if (record.site.structure != faults::Structure::Iq)
        SER_PANIC("labelTracked: pi bits guard IQ entries, not {}",
                  faults::structureName(record.site.structure));
    const faults::Verdict &verdict = record.verdict;
    Outcome base = faults::label(verdict, faults::Protection::Parity);
    if (base != Outcome::FalseDue && base != Outcome::TrueDue)
        return base;  // never detected: tracking changes nothing

    // The detection is deferred instead of signalled. Wrong-path
    // and squashed incarnations never commit, so the pi bit is
    // never examined: suppressed from pi-to-commit onwards.
    if (verdict.wrongPath)
        return machine.level() != TrackingLevel::None
                   ? Outcome::BenignNoError
                   : base;
    if (!verdict.committed)
        return base;  // conservative: signal if it cannot retire

    const auto &inc = trace.incarnations[static_cast<std::size_t>(
        verdict.residency)];
    // If the struck bit is in the destination-specifier field, the
    // pi bit follows the value to the register actually written.
    int dst_override = -1;
    if (record.site.isPayload() &&
        isa::fieldForBit(record.site.bit) == isa::Field::Dst) {
        const isa::StaticInst &inst =
            trace.program->inst(inc.staticIdx);
        if (inst.hasDst()) {
            int flipped_bit = record.site.bit - isa::encoding::dstShift;
            dst_override = (inst.dst() ^ (1 << flipped_bit)) & 0x3f;
        }
    }

    PiOutcome deferred = machine.run(inc.oracleSeq, dst_override);
    if (deferred.signalled)
        return base;
    // Suppressing a would-have-been-true error means the tracking
    // scheme converted a DUE back into silent data corruption (e.g.
    // the stale architectural destination of a dst-field strike):
    // report it as what it is.
    return base == Outcome::TrueDue ? Outcome::Sdc
                                    : Outcome::BenignNoError;
}

} // namespace core
} // namespace ser
