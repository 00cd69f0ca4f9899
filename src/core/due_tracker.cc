#include "due_tracker.hh"

#include <sstream>

namespace ser
{
namespace core
{

std::uint64_t
petCoveredBitCycles(const avf::AvfResult &avf, std::uint32_t pet_size)
{
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < avf.fddBitCycles.size(); ++i) {
        const std::uint32_t dist = avf.fddOverwriteDist[i];
        if (dist != avf::noOverwrite && dist <= pet_size)
            covered += avf.fddBitCycles[i];
    }
    return covered;
}

FalseDueAnalysis
analyzeFalseDue(const avf::AvfResult &avf, std::uint32_t pet_size)
{
    FalseDueAnalysis out;
    out.baseFalseDueAvf = avf.falseDueAvf();
    out.trueDueAvf = avf.trueDueAvf();

    std::uint64_t pet_covered = petCoveredBitCycles(avf, pet_size);

    for (int l = 0; l < numTrackingLevels; ++l) {
        auto level = static_cast<TrackingLevel>(l);
        std::uint64_t residual = 0;
        for (int s = 0; s < avf::numUnAceSources; ++s) {
            auto source = static_cast<avf::UnAceSource>(s);
            std::uint64_t bits = avf.unAceRead[s];
            if (coversSource(level, source))
                continue;
            if (source == avf::UnAceSource::FddReg &&
                level == TrackingLevel::PetBuffer) {
                // Partial coverage: only exposures whose overwrite
                // falls inside the PET window are proven dead.
                residual += bits - std::min(bits, pet_covered);
                continue;
            }
            residual += bits;
        }
        out.residualFalseDue[l] = avf.frac(residual);
    }
    return out;
}

std::string
FalseDueAnalysis::summary() const
{
    std::ostringstream os;
    os << "true DUE AVF " << trueDueAvf * 100
       << "%, base false DUE AVF " << baseFalseDueAvf * 100 << "%\n";
    for (int l = 0; l < numTrackingLevels; ++l) {
        auto level = static_cast<TrackingLevel>(l);
        os << "  " << trackingLevelName(level) << ": residual false "
           << residualFalseDue[l] * 100 << "% (covered "
           << coveredFraction(level) * 100 << "%), total DUE "
           << dueAvf(level) * 100 << "%\n";
    }
    return os.str();
}

} // namespace core
} // namespace ser
