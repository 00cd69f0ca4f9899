#include "campaign_engine.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>

#include "avf/attribution.hh"
#include "avf/regfile_avf.hh"
#include "faults/fork_server.hh"
#include "isa/isa.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/prof.hh"

namespace ser
{
namespace faults
{

Interval
wilson(std::uint64_t k, std::uint64_t n)
{
    if (n == 0)
        return {0.0, 1.0};
    const double z = 1.959964;  // 95%
    double nn = static_cast<double>(n);
    double p = static_cast<double>(k) / nn;
    double z2 = z * z;
    double denom = 1.0 + z2 / nn;
    double centre = p + z2 / (2.0 * nn);
    double spread =
        z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn));
    Interval ci = {std::max(0.0, (centre - spread) / denom),
                   std::min(1.0, (centre + spread) / denom)};
    // At k=0 the score lower bound is exactly 0 (and at k=n the
    // upper is exactly 1), but centre and spread only cancel up to
    // floating-point rounding, leaving a ~1e-17 residue that makes a
    // zero-count CI fail to cover an exact [0, 0] analytical band.
    if (k == 0)
        ci.lo = 0.0;
    if (k == n)
        ci.hi = 1.0;
    return ci;
}

std::uint64_t
sampleWindowCycle(Rng &rng, std::uint64_t start_cycle,
                  std::uint64_t end_cycle)
{
    std::uint64_t window =
        end_cycle > start_cycle ? end_cycle - start_cycle : 1;
    return start_cycle + rng.range(window);
}

unsigned
parseStructures(const std::string &csv)
{
    unsigned mask = 0;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty())
            continue;
        if (item == "iq")
            mask |= structIq;
        else if (item == "regfile")
            mask |= structRegFile;
        else if (item == "int")
            mask |= structIntReg;
        else if (item == "fp")
            mask |= structFpReg;
        else if (item == "pred")
            mask |= structPredReg;
        else
            SER_PANIC("unknown campaign structure '{}' (expected "
                      "iq, regfile, int, fp, or pred)", item);
    }
    return mask;
}

std::string
CampaignSpec::cacheKey() const
{
    std::ostringstream os;
    os << "samples=" << samples << "|cseed=" << seed
       << "|prot=" << protectionName(protection)
       << "|payload=" << (payloadOnly ? 1 : 0)
       << "|structs=" << structures << "|ci=" << ciTarget
       << "|batch=" << batchSamples << "|ckpt=" << checkpoints
       << "|rootn=" << rootCauseTopN;
    return os.str();
}

namespace
{

struct StructSpace
{
    Structure structure;
    std::uint64_t units;  ///< entries or registers
    std::uint64_t bits;   ///< bits per unit
    std::uint64_t weight() const { return units * bits; }
};

/** CI overlap with an analytical [lo, hi] band. */
bool
covers(const Interval &ci, double lo, double hi)
{
    return ci.lo <= hi && ci.hi >= lo;
}

} // namespace

CampaignOutcome
runCampaignEngine(const isa::Program &program,
                  const cpu::SimTrace &trace,
                  const avf::DeadnessResult &deadness,
                  const avf::AvfResult &avf, const CampaignSpec &spec)
{
    SER_PROF_SCOPE("engine");

    CampaignOutcome out;
    out.samplesRequested = spec.samples;
    out.seed = spec.seed;
    out.protection = spec.protection;
    out.payloadOnly = spec.payloadOnly;
    out.ciTarget = spec.ciTarget;
    out.batchSamples = spec.batchSamples;
    if (spec.samples == 0 || spec.structures == 0)
        return out;

    // The sampled site space: one entry per enabled structure,
    // weighted by its bit capacity (every structure shares the same
    // window, so per-cycle weights reduce to bits).
    std::vector<StructSpace> spaces;
    if (spec.structures & structIq) {
        spaces.push_back({Structure::Iq, trace.iqEntries,
                          static_cast<std::uint64_t>(
                              spec.payloadOnly ? payloadBits
                                               : entryBits)});
    }
    if (spec.structures & structIntReg)
        spaces.push_back({Structure::IntRegFile, isa::numIntRegs, 64});
    if (spec.structures & structFpReg)
        spaces.push_back({Structure::FpRegFile, isa::numFpRegs, 64});
    if (spec.structures & structPredReg)
        spaces.push_back(
            {Structure::PredRegFile, isa::numPredRegs, 1});
    std::uint64_t totalWeight = 0;
    for (const auto &space : spaces)
        totalWeight += space.weight();

    // Golden run + checkpoints, shared by every injection.
    std::uint64_t budget = trace.commits.size() * 2 + 10000;
    ForkServer fork(program, budget, spec.checkpoints);
    out.goldenSteps = fork.goldenSteps();
    out.checkpoints = fork.numCheckpoints();

    FaultInjector injector(program, trace, fork.goldenOutput(),
                           budget);
    injector.attachForkServer(&fork);

    // One register-file walk feeds both the classifier and the fold.
    bool wantRegs = (spec.structures & structRegFile) != 0;
    std::optional<avf::RegFileWindows> regs;
    if (wantRegs) {
        regs.emplace(trace, deadness);
        injector.attachRegisterWindows(&*regs);
    }
    // ECC corrects every read strike whatever the re-run would say.
    const bool counterfactual = spec.protection != Protection::Ecc;

    auto classify = [&](std::uint64_t index) {
        Rng rng = Rng::keyed(spec.seed, index);
        SiteRecord rec;
        // Draw order is fixed: structure, unit, bit, cycle — a
        // sample's site is a pure function of (seed, index).
        std::uint64_t pick = rng.range(totalWeight);
        std::size_t si = 0;
        while (si + 1 < spaces.size() &&
               pick >= spaces[si].weight()) {
            pick -= spaces[si].weight();
            ++si;
        }
        const StructSpace &space = spaces[si];
        rec.site.structure = space.structure;
        rec.site.entry =
            static_cast<std::uint16_t>(rng.range(space.units));
        rec.site.bit = static_cast<std::uint8_t>(rng.range(space.bits));
        rec.site.cycle = sampleWindowCycle(rng, trace.startCycle,
                                           trace.endCycle);
        rec.verdict = injector.classify(rec.site, counterfactual);
        rec.outcome = label(rec.verdict, spec.protection);
        return rec;
    };

    // Tallies, folded in sample order.
    std::vector<CampaignResult> tallies(spaces.size());
    std::array<std::size_t, 4> tallyOf{};
    for (std::size_t si = 0; si < spaces.size(); ++si)
        tallyOf[static_cast<std::size_t>(spaces[si].structure)] = si;
    std::map<std::uint32_t, std::uint64_t> sdcByPc;

    std::uint64_t batch = std::max<std::uint64_t>(
        1, spec.batchSamples);
    std::uint64_t done = 0;
    while (done < spec.samples) {
        std::uint64_t n = std::min(batch, spec.samples - done);
        out.sites.resize(done + n);
        ser::parallelFor(
            static_cast<std::size_t>(n), spec.jobs,
            [&](std::size_t i) {
                out.sites[done + i] = classify(done + i);
            });
        for (std::uint64_t i = done; i < done + n; ++i) {
            const SiteRecord &rec = out.sites[i];
            tallies[tallyOf[static_cast<std::size_t>(
                        rec.site.structure)]]
                .add(rec.outcome);
            if (rec.verdict.reRan) {
                ++out.reruns;
                out.rerunSteps += rec.verdict.rerunSteps;
            }
            if (rec.outcome == Outcome::Sdc ||
                rec.outcome == Outcome::TrueDue) {
                std::uint32_t pc =
                    injector.struckInst(rec.site, rec.verdict);
                if (pc != cpu::noSeq32)
                    ++sdcByPc[pc];
            }
        }
        done += n;

        // Adaptive early stop, evaluated only at batch boundaries so
        // the stopping point is a pure function of the fold so far.
        // The same per-structure CIs become one point of the
        // convergence time-series.
        ConvergencePoint point;
        point.batch = out.convergence.size();
        point.samples = done;
        point.structures.reserve(tallies.size());
        double widest = 0.0;
        for (std::size_t si = 0; si < tallies.size(); ++si) {
            const CampaignResult &tally = tallies[si];
            Interval sdc = wilson(tally.count(Outcome::Sdc),
                                  tally.samples);
            Interval due = wilson(tally.count(Outcome::TrueDue) +
                                      tally.count(Outcome::FalseDue),
                                  tally.samples);
            ConvergencePoint::StructurePoint sp;
            sp.structure = spaces[si].structure;
            sp.samples = tally.samples;
            sp.sdcRate = tally.sdcRate();
            sp.sdcHalfWidth = (sdc.hi - sdc.lo) / 2.0;
            sp.dueRate = tally.dueRate();
            sp.dueHalfWidth = (due.hi - due.lo) / 2.0;
            point.structures.push_back(sp);
            widest = std::max({widest, sp.sdcHalfWidth,
                               sp.dueHalfWidth});
        }
        point.worstHalfWidth = widest;
        out.convergence.push_back(point);
        if (spec.onConvergence)
            spec.onConvergence(point);
        out.ciHalfWidth = widest;
        if (spec.ciTarget > 0.0 && widest <= spec.ciTarget &&
            done < spec.samples) {
            out.earlyStopped = true;
            break;
        }
    }
    out.samplesRun = done;

    // Analytical reconciliation bands (see file comment; the band
    // collapses to [0, 0] for classes the protection eliminates).
    avf::RegFileAvfResult regAvf;
    if (wantRegs)
        regAvf = avf::computeRegFileAvf(*regs);

    for (std::size_t si = 0; si < spaces.size(); ++si) {
        StructureCampaign sc;
        sc.structure = spaces[si].structure;
        sc.weight = spaces[si].weight();
        sc.tally = tallies[si];
        sc.sdcCi = wilson(sc.tally.count(Outcome::Sdc),
                          sc.tally.samples);
        sc.dueCi = wilson(sc.tally.count(Outcome::TrueDue) +
                              sc.tally.count(Outcome::FalseDue),
                          sc.tally.samples);

        if (spec.protection == Protection::None) {
            if (sc.structure == Structure::Iq) {
                // ACE analysis is one-sided: every refinement still
                // overestimates ground truth (an instruction marked
                // ACE has many payload bits whose flip the oracle
                // proves harmless), so the tightest analytical
                // statement is measured SDC <= field-refined ACE.
                // The gap below it is the ACE derating factor the
                // related work (Wang et al.) measures.
                sc.analyticalSdc = avf.sdcAvfRefined();
                sc.analyticalSdcLower = 0.0;
            } else {
                const avf::RegFileAvf &f =
                    sc.structure == Structure::IntRegFile
                        ? regAvf.intFile
                        : sc.structure == Structure::FpRegFile
                              ? regAvf.fpFile
                              : regAvf.predFile;
                sc.analyticalSdc = f.sdcAvf();
                sc.analyticalSdcLower = 0.0;
            }
            // No detection: nothing can signal a DUE.
        } else if (spec.protection == Protection::Parity) {
            if (sc.structure == Structure::Iq) {
                // Measured DUE counts exactly the pre-read occupied
                // bit-cycles the fold splits into ACE + read un-ACE:
                // an unbiased point estimate, not a bound.
                sc.analyticalDue = avf.dueAvf();
                sc.analyticalDueLower = avf.dueAvf();
            } else {
                const avf::RegFileAvf &f =
                    sc.structure == Structure::IntRegFile
                        ? regAvf.intFile
                        : sc.structure == Structure::FpRegFile
                              ? regAvf.fpFile
                              : regAvf.predFile;
                // Every read window signals over [def, lastRead),
                // dead or not, and the fold counts exactly that
                // time: a point, like the IQ's.
                sc.analyticalDue = f.dueAvf();
                sc.analyticalDueLower = f.dueAvf();
            }
        }
        sc.sdcCovered = covers(sc.sdcCi, sc.analyticalSdcLower,
                               sc.analyticalSdc);
        sc.dueCovered = covers(sc.dueCi, sc.analyticalDueLower,
                               sc.analyticalDue);
        out.structures.push_back(sc);
    }

    // Per-PC root causes of the measured SDCs, joined with the
    // analytical attribution's ACE shares.
    if (spec.rootCauseTopN > 0 && !sdcByPc.empty()) {
        avf::AttributionResult attr = attributeAvf(trace, deadness);
        std::uint64_t totalSdc = 0;
        for (const auto &[pc, count] : sdcByPc)
            totalSdc += count;
        std::vector<RootCause> causes;
        causes.reserve(sdcByPc.size());
        for (const auto &[pc, count] : sdcByPc) {
            RootCause rc;
            rc.staticIdx = pc;
            rc.sdcInjections = count;
            rc.measuredShare =
                static_cast<double>(count) /
                static_cast<double>(totalSdc);
            for (const auto &pa : attr.pcs) {
                if (pa.staticIdx == pc) {
                    rc.analyticalAceShare = attr.aceShare(pa);
                    break;
                }
            }
            causes.push_back(rc);
        }
        std::sort(causes.begin(), causes.end(),
                  [](const RootCause &a, const RootCause &b) {
                      if (a.sdcInjections != b.sdcInjections)
                          return a.sdcInjections > b.sdcInjections;
                      return a.staticIdx < b.staticIdx;
                  });
        if (causes.size() > spec.rootCauseTopN)
            causes.resize(spec.rootCauseTopN);
        out.rootCauses = std::move(causes);
    }
    return out;
}

std::string
CampaignOutcome::summary() const
{
    std::ostringstream os;
    os << "campaign: " << samplesRun << "/" << samplesRequested
       << " samples, protection " << protectionName(protection);
    if (earlyStopped)
        os << ", early stop (CI half-width " << ciHalfWidth * 100
           << "% <= target " << ciTarget * 100 << "%)";
    os << "\n  re-runs " << reruns << ", mean forked cost "
       << meanRerunFraction() * 100 << "% of a full replay ("
       << checkpoints << " checkpoints, golden " << goldenSteps
       << " steps)\n";
    for (const auto &sc : structures) {
        os << "  " << structureName(sc.structure) << ": "
           << sc.tally.samples << " samples, SDC "
           << sc.sdcRate() * 100 << "% [" << sc.sdcCi.lo * 100
           << ", " << sc.sdcCi.hi * 100 << "] vs analytical ["
           << sc.analyticalSdcLower * 100 << ", "
           << sc.analyticalSdc * 100 << "] ("
           << (sc.sdcCovered ? "covered" : "NOT covered")
           << "), DUE " << sc.dueRate() * 100 << "% ["
           << sc.dueCi.lo * 100 << ", " << sc.dueCi.hi * 100
           << "] vs [" << sc.analyticalDueLower * 100 << ", "
           << sc.analyticalDue * 100 << "] ("
           << (sc.dueCovered ? "covered" : "NOT covered") << ")\n";
    }
    return os.str();
}

} // namespace faults
} // namespace ser
