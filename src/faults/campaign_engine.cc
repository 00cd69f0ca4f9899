#include "campaign_engine.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "avf/attribution.hh"
#include "avf/regfile_avf.hh"
#include "faults/fork_server.hh"
#include "isa/isa.hh"
#include "sim/config.hh"
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

double
scoreTestP(std::uint64_t k, std::uint64_t n, double p0)
{
    if (n == 0)
        return 1.0;
    const double nn = static_cast<double>(n);
    const double z = (static_cast<double>(k) - nn * p0) /
                     std::sqrt(nn * p0 * (1.0 - p0));
    return std::erfc(std::fabs(z) / std::sqrt(2.0));
}

std::size_t
holmStanding(std::vector<double> p_values, double alpha)
{
    std::sort(p_values.begin(), p_values.end());
    const std::size_t m = p_values.size();
    std::size_t rejected = 0;
    // The i-th smallest p-value (0-based) is rejected at alpha/(m-i),
    // and the first one that is not stops the procedure.
    while (rejected < m &&
           p_values[rejected] <=
               alpha / static_cast<double>(m - rejected))
        ++rejected;
    return m - rejected;
}

PointChecks
holmPointChecks(const std::vector<StructureCampaign> &rows,
                double alpha)
{
    std::vector<double> p_values;
    auto check = [&](double lower, double upper, std::uint64_t count,
                     std::uint64_t samples) {
        if (lower == upper && lower > 0.0 && lower < 1.0)
            p_values.push_back(scoreTestP(count, samples, lower));
    };
    for (const StructureCampaign &row : rows) {
        check(row.analyticalSdcLower, row.analyticalSdc,
              row.tally.count(Outcome::Sdc), row.tally.samples);
        check(row.analyticalDueLower, row.analyticalDue,
              row.tally.count(Outcome::TrueDue) +
                  row.tally.count(Outcome::FalseDue),
              row.tally.samples);
    }
    return {holmStanding(p_values, alpha), p_values.size()};
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
    for (const std::string &item : splitList(csv)) {
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
    os << "samples=" << samples << "|cseed=" << seed;
    if (ciTarget > 0.0)
        os << "|prot=" << protectionName(protection);
    os << "|payload=" << (payloadOnly ? 1 : 0)
       << "|structs=" << structures << "|ci="
       << std::setprecision(std::numeric_limits<double>::max_digits10)
       << ciTarget << "|batch=" << batchSamples
       << "|ckpt=" << checkpoints << "|rootn=" << rootCauseTopN;
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

/** One protection's per-structure tallies, folded in sample order:
 * the state the early stop and the convergence series read. */
class LabelFold
{
  public:
    LabelFold(const std::vector<CampaignSample::Space> &spaces,
              Protection protection)
        : _spaces(spaces), _protection(protection),
          _tallies(spaces.size())
    {
        for (std::size_t si = 0; si < spaces.size(); ++si)
            _tallyOf[static_cast<std::size_t>(spaces[si].structure)] =
                si;
    }

    Outcome add(const SampledSite &sampled)
    {
        Outcome outcome = label(sampled.verdict, _protection);
        _tallies[_tallyOf[static_cast<std::size_t>(
                     sampled.site.structure)]]
            .add(outcome);
        return outcome;
    }

    /** The convergence point after 'samples' folded sites. */
    ConvergencePoint point(std::uint64_t batch,
                           std::uint64_t samples) const
    {
        ConvergencePoint point;
        point.batch = batch;
        point.samples = samples;
        point.structures.reserve(_tallies.size());
        double widest = 0.0;
        for (std::size_t si = 0; si < _tallies.size(); ++si) {
            const CampaignResult &tally = _tallies[si];
            Interval sdc = wilson(tally.count(Outcome::Sdc),
                                  tally.samples);
            Interval due = wilson(tally.count(Outcome::TrueDue) +
                                      tally.count(Outcome::FalseDue),
                                  tally.samples);
            ConvergencePoint::StructurePoint sp;
            sp.structure = _spaces[si].structure;
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
        return point;
    }

    const std::vector<CampaignResult> &tallies() const
    {
        return _tallies;
    }

  private:
    const std::vector<CampaignSample::Space> &_spaces;
    Protection _protection;
    std::vector<CampaignResult> _tallies;
    std::array<std::size_t, 4> _tallyOf{};
};

/** Adaptive early stop, evaluated only at batch boundaries so the
 * stopping point is a pure function of the fold so far. */
bool
stopsEarly(const ConvergencePoint &point, const CampaignSpec &spec)
{
    return spec.ciTarget > 0.0 && point.worstHalfWidth <= spec.ciTarget &&
           point.samples < spec.samples;
}

std::uint64_t
batchSize(const CampaignSpec &spec)
{
    return std::max<std::uint64_t>(1, spec.batchSamples);
}

} // namespace

CampaignSample
sampleCampaign(const isa::Program &program, const cpu::SimTrace &trace,
               const avf::DeadnessResult &deadness,
               const avf::AvfResult &avf, const CampaignSpec &spec,
               bool counterfactual)
{
    SER_PROF_SCOPE("sample");

    CampaignSample out;
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
    avf::RegFileAvfResult regAvf;
    if (wantRegs) {
        regs.emplace(trace, deadness);
        injector.attachRegisterWindows(&*regs);
        regAvf = avf::computeRegFileAvf(*regs);
    }

    // The analytical bands every protection's labels pick from (see
    // the file comment).
    for (const StructSpace &space : spaces) {
        CampaignSample::Space s;
        s.structure = space.structure;
        s.weight = space.weight();
        if (space.structure == Structure::Iq) {
            // ACE analysis is one-sided: every refinement still
            // overestimates ground truth (an instruction marked ACE
            // has many payload bits whose flip the oracle proves
            // harmless), so the tightest analytical statement is
            // measured SDC <= field-refined ACE. The gap below it is
            // the ACE derating factor the related work (Wang et al.)
            // measures. Measured parity DUE counts exactly the
            // pre-read occupied bit-cycles the fold splits into ACE +
            // read un-ACE: an unbiased point estimate, not a bound.
            s.sdcAvf = avf.sdcAvfRefined();
            s.dueAvf = avf.dueAvf();
        } else {
            const avf::RegFileAvf &f =
                space.structure == Structure::IntRegFile
                    ? regAvf.intFile
                    : space.structure == Structure::FpRegFile
                          ? regAvf.fpFile
                          : regAvf.predFile;
            // Every read window signals over [def, lastRead), dead or
            // not, and the fold counts exactly that time: a point,
            // like the IQ's.
            s.sdcAvf = f.sdcAvf();
            s.dueAvf = f.dueAvf();
        }
        out.structures.push_back(s);
    }

    auto classify = [&](std::uint64_t index) {
        Rng rng = Rng::keyed(spec.seed, index);
        SampledSite rec;
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
        return rec;
    };

    // With a CI target, sample until spec.protection's labels stop.
    LabelFold fold(out.structures, spec.protection);
    const std::uint64_t batch = batchSize(spec);
    std::uint64_t done = 0;
    for (std::uint64_t b = 0; done < spec.samples; ++b) {
        std::uint64_t n = std::min(batch, spec.samples - done);
        out.sites.resize(done + n);
        ser::parallelFor(
            static_cast<std::size_t>(n), spec.jobs,
            [&](std::size_t i) {
                out.sites[done + i] = classify(done + i);
            });
        done += n;
        if (spec.ciTarget > 0.0) {
            for (std::uint64_t i = done - n; i < done; ++i)
                fold.add(out.sites[i]);
            if (stopsEarly(fold.point(b, done), spec))
                break;
        }
    }

    // ACE shares for the root causes: a struck instruction can be
    // one only through a site that is SDC when unprotected (parity
    // reports the same sites as SDC or true DUE).
    if (spec.rootCauseTopN > 0 && counterfactual) {
        std::map<std::uint32_t, double> shares;
        for (const SampledSite &rec : out.sites)
            if (rec.verdict.inst != cpu::noSeq32 &&
                label(rec.verdict, Protection::None) == Outcome::Sdc)
                shares.emplace(rec.verdict.inst, 0.0);
        if (!shares.empty()) {
            avf::AttributionResult attr = attributeAvf(trace, deadness);
            for (const auto &pa : attr.pcs) {
                auto it = shares.find(pa.staticIdx);
                if (it != shares.end())
                    it->second = attr.aceShare(pa);
            }
        }
        out.aceShares.assign(shares.begin(), shares.end());
    }
    return out;
}

CampaignOutcome
labelCampaign(const CampaignSample &sample, const CampaignSpec &spec)
{
    SER_PROF_SCOPE("label");

    CampaignOutcome out;
    out.samplesRequested = spec.samples;
    out.seed = spec.seed;
    out.protection = spec.protection;
    out.payloadOnly = spec.payloadOnly;
    out.ciTarget = spec.ciTarget;
    out.batchSamples = spec.batchSamples;
    out.goldenSteps = sample.goldenSteps;
    out.checkpoints = sample.checkpoints;
    if (spec.samples == 0 || spec.structures == 0)
        return out;

    // ECC corrects every read strike whatever the re-run would say,
    // so its records carry no re-run answer and it counts no re-run.
    const bool ecc = spec.protection == Protection::Ecc;
    LabelFold fold(sample.structures, spec.protection);
    std::map<std::uint32_t, std::uint64_t> sdcByPc;
    const std::uint64_t batch = batchSize(spec);
    std::uint64_t done = 0;
    while (done < spec.samples) {
        std::uint64_t n = std::min(batch, spec.samples - done);
        if (done + n > sample.sites.size())
            SER_PANIC("labelCampaign: the sample stops at {} sites, "
                      "before {}'s fold does",
                      sample.sites.size(),
                      protectionName(spec.protection));
        for (std::uint64_t i = done; i < done + n; ++i) {
            const SampledSite &sampled = sample.sites[i];
            SiteRecord rec{sampled.site, sampled.verdict,
                           fold.add(sampled)};
            if (ecc) {
                rec.verdict.reRan = false;
                rec.verdict.outputChanged = false;
                rec.verdict.rerunSteps = 0;
            }
            if (rec.verdict.reRan) {
                ++out.reruns;
                out.rerunSteps += rec.verdict.rerunSteps;
            }
            if ((rec.outcome == Outcome::Sdc ||
                 rec.outcome == Outcome::TrueDue) &&
                rec.verdict.inst != cpu::noSeq32)
                ++sdcByPc[rec.verdict.inst];
            out.sites.push_back(rec);
        }
        done += n;

        // The same per-structure CIs become one point of the
        // convergence time-series.
        ConvergencePoint point =
            fold.point(out.convergence.size(), done);
        out.convergence.push_back(point);
        out.ciHalfWidth = point.worstHalfWidth;
        if (stopsEarly(point, spec)) {
            out.earlyStopped = true;
            break;
        }
    }
    out.samplesRun = done;

    // Analytical reconciliation bands (see file comment; the band
    // collapses to [0, 0] for classes the protection eliminates).
    for (std::size_t si = 0; si < sample.structures.size(); ++si) {
        const CampaignSample::Space &space = sample.structures[si];
        StructureCampaign sc;
        sc.structure = space.structure;
        sc.weight = space.weight;
        sc.tally = fold.tallies()[si];
        sc.sdcCi = wilson(sc.tally.count(Outcome::Sdc),
                          sc.tally.samples);
        sc.dueCi = wilson(sc.tally.count(Outcome::TrueDue) +
                              sc.tally.count(Outcome::FalseDue),
                          sc.tally.samples);
        if (spec.protection == Protection::None) {
            // No detection: nothing can signal a DUE.
            sc.analyticalSdc = space.sdcAvf;
        } else if (spec.protection == Protection::Parity) {
            sc.analyticalDue = space.dueAvf;
            sc.analyticalDueLower = space.dueAvf;
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
            auto it = std::lower_bound(
                sample.aceShares.begin(), sample.aceShares.end(),
                std::make_pair(pc, 0.0),
                [](const auto &a, const auto &b) {
                    return a.first < b.first;
                });
            if (it != sample.aceShares.end() && it->first == pc)
                rc.analyticalAceShare = it->second;
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

CampaignOutcome
runCampaignEngine(const isa::Program &program,
                  const cpu::SimTrace &trace,
                  const avf::DeadnessResult &deadness,
                  const avf::AvfResult &avf, const CampaignSpec &spec)
{
    SER_PROF_SCOPE("engine");
    return labelCampaign(
        sampleCampaign(program, trace, deadness, avf, spec,
                       spec.protection != Protection::Ecc),
        spec);
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
