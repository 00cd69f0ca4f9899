/**
 * @file
 * The statistical fault-injection campaign engine: every fault
 * injection in the repository goes through sampleCampaign(), and
 * every campaign outcome through labelCampaign(). Protection decides
 * only how a strike is reported, so a campaign is two steps:
 *
 *  - sampleCampaign() draws the sites and classifies each into a
 *    protection-free Verdict. It runs the golden ForkServer run once,
 *    forks the counterfactual re-runs when asked to, and records what
 *    the reconciliation bands and the root causes need. One sample
 *    serves none, parity and ECC alike; the run cache keeps it.
 *
 *  - labelCampaign() is a pure fold of one sample under one
 *    protection: faults::label() per site, the per-structure tallies,
 *    the convergence series, the early stop, the bands, the root
 *    causes and the re-run counters. Under ECC it reports no re-run
 *    and strips the re-run answer from its sites.
 *
 * runCampaignEngine() is the two steps back to back for one
 * protection; under ECC its sample never forks.
 *
 *  - Sites are sampled over (structure, entry, bit, cycle) with
 *    counter-based per-sample RNG keying: sample i's site depends
 *    only on (seed, i), so sharding a campaign across worker threads
 *    or resuming it mid-way draws exactly the same sites. Batches
 *    are classified in parallel into an index-addressed record
 *    vector and folded sequentially — byte-identical results at any
 *    job count.
 *
 *  - Classification covers the instruction queue and the three
 *    architectural register files: the FaultInjector turns each
 *    site into a protection-free Verdict (register sites read the
 *    same value windows the avf/regfile_avf fold sums).
 *
 *  - Counterfactual re-runs are served by a ForkServer: each
 *    injection forks from the nearest golden checkpoint and pays
 *    only its post-strike suffix (with convergence/divergence early
 *    exits) instead of a full replay.
 *
 *  - Adaptive early stop: after each batch the label fold evaluates
 *    the 95% Wilson CI half-widths of the per-structure SDC and DUE
 *    rates and stops once all fall below spec.ciTarget. The stop
 *    point depends on the protection, so a sample drawn with a CI
 *    target ends where spec.protection's fold stops and serves that
 *    protection alone.
 *
 *  - Reconciliation: measured SDC/DUE rates are compared against the
 *    analytical AVF fold per outcome class. Each measured rate is
 *    checked against a band [lower, upper]. SDC bands are one-sided
 *    — ACE analysis only ever overestimates (the injection oracle
 *    is exact ground truth), so the IQ band is [0, field-refined
 *    ACE]. The IQ DUE rate under parity is an exact point (pre-read
 *    occupancy is precisely what both sides count, so the CI must
 *    cover it); register-file DUE bands come from the regfile fold
 *    (see DESIGN.md "Measured vs analytical AVF").
 *
 *  - SDC-producing injections (Sdc, and TrueDue under parity) are
 *    attributed to per-PC root causes and joined with the
 *    analytical avf/attribution ACE shares.
 */

#ifndef SER_FAULTS_CAMPAIGN_ENGINE_HH
#define SER_FAULTS_CAMPAIGN_ENGINE_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "cpu/trace.hh"
#include "faults/fault.hh"
#include "faults/injector.hh"
#include "isa/program.hh"
#include "sim/rng.hh"

namespace ser
{
namespace faults
{

/** A two-sided Wilson confidence interval. */
struct Interval
{
    double lo = 0.0;
    double hi = 0.0;
};

/** 95% Wilson score interval for k successes out of n. */
Interval wilson(std::uint64_t k, std::uint64_t n);

/** Two-sided score-test p-value of k successes out of n against the
 * rate p0 in (0, 1): erfc(|z| / sqrt 2), with
 * z = (k - n p0) / sqrt(n p0 (1 - p0)). 1 when n is 0. */
double scoreTestP(std::uint64_t k, std::uint64_t n, double p0);

/** Holm's step-down procedure at family-wise level alpha: how many
 * of the hypotheses with these p-values stand (are not rejected). */
std::size_t holmStanding(std::vector<double> p_values, double alpha);

/**
 * Uniform strike cycle within the half-open measurement window
 * [start_cycle, end_cycle). endCycle is one past the last occupied
 * cycle, so the last occupied cycle (end_cycle - 1) is sampleable
 * and end_cycle itself never is. A degenerate (empty or reversed)
 * window pins every sample to start_cycle instead of feeding
 * Rng::range() a zero bound, which panics.
 */
std::uint64_t sampleWindowCycle(Rng &rng, std::uint64_t start_cycle,
                                std::uint64_t end_cycle);

/** Tallied outcomes. */
struct CampaignResult
{
    std::uint64_t samples = 0;
    std::array<std::uint64_t, numOutcomes> counts{};  ///< by Outcome

    void add(Outcome o)
    {
        ++samples;
        ++counts[static_cast<std::size_t>(o)];
    }
    std::uint64_t count(Outcome o) const
    {
        return counts[static_cast<std::size_t>(o)];
    }
    double rate(Outcome o) const
    {
        return samples ? static_cast<double>(count(o)) /
                             static_cast<double>(samples)
                       : 0.0;
    }
    Interval interval(Outcome o) const
    {
        return wilson(count(o), samples);
    }

    /** SDC-rate estimate (== SDC AVF for payload-only sampling). */
    double sdcRate() const { return rate(Outcome::Sdc); }
    /** DUE-rate estimate (true + false). */
    double dueRate() const
    {
        return rate(Outcome::TrueDue) + rate(Outcome::FalseDue);
    }
};

/** One sampled site: where it struck, what the strike does, and its
 * outcome under the campaign's protection. */
struct SiteRecord
{
    FaultSite site{};
    Verdict verdict;
    Outcome outcome = Outcome::BenignNoBit;

    bool operator==(const SiteRecord &) const = default;
};

/** One sampled site before any protection labels it. */
struct SampledSite
{
    FaultSite site{};
    Verdict verdict;
};

// Structure-set bitmask values for CampaignSpec::structures.
constexpr unsigned structIq = 1u << 0;
constexpr unsigned structIntReg = 1u << 1;
constexpr unsigned structFpReg = 1u << 2;
constexpr unsigned structPredReg = 1u << 3;
constexpr unsigned structRegFile =
    structIntReg | structFpReg | structPredReg;

/** Parse a csv like "iq,regfile" / "iq,int,fp,pred" into a mask. */
unsigned parseStructures(const std::string &csv);

/**
 * One point of the campaign convergence time-series: the state of
 * every tracked estimator after a batch of samples was folded.
 * Batch boundaries are a pure function of (samples, batchSamples,
 * ciTarget), so the series is byte-identical at any job count and
 * across run-cache hits — it is a campaign *result*, not a
 * telemetry observation.
 */
struct ConvergencePoint
{
    std::uint64_t batch = 0;    ///< 0-based batch index
    std::uint64_t samples = 0;  ///< cumulative samples folded
    /** Max per-structure 95% Wilson CI half-width (SDC and DUE) —
     * the quantity the adaptive early stop compares to ciTarget. */
    double worstHalfWidth = 1.0;

    struct StructurePoint
    {
        Structure structure = Structure::Iq;
        std::uint64_t samples = 0;  ///< landed on this structure
        double sdcRate = 0.0;
        double sdcHalfWidth = 0.0;
        double dueRate = 0.0;
        double dueHalfWidth = 0.0;
    };
    std::vector<StructurePoint> structures;
};

/** Campaign parameters. */
struct CampaignSpec
{
    std::uint64_t samples = 0;  ///< 0 disables the campaign
    std::uint64_t seed = 0xFA117;
    Protection protection = Protection::None;
    bool payloadOnly = true;    ///< IQ bits 0..63 only
    unsigned structures = structIq;
    double ciTarget = 0.0;      ///< CI half-width stop; 0 = run all
    std::uint64_t batchSamples = 4096;
    unsigned checkpoints = 32;
    unsigned rootCauseTopN = 0;

    // Non-semantic knob: it shards work but cannot change a single
    // sampled site or outcome, so it is excluded from cacheKey().
    unsigned jobs = 1;

    /**
     * Serialization of every knob that can change the sample, for
     * folding into the RunCache key: two specs that could sample
     * differently must never share a cache entry. Protection joins
     * the key only with a CI target, where the sample ends at the
     * protection's stop point; without one, every protection labels
     * the same sample.
     */
    std::string cacheKey() const;
};

/**
 * What a campaign measures before any protection labels it: the
 * golden run's economics, each sampled structure with the analytical
 * bands the labels pick from, and every sampled site in sample order
 * with its protection-free verdict.
 */
struct CampaignSample
{
    /** One sampled structure, in sampling order. */
    struct Space
    {
        Structure structure = Structure::Iq;
        std::uint64_t weight = 0;  ///< site-space bits
        double sdcAvf = 0.0;  ///< analytical SDC upper bound (none)
        double dueAvf = 0.0;  ///< analytical DUE point (parity)
    };
    std::vector<Space> structures;

    std::uint64_t goldenSteps = 0;  ///< one full golden replay
    std::uint64_t checkpoints = 0;

    std::vector<SampledSite> sites;

    /** Analytical ACE share of each static instruction struck by a
     * site that is SDC when unprotected, sorted by static index;
     * filled only when spec.rootCauseTopN is set. */
    std::vector<std::pair<std::uint32_t, double>> aceShares;
};

/** Measured-vs-analytical reconciliation for one structure. */
struct StructureCampaign
{
    Structure structure = Structure::Iq;
    std::uint64_t weight = 0;  ///< site-space bits (sampling weight)
    CampaignResult tally;

    Interval sdcCi;  ///< 95% Wilson CI of the measured SDC rate
    Interval dueCi;  ///< 95% Wilson CI of the measured DUE rate

    // Analytical band per class: conservative upper bound and the
    // tightest lower bound the fold provides (see file comment).
    double analyticalSdc = 0.0;
    double analyticalSdcLower = 0.0;
    double analyticalDue = 0.0;
    double analyticalDueLower = 0.0;

    // CI overlaps the analytical band.
    bool sdcCovered = false;
    bool dueCovered = false;

    double sdcRate() const { return tally.sdcRate(); }
    double dueRate() const { return tally.dueRate(); }
};

/** How many of a reconciliation table's point comparisons stand. */
struct PointChecks
{
    std::size_t standing = 0;
    std::size_t total = 0;
};

/**
 * The point comparisons of a reconciliation table, Holm-adjusted at
 * family-wise level alpha. A comparison is a row's SDC or DUE class
 * whose analytical band is one point strictly inside (0, 1) — the
 * parity DUE rows — tested with scoreTestP() on the measured count.
 * The per-row covered flags stay as they are.
 */
PointChecks holmPointChecks(const std::vector<StructureCampaign> &rows,
                            double alpha);

/** One per-PC root cause of measured SDCs. */
struct RootCause
{
    std::uint32_t staticIdx = 0;
    std::uint64_t sdcInjections = 0;
    double measuredShare = 0.0;       ///< of all SDC injections
    double analyticalAceShare = 0.0;  ///< avf/attribution ACE share
};

/** Everything a finished campaign reports. */
struct CampaignOutcome
{
    // Echo of the semantic knobs (for manifests).
    std::uint64_t samplesRequested = 0;
    std::uint64_t seed = 0;
    Protection protection = Protection::None;
    bool payloadOnly = true;
    double ciTarget = 0.0;
    std::uint64_t batchSamples = 0;

    std::uint64_t samplesRun = 0;
    bool earlyStopped = false;
    /** Max per-structure CI half-width (SDC/DUE) when sampling
     * stopped. */
    double ciHalfWidth = 1.0;

    // Checkpoint/fork economics.
    std::uint64_t reruns = 0;       ///< injections needing a re-run
    std::uint64_t rerunSteps = 0;   ///< total forked instructions
    std::uint64_t goldenSteps = 0;  ///< one full golden replay
    std::uint64_t checkpoints = 0;

    std::vector<StructureCampaign> structures;
    std::vector<RootCause> rootCauses;

    /** Per-batch convergence time-series (one point per folded
     * batch, in fold order) — what `--convergence-out` streams to
     * JSONL. Deterministic: see ConvergencePoint. */
    std::vector<ConvergencePoint> convergence;

    /** Every sampled site, in sample order (samplesRun of them). */
    std::vector<SiteRecord> sites;

    /** Mean forked cost per re-run as a fraction of a full golden
     * replay — the checkpoint/fork win (< 1 means forking pays). */
    double meanRerunFraction() const
    {
        return reruns && goldenSteps
                   ? static_cast<double>(rerunSteps) /
                         (static_cast<double>(reruns) *
                          static_cast<double>(goldenSteps))
                   : 0.0;
    }

    std::string summary() const;
};

/**
 * Sample a campaign against a finished run, for no protection in
 * particular: spec.protection matters only with a CI target, where
 * sampling ends at the batch that protection's label fold stops at.
 *
 * @param program the program the trace was produced from
 * @param trace the finished timing trace (defines the window)
 * @param deadness transitive deadness labels for the commit stream
 * @param avf the analytical IQ fold to reconcile against
 * @param spec campaign parameters
 * @param counterfactual evaluate the re-runs that none and parity
 *        labels need; without them only ECC may label the sample
 */
CampaignSample sampleCampaign(const isa::Program &program,
                              const cpu::SimTrace &trace,
                              const avf::DeadnessResult &deadness,
                              const avf::AvfResult &avf,
                              const CampaignSpec &spec,
                              bool counterfactual);

/**
 * Label a sample under spec.protection. The sample must have been
 * drawn with spec's knobs; it may be shared by every protection.
 */
CampaignOutcome labelCampaign(const CampaignSample &sample,
                              const CampaignSpec &spec);

/** sampleCampaign() then labelCampaign() for spec.protection alone:
 * an ECC campaign never forks. */
CampaignOutcome runCampaignEngine(const isa::Program &program,
                                  const cpu::SimTrace &trace,
                                  const avf::DeadnessResult &deadness,
                                  const avf::AvfResult &avf,
                                  const CampaignSpec &spec);

} // namespace faults
} // namespace ser

#endif // SER_FAULTS_CAMPAIGN_ENGINE_HH
