/**
 * @file
 * The statistical fault-injection campaign engine: every fault
 * injection in the repository goes through runCampaignEngine().
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
 *    same value windows the avf/regfile_avf fold sums), and
 *    faults::label() maps it to the outcome under spec.protection.
 *    The per-site records are part of the result, so callers can
 *    label the same sites under other schemes without re-running.
 *
 *  - Counterfactual re-runs are served by a ForkServer: each
 *    injection forks from the nearest golden checkpoint and pays
 *    only its post-strike suffix (with convergence/divergence early
 *    exits) instead of a full replay. ECC labels never need one, so
 *    an ECC campaign never forks.
 *
 *  - Adaptive early stop: after each batch the engine evaluates the
 *    95% Wilson CI half-widths of the per-structure SDC and DUE
 *    rates and stops once all fall below spec.ciTarget.
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
#include <functional>
#include <string>
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

    // Non-semantic knobs: they shard or report work but cannot
    // change a single sampled site or outcome, so they are excluded
    // from cacheKey().
    unsigned jobs = 1;
    /** Live per-batch hook (the same point that is also recorded in
     * CampaignOutcome::convergence; point.samples is the cumulative
     * count). Fires in fold order on the folding thread; it observes
     * the campaign but cannot change it. */
    std::function<void(const ConvergencePoint &)> onConvergence;

    /**
     * Serialization of every outcome-affecting knob, for folding
     * into the RunCache key: two specs that could tally differently
     * must never share a cache entry.
     */
    std::string cacheKey() const;
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
 * Run a campaign against a finished run.
 *
 * @param program the program the trace was produced from
 * @param trace the finished timing trace (defines the window)
 * @param deadness transitive deadness labels for the commit stream
 * @param avf the analytical IQ fold to reconcile against
 * @param spec campaign parameters
 */
CampaignOutcome runCampaignEngine(const isa::Program &program,
                                  const cpu::SimTrace &trace,
                                  const avf::DeadnessResult &deadness,
                                  const avf::AvfResult &avf,
                                  const CampaignSpec &spec);

} // namespace faults
} // namespace ser

#endif // SER_FAULTS_CAMPAIGN_ENGINE_HH
