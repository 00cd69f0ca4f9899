/**
 * @file
 * The experiment driver: benchmark x configuration -> results.
 *
 * Wraps the whole flow the benches and examples share: build (or
 * accept) a program, run the timing model with the configured
 * trigger/action policy, run the deadness analysis and the AVF fold,
 * and derive the false-DUE coverage. Heavyweight artifacts (trace,
 * deadness labels) are returned so callers like the PET-sweep bench
 * can do further analysis before dropping them.
 */

#ifndef SER_HARNESS_EXPERIMENT_HH
#define SER_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>

#include <vector>

#include "avf/attribution.hh"
#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "core/due_tracker.hh"
#include "faults/campaign_engine.hh"
#include "cpu/params.hh"
#include "cpu/sampler.hh"
#include "cpu/trace.hh"
#include "harness/run_cache.hh"
#include "isa/program.hh"
#include "sim/prof.hh"
#include "workloads/profile.hh"

namespace ser
{
namespace harness
{

/** One experiment's configuration. */
struct ExperimentConfig
{
    /** Dynamic instructions the generated workload targets. */
    std::uint64_t dynamicTarget = 1'000'000;

    /** Commits before the measurement window opens. */
    std::uint64_t warmupInsts = 50'000;

    /** Exposure trigger: "none", "l0", "l1", "l2". */
    std::string triggerLevel = "none";

    /** Action when it fires: "squash", "throttle", "both". */
    std::string triggerAction = "squash";

    /** PET-buffer size for the false-DUE analysis. */
    std::uint32_t petSize = 512;

    /** Interval time-series epoch size in cycles; 0 disables the
     * sampler (and the per-epoch AVF fold). */
    std::uint64_t intervalCycles = 0;

    /** Nonzero enables instruction-lifetime trace capture; the value
     * becomes the run's trace process id (one distinct pid per run,
     * so merged sweep traces keep their runs on separate process
     * rows and stay deterministic under --jobs). */
    std::uint32_t traceEventsPid = 0;

    /** Nonzero enables the per-PC AVF attribution fold; the value is
     * the hotspot-table depth (--topn). */
    std::uint32_t attributionTopN = 0;

    /** Statistical fault-injection campaign against the finished
     * run; campaign.samples == 0 (the default) disables it. */
    faults::CampaignSpec campaign;

    cpu::PipelineParams pipeline;
};

/** Everything one run produces. */
struct RunArtifacts
{
    std::string benchmark;
    double ipc = 0.0;

    /** The configuration the run was given; the manifest records
     * it. */
    ExperimentConfig config;

    /** Workload generator seed (0 for externally built programs). */
    std::uint64_t seed = 0;

    /** The artifacts share ownership of the program so
     * trace->program stays valid for post-hoc analyses after the
     * caller's copy is gone. Const: a suite sweep hands the same
     * program to many concurrent runs read-only. On a run-cache hit
     * this is the cache's canonical program (content-identical to
     * the one submitted). */
    std::shared_ptr<const isa::Program> program;

    /** Heavyweight artifacts are shared const: sweep points with
     * identical timing behaviour receive pointer-identical traces
     * and analyses from the run cache (run_cache.hh) instead of
     * recomputing them. falseDue stays a value — it depends on the
     * per-point PET size. */
    std::shared_ptr<const cpu::SimTrace> trace;
    std::shared_ptr<const avf::DeadnessResult> deadness;
    std::shared_ptr<const avf::AvfResult> avf;
    core::FalseDueAnalysis falseDue;

    /** Most DynInst pool slots simultaneously live in this run's
     * pipeline (shared across cache hits of the same simulation). */
    std::uint64_t poolHighWater = 0;

    /** Cycles the pipeline's event-driven scheduler fast-forwarded
     * over instead of ticking (0 under --no-cycle-skip; shared
     * across cache hits of the same simulation). */
    std::uint64_t cyclesSkipped = 0;

    /** Measured-AVF campaign results; null unless campaign.samples
     * was set. Labelled under this run's protection from the run
     * cache's protection-free sample (cacheCampaign says how the
     * sample was found). */
    std::shared_ptr<const faults::CampaignOutcome> campaign;

    /** Per-section run-cache outcome for the manifest. "off" when
     * the cache is disabled or the run captures trace events. */
    CacheOutcome cacheSim = CacheOutcome::Off;
    CacheOutcome cacheDeadness = CacheOutcome::Off;
    CacheOutcome cacheAvf = CacheOutcome::Off;
    CacheOutcome cacheCampaign = CacheOutcome::Off;

    /** Stats dump of the pipeline tree (cache, predictor, ...). */
    std::string statsDump;

    /** The same stats tree as a JSON object (for the manifest). */
    std::string statsJson;

    /** Wall-clock time of each phase (pipeline, deadness, ...),
     * from the phase's prof scope. The program build is a
     * per-program cost, reported by the "build" scope alone. */
    prof::Phases timings;

    /** Interval time series; empty unless intervalCycles was set. */
    std::vector<cpu::IntervalSample> intervals;

    /** This run's Chrome trace-event fragment; empty unless
     * traceEventsPid was set (see sim/trace_event.hh). */
    std::string traceEvents;

    /** Per-PC AVF attribution; pcs is empty unless attributionTopN
     * was set. */
    avf::AttributionResult attribution;
};

/** Run one program under one configuration (deep-copies the
 * program into the artifacts). */
RunArtifacts runProgram(const isa::Program &program,
                        const ExperimentConfig &config,
                        const std::string &name = "program");

/**
 * Run one program under one configuration without copying it: the
 * artifacts share ownership. The program is only read, so one build
 * can feed every design point of a sweep — including concurrent
 * runs on SuiteRunner workers.
 */
RunArtifacts runProgram(std::shared_ptr<const isa::Program> program,
                        const ExperimentConfig &config,
                        const std::string &name = "program");

/** Build the named surrogate and run it. */
RunArtifacts runBenchmark(const std::string &name,
                          const ExperimentConfig &config);

/** Build a surrogate from a profile and run it. */
RunArtifacts runBenchmark(const workloads::BenchmarkProfile &profile,
                          const ExperimentConfig &config);

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_EXPERIMENT_HH
