#include "experiment.hh"

#include <memory>
#include <sstream>

#include "core/pet_buffer.hh"
#include "core/trigger.hh"
#include "cpu/pipeline.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/prof.hh"
#include "sim/trace_event.hh"
#include "workloads/suite.hh"

namespace ser
{
namespace harness
{

RunArtifacts
runProgram(const isa::Program &program,
           const ExperimentConfig &config, const std::string &name)
{
    return runProgram(std::make_shared<const isa::Program>(program),
                      config, name);
}

namespace
{

/**
 * One full pipeline simulation: the miss path of the run cache's sim
 * section, and the direct path when the cache is bypassed. The
 * returned bundle owns the program it ran, so its trace.program
 * pointer stays valid for as long as any cache hit shares it. Each
 * step besides the tick loop (which times itself) has its own scope.
 */
SimProducts
simulate(std::shared_ptr<const isa::Program> program,
         const ExperimentConfig &config,
         const cpu::PipelineParams &params, trace::TraceWriter *tw)
{
    SimProducts products;
    products.program = std::move(program);

    std::unique_ptr<cpu::InOrderPipeline> pipeline;
    std::unique_ptr<core::MissTriggerPolicy> policy;
    std::unique_ptr<cpu::IntervalSampler> sampler;
    {
        SER_PROF_SCOPE("construct");
        pipeline = std::make_unique<cpu::InOrderPipeline>(
            *products.program, params);
        policy = core::makeTriggerPolicy(config.triggerLevel,
                                         config.triggerAction);
        pipeline->setExposurePolicy(policy.get());
        pipeline->setWarmupInsts(config.warmupInsts);
        if (config.intervalCycles) {
            sampler = std::make_unique<cpu::IntervalSampler>(
                config.intervalCycles);
            pipeline->setIntervalSampler(sampler.get());
        }
        if (tw)
            pipeline->setTraceWriter(tw);
    }

    products.trace = pipeline->run();
    products.ipc = products.trace.ipc();
    products.poolHighWater = pipeline->poolHighWater();
    products.cyclesSkipped = pipeline->cyclesSkipped();

    {
        SER_PROF_SCOPE("stats_render");
        if (sampler)
            products.intervals =
                std::vector<cpu::IntervalSample>(sampler->samples());

        std::ostringstream stats;
        pipeline->dumpStats(stats);
        policy->dumpStats(stats);
        products.statsDump = stats.str();

        std::ostringstream stats_json;
        {
            json::JsonWriter jw(stats_json);
            jw.beginObject();
            pipeline->dumpJson(jw);
            policy->dumpJson(jw);
            jw.endObject();
        }
        products.statsJson = stats_json.str();
    }
    {
        SER_PROF_SCOPE("teardown");
        sampler.reset();
        policy.reset();
        pipeline.reset();
    }
    return products;
}

/** The body of runProgram; the public wrapper adds the run-status
 * accounting around it. */
RunArtifacts
runProgramImpl(std::shared_ptr<const isa::Program> program,
               const ExperimentConfig &config,
               const std::string &name)
{
    SER_PROF_SCOPE("run");
    RunArtifacts out;
    out.benchmark = name;
    out.config = config;
    // 'program' stays the submitted one, whose hash simKey memoizes,
    // for the stream-layer keys of the miss paths below; out.program
    // adopts the cached bundle's program.
    out.program = program;

    cpu::PipelineParams params = config.pipeline;
    if (params.maxInsts < config.dynamicTarget * 2)
        params.maxInsts = config.dynamicTarget * 2;

    // Trace-event capture needs a live pipeline (per-run pid, PET
    // replay), so those runs bypass the cache entirely.
    RunCache &cache = RunCache::instance();
    const bool cacheable =
        cache.enabled() && config.traceEventsPid == 0;

    std::unique_ptr<trace::TraceWriter> tw;
    if (config.traceEventsPid) {
        tw = std::make_unique<trace::TraceWriter>(
            config.traceEventsPid);
        tw->processName(name);
    }

    // Each phase scope feeds the manifest's timings_seconds whether
    // or not profiling is on, with or without the cache (a hit is
    // just ~0s), so every run records the same phase keys.
    std::string sim_key;
    std::shared_ptr<const SimProducts> sim;
    {
        SER_PROF_SCOPE("pipeline", &out.timings);
        if (cacheable) {
            {
                SER_PROF_SCOPE("cache_key");
                sim_key = RunCache::simKey(*program, config, params);
            }
            sim = cache.getSim(
                sim_key,
                [&] {
                    SimProducts products =
                        simulate(program, config, params, nullptr);
                    SER_PROF_SCOPE("stream_share");
                    cache.shareCommits(
                        RunCache::streamKey(*program, params.maxInsts),
                        products.trace);
                    return products;
                },
                &out.cacheSim);
        } else {
            sim = std::make_shared<const SimProducts>(
                simulate(program, config, params, tw.get()));
        }
    }
    // Adopt the bundle's (possibly cached, content-identical)
    // program so trace->program stays valid for the artifact's
    // lifetime, and alias the trace to the bundle that owns it.
    out.program = sim->program;
    out.trace = std::shared_ptr<const cpu::SimTrace>(sim,
                                                     &sim->trace);
    out.ipc = sim->ipc;
    out.statsDump = sim->statsDump;
    out.statsJson = sim->statsJson;
    out.intervals = sim->intervals;
    out.poolHighWater = sim->poolHighWater;
    out.cyclesSkipped = sim->cyclesSkipped;

    {
        SER_PROF_SCOPE("deadness", &out.timings);
        if (cacheable)
            out.deadness = cache.getDeadness(
                RunCache::deadnessKey(sim_key),
                [&] {
                    // A copy shares the stream's columns.
                    return *cache.streamDeadness(
                        RunCache::streamKey(*program, params.maxInsts),
                        *out.trace);
                },
                &out.cacheDeadness);
        else
            out.deadness =
                std::make_shared<const avf::DeadnessResult>(
                    avf::analyzeDeadness(*out.trace));
    }
    {
        SER_PROF_SCOPE("avf", &out.timings);
        auto compute = [&] {
            return avf::computeAvf(*out.trace, *out.deadness,
                                   config.intervalCycles);
        };
        if (cacheable)
            out.avf = cache.getAvf(RunCache::avfKey(sim_key),
                                   compute, &out.cacheAvf);
        else
            out.avf = std::make_shared<const avf::AvfResult>(
                compute());
    }
    {
        SER_PROF_SCOPE("false_due", &out.timings);
        out.falseDue =
            core::analyzeFalseDue(*out.avf, config.petSize);
    }
    if (config.attributionTopN) {
        SER_PROF_SCOPE("attribution", &out.timings);
        out.attribution =
            avf::attributeAvf(*out.trace, *out.deadness);
    }
    if (config.campaign.samples) {
        SER_PROF_SCOPE("campaign", &out.timings);
        const faults::CampaignSpec &spec = config.campaign;
        // Without a CI target the cached sample serves every
        // protection, so it carries the re-runs none and parity need
        // even when an ECC request draws it.
        const bool counterfactual =
            spec.protection != faults::Protection::Ecc ||
            (cacheable && spec.ciTarget == 0.0);
        auto sample = [&] {
            faults::CampaignSample result = faults::sampleCampaign(
                *out.program, *out.trace, *out.deadness, *out.avf,
                spec, counterfactual);
            // Work-performed counters live on the miss path so a
            // cache hit (which injects nothing) does not inflate
            // them; hit/miss patterns are scheduling-independent, so
            // the totals stay byte-identical across --jobs.
            static prof::Counter injections(
                "campaign.injections",
                "Fault-injection samples classified by campaign "
                "runs.");
            static prof::Counter reruns(
                "campaign.reruns",
                "Injections that needed a forked counterfactual "
                "re-run.");
            static prof::Counter rerun_steps(
                "campaign.rerun_steps",
                "Dynamic instructions executed by forked re-runs.");
            static prof::Counter golden_steps(
                "campaign.golden_steps",
                "Dynamic length of campaign golden runs (one full "
                "replay equivalent each).");
            static prof::Counter early_stops(
                "campaign.early_stops",
                "Campaigns stopped early by the CI half-width "
                "target.");
            for (const faults::SampledSite &rec : result.sites) {
                reruns.add(rec.verdict.reRan ? 1 : 0);
                rerun_steps.add(rec.verdict.rerunSteps);
            }
            injections.add(result.sites.size());
            golden_steps.add(result.goldenSteps);
            if (!result.sites.empty() &&
                result.sites.size() < spec.samples)
                ++early_stops;
            return result;
        };
        std::shared_ptr<const faults::CampaignSample> sampled;
        if (cacheable)
            sampled = cache.getCampaign(
                RunCache::campaignKey(sim_key, spec), sample,
                &out.cacheCampaign);
        else
            sampled =
                std::make_shared<const faults::CampaignSample>(sample());
        out.campaign = std::make_shared<const faults::CampaignOutcome>(
            faults::labelCampaign(*sampled, spec));
    }
    if (tw) {
        SER_PROF_SCOPE("trace_export");
        // Post-run PET-buffer replay (tracing only): drive the
        // operational buffer with the committed stream, pi set on
        // first-level-dead register defs — the population the PET
        // mechanism exists to deallocate. This puts pi_set and
        // pet_evict instants on the PET track without touching the
        // timing model.
        core::PetBuffer pet(config.petSize);
        pet.setTraceWriter(tw.get());
        for (std::size_t i = 0; i < out.trace->commits.size(); ++i) {
            const cpu::CommitRecord &cr = out.trace->commits[i];
            core::PetEntry entry;
            entry.seq = i;
            entry.inst = out.program->inst(cr.staticIdx);
            entry.qpTrue = cr.qpTrue != 0;
            entry.memAddr = cr.memAddr;
            entry.pi = i < out.deadness->kind.size() &&
                       out.deadness->kind[i] ==
                           avf::DeadKind::FddReg;
            pet.retire(entry);
        }
        pet.drain();

        if (!tw->balanced())
            SER_PANIC("trace: run '{}' left unbalanced duration "
                      "slices", name);
        static prof::Counter trace_events(
            "trace.events",
            "Chrome trace events emitted by instruction-lifetime "
            "capture runs.");
        trace_events.add(tw->eventCount());
        out.traceEvents = tw->str();
    }
    return out;
}

} // namespace

RunArtifacts
runProgram(std::shared_ptr<const isa::Program> program,
           const ExperimentConfig &config, const std::string &name)
{
    static prof::Counter ok("runs.ok",
                            "Experiment runs that completed.");
    static prof::Counter failed(
        "runs.failed", "Experiment runs that ended in an exception.");
    RunArtifacts out;
    try {
        out = runProgramImpl(std::move(program), config, name);
    } catch (...) {
        ++failed;
        throw;
    }
    ++ok;
    return out;
}

RunArtifacts
runBenchmark(const workloads::BenchmarkProfile &profile,
             const ExperimentConfig &config)
{
    auto program = [&] {
        SER_PROF_SCOPE("build");
        return std::make_shared<const isa::Program>(
            workloads::buildBenchmark(profile,
                                      config.dynamicTarget));
    }();
    RunArtifacts out =
        runProgram(std::move(program), config, profile.name);
    out.seed = profile.seed;
    return out;
}

RunArtifacts
runBenchmark(const std::string &name, const ExperimentConfig &config)
{
    return runBenchmark(workloads::findProfile(name), config);
}

} // namespace harness
} // namespace ser
