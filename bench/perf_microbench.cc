/**
 * @file
 * Simulator performance microbenchmarks (google-benchmark): how fast
 * the substrates themselves run — cache lookups, predictor lookups,
 * the assembler, the functional executor, the timing pipeline, and
 * the post-run analyses. Useful for keeping the simulator fast
 * enough for full-suite sweeps.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "branch/predictor.hh"
#include "cpu/pipeline.hh"
#include "cpu/sampler.hh"
#include "harness/cache_codec.hh"
#include "harness/disk_cache.hh"
#include "harness/experiment.hh"
#include "harness/suite_runner.hh"
#include "isa/assembler.hh"
#include "isa/executor.hh"
#include "avf/attribution.hh"
#include "memory/hierarchy.hh"
#include "sim/prof.hh"
#include "sim/rng.hh"
#include "sim/trace_event.hh"
#include "workloads/suite.hh"

using namespace ser;

namespace
{

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    memory::CacheHierarchy h;
    Rng rng(1);
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        std::uint64_t addr = rng.range(1 << 22) & ~7ULL;
        benchmark::DoNotOptimize(h.access(addr, cycle));
        cycle += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyAccess);

void
BM_GsharePredict(benchmark::State &state)
{
    branch::GsharePredictor pred(16384, 12);
    Rng rng(2);
    for (auto _ : state) {
        std::uint64_t pc = rng.range(4096);
        auto l = pred.predict(pc);
        pred.update(pc, l.taken, l);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GsharePredict);

void
BM_Assembler(benchmark::State &state)
{
    std::string src = workloads::benchmarkSource(
        workloads::findProfile("gzip"), 100000);
    for (auto _ : state) {
        auto result = isa::assemble(src);
        benchmark::DoNotOptimize(result.ok());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * src.size()));
}
BENCHMARK(BM_Assembler);

void
BM_FunctionalExecutor(benchmark::State &state)
{
    isa::Program program =
        workloads::buildBenchmark("gzip", 1000000);
    for (auto _ : state) {
        isa::Executor ex(program);
        ex.run(50000);
        benchmark::DoNotOptimize(ex.steps());
    }
    state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_FunctionalExecutor);

void
BM_TimingPipeline(benchmark::State &state)
{
    isa::Program program =
        workloads::buildBenchmark("gzip", 1000000);
    for (auto _ : state) {
        cpu::PipelineParams params;
        params.maxInsts = 20000;
        cpu::InOrderPipeline pipe(program, params);
        auto trace = pipe.run();
        benchmark::DoNotOptimize(trace.commits.size());
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TimingPipeline);

void
BM_TimingPipelineProfiled(benchmark::State &state)
{
    // The same run as BM_TimingPipeline but with sim::prof enabled
    // (as --metrics-out arms it): the gap between the two is the
    // live telemetry cost. BM_TimingPipeline itself (telemetry
    // compiled in, disabled) is what perf_regression_gate holds
    // within 10% of BENCH_PR9.json.
    isa::Program program =
        workloads::buildBenchmark("gzip", 1000000);
    prof::setEnabled(true);
    for (auto _ : state) {
        cpu::PipelineParams params;
        params.maxInsts = 20000;
        cpu::InOrderPipeline pipe(program, params);
        auto trace = pipe.run();
        benchmark::DoNotOptimize(trace.commits.size());
    }
    prof::setEnabled(false);
    prof::reset();
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TimingPipelineProfiled);

void
BM_TimingPipelineTraced(benchmark::State &state)
{
    // The same run as BM_TimingPipeline but with the lifetime trace
    // writer attached: the gap between the two is the cost of
    // --trace-events, and BM_TimingPipeline itself (tracing compiled
    // in, disabled) must not regress against pre-tracing baselines.
    isa::Program program =
        workloads::buildBenchmark("gzip", 1000000);
    for (auto _ : state) {
        cpu::PipelineParams params;
        params.maxInsts = 20000;
        cpu::InOrderPipeline pipe(program, params);
        trace::TraceWriter tw;
        pipe.setTraceWriter(&tw);
        auto trace = pipe.run();
        benchmark::DoNotOptimize(tw.eventCount());
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TimingPipelineTraced);

cpu::PipelineParams
longLatencyParams(bool cycle_skip)
{
    // The cycle-skipping showcase: a hierarchy slow enough that the
    // pipeline spends most simulated cycles waiting on misses. With
    // skipping the scheduler jumps those spans; without it every one
    // is ticked. The gap between the two benchmarks below is the
    // event-driven speedup (small on the default low-latency config,
    // which rarely goes idle for long; growing with miss latency as
    // idle spans come to dominate the cycle count).
    cpu::PipelineParams params;
    params.maxInsts = 20000;
    params.cycleSkip = cycle_skip;
    params.hierarchy.l1.hitLatency = 60;
    params.hierarchy.l2.hitLatency = 300;
    params.hierarchy.memLatency = 2500;
    return params;
}

void
BM_TimingPipelineLongLat(benchmark::State &state)
{
    isa::Program program =
        workloads::buildBenchmark("gzip", 1000000);
    for (auto _ : state) {
        cpu::InOrderPipeline pipe(program, longLatencyParams(true));
        auto trace = pipe.run();
        benchmark::DoNotOptimize(trace.commits.size());
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TimingPipelineLongLat);

void
BM_TimingPipelineLongLatNoSkip(benchmark::State &state)
{
    isa::Program program =
        workloads::buildBenchmark("gzip", 1000000);
    for (auto _ : state) {
        cpu::InOrderPipeline pipe(program, longLatencyParams(false));
        auto trace = pipe.run();
        benchmark::DoNotOptimize(trace.commits.size());
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TimingPipelineLongLatNoSkip);

void
BM_TraceWriterThroughput(benchmark::State &state)
{
    // Raw writer throughput: one B/E residency pair per item.
    for (auto _ : state) {
        trace::TraceWriter tw;
        std::uint64_t ts = 0;
        for (std::uint64_t i = 0; i < 1000; ++i) {
            tw.begin(trace::tracks::iqBase, "add r1 = r2, r3", ts,
                     {{"seq", i}, {"outcome", "commit"}});
            tw.end(trace::tracks::iqBase, ts + 10);
            ts += 10;
        }
        benchmark::DoNotOptimize(tw.str().size());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TraceWriterThroughput);

void
BM_IntervalSamplerAdvance(benchmark::State &state)
{
    // Sampler batch advances as the cycle-skipping pipeline issues
    // them: a deterministic mix of short mid-epoch spans (the
    // counter-free fast path) and spans that cross an epoch close.
    constexpr std::uint64_t epoch = 1000;
    constexpr std::uint64_t advances = 100000;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        cpu::IntervalSampler sampler(epoch);
        sampler.windowOpen(0);
        cpu::IntervalCounters ctr;
        std::uint64_t cycle = 0;
        std::uint64_t lcg = 12345;
        for (std::uint64_t i = 0; i < advances; ++i) {
            lcg = lcg * 6364136223846793005ull +
                  1442695040888963407ull;
            const std::uint64_t span = 1 + ((lcg >> 33) % 37);
            ctr.committed += 3;
            ctr.fetched += 4;
            ctr.iqOccupancy = (lcg >> 20) & 63;
            ctr.iqWaiting = ctr.iqOccupancy / 2;
            if (sampler.needsCounters(span))
                sampler.advance(cycle, span, ctr);
            else
                sampler.advanceMidEpoch(span, ctr.iqOccupancy,
                                        ctr.iqWaiting);
            cycle += span;
        }
        sampler.finish(cycle, ctr);
        sink += sampler.samples().size();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * advances);
}
BENCHMARK(BM_IntervalSamplerAdvance);

/**
 * One vortex/200k simulation shared by every analysis benchmark
 * (each used to run its own copy: three simulations, three programs
 * held for the process lifetime). Heap-allocated and leaked so
 * trace.program stays valid with a stable address.
 */
struct AnalysisFixture
{
    isa::Program program;
    cpu::SimTrace trace;
    avf::DeadnessResult dead;
};

const AnalysisFixture &
analysisFixture()
{
    static const AnalysisFixture *fixture = [] {
        auto *f = new AnalysisFixture;
        f->program = workloads::buildBenchmark("vortex", 200000);
        cpu::PipelineParams params;
        params.maxInsts = 400000;
        cpu::InOrderPipeline pipe(f->program, params);
        f->trace = pipe.run();
        f->trace.program = &f->program;
        f->dead = avf::analyzeDeadness(f->trace);
        return f;
    }();
    return *fixture;
}

void
BM_DeadnessAnalysis(benchmark::State &state)
{
    const AnalysisFixture &f = analysisFixture();
    for (auto _ : state) {
        auto dead = avf::analyzeDeadness(f.trace);
        benchmark::DoNotOptimize(dead.numDead());
    }
    state.SetItemsProcessed(state.iterations() *
                            f.trace.commits.size());
}
BENCHMARK(BM_DeadnessAnalysis);

void
BM_AvfFold(benchmark::State &state)
{
    const AnalysisFixture &f = analysisFixture();
    for (auto _ : state) {
        auto avf = avf::computeAvf(f.trace, f.dead);
        benchmark::DoNotOptimize(avf.sdcAvf());
    }
    state.SetItemsProcessed(state.iterations() *
                            f.trace.incarnations.size());
}
BENCHMARK(BM_AvfFold);

void
BM_AvfAttribution(benchmark::State &state)
{
    const AnalysisFixture &f = analysisFixture();
    for (auto _ : state) {
        auto attr = avf::attributeAvf(f.trace, f.dead);
        benchmark::DoNotOptimize(attr.totalAce);
    }
    state.SetItemsProcessed(state.iterations() *
                            f.trace.incarnations.size());
}
BENCHMARK(BM_AvfAttribution);

void
BM_CampaignThroughput(benchmark::State &state)
{
    // Injections/second through the full campaign engine (keyed
    // sampling, checkpoint/fork re-runs, Wilson fold) on the shared
    // vortex trace. Guards the checkpoint/fork economics: if forking
    // regresses toward full replays, this rate collapses.
    const AnalysisFixture &f = analysisFixture();
    static const avf::AvfResult *avf = [] {
        return new avf::AvfResult(avf::computeAvf(
            analysisFixture().trace, analysisFixture().dead));
    }();
    faults::CampaignSpec spec;
    spec.samples = 2000;
    spec.structures = faults::structIq;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        spec.seed = seed++;  // defeat any memoization, vary sites
        auto out = faults::runCampaignEngine(f.program, f.trace,
                                             f.dead, *avf, spec);
        benchmark::DoNotOptimize(out.samplesRun);
    }
    state.SetItemsProcessed(state.iterations() * spec.samples);
}
BENCHMARK(BM_CampaignThroughput);

void
BM_SuiteRunnerSweep(benchmark::State &state)
{
    // A small design-point sweep (one shared program, four IQ
    // sizes) end to end, at jobs = state.range(0). On a multi-core
    // host the jobs=4 variant shows the worker-pool speedup; the
    // result vector is submission-ordered either way.
    const std::uint64_t insts = 20000;
    auto jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        // Each design point has a distinct sim key, but iterations
        // repeat them: drop the run cache so every iteration
        // measures real simulation work.
        harness::RunCache::instance().clear();
        harness::SuiteRunner runner(jobs);
        std::size_t prog = runner.addProgram("gzip", insts);
        for (unsigned entries : {16u, 32u, 64u, 128u}) {
            harness::ExperimentConfig cfg;
            cfg.dynamicTarget = insts;
            cfg.warmupInsts = insts / 10;
            cfg.pipeline.iqEntries = entries;
            runner.submit(prog, cfg);
        }
        auto runs = runner.run();
        benchmark::DoNotOptimize(runs.front().ipc);
    }
    state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_SuiteRunnerSweep)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_RunProgramCacheHit(benchmark::State &state)
{
    // End-to-end harness::runProgram when every run-cache section
    // hits: what each additional sweep point costs once the first
    // point has paid for simulation and analysis (the remaining
    // work is the false-DUE fold plus artifact plumbing).
    static auto program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", 20000));
    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = 20000;
    cfg.warmupInsts = 0;
    harness::RunCache &cache = harness::RunCache::instance();
    cache.clear();
    auto warm = harness::runProgram(program, cfg, "gzip");
    benchmark::DoNotOptimize(warm.ipc);
    for (auto _ : state) {
        auto r = harness::runProgram(program, cfg, "gzip");
        benchmark::DoNotOptimize(r.avf->sdcAvf());
    }
    cache.clear();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunProgramCacheHit);

void
BM_RunCacheDiskHit(benchmark::State &state)
{
    // End-to-end harness::runProgram when the in-process map is
    // empty but every section is on disk: mmap + CRC-64 verify +
    // codec decode for all four sections, per iteration (the warm
    // path a second sweep process takes). The
    // gap to BM_RunProgramCacheHit is the disk tier's decode cost;
    // the gap to a cold run is what the blob store saves.
    char dirTemplate[] = "/tmp/ser_bench_disk_XXXXXX";
    if (!::mkdtemp(dirTemplate)) {
        state.SkipWithError("mkdtemp failed");
        return;
    }
    harness::DiskCache::instance().setDirectory(
        dirTemplate, harness::codec::kSchemaVersion);
    static auto program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", 20000));
    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = 20000;
    cfg.warmupInsts = 0;
    harness::RunCache &cache = harness::RunCache::instance();
    cache.clear();
    auto publish = harness::runProgram(program, cfg, "gzip");
    benchmark::DoNotOptimize(publish.ipc);
    for (auto _ : state) {
        cache.clear();  // drop the memory tier, keep the blobs
        auto r = harness::runProgram(program, cfg, "gzip");
        benchmark::DoNotOptimize(r.avf->sdcAvf());
    }
    cache.clear();
    harness::DiskCache::instance().setDirectory(
        "", harness::codec::kSchemaVersion);
    int rc = std::system(
        (std::string("rm -rf '") + dirTemplate + "'").c_str());
    (void)rc;
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunCacheDiskHit);

} // namespace

BENCHMARK_MAIN();
