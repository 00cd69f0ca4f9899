/**
 * @file
 * The allocation-path layers, tested together: the SoA instruction
 * arena (cpu/inst_arena.hh) and the memoized run cache
 * (harness/run_cache.hh).
 *
 * Arena: LIFO id recycling, the high-water mark, and — through a
 * real squash-heavy pipeline run — that the in-flight population
 * never outgrows the architecturally reserved bound, so steady state
 * allocates nothing.
 *
 * Cache: content-addressed keys (equal-content programs share, any
 * timing-relevant knob separates), pointer-identical artifacts on a
 * hit, miss/hit/off outcome reporting, the per-section bytes
 * gauge, and equality of results between cache-enabled and disabled
 * runs.
 *
 * Stream layer: the squash-trigger points of one program share one
 * commit column and one deadness analysis, serially, racing on a
 * worker pool and behind a disk tier; a trace that contradicts its
 * stored stream panics; a disabled cache shares nothing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/trigger.hh"
#include "cpu/inst_arena.hh"
#include "cpu/pipeline.hh"
#include "harness/cache_codec.hh"
#include "harness/disk_cache.hh"
#include "harness/experiment.hh"
#include "harness/run_cache.hh"
#include "harness/suite_runner.hh"
#include "isa/assembler.hh"
#include "sim/prof.hh"
#include "workloads/suite.hh"

using namespace ser;

// ---------------------------------------------------------------
// InstArena

TEST(InstArena, LifoRecyclingAndHighWater)
{
    cpu::InstArena arena(4);
    EXPECT_EQ(arena.capacity(), 0u);

    cpu::InstId a = arena.allocate();
    cpu::InstId b = arena.allocate();
    EXPECT_NE(a, b);
    EXPECT_EQ(arena.live(), 2u);
    EXPECT_EQ(arena.highWater(), 2u);
    EXPECT_EQ(arena.capacity(), 4u);  // one slab

    // LIFO: the next allocation reuses the most recent release.
    arena.release(b);
    EXPECT_EQ(arena.live(), 1u);
    cpu::InstId c = arena.allocate();
    EXPECT_EQ(c, b);

    // The id comes back with only the liveness column (issueCycle)
    // reset; every other column is deliberately left stale — the
    // fetch path overwrites them before any stage reads them (see
    // allocate()'s contract), so the arena does not pay to clear
    // them on every recycle.
    arena.seq[c] = 1234;
    arena.issueCycle[c] = 77;
    arena.flags[c] = cpu::diWrongPath;
    arena.release(c);
    cpu::InstId d = arena.allocate();
    ASSERT_EQ(d, c);
    EXPECT_EQ(arena.issueCycle[d], cpu::invalidCycle);
    EXPECT_EQ(arena.seq[d], 1234u);  // stale by contract

    arena.release(a);
    arena.release(d);
    EXPECT_EQ(arena.live(), 0u);
    EXPECT_EQ(arena.highWater(), 2u);  // the mark survives releases
}

TEST(InstArena, ReserveCoversAllocationsWithoutGrowth)
{
    cpu::InstArena arena(4);
    arena.reserve(100);
    EXPECT_EQ(arena.capacity(), 100u);
    arena.reserve(50);  // already covered: no-op
    EXPECT_EQ(arena.capacity(), 100u);

    std::vector<cpu::InstId> taken;
    for (int i = 0; i < 100; ++i)
        taken.push_back(arena.allocate());
    EXPECT_EQ(arena.capacity(), 100u);  // no slab was added
    EXPECT_EQ(arena.highWater(), 100u);
    cpu::InstId extra = arena.allocate();  // 101st grows by a slab
    EXPECT_GT(arena.capacity(), 100u);
    arena.release(extra);
    for (cpu::InstId id : taken)
        arena.release(id);
}

TEST(InstArena, PipelineRecyclesAcrossSquashes)
{
    // A squash-heavy run (loads wander a large array, L0-miss
    // trigger) fetches the same in-flight window over and over —
    // including wrong-path and replayed incarnations. The pool must
    // recycle through all of it: the capacity reserved up front
    // (front-end pipe + IQ) never grows, which also proves no slot
    // leaks on any squash path (a leak would strand slots and force
    // slab growth).
    std::string src = R"(
        movi r2 = 12345
        movi r3 = 1103515245
        movi r8 = 0x100000
        movi r4 = 800
        loop:
        mul r2 = r2, r3
        addi r2 = r2, 12345
        shri r5 = r2, 13
        andi r5 = r5, 0x7ffff8
        add r6 = r8, r5
        ld8 r7 = [r6, 0]
        xor r9 = r9, r7
        addi r4 = r4, -1
        cmplt p3 = r0, r4
        (p3) br loop
        out r9
        halt
    )";
    isa::Program program = isa::assembleOrDie(src);
    cpu::PipelineParams params;
    core::MissTriggerPolicy policy(core::TriggerLevel::L0Miss,
                                   core::TriggerAction::Squash);
    cpu::InOrderPipeline pipe(program, params);
    pipe.setExposurePolicy(&policy);
    cpu::SimTrace t = pipe.run();

    const std::size_t bound =
        std::size_t(params.frontEndDepth) * params.enqueueWidth +
        params.iqEntries;
    EXPECT_GT(t.incarnations.size(), bound * 10);
    EXPECT_LE(pipe.poolHighWater(), bound);
    EXPECT_EQ(pipe.poolCapacity(), bound);
    EXPECT_GT(pipe.poolHighWater(), 0u);
}

// ---------------------------------------------------------------
// RunCache

namespace
{

class RunCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { reset(); }
    void TearDown() override { reset(); }

    static harness::RunCache &cache()
    {
        return harness::RunCache::instance();
    }

    static void reset()
    {
        cache().setEnabled(true);
        cache().clear();
    }

    static std::shared_ptr<const isa::Program>
    buildShared(const char *name, std::uint64_t insts)
    {
        return std::make_shared<const isa::Program>(
            workloads::buildBenchmark(name, insts));
    }

    static harness::ExperimentConfig smallConfig()
    {
        harness::ExperimentConfig cfg;
        cfg.dynamicTarget = 5000;
        cfg.warmupInsts = 500;
        return cfg;
    }

    /** Table 1's three points: one committed stream each. */
    static std::vector<harness::ExperimentConfig> triggerPoints()
    {
        std::vector<harness::ExperimentConfig> points;
        for (const char *level : {"none", "l1", "l0"}) {
            harness::ExperimentConfig cfg = smallConfig();
            cfg.triggerLevel = level;
            points.push_back(cfg);
        }
        return points;
    }

    static std::uint64_t commitsScanned()
    {
        for (const prof::CounterSample &c : prof::snapshot().counters)
            if (c.name == "deadness.commits_scanned")
                return c.value;
        return 0;
    }

    /** Every run's commits and deadness columns are the first
     * run's, and the analysis scanned one stream's commits. */
    static void
    expectOneStream(const std::vector<harness::RunArtifacts> &runs,
                    std::uint64_t scanned)
    {
        ASSERT_FALSE(runs.empty());
        const harness::RunArtifacts &first = runs.front();
        ASSERT_FALSE(first.trace->commits.empty());
        for (const harness::RunArtifacts &r : runs) {
            EXPECT_EQ(r.trace->commits.data(),
                      first.trace->commits.data());
            EXPECT_EQ(r.deadness->kind.data(),
                      first.deadness->kind.data());
            EXPECT_EQ(r.deadness->overwriteDist.data(),
                      first.deadness->overwriteDist.data());
        }
        EXPECT_EQ(scanned, first.trace->commits.size());
    }

    template <typename T>
    static bool sameBytes(const sim::Column<T> &a,
                          const sim::Column<T> &b)
    {
        return a.size() == b.size() &&
               (a.empty() ||
                std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                    0);
    }
};

/** Profiling armed and zeroed for one test. */
class ProfArmed
{
  public:
    ProfArmed()
    {
        prof::reset();
        prof::setEnabled(true);
    }
    ~ProfArmed()
    {
        prof::setEnabled(false);
        prof::reset();
    }
};

} // namespace

TEST_F(RunCacheTest, HitSharesPointerIdenticalArtifacts)
{
    auto program = buildShared("gzip", 5000);
    harness::ExperimentConfig cfg = smallConfig();

    auto r1 = harness::runProgram(program, cfg, "gzip");
    EXPECT_EQ(r1.cacheSim, harness::CacheOutcome::Miss);
    EXPECT_EQ(r1.cacheDeadness, harness::CacheOutcome::Miss);
    EXPECT_EQ(r1.cacheAvf, harness::CacheOutcome::Miss);

    auto r2 = harness::runProgram(program, cfg, "gzip");
    EXPECT_EQ(r2.cacheSim, harness::CacheOutcome::Hit);
    EXPECT_EQ(r2.cacheDeadness, harness::CacheOutcome::Hit);
    EXPECT_EQ(r2.cacheAvf, harness::CacheOutcome::Hit);

    // Not just equal: the same objects.
    EXPECT_EQ(r1.trace.get(), r2.trace.get());
    EXPECT_EQ(r1.deadness.get(), r2.deadness.get());
    EXPECT_EQ(r1.avf.get(), r2.avf.get());
    EXPECT_EQ(r1.program.get(), r2.program.get());

    auto sim = cache().simCounters();
    EXPECT_EQ(sim.misses, 1u);
    EXPECT_EQ(sim.hits, 1u);
}

TEST_F(RunCacheTest, ContentEqualProgramsShareOneSimulation)
{
    // Two distinct builds of the same benchmark have equal content,
    // so they hash to the same key and share the first simulation.
    auto p1 = buildShared("mcf", 5000);
    auto p2 = buildShared("mcf", 5000);
    ASSERT_NE(p1.get(), p2.get());
    EXPECT_EQ(p1->contentHash(), p2->contentHash());

    harness::ExperimentConfig cfg = smallConfig();
    auto r1 = harness::runProgram(p1, cfg, "mcf");
    auto r2 = harness::runProgram(p2, cfg, "mcf");
    EXPECT_EQ(r2.cacheSim, harness::CacheOutcome::Hit);
    EXPECT_EQ(r1.trace.get(), r2.trace.get());
    // The hit adopted the cache's canonical program, keeping
    // trace->program valid.
    EXPECT_EQ(r2.program.get(), r1.program.get());
}

TEST_F(RunCacheTest, TimingKnobsSeparateKeysPostCommitKnobsShare)
{
    auto program = buildShared("gzip", 5000);
    harness::ExperimentConfig cfg = smallConfig();
    auto base = harness::runProgram(program, cfg, "gzip");

    // A timing-relevant knob must miss and resimulate...
    harness::ExperimentConfig smaller_iq = cfg;
    smaller_iq.pipeline.iqEntries = 16;
    auto iq = harness::runProgram(program, smaller_iq, "gzip");
    EXPECT_EQ(iq.cacheSim, harness::CacheOutcome::Miss);
    EXPECT_NE(iq.trace.get(), base.trace.get());

    // ...while a post-commit knob shares the simulation and its
    // analyses; only the falseDue fold differs.
    harness::ExperimentConfig big_pet = cfg;
    big_pet.petSize = 16384;
    auto pet = harness::runProgram(program, big_pet, "gzip");
    EXPECT_EQ(pet.cacheSim, harness::CacheOutcome::Hit);
    EXPECT_EQ(pet.trace.get(), base.trace.get());
    EXPECT_EQ(pet.deadness.get(), base.deadness.get());
    EXPECT_EQ(pet.avf.get(), base.avf.get());

    EXPECT_NE(harness::RunCache::simKey(*program, cfg, cfg.pipeline),
              harness::RunCache::simKey(*program, smaller_iq,
                                        smaller_iq.pipeline));
}

TEST_F(RunCacheTest, CountersTrackBytes)
{
    auto program = buildShared("gzip", 5000);
    harness::ExperimentConfig a = smallConfig();
    harness::ExperimentConfig b = smallConfig();
    b.pipeline.iqEntries = 16;

    auto r1 = harness::runProgram(program, a, "gzip");
    auto sim = cache().simCounters();
    EXPECT_GT(sim.bytes, sizeof(harness::SimProducts));
    // One entry per section, so the bytes gauge is exactly that
    // entry's approxBytes.
    EXPECT_EQ(cache().deadnessCounters().bytes,
              harness::approxBytes(*r1.deadness));
    EXPECT_EQ(cache().avfCounters().bytes,
              harness::approxBytes(*r1.avf));

    // A different timing key adds one entry to every section; the
    // bytes gauges sum both entries.
    auto r2 = harness::runProgram(program, b, "gzip");
    sim = cache().simCounters();
    EXPECT_EQ(sim.misses, 2u);
    EXPECT_EQ(cache().deadnessCounters().bytes,
              harness::approxBytes(*r1.deadness) +
                  harness::approxBytes(*r2.deadness));

    cache().clear();
    sim = cache().simCounters();
    EXPECT_EQ(sim.bytes, 0u);
}

TEST_F(RunCacheTest, BytesAreAFunctionOfContent)
{
    // The footprint estimate must be deterministic: two passes over
    // the same work report identical bytes (the metrics determinism
    // fixture byte-compares these across --jobs counts).
    auto program = buildShared("mcf", 5000);
    harness::ExperimentConfig cfg = smallConfig();

    (void)harness::runProgram(program, cfg, "mcf");
    auto first = cache().simCounters();
    reset();
    (void)harness::runProgram(program, cfg, "mcf");
    auto second = cache().simCounters();
    EXPECT_GT(first.bytes, 0u);
    EXPECT_EQ(first.bytes, second.bytes);
}

TEST_F(RunCacheTest, DisabledCacheComputesDirectly)
{
    cache().setEnabled(false);
    auto program = buildShared("gzip", 5000);
    harness::ExperimentConfig cfg = smallConfig();

    auto r1 = harness::runProgram(program, cfg, "gzip");
    auto r2 = harness::runProgram(program, cfg, "gzip");
    EXPECT_EQ(r1.cacheSim, harness::CacheOutcome::Off);
    EXPECT_EQ(r2.cacheSim, harness::CacheOutcome::Off);
    EXPECT_NE(r1.trace.get(), r2.trace.get());

    auto sim = cache().simCounters();
    EXPECT_EQ(sim.hits, 0u);
    EXPECT_EQ(sim.misses, 0u);
}

TEST_F(RunCacheTest, CachedAndUncachedResultsAgree)
{
    auto program = buildShared("vortex", 5000);
    harness::ExperimentConfig cfg = smallConfig();
    cfg.triggerLevel = "l1";

    auto cached_miss = harness::runProgram(program, cfg, "vortex");
    auto cached_hit = harness::runProgram(program, cfg, "vortex");
    cache().setEnabled(false);
    auto direct = harness::runProgram(program, cfg, "vortex");

    EXPECT_EQ(cached_hit.cacheSim, harness::CacheOutcome::Hit);
    EXPECT_EQ(direct.cacheSim, harness::CacheOutcome::Off);
    for (const auto *r : {&cached_miss, &cached_hit}) {
        EXPECT_DOUBLE_EQ(r->ipc, direct.ipc);
        EXPECT_EQ(r->trace->commits.size(),
                  direct.trace->commits.size());
        EXPECT_DOUBLE_EQ(r->avf->sdcAvf(), direct.avf->sdcAvf());
        EXPECT_DOUBLE_EQ(r->avf->falseDueAvf(),
                         direct.avf->falseDueAvf());
        EXPECT_EQ(r->statsJson, direct.statsJson);
        EXPECT_EQ(r->poolHighWater, direct.poolHighWater);
    }
}

TEST_F(RunCacheTest, TriggerPointsShareOneCommitStream)
{
    // The squash trigger changes when instructions commit, never
    // which: the three points are three simulations of one stream.
    auto program = buildShared("mcf", 5000);
    ProfArmed armed;
    std::vector<harness::RunArtifacts> runs;
    for (const harness::ExperimentConfig &cfg : triggerPoints())
        runs.push_back(harness::runProgram(program, cfg, "mcf"));

    EXPECT_EQ(cache().simCounters().misses, 3u);
    EXPECT_EQ(cache().deadnessCounters().misses, 3u);
    EXPECT_NE(runs[0].trace.get(), runs[1].trace.get());
    EXPECT_NE(runs[1].trace.get(), runs[2].trace.get());
    EXPECT_NE(runs[0].deadness.get(), runs[2].deadness.get());
    expectOneStream(runs, commitsScanned());
}

TEST_F(RunCacheTest, RacingTriggerPointsShareOneCommitStream)
{
    // Each point twice, on four workers: the points race on one
    // stream and the duplicates on their own sim entries.
    ProfArmed armed;
    std::vector<harness::RunArtifacts> runs;
    {
        harness::SuiteRunner runner(4);
        std::size_t mcf = runner.addProgram("mcf", 5000);
        for (int copy = 0; copy < 2; ++copy)
            for (const harness::ExperimentConfig &cfg : triggerPoints())
                runner.submit(mcf, cfg);
        runs = runner.run();
    }
    EXPECT_EQ(cache().simCounters().misses, 3u);
    expectOneStream(runs, commitsScanned());
}

TEST_F(RunCacheTest, DisabledCacheSharesNoStream)
{
    auto program = buildShared("mcf", 5000);
    std::vector<harness::RunArtifacts> shared;
    for (const harness::ExperimentConfig &cfg : triggerPoints())
        shared.push_back(harness::runProgram(program, cfg, "mcf"));

    cache().setEnabled(false);
    std::vector<harness::RunArtifacts> direct;
    for (const harness::ExperimentConfig &cfg : triggerPoints())
        direct.push_back(harness::runProgram(program, cfg, "mcf"));

    const harness::RunArtifacts &ref = shared.front();
    for (std::size_t i = 0; i < direct.size(); ++i) {
        const harness::RunArtifacts &d = direct[i];
        for (std::size_t j = 0; j < i; ++j) {
            EXPECT_NE(d.trace->commits.data(),
                      direct[j].trace->commits.data());
            EXPECT_NE(d.deadness->kind.data(),
                      direct[j].deadness->kind.data());
        }
        EXPECT_NE(d.trace->commits.data(), ref.trace->commits.data());
        EXPECT_TRUE(sameBytes(d.trace->commits, ref.trace->commits));
        EXPECT_EQ(d.trace->programHalted, ref.trace->programHalted);
        EXPECT_TRUE(sameBytes(d.deadness->kind, ref.deadness->kind));
        EXPECT_TRUE(sameBytes(d.deadness->overwriteDist,
                              ref.deadness->overwriteDist));
        EXPECT_EQ(d.deadness->returnFdd, ref.deadness->returnFdd);
        EXPECT_EQ(d.deadness->numDead(), ref.deadness->numDead());
        EXPECT_DOUBLE_EQ(d.avf->sdcAvf(), shared[i].avf->sdcAvf());
    }
}

using RunCacheDeathTest = RunCacheTest;

TEST_F(RunCacheDeathTest, SharedStreamMustMatchByteForByte)
{
    const isa::Program program =
        isa::assembleOrDie("movi r4 = 1\nout r4\nhalt\n");
    const std::string key = harness::RunCache::streamKey(program, 10);
    auto trace = [&program] {
        cpu::SimTrace t;
        t.program = &program;
        t.commits = std::vector<cpu::CommitRecord>{
            {0, 1, 0}, {1, 1, 0}, {2, 1, 0}};
        t.programHalted = true;
        return t;
    };
    cpu::SimTrace stored = trace();
    cache().shareCommits(key, stored);

    // An equal trace adopts the stored column; another bound is
    // another stream.
    cpu::SimTrace equal = trace();
    cache().shareCommits(key, equal);
    EXPECT_EQ(equal.commits.data(), stored.commits.data());
    cpu::SimTrace longer = trace();
    cache().shareCommits(harness::RunCache::streamKey(program, 11),
                         longer);
    EXPECT_NE(longer.commits.data(), stored.commits.data());

    // One byte, the length, or the halted flag differs.
    cpu::SimTrace byte = trace();
    byte.commits = std::vector<cpu::CommitRecord>{
        {0, 1, 0}, {1, 0, 0}, {2, 1, 0}};
    cpu::SimTrace shorter = trace();
    shorter.commits =
        std::vector<cpu::CommitRecord>{{0, 1, 0}, {1, 1, 0}};
    cpu::SimTrace running = trace();
    running.programHalted = false;
    for (cpu::SimTrace *t : {&byte, &shorter, &running})
        EXPECT_DEATH(cache().shareCommits(key, *t),
                     "commits differ from the stream stored under '" +
                         key + "'");
}

TEST_F(RunCacheTest, DiskHitSimsWithoutDeadnessBlobsAnalyseOnce)
{
    char tmpl[] = "/tmp/ser_stream_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    harness::DiskCache &disk = harness::DiskCache::instance();
    disk.setDirectory(dir, harness::codec::kSchemaVersion);

    auto program = buildShared("mcf", 5000);
    for (const harness::ExperimentConfig &cfg : triggerPoints())
        (void)harness::runProgram(program, cfg, "mcf");  // fills
    const std::string rm_deadness = "rm -rf '" + dir + "/deadness'";
    EXPECT_EQ(std::system(rm_deadness.c_str()), 0);
    cache().clear();

    std::vector<harness::RunArtifacts> runs;
    {
        ProfArmed armed;
        for (const harness::ExperimentConfig &cfg : triggerPoints())
            runs.push_back(harness::runProgram(program, cfg, "mcf"));
        for (const harness::RunArtifacts &r : runs) {
            EXPECT_EQ(r.cacheSim, harness::CacheOutcome::DiskHit);
            EXPECT_EQ(r.cacheDeadness, harness::CacheOutcome::Miss);
        }
        // Each disk hit views its own blob, so only the deadness
        // columns are shared.
        const std::uint64_t scanned = commitsScanned();
        EXPECT_EQ(scanned, runs.front().trace->commits.size());
        for (const harness::RunArtifacts &r : runs)
            EXPECT_EQ(r.deadness->kind.data(),
                      runs.front().deadness->kind.data());
    }

    disk.setDirectory("", harness::codec::kSchemaVersion);
    const std::string rm_dir = "rm -rf '" + dir + "'";
    ASSERT_EQ(std::system(rm_dir.c_str()), 0);
}
