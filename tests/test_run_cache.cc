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
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/trigger.hh"
#include "cpu/inst_arena.hh"
#include "cpu/pipeline.hh"
#include "harness/experiment.hh"
#include "harness/run_cache.hh"
#include "isa/assembler.hh"
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
