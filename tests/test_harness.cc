/**
 * @file
 * Tests for the harness layer's parallel machinery: parallelFor, the
 * SuiteRunner's determinism and shared-program guarantees (the
 * concurrent sweeps that make a TSan build of ctest exercise the
 * sim-layer locking), and the BenchOptions parser.
 */

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/suite_runner.hh"
#include "sim/prof.hh"
#include "workloads/profile.hh"

using namespace ser;

namespace
{

std::vector<std::string>
phaseNames(const harness::RunArtifacts &r)
{
    std::vector<std::string> names;
    for (const auto &phase : r.timings)
        names.push_back(phase.first);
    return names;
}

harness::BenchOptions
parseArgs(std::vector<std::string> args)
{
    std::vector<char *> argv;
    args.insert(args.begin(), "test_bin");
    argv.reserve(args.size());
    for (auto &a : args)
        argv.push_back(a.data());
    return harness::BenchOptions::parse(
        static_cast<int>(argv.size()), argv.data());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    // The large n makes each worker claim over a thousand indices.
    for (std::size_t n : {std::size_t{100}, std::size_t{5000}}) {
        std::vector<std::atomic<int>> hits(n);
        harness::parallelFor(n, 4, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "n " << n << " index " << i;
    }
}

TEST(ParallelFor, MoreJobsThanWork)
{
    std::vector<std::atomic<int>> hits(3);
    harness::parallelFor(3, 16, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
    // And the degenerate cases do not hang or call fn.
    harness::parallelFor(0, 4, [&](std::size_t) { FAIL(); });
}

TEST(ParallelFor, RethrowsWorkerException)
{
    std::vector<std::atomic<int>> hits(8);
    EXPECT_THROW(
        harness::parallelFor(8, 4,
                             [&](std::size_t i) {
                                 hits[i].fetch_add(
                                     1, std::memory_order_relaxed);
                                 if (i == 5)
                                     throw std::runtime_error("boom");
                             }),
        std::runtime_error);
    // The throw stops no other index: the rethrow comes only after
    // every worker drains.
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(DefaultJobs, IsAtLeastOne)
{
    // SER_JOBS is unset in the test environment, so the compiled-in
    // serial default applies (the value is cached process-wide).
    EXPECT_GE(harness::defaultJobs(), 1u);
}

TEST(BenchOptions, JobsFlagBothSpellings)
{
    EXPECT_EQ(parseArgs({"--jobs", "3"}).jobs, 3u);
    EXPECT_EQ(parseArgs({"--jobs=5"}).jobs, 5u);
    EXPECT_EQ(parseArgs({}).jobs, 1u);  // serial default
}

TEST(BenchOptionsDeathTest, JobsMustBePositive)
{
    EXPECT_EXIT(parseArgs({"--jobs", "0"}),
                testing::ExitedWithCode(1), "--jobs");
}

TEST(BenchOptionsDeathTest, CountsRejectNegativeValues)
{
    // strtoull alone reads "-3" as 2^64 - 3.
    EXPECT_EXIT(parseArgs({"--intervals=-3"}),
                testing::ExitedWithCode(1), "bad value '-3' for --intervals");
    EXPECT_EXIT(parseArgs({"--topn=-1"}), testing::ExitedWithCode(1),
                "bad value '-1' for --topn");
    EXPECT_EXIT(parseArgs({"--jobs", "-1"}),
                testing::ExitedWithCode(1), "--jobs: bad value '-1'");
}

TEST(BenchOptionsDeathTest, CiTargetMustBeFinite)
{
    EXPECT_EXIT(parseArgs({"--ci-target", "nan"}),
                testing::ExitedWithCode(1),
                "bad value 'nan' for --ci-target");
}

TEST(ParseJobs, SerJobsAndJobsShareOneParser)
{
    EXPECT_EQ(harness::parseJobs("SER_JOBS", "4"), 4u);
}

TEST(ParseJobsDeathTest, SerJobsRejectsNegativeValues)
{
    // Read as 4294967295 by strtoul, SER_JOBS=-1 would ask every
    // campaign batch for thousands of threads.
    EXPECT_EXIT(harness::parseJobs("SER_JOBS", "-1"),
                testing::ExitedWithCode(1),
                "SER_JOBS: bad value '-1' \\(want a positive "
                "integer\\)");
    EXPECT_EXIT(harness::parseJobs("SER_JOBS", "4294967296"),
                testing::ExitedWithCode(1), "SER_JOBS");
}

TEST(BenchOptionsDeathTest, UnknownOptionsAreFatal)
{
    // A removed option (--progress, --debug) must fail like any other
    // unknown --name, not be silently ignored.
    for (const char *flag : {"--no-such-flag", "--progress", "--debug"})
        EXPECT_EXIT(parseArgs({flag}), testing::ExitedWithCode(1),
                    std::string("unknown option '") + flag + "'");
}

TEST(SuiteRunner, ResultsIndexedBySubmissionOrder)
{
    // Generic jobs finishing in any order must land in their
    // submission slots.
    harness::SuiteRunner runner(4);
    for (int i = 0; i < 12; ++i) {
        runner.submit([i]() {
            harness::RunArtifacts r;
            r.benchmark = "job" + std::to_string(i);
            r.ipc = i;
            return r;
        });
    }
    auto runs = runner.run();
    ASSERT_EQ(runs.size(), 12u);
    for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(runs[i].benchmark, "job" + std::to_string(i));
        EXPECT_DOUBLE_EQ(runs[i].ipc, i);
    }
}

TEST(SuiteRunner, ParallelMatchesSerial)
{
    harness::ExperimentConfig base;
    base.dynamicTarget = 8000;
    base.warmupInsts = 800;
    harness::ExperimentConfig l1 = base;
    l1.triggerLevel = "l1";

    auto sweep = [&](unsigned jobs) {
        harness::SuiteRunner runner(jobs);
        for (const char *name : {"gzip", "mcf"}) {
            std::size_t prog = runner.addProgram(name, 8000);
            runner.submit(prog, base);
            runner.submit(prog, l1);
        }
        return runner.run();
    };
    // With the run cache on, the second sweep would just be handed
    // the first sweep's artifacts; disable it so the parallel
    // schedule really recomputes everything it compares.
    harness::RunCache &cache = harness::RunCache::instance();
    cache.setEnabled(false);
    auto serial = sweep(1);
    auto parallel = sweep(4);
    cache.setEnabled(true);
    cache.clear();

    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(parallel.size(), 4u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
        EXPECT_EQ(serial[i].seed, parallel[i].seed);
        EXPECT_DOUBLE_EQ(serial[i].ipc, parallel[i].ipc);
        EXPECT_DOUBLE_EQ(serial[i].avf->sdcAvf(),
                         parallel[i].avf->sdcAvf());
        EXPECT_DOUBLE_EQ(serial[i].avf->falseDueAvf(),
                         parallel[i].avf->falseDueAvf());
        EXPECT_EQ(serial[i].trace->commits.size(),
                  parallel[i].trace->commits.size());
        EXPECT_EQ(serial[i].statsJson, parallel[i].statsJson);
    }
}

TEST(SuiteRunner, MatchesRunBenchmarkAndBuildsOnce)
{
    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = 8000;
    cfg.warmupInsts = 800;

    prof::setEnabled(true);
    prof::reset();
    harness::SuiteRunner runner(2);
    std::size_t prog = runner.addProgram("vortex", 8000);
    runner.submit(prog, cfg);
    runner.submit(prog, cfg);
    auto runs = runner.run();
    prof::Snapshot snap = prof::snapshot();
    prof::setEnabled(false);
    prof::reset();
    ASSERT_EQ(runs.size(), 2u);

    auto reference = harness::runBenchmark("vortex", cfg);
    EXPECT_DOUBLE_EQ(runs[0].ipc, reference.ipc);
    EXPECT_DOUBLE_EQ(runs[0].avf->sdcAvf(), reference.avf->sdcAvf());
    EXPECT_EQ(runs[0].seed, reference.seed);
    EXPECT_EQ(runs[0].benchmark, reference.benchmark);

    // One build, shared read-only: both runs hold the same program
    // object, and the build scope was entered once. The build is a
    // per-program cost, so both runs record the same phases.
    EXPECT_EQ(runs[0].program.get(), runs[1].program.get());
    std::uint64_t builds = 0;
    for (const prof::ScopeSample &s : snap.scopes)
        if (s.path == "build")
            builds = s.calls;
    EXPECT_EQ(builds, 1u);
    EXPECT_EQ(phaseNames(runs[0]), phaseNames(runs[1]));
    EXPECT_EQ(phaseNames(runs[0]), phaseNames(reference));
}

} // namespace
