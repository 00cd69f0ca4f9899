/**
 * @file
 * The telemetry layer, tested bottom-up: the sim::prof primitives
 * (counter interning, per-thread merge, scoped-timer nesting, the
 * disabled fast path) and the --metrics-out writer on top (golden
 * Prometheus exposition bytes, name mapping, label escaping,
 * serialized snapshot writes).
 *
 * The exposition golden test pins the exact serialization — sorted
 * families, sorted series, HELP/TYPE headers, shortest-round-trip
 * doubles — because tests/check_metrics.cc byte-compares snapshots
 * across --jobs counts; any formatting change must be deliberate.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/metrics.hh"
#include "sim/prof.hh"

using namespace ser;

// ---------------------------------------------------------------
// sim::prof

namespace
{

/** Every prof test runs against the same process-wide registry, so
 * each starts from zeroed values and leaves profiling off. */
class ProfTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        prof::setEnabled(true);
        prof::reset();
    }
    void TearDown() override
    {
        prof::setEnabled(false);
        prof::reset();
    }

    static std::uint64_t counterValue(const std::string &name)
    {
        for (const prof::CounterSample &c :
             prof::snapshot().counters) {
            if (c.name == name)
                return c.value;
        }
        ADD_FAILURE() << "counter '" << name
                      << "' not in snapshot";
        return 0;
    }

    static const prof::ScopeSample *scope(const prof::Snapshot &snap,
                                          const std::string &path)
    {
        for (const prof::ScopeSample &s : snap.scopes) {
            if (s.path == path)
                return &s;
        }
        return nullptr;
    }
};

} // namespace

TEST_F(ProfTest, CounterInterningIsByName)
{
    prof::Counter a("test.interned", "first");
    prof::Counter b("test.interned", "second wins nothing");
    EXPECT_EQ(a.id(), b.id());

    a.add(3);
    b.add(4);
    EXPECT_EQ(counterValue("test.interned"), 7u);
}

TEST_F(ProfTest, InternedCountersAppearInSnapshotsAsZero)
{
    prof::Counter c("test.never_hit", "schema, not data");
    // Never add()ed — but snapshots must still carry the name, so
    // two runs that exercise different code paths stay structurally
    // identical.
    EXPECT_EQ(counterValue("test.never_hit"), 0u);
}

TEST_F(ProfTest, DisabledAddIsANoOp)
{
    prof::Counter c("test.disabled");
    prof::setEnabled(false);
    c.add(100);
    EXPECT_EQ(counterValue("test.disabled"), 0u);
    prof::setEnabled(true);
    c.add(1);
    EXPECT_EQ(counterValue("test.disabled"), 1u);
}

TEST_F(ProfTest, ThreadCountsMergeBySummation)
{
    prof::Counter c("test.merge");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < 1000; ++i)
                c.add(2);
        });
    }
    // Joined threads retire their buffers into the global totals;
    // the snapshot below must see the full sum either way.
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(counterValue("test.merge"), 8000u);
}

TEST_F(ProfTest, ScopedTimersRecordHierarchicalPaths)
{
    {
        SER_PROF_SCOPE("outer");
        {
            SER_PROF_SCOPE("inner");
        }
        {
            SER_PROF_SCOPE("inner");
        }
    }
    {
        SER_PROF_SCOPE("outer");
    }

    prof::Snapshot snap = prof::snapshot();
    const prof::ScopeSample *outer = scope(snap, "outer");
    const prof::ScopeSample *inner = scope(snap, "outer/inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->calls, 2u);
    EXPECT_EQ(inner->calls, 2u);
    EXPECT_GE(outer->seconds, inner->seconds);
    // "inner" never ran as a root scope.
    EXPECT_EQ(scope(snap, "inner"), nullptr);
}

TEST_F(ProfTest, ScopePathsAreSeparatePerThread)
{
    SER_PROF_SCOPE("main_thread");
    std::thread([] {
        // A worker's scopes do not nest under the spawning thread's
        // open path — exactly the property that keeps scope paths
        // identical across --jobs 1 and --jobs 4.
        SER_PROF_SCOPE("worker");
    }).join();

    prof::Snapshot snap = prof::snapshot();
    EXPECT_NE(scope(snap, "worker"), nullptr);
    EXPECT_EQ(scope(snap, "main_thread/worker"), nullptr);
}

TEST_F(ProfTest, DisabledScopesRecordNothing)
{
    prof::setEnabled(false);
    {
        SER_PROF_SCOPE("ghost");
    }
    prof::setEnabled(true);
    EXPECT_EQ(scope(prof::snapshot(), "ghost"), nullptr);
}

TEST_F(ProfTest, SinkReceivesPhasesWithProfilingOff)
{
    prof::setEnabled(false);
    prof::Phases phases;
    {
        SER_PROF_SCOPE("first", &phases);
    }
    {
        SER_PROF_SCOPE("second", &phases);
    }
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].first, "first");
    EXPECT_EQ(phases[1].first, "second");
    EXPECT_GE(phases[0].second, 0.0);
    // The sink alone does not join the scope tree.
    prof::setEnabled(true);
    EXPECT_TRUE(prof::snapshot().scopes.empty());
}

TEST_F(ProfTest, SinkAndTreeReadOneClock)
{
    prof::Phases phases;
    {
        SER_PROF_SCOPE("run");
        SER_PROF_SCOPE("pipeline", &phases);
    }
    ASSERT_EQ(phases.size(), 1u);
    prof::Snapshot snap = prof::snapshot();
    const prof::ScopeSample *s = scope(snap, "run/pipeline");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->calls, 1u);
    EXPECT_EQ(s->seconds, phases[0].second);
}

TEST_F(ProfTest, ResetZeroesValuesButKeepsNames)
{
    prof::Counter c("test.reset_me");
    c.add(9);
    {
        SER_PROF_SCOPE("reset_scope");
    }
    prof::reset();
    EXPECT_EQ(counterValue("test.reset_me"), 0u);
    EXPECT_TRUE(prof::snapshot().scopes.empty());
}

// ---------------------------------------------------------------
// harness --metrics-out writer

TEST(PromCounterName, MapsSpeedAndProfNamespaces)
{
    EXPECT_EQ(harness::promCounterName("speed.cycles_skipped"),
              "ser_speed_cycles_skipped_total");
    EXPECT_EQ(harness::promCounterName("pipeline.committed_insts"),
              "ser_prof_pipeline_committed_insts_total");
    // Dots beyond the namespace sanitize to underscores.
    EXPECT_EQ(harness::promCounterName("speed.tick.rate"),
              "ser_speed_tick_rate_total");
    EXPECT_EQ(harness::promCounterName("deadness.commits_scanned"),
              "ser_prof_deadness_commits_scanned_total");
}

TEST(Exposition, GoldenOverHandBuiltInput)
{
    harness::Telemetry t;
    t.prof.counters = {
        {"runs.ok", "Experiment runs that completed.", 6},
        {"speed.cycles_skipped", "", 29204},
    };
    // 0.1 + 0.2 is famously not 0.3; the formatter prints the
    // shortest string that round-trips the actual double.
    t.prof.scopes = {
        {"run", 6, 0.1 + 0.2},
        {"run/say \"hi\"\\", 1, 0.25},
    };
    t.cacheSections = {{"sim", {4, 0, 2, 15680, 0, 0, 0}}};
    t.build = {"v1-dirty", "GNU 12.2.0", "Release", "none"};

    std::ostringstream os;
    harness::writeExposition(os, t);
    EXPECT_EQ(
        os.str(),
        "# HELP ser_build_info Build metadata (value is always 1).\n"
        "# TYPE ser_build_info gauge\n"
        "ser_build_info{build_type=\"Release\",compiler=\"GNU "
        "12.2.0\",git=\"v1-dirty\",sanitize=\"none\"} 1\n"
        "# HELP ser_prof_runs_ok_total Experiment runs that "
        "completed.\n"
        "# TYPE ser_prof_runs_ok_total counter\n"
        "ser_prof_runs_ok_total 6\n"
        "# HELP ser_prof_scope_calls_total Times each profiled scope "
        "was entered.\n"
        "# TYPE ser_prof_scope_calls_total counter\n"
        "ser_prof_scope_calls_total{scope=\"run\"} 6\n"
        "ser_prof_scope_calls_total{scope=\"run/say \\\"hi\\\"\\\\\"} "
        "1\n"
        "# HELP ser_prof_scope_seconds_total Wall-clock seconds spent "
        "in each profiled scope.\n"
        "# TYPE ser_prof_scope_seconds_total counter\n"
        "ser_prof_scope_seconds_total{scope=\"run\"} "
        "0.30000000000000004\n"
        "ser_prof_scope_seconds_total{scope=\"run/say "
        "\\\"hi\\\"\\\\\"} 0.25\n"
        "# HELP ser_run_cache_bytes Approximate bytes retained per "
        "cache section.\n"
        "# TYPE ser_run_cache_bytes gauge\n"
        "ser_run_cache_bytes{section=\"sim\"} 15680\n"
        "# HELP ser_run_cache_disk_corrupt_total Blobs rejected by "
        "integrity checks and quarantined.\n"
        "# TYPE ser_run_cache_disk_corrupt_total counter\n"
        "ser_run_cache_disk_corrupt_total{section=\"sim\"} 0\n"
        "# HELP ser_run_cache_disk_hits_total Run-cache lookups "
        "answered from the persistent disk tier.\n"
        "# TYPE ser_run_cache_disk_hits_total counter\n"
        "ser_run_cache_disk_hits_total{section=\"sim\"} 0\n"
        "# HELP ser_run_cache_disk_read_bytes_total Blob payload bytes "
        "deserialized on disk hits.\n"
        "# TYPE ser_run_cache_disk_read_bytes_total counter\n"
        "ser_run_cache_disk_read_bytes_total{section=\"sim\"} 0\n"
        "# HELP ser_run_cache_disk_written_bytes_total Blob bytes "
        "published to the disk tier.\n"
        "# TYPE ser_run_cache_disk_written_bytes_total counter\n"
        "ser_run_cache_disk_written_bytes_total{section=\"sim\"} 0\n"
        "# HELP ser_run_cache_hits_total Run-cache lookups answered "
        "from the in-process map.\n"
        "# TYPE ser_run_cache_hits_total counter\n"
        "ser_run_cache_hits_total{section=\"sim\"} 4\n"
        "# HELP ser_run_cache_misses_total Run-cache lookups that "
        "computed.\n"
        "# TYPE ser_run_cache_misses_total counter\n"
        "ser_run_cache_misses_total{section=\"sim\"} 2\n"
        "# TYPE ser_speed_cycles_skipped_total counter\n"
        "ser_speed_cycles_skipped_total 29204\n");
}

TEST(MetricsOut, UnarmedSnapshotWritesNothing)
{
    EXPECT_FALSE(harness::writeMetricsSnapshot());
}

TEST(MetricsOutDeathTest, OverlappingSnapshotsSerialize)
{
    // A sweep worker's epoch write, the SIGINT/SIGTERM watcher and
    // the atexit flush can all call writeMetricsSnapshot at once, and
    // they share one temp file. Unserialized, a second rename finds
    // the temp file gone and the process dies. Arming is process-
    // wide (an atexit flush, a signal watcher), so it happens in a
    // child process that exits 0 only when the final file is a
    // complete snapshot.
    char dir[] = "/tmp/ser_metrics_XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    const std::string path = std::string(dir) + "/snapshot.prom";

    EXPECT_EXIT(
        {
            harness::armMetricsOut(path);
            // 150 scopes (300 series) make each snapshot large
            // enough for the writers to overlap.
            std::vector<std::string> names;
            for (int i = 0; i < 150; ++i)
                names.push_back("probe" + std::to_string(i));
            for (const std::string &name : names) {
                SER_PROF_SCOPE(name);
            }

            std::vector<std::thread> writers;
            for (int t = 0; t < 8; ++t) {
                writers.emplace_back([] {
                    for (int i = 0; i < 100; ++i)
                        harness::writeMetricsSnapshot();
                });
            }
            for (std::thread &t : writers)
                t.join();

            std::ifstream in(path, std::ios::binary);
            std::ostringstream file;
            file << in.rdbuf();
            std::ostringstream fresh;
            harness::writeExposition(fresh,
                                     harness::currentTelemetry());
            std::exit(file.str() == fresh.str() ? 0 : 2);
        },
        testing::ExitedWithCode(0), "");

    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    ::rmdir(dir);
}
