/**
 * @file
 * The telemetry layer, tested bottom-up: the sim::prof primitives
 * (counter interning, per-thread merge, scoped-timer nesting, the
 * disabled fast path) and the harness::MetricsRegistry on top
 * (golden Prometheus exposition bytes, name mapping, label
 * escaping, gauge semantics).
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
// harness::MetricsRegistry

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

TEST(MetricsRegistry, GoldenExposition)
{
    harness::MetricsRegistry reg;
    reg.add("ser_runs_total", 3, "Experiment runs by final status.",
            "status", "ok");
    reg.add("ser_runs_total", 1, "ignored: first help wins",
            "status", "failed");
    reg.setGauge("ser_dyninst_pool_high_water", 172,
                 "Largest in-flight pool size.");
    reg.addSeconds("ser_run_phase_seconds_total", 0.25,
                   "Wall-clock seconds per phase.", "phase",
                   "pipeline");

    std::ostringstream os;
    reg.writePrometheus(os);
    EXPECT_EQ(
        os.str(),
        "# HELP ser_dyninst_pool_high_water Largest in-flight pool "
        "size.\n"
        "# TYPE ser_dyninst_pool_high_water gauge\n"
        "ser_dyninst_pool_high_water 172\n"
        "# HELP ser_run_phase_seconds_total Wall-clock seconds per "
        "phase.\n"
        "# TYPE ser_run_phase_seconds_total counter\n"
        "ser_run_phase_seconds_total{phase=\"pipeline\"} 0.25\n"
        "# HELP ser_runs_total Experiment runs by final status.\n"
        "# TYPE ser_runs_total counter\n"
        "ser_runs_total{status=\"failed\"} 1\n"
        "ser_runs_total{status=\"ok\"} 3\n");
}

TEST(MetricsRegistry, CountersAccumulateGaugesSet)
{
    harness::MetricsRegistry reg;
    reg.add("ser_things_total", 2);
    reg.add("ser_things_total", 3);
    reg.setGauge("ser_level", 7);
    reg.setGauge("ser_level", 4);  // absolute: last set wins
    reg.maxGauge("ser_high_water", 5);
    reg.maxGauge("ser_high_water", 3);  // below the mark: ignored
    reg.maxGauge("ser_high_water", 9);

    std::ostringstream os;
    reg.writePrometheus(os);
    EXPECT_EQ(os.str(),
              "# TYPE ser_high_water gauge\n"
              "ser_high_water 9\n"
              "# TYPE ser_level gauge\n"
              "ser_level 4\n"
              "# TYPE ser_things_total counter\n"
              "ser_things_total 5\n");
}

TEST(MetricsRegistry, NamesSanitizeAndLabelValuesEscape)
{
    harness::MetricsRegistry reg;
    // A dotted name (prof style) must sanitize to the exposition
    // alphabet; label values must escape quotes and backslashes.
    reg.add("ser.dotted.name", 1, "", "bench", "say \"hi\"\\");
    std::ostringstream os;
    reg.writePrometheus(os);
    EXPECT_EQ(os.str(),
              "# TYPE ser_dotted_name counter\n"
              "ser_dotted_name{bench=\"say \\\"hi\\\"\\\\\"} 1\n");
}

TEST(MetricsRegistry, SecondsUseShortestRoundTripFormatting)
{
    harness::MetricsRegistry reg;
    reg.addSeconds("ser_a_seconds_total", 0.1);
    reg.addSeconds("ser_a_seconds_total", 0.2);
    std::ostringstream os;
    reg.writePrometheus(os);
    // 0.1 + 0.2 is famously not 0.3; the formatter prints the
    // shortest string that round-trips the actual double.
    EXPECT_EQ(os.str(),
              "# TYPE ser_a_seconds_total counter\n"
              "ser_a_seconds_total 0.30000000000000004\n");
}

TEST(MetricsRegistry, ClearDropsMetricsButKeepsThePath)
{
    harness::MetricsRegistry reg;
    reg.setOutputPath("somewhere.prom");
    reg.add("ser_x_total", 1);
    reg.clear();
    std::ostringstream os;
    reg.writePrometheus(os);
    EXPECT_EQ(os.str(), "");
    EXPECT_EQ(reg.outputPath(), "somewhere.prom");
}

TEST(MetricsRegistry, UnarmedSnapshotWritesNothing)
{
    harness::MetricsRegistry reg;
    EXPECT_FALSE(reg.writeSnapshot());
}

TEST(MetricsRegistry, OverlappingSnapshotsSerialize)
{
    // A sweep worker's epoch write, the SIGINT/SIGTERM watcher and
    // the atexit flush can all call writeSnapshot at once, and they
    // share one temp file. Unserialized, a second rename finds the
    // temp file gone and the process dies.
    char dir[] = "/tmp/ser_metrics_XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    const std::string path = std::string(dir) + "/snapshot.prom";

    harness::MetricsRegistry reg;
    reg.setOutputPath(path);
    for (int i = 0; i < 300; ++i)
        reg.add("ser_probe_total", 1, "Probe series.", "series",
                std::to_string(i));

    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t) {
        writers.emplace_back([&reg] {
            for (int i = 0; i < 100; ++i)
                reg.writeSnapshot();
        });
    }
    for (std::thread &t : writers)
        t.join();

    std::ifstream in(path, std::ios::binary);
    std::ostringstream file;
    file << in.rdbuf();
    std::ostringstream fresh;
    reg.writePrometheus(fresh);
    EXPECT_EQ(file.str(), fresh.str());

    std::remove(path.c_str());
    ::rmdir(dir);
}
