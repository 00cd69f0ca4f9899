/**
 * @file
 * `--metrics-out`: the simulator's self-counts written as Prometheus
 * text exposition.
 *
 * sim::prof is the only store. The tick loop, the deadness scan, the
 * AVF fold, runProgram (runs, campaign work, trace events) and
 * SuiteRunner (sweeps) count into prof::Counters and time their
 * phases with SER_PROF_SCOPE. This module holds no metrics: its
 * writer renders three inputs, the prof snapshot, the RunCache's
 * section counters (hits / misses / cached bytes) and the build
 * info.
 *
 * armMetricsOut (BenchOptions::parse, on `--metrics-out FILE`) turns
 * profiling on and writes a snapshot once at process exit and on
 * SIGINT/SIGTERM. Each write is atomic (write-to-temp + rename), so
 * a concurrent reader never sees a torn file.
 *
 * Terminating signals never unwind through atexit, and a signal
 * handler may not take locks or allocate. Arming therefore blocks
 * SIGINT and SIGTERM in the calling thread (parse() runs before any
 * worker thread exists, so every later thread inherits the mask) and
 * parks a watcher thread in sigwait(2). The watcher writes the
 * snapshot in a normal thread context, then re-raises the signal
 * with its default disposition, so the process still dies with the
 * conventional wait status (128+15 for SIGTERM).
 *
 * Determinism contract (extends DESIGN.md §7's): every metric value
 * is byte-identical across --jobs 1 / --jobs 4 — counters merge by
 * integer summation — EXCEPT two masked classes, which
 * tests/check_metrics.cc value-masks (names must still match):
 *
 *  - wall-clock metrics, suffix `_seconds` / `_seconds_total`;
 *  - simulator-speed observations, prefix `ser_speed_` (tick-loop
 *    iterations, skipped cycles): also not identical across
 *    --no-cycle-skip, which changes no simulated result.
 */

#ifndef SER_HARNESS_METRICS_HH
#define SER_HARNESS_METRICS_HH

#include <map>
#include <ostream>
#include <string>

#include "harness/build_info.hh"
#include "harness/run_cache.hh"
#include "sim/prof.hh"

namespace ser
{
namespace harness
{

/** The three inputs of one exposition document. */
struct Telemetry
{
    prof::Snapshot prof;
    /** RunCache counters by section name ("sim", "avf", ...). */
    std::map<std::string, RunCache::Counters> cacheSections;
    BuildInfo build;
};

/** The process's telemetry now. */
Telemetry currentTelemetry();

/**
 * Render `telemetry`: families sorted by name, one HELP/TYPE header
 * each, series sorted by label block — a total order, so the bytes
 * never depend on interning (i.e. scheduling) order. Counts print as
 * integers, seconds as the shortest string that round-trips.
 */
void writeExposition(std::ostream &os, const Telemetry &telemetry);

/** `ser_speed_<x>_total` / `ser_prof_<x>_total` for a dotted prof
 * counter name. */
std::string promCounterName(const std::string &prof_name);

/**
 * Arm --metrics-out: enable sim::prof, register the atexit snapshot
 * and start the SIGINT/SIGTERM watcher. Call once, from the main
 * thread, before any worker thread exists; later calls do nothing.
 */
void armMetricsOut(const std::string &path);

/** Write currentTelemetry() to the armed path (temp + rename);
 * concurrent calls run one at a time. Returns false, writing
 * nothing, when --metrics-out is not armed. */
bool writeMetricsSnapshot();

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_METRICS_HH
