/**
 * @file
 * The process-wide metrics registry: one aggregation point for
 * everything the simulator can report about itself, serialized as
 * Prometheus text exposition format.
 *
 * The registry unifies three sources:
 *
 *  - harness-level run accounting pushed by runProgram() and
 *    SuiteRunner (runs completed/failed, sweeps, DynInst pool
 *    high-water, campaign work, trace events);
 *  - the RunCache's section counters (hits / misses / cached
 *    bytes), pulled at snapshot time;
 *  - the sim::prof layer's counters and hierarchical scope timers
 *    (sim/prof.hh), pulled at snapshot time.
 *
 * `--metrics-out FILE` (BenchOptions) arms the registry: a snapshot
 * is written on every sweep epoch (every MetricsRegistry::epochRuns
 * completed runs of a SuiteRunner sweep, so a watcher sees live
 * progress), once at process exit, and on SIGINT/SIGTERM
 * (harness/shutdown.hh), atomically (write-to-temp + rename), so a
 * concurrent reader never sees a torn file.
 *
 * Determinism contract (extends DESIGN.md §7's): every metric value
 * is byte-identical across --jobs 1 / --jobs 4 — counters merge by
 * integer summation in submission order — EXCEPT two masked
 * classes, which tests/check_metrics.cc value-masks (names must
 * still match):
 *
 *  - wall-clock metrics, suffix `_seconds` / `_seconds_total`;
 *  - simulator-speed observations, prefix `ser_speed_` (tick-loop
 *    iterations, skipped cycles): also not identical across
 *    --no-cycle-skip, exactly like cycles_skipped in the manifest
 *    timings block.
 */

#ifndef SER_HARNESS_METRICS_HH
#define SER_HARNESS_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace ser
{
namespace harness
{

/** Aggregates named metrics and writes Prometheus text exposition.
 * All methods are thread-safe. instance() is the process-wide
 * registry; tests may construct private registries. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    static MetricsRegistry &instance();

    /** Runs between mid-sweep snapshots (the "sweep epoch"). */
    static constexpr std::uint64_t epochRuns = 64;

    /** Arm snapshot writing (--metrics-out). Empty disarms. */
    void setOutputPath(std::string path);
    std::string outputPath() const;

    /** Add to a monotonic counter (created at first touch; the help
     * string of the first touch wins). Metric names should follow
     * Prometheus conventions: `ser_..._total` for counters. */
    void add(std::string_view name, std::uint64_t v,
             std::string_view help = "",
             std::string_view label_key = "",
             std::string_view label_value = "");

    /** Add to a wall-clock seconds counter (`..._seconds_total`). */
    void addSeconds(std::string_view name, double v,
                    std::string_view help = "",
                    std::string_view label_key = "",
                    std::string_view label_value = "");

    /** Set a gauge to an absolute value. */
    void setGauge(std::string_view name, double v,
                  std::string_view help = "",
                  std::string_view label_key = "",
                  std::string_view label_value = "");

    /** Raise a gauge to at least v (pool high-water style). */
    void maxGauge(std::string_view name, std::uint64_t v,
                  std::string_view help = "",
                  std::string_view label_key = "",
                  std::string_view label_value = "");

    /**
     * Serialize every metric currently in the registry: families
     * sorted by name, one HELP/TYPE header each, series sorted by
     * label — a total order, so the bytes never depend on insertion
     * (i.e. scheduling) order.
     */
    void writePrometheus(std::ostream &os) const;

    /** collectProcessMetrics() + atomic write to the armed path;
     * concurrent calls run one at a time. Returns false (and does
     * nothing) when no path is armed. */
    bool writeSnapshot();

    /** Drop every metric (tests). The armed path survives. */
    void clear();

  private:
    /** Import the RunCache counters, the sim::prof snapshot, and the
     * ser_build_info gauge into the registry (absolute sets — their
     * sources already hold process totals). */
    void collectProcessMetrics();

    enum class Kind { Counter, Gauge, Seconds };

    struct Series
    {
        double dvalue = 0.0;
        std::uint64_t uvalue = 0;
    };

    struct Family
    {
        Kind kind = Kind::Counter;
        std::string help;
        /** Keyed by the rendered label block ("" or
         * `{key="value"}`); map iteration gives the sorted order
         * the writer needs. */
        std::map<std::string, Series> series;
    };

    Series &upsert(std::string_view name, Kind kind,
                   std::string_view help, std::string_view label_key,
                   std::string_view label_value);
    /** Like upsert, but with an already-rendered (sorted,
     * multi-label) label block — the series map key. */
    Series &upsertRendered(std::string_view name, Kind kind,
                           std::string_view help,
                           std::string rendered_labels);

    mutable std::mutex _lock;
    /** Held across one whole writeSnapshot (collect, write, rename);
     * taken before _lock, never inside it. */
    std::mutex _snapshotLock;
    std::map<std::string, Family> _families;
    std::string _outputPath;
};

/** `ser_speed_<x>_total` / `ser_prof_<x>_total` for a dotted prof
 * counter name; exposed for the unit tests. */
std::string promCounterName(const std::string &prof_name);

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_METRICS_HH
