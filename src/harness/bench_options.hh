/**
 * @file
 * The command-line options shared by every bench and example binary.
 *
 * Each binary used to hand-roll the same Config/csv parsing; this
 * factors it into one parser so the observability flags (--json,
 * --intervals, --trace-events) arrive everywhere at once:
 *
 *   --csv            print tables as CSV instead of aligned text
 *   --json PATH      write a JSON run manifest (and, when intervals
 *                    are on, a sibling .intervals.jsonl time series)
 *   --intervals N    sample the pipeline every N cycles (the series
 *                    is only written with --json)
 *   --trace-events F write instruction-lifetime Chrome trace-event
 *                    JSON (load in ui.perfetto.dev) covering every
 *                    run of the sweep
 *   --topn N         compute per-PC AVF attribution and print the
 *                    top-N hotspot table per run
 *   --jobs N         run suite sweeps on N worker threads (default
 *                    1 = serial). Output is byte-identical for any
 *                    N.
 *   --no-run-cache   disable the memoized run cache (sweep points
 *                    re-simulate instead of sharing artifacts;
 *                    output is byte-identical either way)
 *   --cache-dir DIR  persistent disk tier for the run cache:
 *                    content-addressed artifact blobs under DIR
 *                    survive the process, so a repeated sweep skips
 *                    simulation entirely; output is byte-identical
 *                    cold or warm
 *   --no-cycle-skip  disable event-driven idle-cycle fast-forward
 *                    in the timing pipeline (tick every cycle;
 *                    output is byte-identical either way)
 *   --metrics-out F  enable telemetry (sim::prof counters and scope
 *                    timers) and write a Prometheus text-exposition
 *                    snapshot to F at exit and on SIGINT/SIGTERM
 *                    (graceful-shutdown flush)
 *   --ci-target X    adaptive early stop for fault-injection
 *                    campaigns: stop sampling once every 95% CI
 *                    half-width is below X (campaign benches only)
 *   --convergence-out F
 *                    stream the per-batch campaign convergence
 *                    time-series as JSONL to F (campaign benches
 *                    only)
 *   --help           print usage and exit
 *   key=value        simulator parameter overrides, collected into
 *                    the Config (Config::parseAssignment)
 *
 * Each option has one spelling: a key=value token is always a
 * Config override, never an option, so a key the binary does not
 * read (csv=1, say) draws BenchOutput::finish's unused-key warning.
 * Any other token (a bare word, or "=5" with no key) is fatal.
 */

#ifndef SER_HARNESS_BENCH_OPTIONS_HH
#define SER_HARNESS_BENCH_OPTIONS_HH

#include <cstdint>
#include <string>

#include "sim/config.hh"

namespace ser
{
namespace harness
{

/** Parsed shared options plus the remaining key=value Config. */
struct BenchOptions
{
    Config config;

    bool csv = false;            ///< --csv
    std::string jsonPath;        ///< --json PATH; empty = off
    std::uint64_t intervalCycles = 0;  ///< --intervals N; 0 = off
    std::string traceEventsPath; ///< --trace-events F; empty = off
    std::uint32_t topn = 0;      ///< --topn N; 0 = off

    /** Suite-sweep worker threads: --jobs N, else 1 (serial).
     * Always >= 1 after parse(). */
    unsigned jobs = 1;

    /** --convergence-out F; empty = off. BenchOutput::finish writes
     * every run's per-batch campaign convergence time-series
     * (CampaignOutcome::convergence) to F as JSONL. */
    std::string convergenceOutPath;

    /** --ci-target X: fault-injection campaigns stop early once
     * every tracked 95% CI half-width falls below X (0 = run the
     * full sample budget). BenchOutput::stamp copies it into
     * CampaignSpec::ciTarget. */
    double ciTarget = 0.0;

    /**
     * Parse argv. Prints usage and exits on --help; fatal on an
     * unknown --option, a token that is no key=value override, or a
     * malformed value. 'usage' is the one-line binary description
     * shown by --help. The process-wide options
     * set their singleton here and have no field: --no-run-cache
     * (RunCache), --cache-dir (DiskCache),
     * --no-cycle-skip (the PipelineParams default) and --metrics-out
     * (armMetricsOut: sim::prof, an atexit and a SIGINT/SIGTERM
     * snapshot).
     */
    static BenchOptions parse(int argc, char **argv,
                              const std::string &usage = "");
};

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_BENCH_OPTIONS_HH
