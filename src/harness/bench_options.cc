#include "bench_options.hh"

#include <cstdlib>
#include <iostream>
#include <limits>

#include "harness/cache_codec.hh"
#include "harness/disk_cache.hh"
#include "harness/metrics.hh"
#include "harness/run_cache.hh"
#include "harness/suite_runner.hh"
#include "sim/logging.hh"

namespace ser
{
namespace harness
{

namespace
{

void
printUsage(const char *argv0, const std::string &usage)
{
    std::cout << argv0;
    if (!usage.empty())
        std::cout << " -- " << usage;
    std::cout << "\n\n"
              << "Shared options:\n"
              << "  --csv            print tables as CSV\n"
              << "  --json PATH      write a JSON run manifest "
                 "(+ .intervals.jsonl when sampling)\n"
              << "  --intervals N    sample the pipeline every N "
                 "cycles (the series is written as\n"
                 "                   <manifest>.intervals.jsonl, so "
                 "this requires --json)\n"
              << "  --trace-events F write instruction-lifetime "
                 "Chrome trace-event JSON to F\n"
                 "                   (open in ui.perfetto.dev or "
                 "chrome://tracing)\n"
              << "  --topn N         per-PC AVF attribution: print "
                 "the top-N hotspot table\n"
              << "  --jobs N         suite-sweep worker threads "
                 "(default 1; output is identical for any N)\n"
              << "  --no-run-cache   disable the memoized run cache "
                 "(re-simulate every sweep point;\n"
                 "                   output is byte-identical either "
                 "way)\n"
              << "  --cache-dir DIR  persistent disk tier for the "
                 "run cache:\n"
                 "                   artifact blobs under DIR survive "
                 "the process, so repeated\n"
                 "                   sweeps skip simulation; output "
                 "is byte-identical cold or warm\n"
              << "  --no-cycle-skip  disable idle-cycle fast-forward "
                 "in the timing pipeline\n"
                 "                   (tick every cycle; output is "
                 "byte-identical either way)\n"
              << "  --metrics-out F  write a Prometheus text-exposition "
                 "telemetry snapshot to F\n"
                 "                   (at exit and on SIGINT/SIGTERM; "
                 "also enables sim::prof)\n"
              << "  --ci-target X    fault-injection campaigns stop "
                 "early once every 95% CI\n"
                 "                   half-width falls below X "
                 "(benches with campaigns only;\n"
                 "                   0 = run all samples)\n"
              << "  --convergence-out F\n"
                 "                   stream per-batch campaign "
                 "convergence as JSONL to F\n"
                 "                   (benches with campaigns only)\n"
              << "  --help           this message\n"
              << "  key=value        simulator parameter overrides\n";
}

/** "--name value" or "--name=value"; fatal when the value is
 * missing. */
std::string
optionValue(int argc, char **argv, int &i, const std::string &name,
            const std::string &token)
{
    auto eq = token.find('=');
    if (eq != std::string::npos)
        return token.substr(eq + 1);
    if (i + 1 >= argc)
        SER_FATAL("{}: missing value for {}", argv[0], name);
    return argv[++i];
}

std::uint64_t
parseCount(const char *argv0, const std::string &name,
           const std::string &text)
{
    std::optional<std::uint64_t> v = parseUnsigned(text);
    if (!v)
        SER_FATAL("{}: bad value '{}' for {}", argv0, text, name);
    return *v;
}

double
parseRate(const char *argv0, const std::string &name,
          const std::string &text)
{
    std::optional<double> v = parseFinite(text);
    if (!v || *v < 0.0 || *v > 1.0)
        SER_FATAL("{}: bad value '{}' for {} (want a rate in "
                  "[0, 1])", argv0, text, name);
    return *v;
}

} // namespace

BenchOptions
BenchOptions::parse(int argc, char **argv, const std::string &usage)
{
    BenchOptions opts;
    std::string cache_dir;
    std::string metrics_out;
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token == "--help" || token == "-h") {
            printUsage(argv[0], usage);
            std::exit(0);
        } else if (token == "--csv") {
            opts.csv = true;
        } else if (token == "--json" ||
                   token.rfind("--json=", 0) == 0) {
            opts.jsonPath =
                optionValue(argc, argv, i, "--json", token);
            if (opts.jsonPath.empty())
                SER_FATAL("{}: --json needs a path", argv[0]);
        } else if (token == "--intervals" ||
                   token.rfind("--intervals=", 0) == 0) {
            std::string text =
                optionValue(argc, argv, i, "--intervals", token);
            opts.intervalCycles =
                parseCount(argv[0], "--intervals", text);
            if (opts.intervalCycles == 0)
                SER_FATAL("{}: --intervals must be positive",
                          argv[0]);
        } else if (token == "--trace-events" ||
                   token.rfind("--trace-events=", 0) == 0) {
            opts.traceEventsPath =
                optionValue(argc, argv, i, "--trace-events", token);
            if (opts.traceEventsPath.empty())
                SER_FATAL("{}: --trace-events needs a path",
                          argv[0]);
        } else if (token == "--topn" ||
                   token.rfind("--topn=", 0) == 0) {
            std::string text =
                optionValue(argc, argv, i, "--topn", token);
            std::uint64_t topn = parseCount(argv[0], "--topn", text);
            if (topn == 0)
                SER_FATAL("{}: --topn must be positive", argv[0]);
            if (topn > std::numeric_limits<std::uint32_t>::max())
                SER_FATAL("{}: bad value '{}' for --topn", argv[0],
                          text);
            opts.topn = static_cast<std::uint32_t>(topn);
        } else if (token == "--jobs" ||
                   token.rfind("--jobs=", 0) == 0) {
            opts.jobs = parseJobs(
                std::string(argv[0]) + ": --jobs",
                optionValue(argc, argv, i, "--jobs", token));
        } else if (token == "--no-run-cache") {
            RunCache::instance().setEnabled(false);
        } else if (token == "--cache-dir" ||
                   token.rfind("--cache-dir=", 0) == 0) {
            cache_dir =
                optionValue(argc, argv, i, "--cache-dir", token);
            if (cache_dir.empty())
                SER_FATAL("{}: --cache-dir needs a path", argv[0]);
        } else if (token == "--no-cycle-skip") {
            cpu::setDefaultCycleSkip(false);
        } else if (token == "--metrics-out" ||
                   token.rfind("--metrics-out=", 0) == 0) {
            metrics_out =
                optionValue(argc, argv, i, "--metrics-out", token);
            if (metrics_out.empty())
                SER_FATAL("{}: --metrics-out needs a path", argv[0]);
        } else if (token == "--ci-target" ||
                   token.rfind("--ci-target=", 0) == 0) {
            std::string text =
                optionValue(argc, argv, i, "--ci-target", token);
            opts.ciTarget = parseRate(argv[0], "--ci-target", text);
        } else if (token == "--convergence-out" ||
                   token.rfind("--convergence-out=", 0) == 0) {
            opts.convergenceOutPath = optionValue(
                argc, argv, i, "--convergence-out", token);
            if (opts.convergenceOutPath.empty())
                SER_FATAL("{}: --convergence-out needs a path",
                          argv[0]);
        } else if (token.rfind("--", 0) == 0 ||
                   !opts.config.parseAssignment(token)) {
            // Neither a known --option nor a key=value override.
            SER_FATAL("{}: unknown option '{}' (--help lists them)",
                      argv[0], token);
        }
    }
    if (!cache_dir.empty() &&
        !DiskCache::instance().setDirectory(cache_dir,
                                            codec::kSchemaVersion))
        SER_FATAL("{}: --cache-dir '{}' is not a directory and cannot "
                  "be made one", argv[0], cache_dir);
    // The interval series is only ever written next to a manifest;
    // sampling without one silently produced nothing before.
    if (opts.intervalCycles && opts.jsonPath.empty())
        SER_WARN("--intervals has no effect without --json: the "
                 "time series is written to "
                 "<manifest>.intervals.jsonl");
    // Arm telemetry last, so a --help/usage error never leaves it
    // half armed. parse() runs before any worker thread exists, as
    // the SIGINT/SIGTERM watcher's blocked-signal mask requires.
    if (!metrics_out.empty())
        armMetricsOut(metrics_out);
    return opts;
}

} // namespace harness
} // namespace ser
