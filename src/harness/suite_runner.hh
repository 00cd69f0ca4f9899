/**
 * @file
 * The parallel suite runner: (benchmark x configuration) jobs on a
 * fixed worker pool, with deterministic aggregation.
 *
 * Every bench binary reproduces a paper table by sweeping the
 * 26-benchmark surrogate suite across several design points. The
 * experiments are deterministic and self-contained (DESIGN.md §6),
 * so they are embarrassingly parallel; this runner executes them on
 * `--jobs N` std::thread workers while keeping every observable
 * output byte-identical to the serial run:
 *
 *  - results are collected into a vector indexed by submission
 *    order, so tables, suite averages and JSON manifests do not
 *    depend on scheduling;
 *  - each surrogate program is built at most once (by whichever
 *    worker first needs it) and shared read-only across that
 *    benchmark's design points via the shared_ptr overload of
 *    runProgram(). The build is a per-program cost: the "build"
 *    prof scope reports it (one call per program built), and no
 *    run's manifest timings include it.
 *
 * The default is serial (`--jobs 1`), overridable per invocation
 * with `--jobs N` or process-wide with the SER_JOBS environment
 * variable.
 */

#ifndef SER_HARNESS_SUITE_RUNNER_HH
#define SER_HARNESS_SUITE_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "workloads/profile.hh"

namespace ser
{
namespace harness
{

/** A worker count as --jobs and SER_JOBS spell it: a positive
 * decimal integer. Fatal, naming `source`, on anything else. */
unsigned parseJobs(const std::string &source, const std::string &text);

/** The worker count used when a bench is not told otherwise:
 * parseJobs of SER_JOBS from the environment, else 1 (serial — the
 * legacy behaviour). */
unsigned defaultJobs();

/**
 * Run fn(i) for every i in [0, n) on up to 'jobs' workers (the
 * calling thread is one of them; jobs == 0 means defaultJobs()).
 * fn must be safe to call concurrently for distinct indices. An
 * exception thrown by fn is re-thrown on the calling thread after
 * all workers drain.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/** Executes queued (benchmark x config) experiments on a worker
 * pool; see the file comment for the determinism guarantees. */
class SuiteRunner
{
  public:
    /** jobs == 0 selects defaultJobs(); 1 runs serially inline. */
    explicit SuiteRunner(unsigned jobs = 0);

    /**
     * Register a surrogate to be built (at most once) when the
     * first run needing it executes. Returns a program id for
     * submit().
     */
    std::size_t addProgram(const workloads::BenchmarkProfile &profile,
                           std::uint64_t dynamicTarget);

    /** As above, by suite name ("mcf", "ammp", ...). */
    std::size_t addProgram(const std::string &name,
                           std::uint64_t dynamicTarget);

    /** Queue one design point against a registered program. The
     * result carries the profile's name and seed. Returns the
     * run's submission index. */
    std::size_t submit(std::size_t program_id,
                       ExperimentConfig config);

    /** Queue an arbitrary job (for benches whose per-benchmark work
     * is not a plain runProgram call). */
    std::size_t submit(std::function<RunArtifacts()> job);

    /** Execute every queued job; results are indexed by submission
     * order. May be called once per runner. */
    std::vector<RunArtifacts> run();

    unsigned jobs() const { return _jobs; }

    /** Label shown by the --progress line (conventionally the bench
     * name); set before run(). */
    void setLabel(std::string label) { _label = std::move(label); }

  private:
    /** One surrogate program, built lazily by the first worker that
     * needs it and shared read-only afterwards. */
    struct SharedProgram
    {
        workloads::BenchmarkProfile profile;
        std::uint64_t dynamicTarget = 0;
        std::once_flag built;
        std::shared_ptr<const isa::Program> program;
    };

    struct Job
    {
        std::size_t programId = kNone;  ///< kNone for generic jobs
        ExperimentConfig config;
        std::function<RunArtifacts()> fn;
    };

    static constexpr std::size_t kNone = ~std::size_t{0};

    unsigned _jobs;
    std::string _label;
    std::vector<std::unique_ptr<SharedProgram>> _programs;
    std::vector<Job> _queue;
    bool _ran = false;
};

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_SUITE_RUNNER_HH
