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
 *  - workers claim jobs in claimOrder(): the k-th point of every
 *    program before any program's (k+1)-th, so a sweep that submits
 *    each benchmark's points back to back (fig3's ten PET sizes)
 *    does not start all workers on one program, where all but one
 *    would wait on the run-cache entry the first is computing;
 *  - each surrogate program is built at most once (by whichever
 *    worker first needs it) and shared read-only across that
 *    benchmark's design points via the shared_ptr overload of
 *    runProgram(). The build is a per-program cost: the "build"
 *    prof scope reports it (one call per program built), and no
 *    run's manifest timings include it.
 *
 * The default is serial (`--jobs 1`), overridable per invocation
 * with `--jobs N`.
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
#include "sim/parallel.hh"
#include "workloads/profile.hh"

namespace ser
{
namespace harness
{

/** A worker count as --jobs spells it: a positive decimal integer.
 * Fatal, naming `source`, on anything else. */
unsigned parseJobs(const std::string &source, const std::string &text);

using ser::parallelFor;

/** Executes queued (benchmark x config) experiments on a worker
 * pool; see the file comment for the determinism guarantees. */
class SuiteRunner
{
  public:
    /** 0 or 1 runs serially inline. */
    explicit SuiteRunner(unsigned jobs = 1) : _jobs(jobs) {}

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

    /** The order workers claim the queued jobs in, as submission
     * indices: a stable sort of the program jobs by their rank among
     * their program's jobs. Generic jobs rank 0, so a queue of only
     * generic jobs keeps submission order. */
    std::vector<std::size_t> claimOrder() const;

    /** Execute every queued job; results are indexed by submission
     * order. May be called once per runner. */
    std::vector<RunArtifacts> run();

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
    std::vector<std::unique_ptr<SharedProgram>> _programs;
    std::vector<Job> _queue;
    bool _ran = false;
};

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_SUITE_RUNNER_HH
