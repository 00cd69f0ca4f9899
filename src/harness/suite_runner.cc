#include "suite_runner.hh"

#include <atomic>
#include <cstdlib>

#include "harness/metrics.hh"
#include "harness/progress.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/prof.hh"
#include "workloads/suite.hh"

namespace ser
{
namespace harness
{

unsigned
defaultJobs()
{
    static const unsigned jobs = [] {
        const char *env = std::getenv("SER_JOBS");
        if (!env)
            return 1u;
        char *end = nullptr;
        unsigned long v = std::strtoul(env, &end, 10);
        if (*env == '\0' || !end || *end != '\0' || v == 0)
            SER_FATAL("SER_JOBS: bad value '{}' (want a positive "
                      "integer)", env);
        return static_cast<unsigned>(v);
    }();
    return jobs;
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    // The worker pool itself lives in sim/parallel (shared with the
    // campaign engine); this wrapper only adds the SER_JOBS default.
    ser::parallelFor(n, jobs == 0 ? defaultJobs() : jobs, fn);
}

SuiteRunner::SuiteRunner(unsigned jobs)
    : _jobs(jobs == 0 ? defaultJobs() : jobs)
{
}

std::size_t
SuiteRunner::addProgram(const workloads::BenchmarkProfile &profile,
                        std::uint64_t dynamic_target)
{
    auto shared = std::make_unique<SharedProgram>();
    shared->profile = profile;
    shared->dynamicTarget = dynamic_target;
    _programs.push_back(std::move(shared));
    return _programs.size() - 1;
}

std::size_t
SuiteRunner::addProgram(const std::string &name,
                        std::uint64_t dynamic_target)
{
    return addProgram(workloads::findProfile(name), dynamic_target);
}

std::size_t
SuiteRunner::submit(std::size_t program_id, ExperimentConfig config)
{
    if (program_id >= _programs.size())
        SER_PANIC("SuiteRunner: bad program id {}", program_id);
    Job job;
    job.programId = program_id;
    job.config = std::move(config);
    _queue.push_back(std::move(job));
    return _queue.size() - 1;
}

std::size_t
SuiteRunner::submit(std::function<RunArtifacts()> job)
{
    Job generic;
    generic.fn = std::move(job);
    _queue.push_back(std::move(generic));
    return _queue.size() - 1;
}

std::vector<RunArtifacts>
SuiteRunner::run()
{
    if (_ran)
        SER_PANIC("SuiteRunner: run() called twice");
    _ran = true;

    std::vector<RunArtifacts> results(_queue.size());
    Progress &progress = Progress::instance();
    progress.beginSweep(_queue.size(), _label);
    std::atomic<std::uint64_t> completed{0};
    parallelFor(_queue.size(), _jobs, [&](std::size_t i) {
        Job &job = _queue[i];
        if (job.fn) {
            results[i] = job.fn();
        } else {
            SharedProgram &shared = *_programs[job.programId];
            std::call_once(shared.built, [&] {
                SER_PROF_SCOPE("build");
                shared.program =
                    std::make_shared<const isa::Program>(
                        workloads::buildBenchmark(
                            shared.profile, shared.dynamicTarget));
            });
            results[i] = runProgram(shared.program, job.config,
                                    shared.profile.name);
            results[i].seed = shared.profile.seed;
        }
        progress.runCompleted();
        // The sweep epoch: a live exposition snapshot every
        // epochRuns completions, so a watcher sees the sweep move.
        std::uint64_t done = completed.fetch_add(1) + 1;
        if (done % MetricsRegistry::epochRuns == 0)
            MetricsRegistry::instance().writeSnapshot();
    });
    progress.endSweep();
    MetricsRegistry::instance().add(
        "ser_sweeps_total", 1,
        "Suite sweeps (SuiteRunner::run calls) completed.");
    return results;
}

} // namespace harness
} // namespace ser
