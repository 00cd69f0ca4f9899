#include "suite_runner.hh"

#include <atomic>
#include <cstdlib>
#include <limits>

#include "harness/metrics.hh"
#include "harness/progress.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/prof.hh"
#include "workloads/suite.hh"

namespace ser
{
namespace harness
{

unsigned
parseJobs(const std::string &source, const std::string &text)
{
    std::optional<std::uint64_t> v = parseUnsigned(text);
    if (!v || *v == 0 || *v > std::numeric_limits<unsigned>::max())
        SER_FATAL("{}: bad value '{}' (want a positive integer)",
                  source, text);
    return static_cast<unsigned>(*v);
}

unsigned
defaultJobs()
{
    static const unsigned jobs = [] {
        const char *env = std::getenv("SER_JOBS");
        return env ? parseJobs("SER_JOBS", env) : 1u;
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
        epochSnapshot(completed.fetch_add(1) + 1);
    });
    progress.endSweep();
    static prof::Counter sweeps(
        "harness.sweeps",
        "Suite sweeps (SuiteRunner::run calls) completed.");
    ++sweeps;
    return results;
}

} // namespace harness
} // namespace ser
