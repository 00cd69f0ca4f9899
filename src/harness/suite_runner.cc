#include "suite_runner.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "sim/config.hh"
#include "sim/logging.hh"
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

std::vector<std::size_t>
SuiteRunner::claimOrder() const
{
    std::vector<std::size_t> rank(_queue.size(), 0);
    std::vector<std::size_t> seen(_programs.size(), 0);
    for (std::size_t i = 0; i < _queue.size(); ++i)
        if (_queue[i].programId != kNone)
            rank[i] = seen[_queue[i].programId]++;
    std::vector<std::size_t> order(_queue.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return rank[a] < rank[b];
                     });
    return order;
}

std::vector<RunArtifacts>
SuiteRunner::run()
{
    if (_ran)
        SER_PANIC("SuiteRunner: run() called twice");
    _ran = true;

    const std::vector<std::size_t> order = claimOrder();
    std::vector<RunArtifacts> results(_queue.size());
    parallelFor(order.size(), _jobs, [&](std::size_t k) {
        const std::size_t i = order[k];
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
    });
    static prof::Counter sweeps(
        "harness.sweeps",
        "Suite sweeps (SuiteRunner::run calls) completed.");
    ++sweeps;
    return results;
}

} // namespace harness
} // namespace ser
