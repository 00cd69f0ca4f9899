/**
 * @file
 * The end-to-end benchmark: host time to regenerate the paper's
 * artifacts, split by layer.
 *
 * One process runs one named workload as a closed-loop batch client:
 * each timed pass submits a fixed set of ops and waits for all of
 * them. An op is one design point of one surrogate, or one campaign.
 *
 *   suite_sweep   Table 1: 26 surrogates x {none, l1, l0} squashing
 *                 at 300k insts, on harness::SuiteRunner with nproc
 *                 jobs; the in-memory run cache is on and cleared
 *                 before every pass.
 *   campaign      fig_campaign: gzip, mcf, swim x {none, parity, ecc}
 *                 over iq+regfile at 60k insts, fixed sample count (no
 *                 CI early stop); campaigns run one at a time, each
 *                 sharded over nproc workers, sims shared across the
 *                 protections by the run cache.
 *   warm_resweep  Table 1's design points for a subset of surrogates,
 *                 answered from a disk tier that set-up fills; the
 *                 memory tier is cleared before every pass, so every
 *                 op is a disk hit.
 *
 * Set-up (program builds; for warm_resweep also filling the disk tier)
 * is repeated and its median reported as setup_s. Timed passes then
 * run until --seconds have elapsed (at least three), each from a
 * cleared run cache and a trimmed heap; wall and CPU time are pass
 * medians. With --trace 1 the run
 * adds traced passes that call each layer directly, in
 * harness::runProgram's order, under one span per op and one child
 * span per layer call, and reports per-layer self times instead of
 * the end-to-end metrics.
 *
 * Every op's outputs are checked (AVFs in [0,1] with sdc <= due,
 * committed instructions reach the target, campaign sample counts and
 * CIs, warm disk-hit receipts) and digested; the digest must repeat
 * across passes and the traced pass must match the untraced one bit
 * for bit. A failed check counts the op as failed.
 *
 * Usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--size full|tiny] [--work-dir DIR]
 *                 [--trace-out FILE]
 *
 * Prints a {"context": ...} line, then, as the last line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "core/due_tracker.hh"
#include "core/trigger.hh"
#include "cpu/pipeline.hh"
#include "faults/campaign_engine.hh"
#include "harness/build_info.hh"
#include "harness/cache_codec.hh"
#include "harness/disk_cache.hh"
#include "harness/experiment.hh"
#include "harness/run_cache.hh"
#include "harness/suite_runner.hh"
#include "sim/json.hh"
#include "workloads/profile.hh"
#include "workloads/suite.hh"

#include "spans.hh"

using namespace ser;
using e2e::Clock;
using e2e::OpSpans;
using e2e::Scope;

namespace
{

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint64_t kCampaignSeed = 0xFA117;

/** Share of the dynamic target a run must commit (the roster commits
 * 91-96% of it at every size measured). */
constexpr double kTargetShare = 0.85;

/** Table 1's design points, in table order. */
const char *const kTriggers[] = {"none", "l1", "l0"};

/** The paper's L1-squash suite deltas (Table 1), in percent. */
constexpr double kPaperL1Dipc = -2.0;
constexpr double kPaperL1Dsdc = -26.0;
constexpr double kPaperL1Ddue = -18.0;

double
seconds(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** splitmix64's finalizer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** The workload seed's effect on a generator seed: seed 0 keeps the
 * shipped value, any other seed remixes it. */
std::uint64_t
remix(std::uint64_t base, std::uint64_t seed)
{
    return seed == 0 ? base : mix64(base ^ mix64(seed));
}

/** 64-bit FNV-1a over everything an op produces. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            _h ^= p[i];
            _h *= 1099511628211ull;
        }
    }
    template <typename T>
    void pod(const T &v)
    {
        bytes(&v, sizeof(v));
    }
    void str(const std::string &s)
    {
        pod(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 14695981039346656037ull;
};

// ---------------------------------------------------------------------
// Workloads

struct Op
{
    std::size_t program = 0;  ///< index into the workload's profiles
    harness::ExperimentConfig config;
};

struct Workload
{
    std::string name;
    std::vector<workloads::BenchmarkProfile> profiles;
    std::uint64_t insts = 0;
    std::vector<Op> ops;
    unsigned runnerJobs = 1;   ///< SuiteRunner workers
    bool warm = false;         ///< ops answered from the disk tier
    int setupReps = 5;
};

std::vector<std::string>
suiteSubset(const std::string &size, std::size_t tiny_count)
{
    std::vector<std::string> names = workloads::suiteNames();
    if (size == "tiny")
        names.resize(std::min(names.size(), tiny_count));
    return names;
}

void
addProfiles(Workload &w, const std::vector<std::string> &names,
            std::uint64_t seed)
{
    for (const std::string &name : names) {
        workloads::BenchmarkProfile p = workloads::findProfile(name);
        p.seed = remix(p.seed, seed);
        w.profiles.push_back(p);
    }
}

/** Table 1's sweep over every profile of the workload. */
void
addTable1Ops(Workload &w)
{
    for (std::size_t p = 0; p < w.profiles.size(); ++p) {
        for (const char *trigger : kTriggers) {
            Op op;
            op.program = p;
            op.config.dynamicTarget = w.insts;
            op.config.warmupInsts = w.insts / 10;
            op.config.triggerLevel = trigger;
            op.config.triggerAction = "squash";
            w.ops.push_back(op);
        }
    }
}

Workload
makeWorkload(const std::string &name, const std::string &size,
             std::uint64_t seed, unsigned nproc)
{
    const bool tiny = size == "tiny";
    Workload w;
    w.name = name;
    if (name == "suite_sweep") {
        w.insts = tiny ? 20000 : 300000;
        addProfiles(w, suiteSubset(size, 3), seed);
        addTable1Ops(w);
        w.runnerJobs = nproc;
        w.setupReps = 15;
    } else if (name == "warm_resweep") {
        // One surrogate per kernel family, small-to-medium working
        // sets, so eight disk-tier fills fit the set-up budget.
        std::vector<std::string> names = {"gzip", "cc",  "twolf",
                                          "vortex", "eon", "art",
                                          "galgel", "applu"};
        if (tiny)
            names.resize(2);
        w.insts = tiny ? 20000 : 300000;
        addProfiles(w, names, seed);
        addTable1Ops(w);
        w.runnerJobs = nproc;
        w.warm = true;
        w.setupReps = 5;
    } else if (name == "campaign") {
        std::vector<std::string> names = {"gzip", "mcf", "swim"};
        if (tiny)
            names.resize(1);
        w.insts = tiny ? 20000 : 60000;
        addProfiles(w, names, seed);
        const faults::Protection protections[] = {
            faults::Protection::None, faults::Protection::Parity,
            faults::Protection::Ecc};
        for (std::size_t p = 0; p < w.profiles.size(); ++p) {
            for (faults::Protection protection : protections) {
                Op op;
                op.program = p;
                op.config.dynamicTarget = w.insts;
                op.config.warmupInsts = w.insts / 10;
                faults::CampaignSpec &c = op.config.campaign;
                c.samples = tiny ? 64 : 300;
                c.seed = remix(kCampaignSeed, seed);
                c.protection = protection;
                c.structures = faults::parseStructures("iq,regfile");
                c.ciTarget = 0.0;
                c.batchSamples = 4096;
                c.checkpoints = 32;
                c.jobs = nproc;
                w.ops.push_back(op);
            }
        }
        // One campaign at a time, each sharded over nproc workers: at
        // most nproc worker threads, one checkpoint set resident, and
        // a peak RSS that does not depend on which campaigns overlap.
        w.runnerJobs = 1;
        w.setupReps = 25;
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (want suite_sweep, campaign "
                                    "or warm_resweep)");
    }
    return w;
}

cpu::PipelineParams
effectiveParams(const harness::ExperimentConfig &config)
{
    // Mirrors runProgram: the run may commit up to twice its target.
    cpu::PipelineParams params = config.pipeline;
    if (params.maxInsts < config.dynamicTarget * 2)
        params.maxInsts = config.dynamicTarget * 2;
    return params;
}

// ---------------------------------------------------------------------
// Per-op outputs and checks

struct OpResult
{
    bool ok = true;
    std::string why;  ///< first failed check
    std::uint64_t digest = 0;
    double seconds = 0.0;  ///< op wall time (untraced passes)

    /** True when this op ran (or loaded) its own pipeline run rather
     * than sharing another op's (campaign protections). */
    bool simulated = true;

    double ipc = 0.0, sdc = 0.0, due = 0.0, deadFraction = 0.0;
    std::uint64_t commits = 0, cycles = 0, cyclesSkipped = 0;
    std::uint64_t incarnations = 0, traceBytes = 0;

    bool hasCampaign = false;
    std::uint64_t samples = 0, reruns = 0, rerunSteps = 0;
    std::uint64_t goldenSteps = 0, checkpoints = 0;
    std::uint64_t bandsCovered = 0, bandsTotal = 0;

    void fail(const std::string &reason)
    {
        if (ok)
            why = reason;
        ok = false;
    }
};

bool
inUnit(double v)
{
    return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

bool
wellFormed(const faults::Interval &ci, double rate)
{
    return inUnit(ci.lo) && inUnit(ci.hi) && ci.lo <= rate &&
           rate <= ci.hi;
}

/** Check and digest one op's outputs (shared by the untraced and
 * traced paths, so their digests compare bit for bit). */
OpResult
summarize(const Op &op, const workloads::BenchmarkProfile &profile,
          double ipc, const cpu::SimTrace &trace,
          const std::string &stats_dump,
          const std::string &stats_json, std::uint64_t cycles_skipped,
          const avf::DeadnessResult &deadness,
          const avf::AvfResult &avf, const core::FalseDueAnalysis &fd,
          const faults::CampaignOutcome *campaign)
{
    OpResult r;
    r.ipc = ipc;
    r.sdc = avf.sdcAvf();
    r.due = avf.dueAvf();
    r.deadFraction = deadness.deadFraction();
    r.commits = trace.commits.size();
    r.cycles = trace.endCycle;
    r.cyclesSkipped = cycles_skipped;
    r.incarnations = trace.incarnations.size();
    r.traceBytes =
        trace.commits.size() * sizeof(cpu::CommitRecord) +
        trace.incarnations.size() * sizeof(cpu::IncarnationRecord);

    for (double v : {avf.sdcAvf(), avf.sdcAvfRefined(), avf.dueAvf(),
                     avf.falseDueAvf()})
        if (!inUnit(v))
            r.fail("AVF outside [0,1]");
    if (!(avf.sdcAvf() <= avf.dueAvf()))
        r.fail("SDC AVF above DUE AVF");
    // The generator sizes a program to about its target; the run must
    // reach the program's halt (not the maxInsts cap) with at least
    // kTargetShare of the target committed.
    if (!trace.programHalted ||
        static_cast<double>(r.commits) <
            kTargetShare * static_cast<double>(op.config.dynamicTarget))
        r.fail("committed " + std::to_string(r.commits) +
               " insts of a " +
               std::to_string(op.config.dynamicTarget) + " target" +
               (trace.programHalted ? "" : " without halting"));
    if (!(ipc > 0.0) || !std::isfinite(ipc))
        r.fail("non-positive IPC");

    Digest d;
    d.str(profile.name);
    d.str(op.config.triggerLevel);
    d.pod(ipc);
    d.pod(avf.sdcAvf());
    d.pod(avf.sdcAvfRefined());
    d.pod(avf.dueAvf());
    d.pod(avf.falseDueAvf());
    d.pod(fd.baseFalseDueAvf);
    d.pod(fd.residualFalseDue);
    d.pod(r.commits);
    d.pod(trace.committedInsts);
    d.pod(trace.startCycle);
    d.pod(trace.endCycle);
    d.pod(r.incarnations);
    d.bytes(deadness.kind.data(),
            deadness.kind.size() * sizeof(avf::DeadKind));
    d.pod(deadness.numFddReg);
    d.pod(deadness.numTddReg);
    d.pod(deadness.numFddMem);
    d.pod(deadness.numTddMem);
    d.str(stats_dump);
    d.str(stats_json);

    if (campaign) {
        const faults::CampaignOutcome &c = *campaign;
        r.hasCampaign = true;
        r.samples = c.samplesRun;
        r.reruns = c.reruns;
        r.rerunSteps = c.rerunSteps;
        r.goldenSteps = c.goldenSteps;
        r.checkpoints = c.checkpoints;
        const std::uint64_t want = op.config.campaign.samples;
        if (c.samplesRun != want || c.samplesRequested != want)
            r.fail("campaign ran " + std::to_string(c.samplesRun) +
                   " of " + std::to_string(want) + " samples");
        std::uint64_t landed = 0;
        for (const faults::StructureCampaign &s : c.structures) {
            landed += s.tally.samples;
            if (!wellFormed(s.sdcCi, s.sdcRate()) ||
                !wellFormed(s.dueCi, s.dueRate()))
                r.fail("ill-formed campaign CI");
            r.bandsCovered += (s.sdcCovered ? 1 : 0) +
                              (s.dueCovered ? 1 : 0);
            r.bandsTotal += 2;
            d.pod(s.structure);
            d.pod(s.tally.samples);
            d.pod(s.tally.counts);
            d.pod(s.sdcCovered);
            d.pod(s.dueCovered);
        }
        if (landed != c.samplesRun)
            r.fail("campaign tallies do not sum to its samples");
        d.pod(c.samplesRun);
        d.pod(c.reruns);
        d.pod(c.rerunSteps);
        d.pod(c.goldenSteps);
        d.pod(c.checkpoints);
    }
    r.digest = d.value();
    return r;
}

OpResult
summarize(const Op &op, const workloads::BenchmarkProfile &profile,
          const harness::RunArtifacts &a)
{
    if (!a.trace || !a.deadness || !a.avf) {
        OpResult r;
        r.fail("run produced no artifacts");
        return r;
    }
    return summarize(op, profile, a.ipc, *a.trace, a.statsDump,
                     a.statsJson, a.cyclesSkipped, *a.deadness, *a.avf,
                     a.falseDue, a.campaign.get());
}

// ---------------------------------------------------------------------
// Passes

struct CacheTotals
{
    std::uint64_t hits = 0, diskHits = 0, misses = 0;
    std::uint64_t bytes = 0, diskRead = 0, diskWritten = 0;
};

CacheTotals
cacheTotals()
{
    harness::RunCache &cache = harness::RunCache::instance();
    CacheTotals t;
    for (const harness::RunCache::Counters &c :
         {cache.simCounters(), cache.deadnessCounters(),
          cache.avfCounters(), cache.campaignCounters()}) {
        t.hits += c.hits;
        t.diskHits += c.diskHits;
        t.misses += c.misses;
        t.bytes += c.bytes;
        t.diskRead += c.diskBytesRead;
        t.diskWritten += c.diskBytesWritten;
    }
    return t;
}

struct Pass
{
    double wall = 0.0;
    double cpu = 0.0;           ///< untraced passes only
    std::vector<OpResult> ops;
    CacheTotals cache;          ///< untraced passes only
    std::uint64_t digest = 0;
    std::uint64_t failed = 0;
    std::vector<OpSpans> spans;  ///< traced passes only
};

void
finishPass(Pass &pass)
{
    Digest d;
    for (const OpResult &r : pass.ops) {
        d.pod(r.digest);
        pass.failed += r.ok ? 0 : 1;
    }
    pass.digest = d.value();
}

using Programs = std::vector<std::shared_ptr<const isa::Program>>;

/** Drop the run cache's memory tier and hand freed heap back to the
 * OS, so every pass and set-up starts from the same state a fresh
 * process would. */
void
releaseMemory()
{
    harness::RunCache::instance().clear();
    malloc_trim(0);
}

/** One untraced pass through harness::runProgram on a SuiteRunner.
 * 'receipts' demands that every op came from the disk tier. */
Pass
runPass(const Workload &w, const Programs &programs, bool receipts)
{
    releaseMemory();
    Pass pass;
    std::vector<double> op_seconds(w.ops.size(), 0.0);
    std::vector<std::string> errors(w.ops.size());

    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<harness::RunArtifacts> runs;
    {
        harness::SuiteRunner runner(w.runnerJobs);
        for (std::size_t i = 0; i < w.ops.size(); ++i) {
            runner.submit([&, i] {
                const Op &op = w.ops[i];
                const Clock::time_point start = Clock::now();
                harness::RunArtifacts run;
                try {
                    run = harness::runProgram(
                        programs[op.program], op.config,
                        w.profiles[op.program].name);
                } catch (const std::exception &e) {
                    errors[i] = e.what();
                }
                op_seconds[i] = seconds(start);
                return run;
            });
        }
        runs = runner.run();
    }
    pass.wall = seconds(t0);
    pass.cpu = cpuSeconds() - cpu0;
    pass.cache = cacheTotals();

    pass.ops.reserve(w.ops.size());
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
        const Op &op = w.ops[i];
        const harness::RunArtifacts &run = runs[i];
        OpResult r = summarize(op, w.profiles[op.program], run);
        if (!errors[i].empty())
            r.fail("threw: " + errors[i]);
        if (receipts &&
            (run.cacheSim != harness::CacheOutcome::DiskHit ||
             run.cacheDeadness != harness::CacheOutcome::DiskHit ||
             run.cacheAvf != harness::CacheOutcome::DiskHit))
            r.fail("not answered from the disk tier");
        r.seconds = op_seconds[i];
        pass.ops.push_back(std::move(r));
    }
    if (receipts) {
        // Three disk-tier sections per op: sim, deadness, avf.
        const std::uint64_t want = 3 * w.ops.size();
        if (pass.cache.diskHits != want || pass.cache.misses != 0)
            for (OpResult &r : pass.ops)
                r.fail("pass counters show " +
                       std::to_string(pass.cache.diskHits) +
                       " disk hits and " +
                       std::to_string(pass.cache.misses) +
                       " misses for " +
                       std::to_string(w.ops.size()) + " ops");
    }
    finishPass(pass);
    return pass;
}

/** One pipeline run plus its analyses, as the traced pass holds it. */
struct SimBundle
{
    std::shared_ptr<const harness::SimProducts> products;
    std::shared_ptr<const avf::DeadnessResult> deadness;
    std::shared_ptr<const avf::AvfResult> avf;
};

/** The traced pipeline run: the calls runProgram's sim miss path
 * makes, each under its own span. */
std::shared_ptr<const SimBundle>
tracedSimulate(OpSpans *rec, std::shared_ptr<const isa::Program> program,
               const harness::ExperimentConfig &config)
{
    auto products = std::make_shared<harness::SimProducts>();
    harness::SimProducts &p = *products;
    p.program = std::move(program);
    const cpu::PipelineParams params = effectiveParams(config);

    std::unique_ptr<cpu::InOrderPipeline> pipeline;
    std::unique_ptr<core::MissTriggerPolicy> policy;
    {
        Scope s(rec, "cpu.construct");
        pipeline =
            std::make_unique<cpu::InOrderPipeline>(*p.program, params);
        policy = core::makeTriggerPolicy(config.triggerLevel,
                                         config.triggerAction);
        pipeline->setExposurePolicy(policy.get());
        pipeline->setWarmupInsts(config.warmupInsts);
    }
    {
        Scope s(rec, "cpu.run");
        p.trace = pipeline->run();
    }
    p.ipc = p.trace.ipc();
    p.poolHighWater = pipeline->poolHighWater();
    p.cyclesSkipped = pipeline->cyclesSkipped();
    {
        Scope s(rec, "cpu.stats_render");
        std::ostringstream stats;
        pipeline->dumpStats(stats);
        policy->dumpStats(stats);
        p.statsDump = stats.str();
        std::ostringstream stats_json;
        {
            json::JsonWriter jw(stats_json);
            jw.beginObject();
            pipeline->dumpJson(jw);
            policy->dumpJson(jw);
            jw.endObject();
        }
        p.statsJson = stats_json.str();
    }
    {
        Scope s(rec, "cpu.teardown");
        pipeline.reset();
        policy.reset();
    }
    auto bundle = std::make_shared<SimBundle>();
    bundle->products = std::move(products);
    {
        Scope s(rec, "avf.deadness");
        bundle->deadness = std::make_shared<const avf::DeadnessResult>(
            avf::analyzeDeadness(p.trace));
    }
    {
        Scope s(rec, "avf.fold");
        bundle->avf = std::make_shared<const avf::AvfResult>(
            avf::computeAvf(p.trace, *bundle->deadness,
                            config.intervalCycles));
    }
    return bundle;
}

/** The traced warm path: the run cache's disk-tier lookups, each
 * under its own span. A lookup that misses both tiers throws. */
std::shared_ptr<const SimBundle>
tracedLoad(OpSpans *rec, const isa::Program &program,
           const harness::ExperimentConfig &config)
{
    harness::RunCache &cache = harness::RunCache::instance();
    std::string key;
    {
        Scope s(rec, "harness.cache_key");
        key = harness::RunCache::simKey(program, config,
                                        effectiveParams(config));
    }
    harness::CacheOutcome sim_out{}, dead_out{}, avf_out{};
    auto bundle = std::make_shared<SimBundle>();
    {
        Scope s(rec, "harness.disk_load");
        bundle->products = cache.getSim(
            key,
            []() -> harness::SimProducts {
                throw std::runtime_error("disk tier missed sim");
            },
            &sim_out);
    }
    {
        Scope s(rec, "harness.disk_load");
        bundle->deadness = cache.getDeadness(
            harness::RunCache::deadnessKey(key),
            []() -> avf::DeadnessResult {
                throw std::runtime_error("disk tier missed deadness");
            },
            &dead_out);
    }
    {
        Scope s(rec, "harness.disk_load");
        bundle->avf = cache.getAvf(
            harness::RunCache::avfKey(key),
            []() -> avf::AvfResult {
                throw std::runtime_error("disk tier missed avf");
            },
            &avf_out);
    }
    for (harness::CacheOutcome outcome : {sim_out, dead_out, avf_out})
        if (outcome != harness::CacheOutcome::DiskHit)
            throw std::runtime_error("lookup not answered from disk");
    return bundle;
}

/** One traced pass: the layers called directly, one span per op and
 * one child span per layer call. */
Pass
runTracedPass(const Workload &w, const Programs &programs)
{
    releaseMemory();
    Pass pass;
    pass.ops.resize(w.ops.size());
    const Clock::time_point epoch = Clock::now();
    for (std::size_t i = 0; i < w.ops.size(); ++i)
        pass.spans.emplace_back(i, epoch);

    // Campaign ops of one program share its pipeline run, as the run
    // cache shares it in the untraced pass.
    struct Shared
    {
        std::once_flag once;
        std::shared_ptr<const SimBundle> bundle;
    };
    std::vector<Shared> shared(programs.size());

    const Clock::time_point t0 = Clock::now();
    harness::parallelFor(w.ops.size(), w.runnerJobs, [&](std::size_t i) {
        const Op &op = w.ops[i];
        const workloads::BenchmarkProfile &profile =
            w.profiles[op.program];
        OpSpans *rec = &pass.spans[i];
        OpResult &r = pass.ops[i];
        std::shared_ptr<const SimBundle> bundle;
        bool simulated = true;
        core::FalseDueAnalysis fd;
        std::unique_ptr<faults::CampaignOutcome> campaign;
        std::string error;
        const int root = rec->open("op");
        try {
            if (w.warm) {
                bundle = tracedLoad(rec, *programs[op.program],
                                    op.config);
            } else if (op.config.campaign.samples) {
                Shared &s = shared[op.program];
                simulated = false;
                std::call_once(s.once, [&] {
                    s.bundle = tracedSimulate(rec, programs[op.program],
                                              op.config);
                    simulated = true;
                });
                bundle = s.bundle;
            } else {
                bundle = tracedSimulate(rec, programs[op.program],
                                        op.config);
            }
            {
                Scope s(rec, "core.false_due");
                fd = core::analyzeFalseDue(*bundle->avf,
                                           op.config.petSize);
            }
            if (op.config.campaign.samples) {
                Scope s(rec, "faults.campaign");
                campaign = std::make_unique<faults::CampaignOutcome>(
                    faults::runCampaignEngine(
                        *bundle->products->program,
                        bundle->products->trace, *bundle->deadness,
                        *bundle->avf, op.config.campaign));
            }
        } catch (const std::exception &e) {
            error = e.what();
        }
        rec->close(root);

        // Checks and digests are the benchmark's work, not the op's.
        if (error.empty()) {
            const harness::SimProducts &p = *bundle->products;
            r = summarize(op, profile, p.ipc, p.trace, p.statsDump,
                          p.statsJson, p.cyclesSkipped,
                          *bundle->deadness, *bundle->avf, fd,
                          campaign.get());
        } else {
            r.fail("threw: " + error);
        }
        r.simulated = simulated;
    });
    pass.wall = seconds(t0);
    finishPass(pass);
    return pass;
}

// ---------------------------------------------------------------------
// Set-up

struct Setup
{
    Programs programs;
    double seconds = 0.0;
    double fillSeconds = 0.0;
    std::vector<OpSpans> spans;  ///< traced runs only
    Pass fill;                   ///< warm_resweep's disk-tier fill
};

/** Build every program of the workload (and for warm_resweep fill a
 * fresh disk tier under 'tier_dir'). */
Setup
runSetup(const Workload &w, unsigned jobs, bool traced,
         const std::string &tier_dir)
{
    Setup setup;
    setup.programs.resize(w.profiles.size());
    const Clock::time_point t0 = Clock::now();
    if (traced)
        for (std::size_t i = 0; i < w.profiles.size(); ++i)
            setup.spans.emplace_back(i, t0);
    harness::parallelFor(
        w.profiles.size(), jobs, [&](std::size_t i) {
            OpSpans *rec = traced ? &setup.spans[i] : nullptr;
            Scope root(rec, "setup");
            Scope build(rec, "workloads.build");
            setup.programs[i] = std::make_shared<const isa::Program>(
                workloads::buildBenchmark(w.profiles[i], w.insts));
        });
    if (w.warm) {
        harness::DiskCache::instance().setDirectory(
            tier_dir, harness::codec::kSchemaVersion);
        const Clock::time_point f0 = Clock::now();
        setup.fill = runPass(w, setup.programs, false);
        setup.fillSeconds = seconds(f0);
    }
    setup.seconds = seconds(t0);
    return setup;
}

// ---------------------------------------------------------------------
// Reporting

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string size = "full";
    std::string workDir = ".";
    std::string traceOut;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + arg);
        std::string v = argv[++i];
        if (arg == "--workload")
            o.workload = v;
        else if (arg == "--seed")
            o.seed = std::stoull(v);
        else if (arg == "--seconds")
            o.seconds = std::stod(v);
        else if (arg == "--trace" && (v == "0" || v == "1"))
            o.trace = v == "1";
        else if (arg == "--size")
            o.size = v;
        else if (arg == "--work-dir")
            o.workDir = v;
        else if (arg == "--trace-out")
            o.traceOut = v;
        else
            throw std::invalid_argument("unknown option " + arg);
    }
    if (o.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (o.size != "full" && o.size != "tiny")
        throw std::invalid_argument("--size must be full or tiny");
    if (!(o.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return o;
}

/** An ordered metric list: name -> (value, unit). */
class Metrics
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit)
    {
        _items.push_back({name, std::isfinite(value) ? value : 0.0,
                          unit});
    }
    void write(json::JsonWriter &jw) const
    {
        jw.beginObject();
        for (const Item &item : _items) {
            jw.key(item.name);
            jw.beginObject();
            jw.kv("value", item.value);
            jw.kv("unit", item.unit);
            jw.endObject();
        }
        jw.endObject();
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> _items;
};

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double p50 = 0.0, value = 0.0, percentile = 100.0;
    std::uint64_t beyond = 0, samples = 0;
};

Tail
opTail(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    t.p50 = median(v);
    if (v.size() > 10) {
        std::size_t k = v.size() - 11;
        t.value = v[k];
        t.beyond = v.size() - 1 - k;
        t.percentile = 100.0 * static_cast<double>(k + 1) /
                       static_cast<double>(v.size());
    } else {
        t.value = v.back();
    }
    return t;
}

/** Suite-average model outputs (Table 1's rows) and campaign bands. */
void
addModelMetrics(Metrics &m, const Workload &w, const Pass &pass)
{
    std::map<std::string, std::array<double, 4>> by_trigger;
    double dead = 0.0;
    std::uint64_t covered = 0, total = 0;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
        const OpResult &r = pass.ops[i];
        auto &acc = by_trigger[w.ops[i].config.triggerLevel];
        acc[0] += r.ipc;
        acc[1] += r.sdc;
        acc[2] += r.due;
        acc[3] += 1.0;
        dead += r.deadFraction;
        covered += r.bandsCovered;
        total += r.bandsTotal;
    }
    auto mean = [&](const char *trigger, int field) {
        auto it = by_trigger.find(trigger);
        return it == by_trigger.end()
                   ? 0.0
                   : ratio(it->second[field], it->second[3]);
    };
    const char *fields[] = {"model.ipc.", "model.sdc_avf.",
                            "model.due_avf."};
    const char *units[] = {"insts/cycle", "fraction", "fraction"};
    for (int f = 0; f < 3; ++f)
        for (const char *trigger : kTriggers)
            m.add(std::string(fields[f]) + trigger, mean(trigger, f),
                  units[f]);
    m.add("model.dead_fraction",
          ratio(dead, static_cast<double>(w.ops.size())), "fraction");
    m.add("model.bands_covered", static_cast<double>(covered), "count");
    m.add("model.bands_total", static_cast<double>(total), "count");
    // Absolute percentage-point error of the L1-squash suite deltas
    // against the paper's Table 1 (0 when the workload has no l1
    // point).
    auto delta_err = [&](int field, double paper) {
        double base = mean("none", field), l1 = mean("l1", field);
        if (base == 0.0 || l1 == 0.0)
            return 0.0;
        return std::abs((l1 / base - 1.0) * 100.0 - paper);
    };
    m.add("model.paper_err_pp.l1_dipc", delta_err(0, kPaperL1Dipc),
          "pp");
    m.add("model.paper_err_pp.l1_dsdc", delta_err(1, kPaperL1Dsdc),
          "pp");
    m.add("model.paper_err_pp.l1_ddue", delta_err(2, kPaperL1Ddue),
          "pp");
}

void
addLayerMetrics(Metrics &m, const Workload &w, const Setup &setup,
                const std::vector<Pass> &untraced,
                const std::vector<Pass> &traced)
{
    const Pass &last = traced.back();
    std::map<std::string, double> self = e2e::selfSeconds(last.spans);
    std::map<std::string, double> setup_self =
        e2e::selfSeconds(setup.spans);
    auto busy = [&](const char *span) {
        auto it = self.find(span);
        return it == self.end() ? 0.0 : it->second;
    };

    std::uint64_t data_words = 0;
    for (const auto &program : setup.programs)
        data_words += program->dataInits().size();
    m.add("workloads.build_s", setup_self["workloads.build"], "s");
    m.add("workloads.data_words", static_cast<double>(data_words),
          "count");

    std::uint64_t commits = 0, cycles = 0, skipped = 0, incs = 0;
    std::uint64_t trace_bytes = 0;
    for (const OpResult &r : last.ops) {
        if (!r.simulated)
            continue;
        commits += r.commits;
        cycles += r.cycles;
        skipped += r.cyclesSkipped;
        incs += r.incarnations;
        trace_bytes += r.traceBytes;
    }
    const double ticked = static_cast<double>(cycles - skipped);
    const double run_s = busy("cpu.run");
    m.add("cpu.construct_s", busy("cpu.construct"), "s");
    m.add("cpu.run_s", run_s, "s");
    m.add("cpu.stats_render_s", busy("cpu.stats_render"), "s");
    m.add("cpu.teardown_s", busy("cpu.teardown"), "s");
    m.add("cpu.committed_insts", static_cast<double>(commits), "count");
    m.add("cpu.cycles", static_cast<double>(cycles), "count");
    m.add("cpu.cycles_skipped", static_cast<double>(skipped), "count");
    m.add("cpu.cycles_ticked", ticked, "count");
    m.add("cpu.skip_fraction",
          ratio(static_cast<double>(skipped), static_cast<double>(cycles)),
          "fraction");
    m.add("cpu.ns_per_ticked_cycle", ratio(run_s * 1e9, ticked), "ns");
    m.add("cpu.ns_per_commit",
          ratio(run_s * 1e9, static_cast<double>(commits)), "ns");
    m.add("cpu.incarnations", static_cast<double>(incs), "count");
    m.add("cpu.trace_mb", static_cast<double>(trace_bytes) / kMiB, "MB");

    m.add("avf.deadness_s", busy("avf.deadness"), "s");
    m.add("avf.deadness_ns_per_commit",
          ratio(busy("avf.deadness") * 1e9, static_cast<double>(commits)),
          "ns");
    m.add("avf.fold_s", busy("avf.fold"), "s");
    m.add("avf.fold_ns_per_incarnation",
          ratio(busy("avf.fold") * 1e9, static_cast<double>(incs)), "ns");
    m.add("core.false_due_s", busy("core.false_due"), "s");

    // faults: campaign economics from the traced pass.
    std::uint64_t samples = 0, reruns = 0, rerun_steps = 0;
    std::uint64_t golden = 0, checkpoints = 0, dup_steps = 0;
    double rerun_golden = 0.0;
    std::map<std::string, std::pair<double, std::uint64_t>> per_bench;
    std::map<std::string, bool> forked;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
        const OpResult &r = last.ops[i];
        if (!r.hasCampaign)
            continue;
        const Op &op = w.ops[i];
        samples += r.samples;
        reruns += r.reruns;
        rerun_steps += r.rerunSteps;
        golden += r.goldenSteps;
        checkpoints += r.checkpoints;
        rerun_golden += static_cast<double>(r.reruns) *
                        static_cast<double>(r.goldenSteps);
        const std::string &bench = w.profiles[op.program].name;
        per_bench[bench].first +=
            e2e::selfSeconds(last.spans[i])["faults.campaign"];
        per_bench[bench].second += r.rerunSteps;
        // Forks are a function of (sim, seed, structures); protection
        // only relabels verdicts, so a second protection's reruns of
        // the same group repeat the first's.
        std::string group =
            bench + "|" + std::to_string(op.config.campaign.seed) +
            "|" + std::to_string(op.config.campaign.structures);
        if (r.reruns) {
            if (forked[group])
                dup_steps += r.rerunSteps;
            forked[group] = true;
        }
    }
    std::vector<double> untraced_walls;
    std::uint64_t untraced_samples = 0;
    for (const Pass &p : untraced)
        untraced_walls.push_back(p.wall);
    for (const OpResult &r : untraced.front().ops)
        untraced_samples += r.samples;
    const double untraced_wall = median(untraced_walls);

    m.add("faults.campaign_s", busy("faults.campaign"), "s");
    m.add("faults.samples", static_cast<double>(samples), "count");
    m.add("faults.reruns", static_cast<double>(reruns), "count");
    m.add("faults.rerun_steps", static_cast<double>(rerun_steps),
          "count");
    m.add("faults.golden_steps", static_cast<double>(golden), "count");
    m.add("faults.checkpoints", static_cast<double>(checkpoints),
          "count");
    m.add("faults.rerun_share",
          ratio(static_cast<double>(reruns), static_cast<double>(samples)),
          "fraction");
    m.add("faults.mean_rerun_fraction",
          ratio(static_cast<double>(rerun_steps), rerun_golden),
          "fraction");
    for (const char *bench : {"gzip", "mcf", "swim"}) {
        auto it = per_bench.find(bench);
        double ns = it == per_bench.end()
                        ? 0.0
                        : ratio(it->second.first * 1e9,
                                static_cast<double>(it->second.second));
        m.add(std::string("faults.ns_per_rerun_step.") + bench, ns, "ns");
    }
    m.add("faults.duplicate_rerun_share",
          ratio(static_cast<double>(dup_steps),
                static_cast<double>(rerun_steps)),
          "fraction");
    m.add("faults.injections_per_s",
          ratio(static_cast<double>(untraced_samples), untraced_wall),
          "1/s");

    // harness: run-cache counters of the last untraced pass, disk
    // traffic, and op-level dispatch from every untraced timed pass.
    const CacheTotals &cache = untraced.back().cache;
    m.add("harness.cache.hits", static_cast<double>(cache.hits), "count");
    m.add("harness.cache.disk_hits", static_cast<double>(cache.diskHits),
          "count");
    m.add("harness.cache.misses", static_cast<double>(cache.misses),
          "count");
    m.add("harness.cache_mb", static_cast<double>(cache.bytes) / kMiB,
          "MB");
    m.add("harness.cache_key_s", busy("harness.cache_key"), "s");
    m.add("harness.disk_read_mb",
          static_cast<double>(cache.diskRead) / kMiB, "MB");
    m.add("harness.disk_load_s", busy("harness.disk_load"), "s");
    m.add("harness.disk_written_mb",
          static_cast<double>(setup.fill.cache.diskWritten) / kMiB, "MB");
    m.add("harness.disk_fill_s", setup.fillSeconds, "s");

    std::vector<double> op_ms, efficiency;
    for (const Pass &p : untraced) {
        double busy_s = 0.0;
        for (const OpResult &r : p.ops) {
            op_ms.push_back(r.seconds * 1e3);
            busy_s += r.seconds;
        }
        efficiency.push_back(
            ratio(busy_s, p.wall * static_cast<double>(w.runnerJobs)));
    }
    Tail tail = opTail(op_ms);
    m.add("harness.parallel_efficiency", median(efficiency), "fraction");
    m.add("harness.op_p50_ms", tail.p50, "ms");
    m.add("harness.op_tail_ms", tail.value, "ms");
    m.add("harness.op_tail_pct", tail.percentile, "%");
    m.add("harness.op_tail_beyond", static_cast<double>(tail.beyond),
          "count");
    m.add("harness.op_samples", static_cast<double>(tail.samples),
          "count");

    // The tracing itself.
    std::vector<double> traced_walls;
    for (const Pass &p : traced)
        traced_walls.push_back(p.wall);
    const double traced_wall = median(traced_walls);
    m.add("trace.untraced_wall_s", untraced_wall, "s");
    m.add("trace.traced_wall_s", traced_wall, "s");
    m.add("trace.overhead", ratio(traced_wall, untraced_wall) - 1.0,
          "fraction");
    m.add("trace.min_op_coverage", e2e::minChildCoverage(last.spans),
          "fraction");
    m.add("trace.unattributed_s", busy("op"), "s");
    m.add("trace.spans", static_cast<double>(e2e::spanCount(last.spans)),
          "count");

    addModelMetrics(m, w, untraced.front());
}

void
writeContext(std::ostream &os, const Options &o, const Workload &w,
             unsigned nproc, int setup_reps, std::size_t passes,
             std::size_t traced_passes, std::uint64_t digest)
{
    const harness::BuildInfo &b = harness::buildInfo();
    std::ostringstream ss;
    json::JsonWriter jw(ss, 0);
    jw.beginObject();
    jw.key("context");
    jw.beginObject();
    jw.kv("workload", w.name);
    jw.kv("seed", o.seed);
    jw.kv("size", o.size);
    jw.kv("seconds", o.seconds);
    jw.kv("nproc", nproc);
    jw.kv("runner_jobs", w.runnerJobs);
    jw.kv("campaign_jobs",
          w.ops.empty() ? 0u : w.ops.front().config.campaign.jobs);
    jw.kv("insts", w.insts);
    jw.kv("ops_per_pass", static_cast<std::uint64_t>(w.ops.size()));
    jw.key("benchmarks");
    jw.beginArray();
    for (const auto &p : w.profiles)
        jw.value(p.name);
    jw.endArray();
    jw.kv("campaign_samples",
          w.ops.empty() ? std::uint64_t{0}
                        : w.ops.front().config.campaign.samples);
    jw.kv("setup_reps", setup_reps);
    jw.kv("timed_passes", static_cast<std::uint64_t>(passes));
    jw.kv("traced_passes", static_cast<std::uint64_t>(traced_passes));
    jw.kv("digest", digest);
    jw.kv("build_type", b.buildType);
    jw.kv("compiler", b.compiler);
    jw.kv("git", b.git);
    jw.kv("sanitize", b.sanitize);
    if (!o.traceOut.empty())
        jw.kv("trace_out", o.traceOut);
    jw.endObject();
    jw.endObject();
    os << ss.str() << "\n";
}

int
run(const Options &o)
{
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    Workload w = makeWorkload(o.workload, o.size, o.seed, nproc);

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> reasons;
    auto account = [&](const Pass &p) {
        attempted += p.ops.size();
        failed += p.failed;
        for (const OpResult &r : p.ops)
            if (!r.ok && reasons.size() < 5)
                reasons.push_back(r.why);
    };

    // Set-up, repeated; each warm_resweep repetition fills a fresh
    // disk tier and only the last one is kept.
    namespace fs = std::filesystem;
    const fs::path tier_root = fs::path(o.workDir) / "disk-tier";
    std::vector<double> setup_times;
    Setup setup;
    for (int rep = 0; rep < w.setupReps; ++rep) {
        fs::remove_all(tier_root);
        setup = Setup{};
        releaseMemory();
        setup = runSetup(w, nproc, o.trace, tier_root.string());
        setup_times.push_back(setup.seconds);
        if (w.warm)
            account(setup.fill);
    }

    // Timed passes for the budget, at least three. The first pass's
    // outputs are the reference every later pass, traced or not, must
    // reproduce bit for bit.
    std::vector<OpResult> reference;
    std::uint64_t digest = 0;
    auto repeat = [&](double budget, std::size_t min_passes,
                      auto &&one) {
        std::vector<Pass> out;
        const Clock::time_point start = Clock::now();
        while (out.size() < min_passes || seconds(start) < budget) {
            Pass p = one();
            if (reference.empty()) {
                reference = p.ops;
                digest = p.digest;
            } else if (p.digest != digest) {
                for (OpResult &r : p.ops)
                    r.fail("pass digest differs from the first pass");
                p.failed = p.ops.size();
            }
            account(p);
            out.push_back(std::move(p));
        }
        return out;
    };
    std::vector<Pass> passes;
    passes = repeat(o.seconds, 3,
                    [&] { return runPass(w, setup.programs, w.warm); });

    std::vector<Pass> traced;
    if (o.trace) {
        traced = repeat(o.seconds / 2, 1, [&] {
            Pass p = runTracedPass(w, setup.programs);
            for (std::size_t i = 0; i < p.ops.size(); ++i)
                if (p.ops[i].digest != reference[i].digest)
                    p.ops[i].fail("traced outputs differ from untraced");
            return p;
        });
        if (!o.traceOut.empty() &&
            !e2e::writeChromeTrace(o.traceOut,
                                   {&setup.spans, &traced.back().spans}))
            throw std::runtime_error("cannot write " + o.traceOut);
    }

    Metrics m;
    if (o.trace) {
        addLayerMetrics(m, w, setup, passes, traced);
    } else {
        std::vector<double> walls, cpus, rates;
        for (const Pass &p : passes) {
            std::uint64_t commits = 0;
            for (const OpResult &r : p.ops)
                commits += r.commits;
            walls.push_back(p.wall);
            cpus.push_back(p.cpu);
            rates.push_back(
                ratio(static_cast<double>(commits) * 1e-6, p.wall));
        }
        m.add("wall_s", median(walls), "s");
        m.add("cpu_s", median(cpus), "s");
        m.add("setup_s", median(setup_times), "s");
        m.add("peak_rss_mb", peakRssMb(), "MB");
        m.add("minsts_per_s", median(rates), "Minsts/s");
    }

    for (const std::string &why : reasons)
        std::cerr << "e2ebench: failed op: " << why << "\n";
    if (w.warm)
        fs::remove_all(tier_root);

    writeContext(std::cout, o, w, nproc, w.setupReps, passes.size(),
                 traced.size(), digest);
    std::ostringstream ss;
    json::JsonWriter jw(ss, 0);
    jw.beginObject();
    jw.kv("correct", failed == 0);
    jw.kv("attempted", attempted);
    jw.kv("failed", failed);
    jw.key("metrics");
    m.write(jw);
    jw.endObject();
    std::cout << ss.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseOptions(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "e2ebench: " << e.what() << "\n";
        return 2;
    }
}
