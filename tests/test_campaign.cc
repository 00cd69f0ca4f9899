/**
 * @file
 * Tests for the statistical campaign engine: counter-keyed sampling
 * (shard invariance), window-edge sampling, checkpoint/fork verdict
 * equivalence against full re-execution, register-file
 * classification, run-cache key completeness, one cached sample
 * labelled under every protection, Wilson edge cases, the Holm
 * adjustment of the point comparisons, the convergence series and
 * its hook, and the measured-vs-analytical coverage property on real
 * workload surrogates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <thread>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "avf/regfile_avf.hh"
#include "cpu/pipeline.hh"
#include "faults/campaign_engine.hh"
#include "faults/fork_server.hh"
#include "faults/injector.hh"
#include "harness/cache_codec.hh"
#include "harness/disk_cache.hh"
#include "harness/experiment.hh"
#include "harness/run_cache.hh"
#include "isa/assembler.hh"
#include "isa/executor.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "workloads/random_program.hh"
#include "workloads/suite.hh"

using namespace ser;
using namespace ser::faults;

namespace
{

struct EngineRun
{
    isa::Program program;
    cpu::SimTrace trace;
    avf::DeadnessResult deadness;
    avf::AvfResult avf;
    std::vector<std::uint64_t> golden;
};

EngineRun
makeRun(isa::Program program)
{
    EngineRun r;
    r.program = std::move(program);
    isa::Executor golden(r.program);
    EXPECT_EQ(golden.run(3000000), isa::Termination::Halted);
    r.golden = golden.state().output();

    cpu::PipelineParams params;
    params.maxInsts = 3000000;
    cpu::InOrderPipeline pipe(r.program, params);
    r.trace = pipe.run();
    r.trace.program = &r.program;
    r.deadness = avf::analyzeDeadness(r.trace);
    r.avf = avf::computeAvf(r.trace, r.deadness);
    return r;
}

EngineRun
makeRun(const std::string &src)
{
    return makeRun(isa::assembleOrDie(src));
}

const char *kLoopSrc = R"(
    movi r2 = 17
    movi r4 = 200
    loop:
    mul r2 = r2, r2
    addi r2 = r2, 13
    xor r6 = r6, r2
    movi r5 = 1
    movi r5 = 2
    addi r4 = r4, -1
    cmplt p3 = r0, r4
    (p3) br loop
    out r2
    out r6
    halt
)";

bool
sameOutcome(const CampaignOutcome &a, const CampaignOutcome &b)
{
    if (a.samplesRun != b.samplesRun ||
        a.earlyStopped != b.earlyStopped || a.reruns != b.reruns ||
        a.rerunSteps != b.rerunSteps ||
        a.structures.size() != b.structures.size())
        return false;
    for (std::size_t i = 0; i < a.structures.size(); ++i) {
        if (a.structures[i].tally.counts !=
                b.structures[i].tally.counts ||
            a.structures[i].tally.samples !=
                b.structures[i].tally.samples)
            return false;
    }
    if (a.sites != b.sites)
        return false;
    if (a.rootCauses.size() != b.rootCauses.size())
        return false;
    for (std::size_t i = 0; i < a.rootCauses.size(); ++i)
        if (a.rootCauses[i].staticIdx != b.rootCauses[i].staticIdx ||
            a.rootCauses[i].sdcInjections !=
                b.rootCauses[i].sdcInjections)
            return false;
    return true;
}

} // namespace

TEST(KeyedRng, IndependentOfDrawHistory)
{
    // Sample i's stream must depend only on (seed, i): however many
    // values an earlier sample drew, sample i starts identically.
    Rng a = Rng::keyed(123, 7);
    Rng warm = Rng::keyed(123, 6);
    for (int i = 0; i < 100; ++i)
        warm.next();  // unrelated draws on another key
    Rng b = Rng::keyed(123, 7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());

    // Adjacent indices and different seeds give distinct streams.
    EXPECT_NE(Rng::keyed(123, 7).next(), Rng::keyed(123, 8).next());
    EXPECT_NE(Rng::keyed(123, 7).next(), Rng::keyed(124, 7).next());
}

TEST(SampleWindowCycle, DegenerateAndBounds)
{
    Rng rng(42);
    // Empty and reversed windows pin to start instead of panicking
    // on Rng::range(0).
    EXPECT_EQ(sampleWindowCycle(rng, 100, 100), 100u);
    EXPECT_EQ(sampleWindowCycle(rng, 100, 50), 100u);

    // Half-open [start, end): end-1 must be reachable, end never.
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t c = sampleWindowCycle(rng, 10, 14);
        EXPECT_GE(c, 10u);
        EXPECT_LT(c, 14u);
        seen.insert(c);
    }
    EXPECT_EQ(seen.size(), 4u) << "all four cycles sampleable";
    EXPECT_TRUE(seen.count(13)) << "last occupied cycle sampleable";
}

TEST(ForkServer, VerdictMatchesFullRerun)
{
    EngineRun r = makeRun(kLoopSrc);
    ForkServer fork(r.program, 0, 8);

    // Two injectors over the same trace: one re-runs through the
    // fork server, the other replays from scratch. Every classified
    // site must agree exactly.
    FaultInjector forked(r.program, r.trace, r.golden);
    forked.attachForkServer(&fork);
    FaultInjector full(r.program, r.trace, r.golden);

    int reran = 0;
    for (std::uint64_t i = 0; i < 400; ++i) {
        Rng rng = Rng::keyed(0xF0, i);
        FaultSite site;
        site.entry =
            static_cast<std::uint16_t>(rng.range(r.trace.iqEntries));
        site.bit =
            static_cast<std::uint8_t>(rng.range(payloadBits));
        site.cycle = sampleWindowCycle(rng, r.trace.startCycle,
                                       r.trace.endCycle);
        Verdict a = forked.classify(site);
        Verdict b = full.classify(site);
        ASSERT_EQ(label(a, Protection::None), label(b, Protection::None))
            << "entry " << site.entry << " bit " << int(site.bit)
            << " cycle " << site.cycle;
        EXPECT_EQ(a.outputChanged, b.outputChanged);
        EXPECT_EQ(a.reRan, b.reRan);
        if (a.reRan) {
            ++reran;
            // The fork pays at most the full suffix; usually less.
            EXPECT_LE(a.rerunSteps, b.rerunSteps);
        }
    }
    EXPECT_GT(reran, 0) << "sites never exercised the re-run path";
}

namespace
{

/** Stores walk ten pages (the first one straddles a page boundary)
 * and a second pass reads every stored word back: a fork that wrote
 * through a page it still shared with a checkpoint would change what
 * later forks from that checkpoint load. The first load and the first
 * two stores hit data words, so runs also write pages they share with
 * the program's data image. */
const char *kPagesSrc = R"(
    .data 0xfd44
    .word 5
    .data 0x10000
    .word 6
    .data 0x10ffc
    .word 7
    movi r5 = 0x10000
    movi r4 = 48
    movi r2 = 17
    fill:
    ld8 r6 = [r5, -700]
    mul r2 = r2, r2
    add r2 = r2, r6
    addi r2 = r2, 13
    st8 [r5, 0] = r2
    st8 [r5, 4092] = r2
    addi r5 = r5, 700
    addi r4 = r4, -1
    cmplt p3 = r0, r4
    (p3) br fill
    movi r5 = 0x10000
    movi r4 = 48
    sum:
    ld8 r6 = [r5, 0]
    xor r7 = r7, r6
    ld8 r6 = [r5, 4092]
    add r7 = r7, r6
    addi r5 = r5, 700
    addi r4 = r4, -1
    cmplt p3 = r0, r4
    (p3) br sum
    out r2
    out r7
    halt
)";

/** The full-rerun verdict: finish 'ex' (already struck) from where it
 * stands to the fork server's absolute step budget. */
bool
replayChanges(isa::Executor &ex, std::uint64_t budget,
              const std::vector<std::uint64_t> &golden)
{
    return ex.run(budget - ex.steps()) != isa::Termination::Halted ||
           ex.state().output() != golden;
}

/**
 * Keyed encoding and register strikes on 'program', forked on four
 * threads that share the checkpoints (as a campaign shards them):
 * every fork verdict must equal a serial full replay's, and afterwards
 * every checkpoint must still equal a fresh replay to its step.
 */
void
expectForksMatchReplays(const isa::Program &program, std::size_t sites)
{
    ForkServer fork(program, 0, 8);
    const std::vector<std::uint64_t> &golden = fork.goldenOutput();
    const std::uint64_t budget = 2 * fork.goldenSteps() + 10000;
    struct Strike
    {
        std::uint64_t step = 0;
        int bit = 0;
        int reg = 0;
        bool encodingChanged = false;
        bool registerChanged = false;
    };
    std::vector<Strike> strikes(sites);
    for (std::size_t i = 0; i < sites; ++i) {
        Rng rng = Rng::keyed(0xC0, i);
        strikes[i].step = rng.range(fork.goldenSteps());
        strikes[i].bit = static_cast<int>(rng.range(64));
        strikes[i].reg = 1 + static_cast<int>(rng.range(7));
    }
    ser::parallelFor(sites, 4, [&](std::size_t i) {
        Strike &s = strikes[i];
        s.encodingChanged =
            fork.corruptEncoding(s.step, 1ULL << s.bit).changed;
        s.registerChanged =
            fork.corruptRegister(s.step, isa::RegClass::Int, s.reg,
                                 s.bit)
                .changed;
    });

    std::size_t changed = 0;
    for (const Strike &s : strikes) {
        isa::Executor enc(program);
        enc.setCorruption(s.step, 1ULL << s.bit);
        EXPECT_EQ(s.encodingChanged, replayChanges(enc, budget, golden))
            << "encoding bit " << s.bit << " at step " << s.step;

        isa::Executor flip(program);
        flip.run(s.step);
        flip.state().writeInt(
            s.reg, flip.state().readInt(s.reg) ^ (1ULL << s.bit));
        EXPECT_EQ(s.registerChanged, replayChanges(flip, budget, golden))
            << "r" << s.reg << " bit " << s.bit << " after step "
            << s.step;
        changed += s.encodingChanged + s.registerChanged;
    }
    EXPECT_GT(changed, 0u) << "no strike changed the output";
    EXPECT_LT(changed, 2 * sites) << "every strike changed the output";

    isa::Executor fresh(program);
    for (const isa::ExecCheckpoint &cp : fork.checkpoints()) {
        fresh.run(cp.steps - fresh.steps());
        EXPECT_EQ(fresh.pc(), cp.pc);
        EXPECT_EQ(fresh.callDepth(), cp.callDepth);
        EXPECT_TRUE(fresh.state().equals(cp.state))
            << "a fork changed the checkpoint at step " << cp.steps;
    }

    // The fresh replay starts from the program's data image, so it
    // would agree with a checkpoint that a fork corrupted through a
    // page all three share; rebuild the image word by word instead.
    isa::SparseMemory reference;
    for (const isa::DataInit &init : program.dataInits())
        reference.writeWord(init.addr, init.value);
    EXPECT_TRUE(program.dataImage().equals(reference))
        << "a fork wrote into the program's data image";
}

/** The checkpoint set as a single golden pass with stride doubling
 * captures it: snapshot every 'stride' steps, and when the count
 * reaches 2T drop every other one and double the stride. ForkServer
 * must keep exactly these steps. */
struct StrideDoublingReference
{
    std::vector<std::uint64_t> checkpointSteps;
    std::uint64_t goldenSteps = 0;
    std::vector<std::uint64_t> goldenOutput;
};

StrideDoublingReference
strideDoublingReference(const isa::Program &program, unsigned target)
{
    StrideDoublingReference ref;
    ref.checkpointSteps.push_back(0);
    isa::Executor executor(program);
    std::uint64_t stride = 1;
    isa::Termination term = isa::Termination::Running;
    while (executor.steps() < (1ULL << 26)) {
        term = executor.step();
        if (term != isa::Termination::Running)
            break;
        if (executor.steps() % stride == 0) {
            ref.checkpointSteps.push_back(executor.steps());
            if (ref.checkpointSteps.size() >= 2 * target) {
                std::vector<std::uint64_t> kept;
                for (std::size_t i = 0;
                     i < ref.checkpointSteps.size(); i += 2)
                    kept.push_back(ref.checkpointSteps[i]);
                ref.checkpointSteps = std::move(kept);
                stride *= 2;
            }
        }
    }
    EXPECT_EQ(term, isa::Termination::Halted);
    ref.goldenSteps = executor.steps();
    ref.goldenOutput = executor.state().output();
    return ref;
}

void
expectCheckpointsMatchStrideDoubling(const isa::Program &program)
{
    for (unsigned target : {1u, 2u, 3u, 8u, 32u}) {
        const StrideDoublingReference ref =
            strideDoublingReference(program, target);
        const ForkServer fork(program, 0, target);
        std::vector<std::uint64_t> steps;
        for (const isa::ExecCheckpoint &cp : fork.checkpoints())
            steps.push_back(cp.steps);
        EXPECT_EQ(steps, ref.checkpointSteps) << "T = " << target;
        EXPECT_EQ(fork.goldenSteps(), ref.goldenSteps)
            << "T = " << target;
        EXPECT_EQ(fork.goldenOutput(), ref.goldenOutput)
            << "T = " << target;
    }
}

} // namespace

TEST(ForkServer, MemoryForksMatchFullRerun)
{
    // VerdictMatchesFullRerun's loop never touches memory; these
    // programs store across (and straddle) the pages that forks share
    // copy-on-write with the checkpoints.
    {
        SCOPED_TRACE("page-walking stores");
        expectForksMatchReplays(isa::assembleOrDie(kPagesSrc), 200);
    }
    {
        SCOPED_TRACE("mcf surrogate");
        expectForksMatchReplays(workloads::buildBenchmark("mcf", 3000),
                                32);
    }
}

TEST(ForkServer, CheckpointsMatchStrideDoubling)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("random program " + std::to_string(seed));
        expectCheckpointsMatchStrideDoubling(
            workloads::randomProgram(seed));
    }
    {
        // 5 steps: shorter than 2T - 1 for T = 8 and 32, exactly
        // 2T - 1 for T = 3.
        SCOPED_TRACE("five-step program");
        expectCheckpointsMatchStrideDoubling(isa::assembleOrDie(
            "movi r4 = 1\nout r4\naddi r4 = r4, 1\nout r4\nhalt\n"));
    }
    for (const char *bench : {"gzip", "mcf"}) {
        SCOPED_TRACE(bench);
        expectCheckpointsMatchStrideDoubling(
            workloads::buildBenchmark(bench, 60000));
    }
}

TEST(CampaignEngine, ShardInvariantAcrossJobs)
{
    EngineRun r = makeRun(kLoopSrc);
    CampaignSpec spec;
    spec.samples = 1500;
    spec.structures = structIq | structRegFile;
    spec.batchSamples = 256;
    spec.rootCauseTopN = 5;

    spec.jobs = 1;
    CampaignOutcome j1 = runCampaignEngine(r.program, r.trace,
                                           r.deadness, r.avf, spec);
    spec.jobs = 4;
    CampaignOutcome j4 = runCampaignEngine(r.program, r.trace,
                                           r.deadness, r.avf, spec);
    EXPECT_TRUE(sameOutcome(j1, j4))
        << "campaign tallies differ between 1 and 4 worker threads";
    EXPECT_EQ(j1.summary(), j4.summary());
}

TEST(CampaignEngine, CountsSumAndEarlyStop)
{
    EngineRun r = makeRun(kLoopSrc);
    CampaignSpec spec;
    spec.samples = 100000;
    spec.structures = structIq;
    spec.batchSamples = 512;
    spec.ciTarget = 0.05;  // loose: stops after a few batches
    CampaignOutcome out = runCampaignEngine(r.program, r.trace,
                                            r.deadness, r.avf, spec);
    EXPECT_TRUE(out.earlyStopped);
    EXPECT_LT(out.samplesRun, spec.samples);
    EXPECT_LE(out.ciHalfWidth, spec.ciTarget);
    ASSERT_EQ(out.structures.size(), 1u);
    std::uint64_t sum = 0;
    for (auto c : out.structures[0].tally.counts)
        sum += c;
    EXPECT_EQ(sum, out.samplesRun);
}

// The convergence series is a campaign *result*: attaching the
// onConvergence hook (which drives the --progress CI segment) must
// not change anything about the outcome, and the series must agree
// with the outcome's own totals.
TEST(Convergence, HookDoesNotPerturbOutcome)
{
    EngineRun r = makeRun(kLoopSrc);
    faults::CampaignSpec spec;
    spec.samples = 2000;
    spec.batchSamples = 256;
    spec.structures = faults::structIq | faults::structRegFile;

    faults::CampaignOutcome plain = faults::runCampaignEngine(
        r.program, r.trace, r.deadness, r.avf, spec);

    std::vector<faults::ConvergencePoint> seen;
    spec.onConvergence =
        [&seen](const faults::ConvergencePoint &point) {
            seen.push_back(point);
        };
    faults::CampaignOutcome hooked = faults::runCampaignEngine(
        r.program, r.trace, r.deadness, r.avf, spec);

    EXPECT_EQ(plain.samplesRun, hooked.samplesRun);
    EXPECT_EQ(plain.ciHalfWidth, hooked.ciHalfWidth);
    ASSERT_EQ(plain.convergence.size(), hooked.convergence.size());
    ASSERT_EQ(seen.size(), hooked.convergence.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].batch, hooked.convergence[i].batch);
        EXPECT_EQ(seen[i].samples, hooked.convergence[i].samples);
        EXPECT_EQ(seen[i].worstHalfWidth,
                  hooked.convergence[i].worstHalfWidth);
        EXPECT_EQ(plain.convergence[i].worstHalfWidth,
                  hooked.convergence[i].worstHalfWidth);
    }

    // One point per batch, cumulative sample counts, and the final
    // point agrees with the outcome's own totals.
    std::uint64_t batches =
        (spec.samples + spec.batchSamples - 1) / spec.batchSamples;
    EXPECT_EQ(hooked.convergence.size(), batches);
    for (std::size_t i = 1; i < hooked.convergence.size(); ++i)
        EXPECT_GT(hooked.convergence[i].samples,
                  hooked.convergence[i - 1].samples);
    const faults::ConvergencePoint &last =
        hooked.convergence.back();
    EXPECT_EQ(last.samples, hooked.samplesRun);
    EXPECT_EQ(last.worstHalfWidth, hooked.ciHalfWidth);
}

TEST(CampaignEngine, RegfileClassification)
{
    // r2 is written, read much later, then output: its live windows
    // make int-regfile strikes produce SDC under no protection and
    // detected DUE under parity; ECC corrects everything.
    EngineRun r = makeRun(kLoopSrc);
    CampaignSpec spec;
    spec.samples = 1200;
    spec.structures = structIntReg;

    spec.protection = Protection::None;
    CampaignOutcome none = runCampaignEngine(
        r.program, r.trace, r.deadness, r.avf, spec);
    ASSERT_EQ(none.structures.size(), 1u);
    const StructureCampaign &n = none.structures[0];
    EXPECT_EQ(n.structure, Structure::IntRegFile);
    EXPECT_GT(n.tally.count(Outcome::Sdc), 0u);
    EXPECT_EQ(n.tally.count(Outcome::TrueDue), 0u);
    EXPECT_EQ(n.tally.count(Outcome::FalseDue), 0u);
    EXPECT_EQ(n.tally.count(Outcome::Corrected), 0u);

    spec.protection = Protection::Parity;
    CampaignOutcome par = runCampaignEngine(
        r.program, r.trace, r.deadness, r.avf, spec);
    const StructureCampaign &p = par.structures[0];
    EXPECT_EQ(p.tally.count(Outcome::Sdc), 0u);
    EXPECT_GT(p.tally.count(Outcome::TrueDue), 0u);
    // Same sites, same reads: parity converts every unprotected SDC
    // into a detected event.
    EXPECT_EQ(p.tally.count(Outcome::TrueDue) +
                  p.tally.count(Outcome::FalseDue),
              n.tally.count(Outcome::Sdc) +
                  n.tally.count(Outcome::BenignNoError));

    spec.protection = Protection::Ecc;
    CampaignOutcome ecc = runCampaignEngine(
        r.program, r.trace, r.deadness, r.avf, spec);
    const StructureCampaign &e = ecc.structures[0];
    EXPECT_EQ(e.tally.count(Outcome::Sdc), 0u);
    EXPECT_EQ(e.tally.count(Outcome::TrueDue), 0u);
    EXPECT_EQ(e.tally.count(Outcome::FalseDue), 0u);
    EXPECT_GT(e.tally.count(Outcome::Corrected), 0u);
}

TEST(RunCacheKeys, CampaignKnobsNeverShareEntries)
{
    const std::string sim_key = "simkey";
    CampaignSpec base;
    base.samples = 1000;
    auto key = [&](const CampaignSpec &spec) {
        return harness::RunCache::campaignKey(sim_key, spec);
    };

    std::set<std::string> keys;
    keys.insert(key(base));

    // Every knob that can change the sample must move the key.
    CampaignSpec s = base;
    s.samples = 2000;
    keys.insert(key(s));
    s = base;
    s.seed = 99;
    keys.insert(key(s));
    s = base;
    s.payloadOnly = false;
    keys.insert(key(s));
    s = base;
    s.structures = structRegFile;
    keys.insert(key(s));
    s = base;
    s.ciTarget = 0.01;
    keys.insert(key(s));
    // Equal at the stream's default six significant digits.
    s.ciTarget = 0.01000001;
    keys.insert(key(s));
    s = base;
    s.batchSamples = 128;
    keys.insert(key(s));
    s = base;
    s.checkpoints = 7;
    keys.insert(key(s));
    s = base;
    s.rootCauseTopN = 3;
    keys.insert(key(s));
    EXPECT_EQ(keys.size(), 10u)
        << "two specs differing in a semantic knob shared a key";

    // With a CI target the sample ends where the protection's labels
    // stop, so protection splits the key too.
    std::set<std::string> stops;
    s = base;
    s.ciTarget = 0.01;
    for (Protection p :
         {Protection::None, Protection::Parity, Protection::Ecc}) {
        s.protection = p;
        stops.insert(key(s));
    }
    EXPECT_EQ(stops.size(), 3u)
        << "protections with a CI target shared a sample";

    // Knobs that cannot change the sample must NOT: sharding and
    // progress callbacks, and without a CI target the protection,
    // since every protection labels the one sample.
    s = base;
    s.jobs = 8;
    s.onConvergence = [](const faults::ConvergencePoint &) {};
    EXPECT_EQ(key(s), key(base));
    for (Protection p : {Protection::Parity, Protection::Ecc}) {
        s.protection = p;
        EXPECT_EQ(key(s), key(base)) << protectionName(p);
    }
}

namespace
{

/**
 * Label one sim under none, parity and ECC through runProgram, and
 * compare each outcome with the unshared campaign for that protection
 * alone (its own sample, from runCampaignEngine).
 */
std::vector<harness::RunArtifacts>
expectSharedLabelsMatchUnshared(harness::ExperimentConfig cfg)
{
    auto program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", cfg.dynamicTarget));
    std::vector<harness::RunArtifacts> runs;
    for (Protection prot :
         {Protection::None, Protection::Parity, Protection::Ecc}) {
        SCOPED_TRACE(protectionName(prot));
        cfg.campaign.protection = prot;
        harness::RunArtifacts run =
            harness::runProgram(program, cfg, "gzip");
        EXPECT_NE(run.cacheCampaign, harness::CacheOutcome::Off);
        if (!run.campaign) {
            ADD_FAILURE() << "no campaign";
            return runs;
        }
        const CampaignOutcome unshared = runCampaignEngine(
            *run.program, *run.trace, *run.deadness, *run.avf,
            cfg.campaign);
        const CampaignOutcome &shared = *run.campaign;
        EXPECT_TRUE(sameOutcome(shared, unshared));
        EXPECT_EQ(shared.summary(), unshared.summary());
        EXPECT_EQ(shared.convergence.size(),
                  unshared.convergence.size());
        EXPECT_EQ(shared.sites.size(), unshared.sites.size());
        for (std::size_t i = 0;
             i < std::min(shared.sites.size(), unshared.sites.size());
             ++i)
            EXPECT_EQ(shared.sites[i], unshared.sites[i])
                << "site " << i;
        runs.push_back(std::move(run));
    }
    return runs;
}

harness::ExperimentConfig
sharingConfig()
{
    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = 8000;
    cfg.warmupInsts = 800;
    cfg.campaign.samples = 1200;
    cfg.campaign.structures = structIq | structRegFile;
    cfg.campaign.batchSamples = 256;
    cfg.campaign.rootCauseTopN = 5;
    cfg.campaign.jobs = 4;
    return cfg;
}

} // namespace

TEST(CampaignSharing, OneSampleLabelsEveryProtection)
{
    harness::RunCache &cache = harness::RunCache::instance();
    cache.setEnabled(true);
    cache.clear();
    std::vector<harness::RunArtifacts> runs =
        expectSharedLabelsMatchUnshared(sharingConfig());
    ASSERT_EQ(runs.size(), 3u);

    // One golden run and one set of forks served all three.
    harness::RunCache::Counters c = cache.campaignCounters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 2u);
    // ECC drew the shared, forked sample but reports no re-run.
    EXPECT_GT(runs[0].campaign->reruns, 0u);
    EXPECT_EQ(runs[2].campaign->reruns, 0u);
    EXPECT_FALSE(runs[0].campaign->rootCauses.empty());
    cache.clear();
}

TEST(CampaignSharing, CiTargetKeepsOneSamplePerProtection)
{
    harness::RunCache &cache = harness::RunCache::instance();
    cache.setEnabled(true);
    cache.clear();
    harness::ExperimentConfig cfg = sharingConfig();
    cfg.campaign.samples = 20000;
    cfg.campaign.structures = structIq;
    cfg.campaign.ciTarget = 0.03;
    std::vector<harness::RunArtifacts> runs =
        expectSharedLabelsMatchUnshared(cfg);
    ASSERT_EQ(runs.size(), 3u);

    // The protections stop at different batches, so none can serve
    // another's labels.
    std::set<std::uint64_t> stops;
    for (const harness::RunArtifacts &run : runs) {
        EXPECT_TRUE(run.campaign->earlyStopped);
        stops.insert(run.campaign->samplesRun);
    }
    EXPECT_EQ(stops.size(), 3u);
    EXPECT_EQ(cache.campaignCounters().misses, 3u);
    cache.clear();
}

TEST(CampaignSharing, DiskHitLabelsTheSame)
{
    char tmpl[] = "/tmp/ser_campaign_share_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    harness::DiskCache &disk = harness::DiskCache::instance();
    disk.setDirectory(dir, harness::codec::kSchemaVersion);
    harness::RunCache &cache = harness::RunCache::instance();
    cache.setEnabled(true);
    cache.clear();

    auto program = std::make_shared<const isa::Program>(
        workloads::buildBenchmark("gzip", 8000));
    harness::ExperimentConfig cfg = sharingConfig();
    harness::RunArtifacts cold = harness::runProgram(program, cfg, "gzip");
    EXPECT_EQ(cold.cacheCampaign, harness::CacheOutcome::Miss);

    // A new process: the map is empty, and the blob on disk is the
    // only sample. Every protection labels it like its own campaign.
    cache.clear();
    std::vector<harness::RunArtifacts> runs =
        expectSharedLabelsMatchUnshared(cfg);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].cacheCampaign, harness::CacheOutcome::DiskHit);
    EXPECT_EQ(cache.campaignCounters().diskHits, 1u);
    EXPECT_EQ(cache.campaignCounters().misses, 0u);

    disk.setDirectory("", harness::codec::kSchemaVersion);
    cache.clear();
    std::string cmd = "rm -rf '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
}

TEST(RunCacheKeys, CampaignRidesSimKeyButSimIsShared)
{
    // Two experiment configs differing only in campaign knobs have
    // the same sim key (the whole point: one simulation feeds many
    // campaigns) but different campaign keys.
    isa::Program program = isa::assembleOrDie(
        "movi r4 = 1\nout r4\nhalt\n");
    harness::ExperimentConfig a;
    harness::ExperimentConfig b;
    b.campaign.samples = 500;
    b.campaign.protection = Protection::Parity;
    std::string sim_a =
        harness::RunCache::simKey(program, a, a.pipeline);
    std::string sim_b =
        harness::RunCache::simKey(program, b, b.pipeline);
    EXPECT_EQ(sim_a, sim_b);
    EXPECT_NE(
        harness::RunCache::campaignKey(sim_a, a.campaign),
        harness::RunCache::campaignKey(sim_b, b.campaign));
}

TEST(Wilson, EdgeCases)
{
    // n = 0: no information, the whole unit interval.
    Interval i = wilson(0, 0);
    EXPECT_DOUBLE_EQ(i.lo, 0.0);
    EXPECT_DOUBLE_EQ(i.hi, 1.0);

    // k = 0: the lower bound is exactly 0 (not a rounding residue),
    // so a zero-count CI covers an exact [0, 0] analytical band.
    i = wilson(0, 500);
    EXPECT_EQ(i.lo, 0.0);
    EXPECT_GT(i.hi, 0.0);
    EXPECT_LT(i.hi, 0.02);

    // k = n: symmetric at the top.
    i = wilson(500, 500);
    EXPECT_EQ(i.hi, 1.0);
    EXPECT_LT(i.lo, 1.0);
    EXPECT_GT(i.lo, 0.98);

    // Interior intervals stay within [0, 1] and shrink with n.
    Interval wide = wilson(5, 10);
    Interval narrow = wilson(500, 1000);
    EXPECT_GE(wide.lo, 0.0);
    EXPECT_LE(wide.hi, 1.0);
    EXPECT_LT(narrow.hi - narrow.lo, wide.hi - wide.lo);
}

TEST(Holm, HandComputedPValues)
{
    // z = (40 - 50) / sqrt(100 * 0.5 * 0.5) = -2: p = erfc(sqrt 2).
    EXPECT_NEAR(scoreTestP(40, 100, 0.5), 0.0455003, 1e-6);
    // z = (50 - 80) / sqrt(400 * 0.2 * 0.8) = -3.75.
    EXPECT_NEAR(scoreTestP(50, 400, 0.2), 1.7683e-4, 1e-8);
    EXPECT_EQ(scoreTestP(50, 100, 0.5), 1.0);
    EXPECT_EQ(scoreTestP(0, 0, 0.5), 1.0);

    // Sorted 0.005, 0.01, 0.03, 0.04 against 0.05/4, 0.05/3, 0.05/2:
    // the third fails its threshold, so two stand.
    EXPECT_EQ(holmStanding({0.01, 0.04, 0.03, 0.005}, 0.05), 2u);
    // Holm rejects all three where Bonferroni (0.05/3 each) rejects
    // only the first.
    EXPECT_EQ(holmStanding({0.04, 0.011, 0.02}, 0.05), 0u);
    // fig_campaign's defaults: one p of 0.017 among ten misses the
    // first threshold, 0.005, and everything stands.
    EXPECT_EQ(holmStanding({0.017, 0.18, 0.25, 0.3, 0.41, 0.5, 0.62,
                            0.7, 0.88, 0.95},
                           0.05),
              10u);
    EXPECT_EQ(holmStanding({}, 0.05), 0u);

    // Only bands that are one point strictly inside (0, 1) count.
    auto row = [](std::uint64_t samples, std::uint64_t due,
                  double lower, double upper) {
        StructureCampaign s;
        s.tally.samples = samples;
        s.tally.counts[static_cast<std::size_t>(Outcome::TrueDue)] =
            due;
        s.analyticalDueLower = lower;
        s.analyticalDue = upper;
        return s;
    };
    std::vector<StructureCampaign> rows = {
        row(100, 40, 0.5, 0.5),   // p = 0.0455
        row(100, 40, 0.0, 0.0),   // [0, 0]: not a point check
        row(100, 40, 0.2, 0.6),   // a range: not a point check
        row(400, 50, 0.2, 0.2),   // p = 1.77e-4
    };
    rows[1].analyticalSdc = 0.3;  // SDC [0, 0.3]: not a point check
    PointChecks checks = holmPointChecks(rows, 0.05);
    EXPECT_EQ(checks.total, 2u);
    EXPECT_EQ(checks.standing, 0u);
    rows[0].tally.counts[static_cast<std::size_t>(Outcome::TrueDue)] =
        50;  // p = 1: stands
    checks = holmPointChecks(rows, 0.05);
    EXPECT_EQ(checks.total, 2u);
    EXPECT_EQ(checks.standing, 1u);
}

namespace
{

/**
 * The unbiasedness claim behind the parity DUE reconciliation,
 * checked without sampling noise: enumerate *every* site of every
 * structure in the window through the injector's verdict (asking for
 * no re-run, so nothing forks) and require the read fraction — what
 * parity detects on a payload bit — to equal the analytical fold
 * exactly. A verdict does not depend on which payload bit is struck,
 * so one bit per (unit, cycle) stands for all of them.
 */
void
expectExhaustiveDueExact(const cpu::SimTrace &trace,
                         const avf::DeadnessResult &deadness,
                         const avf::AvfResult &folded)
{
    avf::RegFileWindows windows(trace, deadness);
    const avf::RegFileAvfResult regs = avf::computeRegFileAvf(windows);
    // Nothing re-runs, so the golden output is never consulted.
    FaultInjector injector(*trace.program, trace, {});
    injector.attachRegisterWindows(&windows);

    std::uint64_t reran = 0;
    auto readFraction = [&](Structure structure, std::size_t units) {
        std::uint64_t read = 0, total = 0;
        FaultSite site{0, 0, 0, structure};
        for (site.cycle = trace.startCycle; site.cycle < trace.endCycle;
             ++site.cycle) {
            for (site.entry = 0; site.entry < units; ++site.entry) {
                Verdict verdict = injector.classify(site, false);
                read += verdict.readAfter;
                reran += verdict.reRan;
                ++total;
            }
        }
        return static_cast<double>(read) / static_cast<double>(total);
    };
    EXPECT_NEAR(readFraction(Structure::Iq, trace.iqEntries),
                folded.dueAvf(), 1e-12);
    EXPECT_NEAR(readFraction(Structure::IntRegFile, isa::numIntRegs),
                regs.intFile.dueAvf(), 1e-12);
    EXPECT_NEAR(readFraction(Structure::FpRegFile, isa::numFpRegs),
                regs.fpFile.dueAvf(), 1e-12);
    EXPECT_NEAR(readFraction(Structure::PredRegFile, isa::numPredRegs),
                regs.predFile.dueAvf(), 1e-12);
    EXPECT_EQ(reran, 0u);
}

} // namespace

TEST(CampaignProperty, ExhaustiveDueEqualsAnalyticalExactly)
{
    for (std::uint64_t seed : {3, 7, 11, 19, 23, 42}) {
        SCOPED_TRACE("random program " + std::to_string(seed));
        EngineRun r = makeRun(workloads::randomProgram(seed));
        expectExhaustiveDueExact(r.trace, r.deadness, r.avf);
    }
    // gzip at fig_campaign's default scale, warm-up included: the
    // fold must clip exactly where the sampler does.
    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = 60000;
    cfg.warmupInsts = 6000;
    harness::RunArtifacts run = harness::runBenchmark("gzip", cfg);
    ASSERT_GT(run.trace->startCycle, 0u);
    expectExhaustiveDueExact(*run.trace, *run.deadness, *run.avf);
}

TEST(CampaignProperty, ExhaustiveDueExactOnEverySurrogate)
{
    // The same enumeration on all 26 surrogates (20k insts, 2k
    // warm-up), one surrogate per parallelFor index: exactness that
    // holds on three benchmarks must hold on the whole suite.
    const auto &suite = workloads::specSuite();
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    ser::parallelFor(suite.size(), jobs, [&](std::size_t i) {
        SCOPED_TRACE(suite[i].name);
        harness::ExperimentConfig cfg;
        cfg.dynamicTarget = 20000;
        cfg.warmupInsts = 2000;
        harness::RunArtifacts run = harness::runBenchmark(suite[i], cfg);
        ASSERT_GT(run.trace->startCycle, 0u);
        expectExhaustiveDueExact(*run.trace, *run.deadness, *run.avf);
    });
}

TEST(CampaignProperty, MeasuredCoversAnalyticalOnSurrogates)
{
    // The acceptance property, on three behaviourally distinct
    // workload surrogates: the measured payload-bit SDC rate's 95%
    // CI must cover the analytical SDC band (ACE conservatism:
    // measured <= field-refined ACE), and the measured DUE rate
    // under parity must cover the fold's DUE AVF point. Also pins
    // the checkpoint/fork economics: the mean forked re-run costs
    // under half a full golden replay.
    for (const char *bench : {"gzip", "mcf", "swim"}) {
        harness::ExperimentConfig cfg;
        cfg.dynamicTarget = 8000;
        cfg.warmupInsts = 500;
        cfg.campaign.samples = 2500;
        cfg.campaign.structures = structIq;

        for (auto prot : {Protection::None, Protection::Parity}) {
            cfg.campaign.protection = prot;
            harness::RunArtifacts run =
                harness::runBenchmark(bench, cfg);
            ASSERT_TRUE(run.campaign) << bench;
            const CampaignOutcome &c = *run.campaign;
            ASSERT_EQ(c.structures.size(), 1u);
            const StructureCampaign &s = c.structures[0];
            EXPECT_TRUE(s.sdcCovered)
                << bench << "/" << protectionName(prot) << ": SDC "
                << s.sdcRate() << " CI [" << s.sdcCi.lo << ", "
                << s.sdcCi.hi << "] vs [" << s.analyticalSdcLower
                << ", " << s.analyticalSdc << "]";
            // The parity DUE band is an exact point, so a fixed-seed
            // 95% CI misses it for ~5% of (bench, seed) pairs by
            // construction. The exactness itself is pinned by the
            // exhaustive test above; here allow 4 standard errors
            // (~99.99%) so the deterministic draw cannot fail on an
            // honest 2-sigma excursion.
            if (s.analyticalDueLower == s.analyticalDue) {
                double p = s.analyticalDue;
                double se = std::sqrt(
                    p * (1.0 - p) /
                    static_cast<double>(s.tally.samples));
                EXPECT_NEAR(s.dueRate(), p, 4.0 * se + 1e-9)
                    << bench << "/" << protectionName(prot);
            } else {
                EXPECT_TRUE(s.dueCovered)
                    << bench << "/" << protectionName(prot)
                    << ": DUE " << s.dueRate() << " CI ["
                    << s.dueCi.lo << ", " << s.dueCi.hi << "] vs ["
                    << s.analyticalDueLower << ", "
                    << s.analyticalDue << "]";
            }
            if (prot == Protection::None) {
                // Nontrivial on both sides: the surrogate must have
                // real ACE payload, and injection must find it.
                EXPECT_GT(s.sdcRate(), 0.0) << bench;
                EXPECT_GT(s.analyticalSdc, 0.0) << bench;
            } else {
                EXPECT_GT(s.dueRate(), 0.0) << bench;
            }
            if (c.reruns) {
                EXPECT_LT(c.meanRerunFraction(), 0.5)
                    << bench << ": forking must beat half a full "
                    << "golden replay per injection";
            }
        }
    }
}
