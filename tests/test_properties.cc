/**
 * @file
 * Cross-module property tests, parameterized over random programs
 * and the surrogate suite:
 *
 *  - timing/functional agreement for every surrogate benchmark;
 *  - AVF accounting closure (classes tile the bit-cycle space);
 *  - operational PET buffer vs analytical overwrite distances;
 *  - injector determinism and label/protection coherence;
 *  - trace invariants under every trigger policy.
 */

#include <gtest/gtest.h>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "core/pi_machine.hh"
#include "core/trigger.hh"
#include "cpu/pipeline.hh"
#include "faults/campaign_engine.hh"
#include "faults/injector.hh"
#include "isa/encoding.hh"
#include "isa/executor.hh"
#include "workloads/profile.hh"
#include "workloads/random_program.hh"
#include "workloads/suite.hh"

using namespace ser;

namespace
{

struct RunCtx
{
    isa::Program program;
    cpu::SimTrace trace;
    std::vector<std::uint64_t> output;
    std::uint64_t goldenSteps = 0;
};

RunCtx
runCtx(const isa::Program &program, const char *trigger = "none",
       std::uint64_t max_insts = 2000000)
{
    RunCtx c;
    c.program = program;
    isa::Executor golden(c.program);
    golden.run(max_insts);
    c.output = golden.state().output();
    c.goldenSteps = golden.steps();

    cpu::PipelineParams params;
    params.maxInsts = max_insts;
    cpu::InOrderPipeline pipe(c.program, params);
    auto policy = core::makeTriggerPolicy(trigger, "squash");
    pipe.setExposurePolicy(policy.get());
    c.trace = pipe.run();
    c.trace.program = &c.program;
    return c;
}

} // namespace

/** Every surrogate: the pipeline commits exactly the oracle stream
 * regardless of trigger policy. */
class SuiteFidelity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteFidelity, CommitStreamMatchesOracleUnderSquashing)
{
    isa::Program program =
        workloads::buildBenchmark(GetParam(), 30000);
    RunCtx base = runCtx(program, "none", 90000);
    RunCtx squash = runCtx(program, "l0", 90000);
    EXPECT_EQ(base.trace.commits.size(), base.goldenSteps);
    EXPECT_EQ(squash.trace.commits.size(), base.goldenSteps);
    EXPECT_EQ(base.trace.programHalted, squash.trace.programHalted);

    // Squashing must not reduce the committed stream, only the
    // exposure; and the AVF classes always tile the space.
    for (const RunCtx *c : {&base, &squash}) {
        avf::DeadnessResult dead = avf::analyzeDeadness(c->trace);
        avf::AvfResult avf = avf::computeAvf(c->trace, dead);
        std::uint64_t sum = avf.idle + avf.exAce +
                            avf.squashedUnread + avf.ace;
        for (int s = 0; s < avf::numUnAceSources; ++s)
            sum += avf.unAceRead[s];
        EXPECT_EQ(sum, avf.totalBitCycles) << GetParam();
        EXPECT_LE(avf.sdcAvfRefined(), avf.sdcAvf() + 1e-12)
            << GetParam();
        EXPECT_LE(avf.sdcAvf(), 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteFidelity,
    ::testing::ValuesIn(workloads::suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** Random programs: the PET machine's verdicts match the analytical
 * overwrite distances exactly. */
class PetAnalyticalEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PetAnalyticalEquivalence, OperationalMatchesDistances)
{
    RunCtx c = runCtx(workloads::randomProgram(GetParam()));
    ASSERT_TRUE(c.trace.programHalted);
    avf::DeadnessResult dead = avf::analyzeDeadness(c.trace);

    const std::size_t pet_size = 24;
    core::PiMachine pet(c.trace, core::TrackingLevel::PetBuffer,
                        pet_size);
    for (std::uint64_t i = 0; i < c.trace.commits.size(); ++i) {
        const auto &cr = c.trace.commits[i];
        const isa::StaticInst &inst = c.program.inst(cr.staticIdx);
        if (!cr.qpTrue || inst.isNeutral())
            continue;
        bool suppressed = !pet.run(i).signalled;
        // The PET buffer can only prove register FDDs whose
        // overwrite happens within its window.
        bool expect_suppressed =
            dead.kind[i] == avf::DeadKind::FddReg &&
            dead.overwriteDist[i] != avf::noOverwrite &&
            dead.overwriteDist[i] <= pet_size;
        EXPECT_EQ(suppressed, expect_suppressed)
            << "seq " << i << " " << inst.toString() << " kind "
            << avf::deadKindName(dead.kind[i]) << " dist "
            << dead.overwriteDist[i];
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, PetAnalyticalEquivalence,
                         ::testing::Values(3, 7, 11, 19, 23, 42));

/** Random programs: classify() is deterministic, and labelling its
 * verdict is coherent across protection schemes. */
class InjectorCoherence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(InjectorCoherence, ProtectionOnlyMovesDetectedOutcomes)
{
    RunCtx c = runCtx(workloads::randomProgram(GetParam()));
    faults::FaultInjector inj(c.program, c.trace, c.output);

    Rng rng(GetParam() * 7919);
    for (int i = 0; i < 60; ++i) {
        faults::FaultSite site;
        site.entry = static_cast<std::uint16_t>(
            rng.range(c.trace.iqEntries));
        site.bit = static_cast<std::uint8_t>(
            rng.range(faults::payloadBits));
        site.cycle = faults::sampleWindowCycle(rng, c.trace.startCycle,
                                               c.trace.endCycle);

        faults::Verdict verdict = inj.classify(site);
        EXPECT_EQ(verdict, inj.classify(site));  // deterministic

        auto none = faults::label(verdict, faults::Protection::None);
        auto parity =
            faults::label(verdict, faults::Protection::Parity);
        // Parity never creates SDC from payload bits, and the
        // benign/detected split must correspond exactly:
        EXPECT_NE(parity, faults::Outcome::Sdc);
        switch (none) {
          case faults::Outcome::Sdc:
            EXPECT_EQ(parity, faults::Outcome::TrueDue);
            break;
          case faults::Outcome::BenignNoError:
            EXPECT_EQ(parity, faults::Outcome::FalseDue);
            break;
          case faults::Outcome::BenignNoBit:
          case faults::Outcome::BenignNotRead:
            EXPECT_EQ(parity, none);
            break;
          default:
            FAIL() << "unexpected unprotected outcome";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, InjectorCoherence,
                         ::testing::Values(2, 9, 27));

/** The whole taxonomy, statistically: campaigns with the same seed
 * are identical; disjoint outcomes sum to 1. */
TEST(CampaignProperties, DeterministicAndExhaustive)
{
    RunCtx c = runCtx(workloads::randomProgram(5));
    avf::DeadnessResult dead = avf::analyzeDeadness(c.trace);
    avf::AvfResult folded = avf::computeAvf(c.trace, dead);
    faults::CampaignSpec spec;
    spec.samples = 200;
    spec.protection = faults::Protection::Parity;
    spec.payloadOnly = false;  // include valid/parity/pi bits
    auto a = faults::runCampaignEngine(c.program, c.trace, dead,
                                       folded, spec);
    auto b = faults::runCampaignEngine(c.program, c.trace, dead,
                                       folded, spec);
    ASSERT_EQ(a.structures.size(), 1u);
    EXPECT_EQ(a.structures[0].tally.counts,
              b.structures[0].tally.counts);
    EXPECT_EQ(a.sites, b.sites);
    std::uint64_t total = 0;
    for (auto v : a.structures[0].tally.counts)
        total += v;
    EXPECT_EQ(total, spec.samples);
}

/** Squashing strictly reduces (or preserves) pre-read exposure on
 * every benchmark, never increases it. */
class SquashMonotonicity
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SquashMonotonicity, PreReadExposureNeverGrows)
{
    isa::Program program =
        workloads::buildBenchmark(GetParam(), 30000);
    RunCtx base = runCtx(program, "none", 90000);
    RunCtx squash = runCtx(program, "l0", 90000);
    auto pre_read = [](const cpu::SimTrace &t) {
        std::uint64_t sum = 0;
        for (const auto &inc : t.incarnations) {
            if (inc.issueCycle != cpu::noCycle32)
                sum += inc.issueCycle - inc.enqueueCycle;
        }
        return sum;
    };
    // Allow a small tolerance: refetched incarnations can wait
    // slightly longer in degenerate cases.
    EXPECT_LE(pre_read(squash.trace),
              pre_read(base.trace) * 11 / 10)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    SomeBenchmarks, SquashMonotonicity,
    ::testing::Values("mcf", "ammp", "equake", "gzip", "cc",
                      "swim"));

/**
 * Reference fold: the production AVF fold (class-summed, unrolled,
 * and SIMD-batched where the host supports it) must match a naive
 * per-bit-cycle integration exactly. The reference walks every
 * incarnation with the table-free classifyIncarnation() and adds
 * each clipped resident cycle's bit rates one cycle at a time —
 * no class summing, no rate factoring, no batching — so any
 * reassociation or clipping bug in the optimized kernels shows up
 * as a mismatch here.
 */
namespace
{

avf::AvfResult
referenceFold(const cpu::SimTrace &trace,
              const avf::DeadnessResult &deadness)
{
    avf::AvfResult r;
    constexpr std::uint64_t bits = isa::encoding::payloadBits;
    r.windowCycles = trace.endCycle - trace.startCycle;
    r.totalBitCycles = static_cast<std::uint64_t>(trace.iqEntries) *
                       bits * r.windowCycles;
    std::uint64_t occupied = 0;
    std::vector<std::uint64_t> exposed;
    std::vector<std::uint32_t> dist;
    for (const auto &inc : trace.incarnations) {
        avf::IncarnationClass c =
            avf::classifyIncarnation(trace, deadness, inc);
        for (std::uint64_t cy = c.preLo; cy < c.preHi; ++cy) {
            occupied += bits;
            if (!c.issued) {
                r.squashedUnread += bits;
                continue;
            }
            r.ace += c.aceRate;
            r.aceRefined += c.aceRefinedRate;
            r.unAceRead[static_cast<int>(c.source)] +=
                c.unAceReadRate;
        }
        for (std::uint64_t cy = c.postLo; cy < c.postHi; ++cy) {
            occupied += bits;
            r.exAce += bits;
        }
        if (c.issued && c.fddRegExposure && c.preCycles() > 0) {
            exposed.push_back(c.preCycles() * c.unAceReadRate);
            dist.push_back(c.overwriteDist);
        }
    }
    r.fddBitCycles = std::move(exposed);
    r.fddOverwriteDist = std::move(dist);
    r.idle = r.totalBitCycles - occupied;
    return r;
}

void
expectFoldsEqual(const avf::AvfResult &got,
                 const avf::AvfResult &ref, const std::string &tag)
{
    EXPECT_EQ(got.windowCycles, ref.windowCycles) << tag;
    EXPECT_EQ(got.totalBitCycles, ref.totalBitCycles) << tag;
    EXPECT_EQ(got.idle, ref.idle) << tag;
    EXPECT_EQ(got.exAce, ref.exAce) << tag;
    EXPECT_EQ(got.squashedUnread, ref.squashedUnread) << tag;
    EXPECT_EQ(got.ace, ref.ace) << tag;
    EXPECT_EQ(got.aceRefined, ref.aceRefined) << tag;
    for (int s = 0; s < avf::numUnAceSources; ++s)
        EXPECT_EQ(got.unAceRead[s], ref.unAceRead[s]) << tag;
    ASSERT_EQ(got.fddBitCycles.size(), ref.fddBitCycles.size())
        << tag;
    ASSERT_EQ(got.fddOverwriteDist.size(), ref.fddBitCycles.size())
        << tag;
    for (std::size_t i = 0; i < got.fddBitCycles.size(); ++i) {
        EXPECT_EQ(got.fddBitCycles[i], ref.fddBitCycles[i])
            << tag << " exposure " << i;
        EXPECT_EQ(got.fddOverwriteDist[i], ref.fddOverwriteDist[i])
            << tag << " exposure " << i;
    }
    // The derived AVFs ride on the integer totals; the issue's
    // acceptance bound is 1e-12 on these.
    EXPECT_NEAR(got.sdcAvf(), ref.sdcAvf(), 1e-12) << tag;
    EXPECT_NEAR(got.sdcAvfRefined(), ref.sdcAvfRefined(), 1e-12)
        << tag;
    EXPECT_NEAR(got.dueAvf(), ref.dueAvf(), 1e-12) << tag;
    EXPECT_NEAR(got.falseDueAvf(), ref.falseDueAvf(), 1e-12) << tag;
    EXPECT_NEAR(got.idleFraction(), ref.idleFraction(), 1e-12)
        << tag;
    EXPECT_NEAR(got.exAceFraction(), ref.exAceFraction(), 1e-12)
        << tag;
}

/** The fold again on a 1000-cycle epoch grid: its totals equal the
 * grid-free fold's, its epochs tile the window, and they sum to the
 * occupied, ACE and read un-ACE totals. */
void
expectEpochsSumToTotals(const cpu::SimTrace &trace,
                        const avf::DeadnessResult &deadness,
                        const avf::AvfResult &plain,
                        const std::string &tag)
{
    constexpr std::uint64_t epoch = 1000;
    const avf::AvfResult binned =
        avf::computeAvf(trace, deadness, epoch);
    expectFoldsEqual(binned, plain, tag);
    ASSERT_EQ(binned.epochs.size(),
              (plain.windowCycles + epoch - 1) / epoch)
        << tag;
    std::uint64_t cycles = 0, occupied = 0, ace = 0, un_ace_read = 0;
    for (const avf::EpochAce &ep : binned.epochs) {
        cycles += ep.cycles;
        occupied += ep.occupied;
        ace += ep.ace;
        un_ace_read += ep.unAceRead;
    }
    EXPECT_EQ(cycles, plain.windowCycles) << tag;
    EXPECT_EQ(occupied, plain.totalBitCycles - plain.idle) << tag;
    EXPECT_EQ(ace, plain.ace) << tag;
    EXPECT_EQ(un_ace_read, plain.unAceReadTotal()) << tag;
}

} // namespace

/** Every surrogate, two window shapes: the optimized fold equals
 * the naive per-bit-cycle reference, and the epoch-binned fold
 * agrees with both. The warmup variant puts the window start
 * mid-run so residencies straddle the boundary and the batched
 * kernel's clipping fallback is exercised. */
class ReferenceFold : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ReferenceFold, OptimizedFoldMatchesNaivePerBitCycleFold)
{
    isa::Program program =
        workloads::buildBenchmark(GetParam(), 12000);

    cpu::PipelineParams params;
    params.maxInsts = 40000;
    auto policy = core::makeTriggerPolicy("l0", "squash");

    // Whole-window trace, with squashing for class variety.
    {
        cpu::InOrderPipeline pipe(program, params);
        pipe.setExposurePolicy(policy.get());
        cpu::SimTrace trace = pipe.run();
        trace.program = &program;
        avf::DeadnessResult dead = avf::analyzeDeadness(trace);
        const avf::AvfResult plain = avf::computeAvf(trace, dead);
        expectFoldsEqual(plain, referenceFold(trace, dead),
                         GetParam() + "/whole");
        expectEpochsSumToTotals(trace, dead, plain,
                                GetParam() + "/whole/epochs");
    }

    // Warmup window: startCycle > 0 exercises the clip path.
    {
        cpu::InOrderPipeline pipe(program, params);
        pipe.setExposurePolicy(policy.get());
        pipe.setWarmupInsts(3000);
        cpu::SimTrace trace = pipe.run();
        trace.program = &program;
        ASSERT_GT(trace.startCycle, 0u) << GetParam();
        avf::DeadnessResult dead = avf::analyzeDeadness(trace);
        const avf::AvfResult plain = avf::computeAvf(trace, dead);
        expectFoldsEqual(plain, referenceFold(trace, dead),
                         GetParam() + "/warmup");
        expectEpochsSumToTotals(trace, dead, plain,
                                GetParam() + "/warmup/epochs");
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ReferenceFold,
    ::testing::ValuesIn(workloads::suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });
