/**
 * @file
 * Tests for the fault-injection library: residency indexing, the
 * labelled verdicts of hand-placed faults, Wilson intervals, and the
 * statistical cross-validation of engine campaigns against the
 * analytical AVF (injection must not exceed the conservative ACE
 * bound).
 */

#include <gtest/gtest.h>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "cpu/pipeline.hh"
#include "faults/campaign_engine.hh"
#include "faults/injector.hh"
#include "isa/assembler.hh"
#include "isa/encoding.hh"

using namespace ser;
using namespace ser::faults;

namespace
{

struct InjRun
{
    isa::Program program;
    cpu::SimTrace trace;
    std::vector<std::uint64_t> golden;

    /** A campaign against this run. */
    CampaignOutcome campaign(const CampaignSpec &spec) const
    {
        avf::DeadnessResult dead = avf::analyzeDeadness(trace);
        avf::AvfResult folded = avf::computeAvf(trace, dead);
        return runCampaignEngine(program, trace, dead, folded, spec);
    }
};

InjRun
makeRun(const std::string &src)
{
    InjRun r;
    r.program = isa::assembleOrDie(src);
    isa::Executor golden(r.program);
    EXPECT_EQ(golden.run(3000000), isa::Termination::Halted);
    r.golden = golden.state().output();

    cpu::PipelineParams params;
    params.maxInsts = 3000000;
    cpu::InOrderPipeline pipe(r.program, params);
    r.trace = pipe.run();
    r.trace.program = &r.program;
    return r;
}

} // namespace

TEST(ResidencyIndex, FindsOccupantsByEntryAndCycle)
{
    InjRun r = makeRun(R"(
        movi r4 = 1
        movi r5 = 2
        add r6 = r4, r5
        out r6
        halt
    )");
    ResidencyIndex index(r.trace);
    for (std::size_t i = 0; i < r.trace.incarnations.size(); ++i) {
        const cpu::IncarnationRecord inc = r.trace.incarnations[i];
        const std::int64_t found =
            index.find(inc.iqEntry, inc.enqueueCycle);
        ASSERT_NE(found, ResidencyIndex::noIncarnation);
        EXPECT_EQ(r.trace
                      .incarnations[static_cast<std::size_t>(found)]
                      .staticIdx,
                  inc.staticIdx);
        // Outside the residency: either empty or someone else.
        const std::int64_t after =
            index.find(inc.iqEntry, inc.evictCycle);
        if (after != ResidencyIndex::noIncarnation) {
            EXPECT_NE(after, found);
        }
    }
    EXPECT_EQ(index.find(0, 1u << 30),
              ResidencyIndex::noIncarnation);
}

TEST(Injector, IdleEntryIsBenign)
{
    InjRun r = makeRun("movi r4 = 1\nout r4\nhalt\n");
    FaultInjector inj(r.program, r.trace, r.golden);
    // An entry far beyond what this tiny program uses.
    FaultSite site{50, 5, r.trace.endCycle - 1};
    Verdict verdict = inj.classify(site);
    EXPECT_EQ(verdict.residency, -1);
    EXPECT_EQ(label(verdict, Protection::Parity), Outcome::BenignNoBit);
}

TEST(Injector, AceBitIsSdcOrTrueDue)
{
    InjRun r = makeRun("movi r4 = 57\nout r4\nhalt\n");
    FaultInjector inj(r.program, r.trace, r.golden);
    // Find the movi's committed residency and strike an imm bit
    // before its read.
    for (const auto &inc : r.trace.incarnations) {
        if (inc.staticIdx != 0 || !(inc.flags & cpu::incCommitted))
            continue;
        ASSERT_NE(inc.issueCycle, cpu::noCycle32);
        ASSERT_GT(inc.issueCycle, inc.enqueueCycle);
        FaultSite site{inc.iqEntry, 0, inc.enqueueCycle};
        Verdict verdict = inj.classify(site);
        EXPECT_EQ(label(verdict, Protection::None), Outcome::Sdc);
        EXPECT_EQ(label(verdict, Protection::Parity), Outcome::TrueDue);
        return;
    }
    FAIL() << "movi residency not found";
}

TEST(Injector, DeadInstructionImmBitIsBenignOrFalseDue)
{
    InjRun r = makeRun(R"(
        movi r4 = 1
        movi r4 = 2
        out r4
        halt
    )");
    FaultInjector inj(r.program, r.trace, r.golden);
    for (const auto &inc : r.trace.incarnations) {
        if (inc.staticIdx != 0 || !(inc.flags & cpu::incCommitted))
            continue;
        FaultSite site{inc.iqEntry, 3, inc.enqueueCycle};
        EXPECT_EQ(label(inj.classify(site), Protection::None),
                  Outcome::BenignNoError);
        EXPECT_EQ(label(inj.classify(site), Protection::Parity),
                  Outcome::FalseDue);
        return;
    }
    FAIL() << "residency not found";
}

TEST(Injector, ExAcePhaseIsNotRead)
{
    InjRun r = makeRun("movi r4 = 57\nout r4\nhalt\n");
    FaultInjector inj(r.program, r.trace, r.golden);
    for (const auto &inc : r.trace.incarnations) {
        if (!(inc.flags & cpu::incCommitted))
            continue;
        if (inc.issueCycle + 1 >= inc.evictCycle)
            continue;
        FaultSite site{inc.iqEntry, 0, inc.issueCycle};
        EXPECT_EQ(label(inj.classify(site), Protection::Parity),
                  Outcome::BenignNotRead);
        return;
    }
    FAIL() << "no post-read residency found";
}

TEST(Injector, PiBitStrikeIsFalseDue)
{
    InjRun r = makeRun("movi r4 = 1\nout r4\nhalt\n");
    FaultInjector inj(r.program, r.trace, r.golden);
    for (const auto &inc : r.trace.incarnations) {
        if (!(inc.flags & cpu::incCommitted))
            continue;
        FaultSite site{inc.iqEntry,
                       static_cast<std::uint8_t>(piBit),
                       inc.enqueueCycle};
        EXPECT_EQ(label(inj.classify(site), Protection::Parity),
                  Outcome::FalseDue);
        return;
    }
}

TEST(Injector, ParityBitStrikeIsFalseDueOnlyWithParity)
{
    InjRun r = makeRun("movi r4 = 1\nout r4\nhalt\n");
    FaultInjector inj(r.program, r.trace, r.golden);
    for (const auto &inc : r.trace.incarnations) {
        if (!(inc.flags & cpu::incCommitted))
            continue;
        if (inc.issueCycle <= inc.enqueueCycle)
            continue;
        FaultSite site{inc.iqEntry,
                       static_cast<std::uint8_t>(parityBit),
                       inc.enqueueCycle};
        EXPECT_EQ(label(inj.classify(site), Protection::Parity),
                  Outcome::FalseDue);
        EXPECT_EQ(label(inj.classify(site), Protection::None),
                  Outcome::BenignNoBit);
        return;
    }
}

TEST(Wilson, KnownValuesAndBounds)
{
    Interval i = wilson(0, 0);
    EXPECT_DOUBLE_EQ(i.lo, 0.0);
    EXPECT_DOUBLE_EQ(i.hi, 1.0);

    i = wilson(50, 100);
    EXPECT_GT(i.lo, 0.40);
    EXPECT_LT(i.hi, 0.60);
    EXPECT_LT(i.lo, 0.5);
    EXPECT_GT(i.hi, 0.5);

    i = wilson(0, 100);
    EXPECT_DOUBLE_EQ(i.lo, 0.0);
    EXPECT_LT(i.hi, 0.05);
}

TEST(Campaign, OutcomeCountsSumToSamples)
{
    InjRun r = makeRun(R"(
        movi r2 = 17
        movi r4 = 100
        loop:
        mul r2 = r2, r2
        addi r2 = r2, 13
        movi r5 = 1
        movi r5 = 2
        addi r4 = r4, -1
        cmplt p3 = r0, r4
        (p3) br loop
        out r2
        out r5
        halt
    )");
    CampaignSpec spec;
    spec.samples = 300;
    spec.protection = Protection::Parity;
    CampaignOutcome out = r.campaign(spec);
    ASSERT_EQ(out.structures.size(), 1u);
    std::uint64_t sum = 0;
    for (auto c : out.structures[0].tally.counts)
        sum += c;
    EXPECT_EQ(sum, spec.samples);
    EXPECT_EQ(out.sites.size(), spec.samples);
    EXPECT_FALSE(out.summary().empty());
}

TEST(Campaign, InjectionRatesRespectAnalyticalBounds)
{
    // The ACE analysis is conservative: measured SDC from injection
    // must not exceed the analytical SDC AVF (modulo sampling
    // noise), and both must be nontrivial for this ACE-heavy
    // program.
    InjRun r = makeRun(R"(
        movi r2 = 17
        movi r4 = 400
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
    )");
    avf::DeadnessResult dead = avf::analyzeDeadness(r.trace);
    avf::AvfResult avf = avf::computeAvf(r.trace, dead);

    CampaignSpec spec;
    spec.samples = 600;
    spec.protection = Protection::None;
    const CampaignResult res = r.campaign(spec).structures[0].tally;

    Interval sdc_ci = res.interval(Outcome::Sdc);
    EXPECT_LT(sdc_ci.lo, avf.sdcAvf() + 0.02)
        << "injection SDC " << res.sdcRate() << " vs analytical "
        << avf.sdcAvf();
    EXPECT_GT(res.sdcRate(), 0.0);

    spec.protection = Protection::Parity;
    const CampaignResult pres = r.campaign(spec).structures[0].tally;
    EXPECT_EQ(pres.count(Outcome::Sdc), 0u);
    Interval due_ci = pres.interval(Outcome::TrueDue);
    EXPECT_LT(due_ci.lo, avf.trueDueAvf() + 0.02);
    EXPECT_GT(pres.dueRate(), 0.0);
}
