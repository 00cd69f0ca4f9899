/**
 * @file
 * Tests for the paper's contribution library: trigger policies,
 * tracking levels, the PET buffer (operational and analytical), the
 * pi-bit machine, and the false-DUE coverage analysis — including
 * the key property that the operational pi-bit propagation agrees
 * exactly with the analytical deadness classification at every
 * tracking level.
 */

#include <gtest/gtest.h>

#include "avf/deadness.hh"
#include "core/due_tracker.hh"
#include "core/pet_buffer.hh"
#include "core/pi_machine.hh"
#include "core/tracking.hh"
#include "core/trigger.hh"
#include "cpu/pipeline.hh"
#include "isa/assembler.hh"
#include "workloads/random_program.hh"

using namespace ser;
using namespace ser::core;

TEST(Trigger, LevelsFireOnTheRightMisses)
{
    using memory::HitLevel;
    MissTriggerPolicy l0(TriggerLevel::L0Miss, TriggerAction::Squash);
    MissTriggerPolicy l1(TriggerLevel::L1Miss, TriggerAction::Squash);
    MissTriggerPolicy none(TriggerLevel::None, TriggerAction::Squash);

    auto fires = [](MissTriggerPolicy &p, HitLevel lvl) {
        return p.onLoadServiced(lvl, 10, 100).squash;
    };
    EXPECT_FALSE(fires(l0, HitLevel::L0));
    EXPECT_TRUE(fires(l0, HitLevel::L1));
    EXPECT_TRUE(fires(l0, HitLevel::Memory));
    EXPECT_FALSE(fires(l1, HitLevel::L1));
    EXPECT_TRUE(fires(l1, HitLevel::L2));
    EXPECT_TRUE(fires(l1, HitLevel::Memory));
    EXPECT_FALSE(fires(none, HitLevel::Memory));
}

TEST(Trigger, NoActionWhenFillAlreadyBack)
{
    MissTriggerPolicy l1(TriggerLevel::L1Miss, TriggerAction::Squash);
    auto d = l1.onLoadServiced(memory::HitLevel::Memory, 100, 90);
    EXPECT_FALSE(d.squash);
}

TEST(Trigger, ThrottleReturnsFillCycle)
{
    MissTriggerPolicy p(TriggerLevel::L0Miss,
                        TriggerAction::Throttle);
    auto d = p.onLoadServiced(memory::HitLevel::L2, 10, 150);
    EXPECT_FALSE(d.squash);
    EXPECT_EQ(d.throttleUntilCycle, 150u);

    MissTriggerPolicy both(TriggerLevel::L0Miss,
                           TriggerAction::SquashThrottle);
    auto d2 = both.onLoadServiced(memory::HitLevel::L2, 10, 150);
    EXPECT_TRUE(d2.squash);
    EXPECT_EQ(d2.throttleUntilCycle, 150u);
}

TEST(Trigger, FactoryParsesConfigStrings)
{
    auto p = makeTriggerPolicy("l1", "both");
    EXPECT_EQ(p->level(), TriggerLevel::L1Miss);
    EXPECT_EQ(p->action(), TriggerAction::SquashThrottle);
}

TEST(Tracking, CoverageIsCumulative)
{
    using avf::UnAceSource;
    for (int s = 0; s < avf::numUnAceSources; ++s) {
        auto source = static_cast<UnAceSource>(s);
        bool covered_before = false;
        for (int l = 0; l < numTrackingLevels; ++l) {
            bool c = coversSource(static_cast<TrackingLevel>(l),
                                  source);
            EXPECT_TRUE(!covered_before || c)
                << "coverage must be monotone: source " << s
                << " level " << l;
            covered_before = covered_before || c;
        }
        EXPECT_TRUE(coversSource(TrackingLevel::PiMemory, source));
    }
    EXPECT_FALSE(coversSource(TrackingLevel::None,
                              UnAceSource::WrongPath));
    EXPECT_TRUE(coversSource(TrackingLevel::PiToCommit,
                             UnAceSource::PredFalse));
    EXPECT_FALSE(coversSource(TrackingLevel::PetBuffer,
                              UnAceSource::FddReg));
    EXPECT_TRUE(coversSource(TrackingLevel::PiStoreBuffer,
                             UnAceSource::TddReg));
}

TEST(Tracking, AttributionPrecision)
{
    // Section 4.3.3: the PET buffer still names the offending
    // instruction; the pi-bit-everywhere schemes do not.
    EXPECT_TRUE(preciseAttribution(TrackingLevel::PetBuffer));
    EXPECT_FALSE(preciseAttribution(TrackingLevel::PiRegFile));
}

// ---------------------------------------------------------------

namespace
{

PetEntry
entry(std::uint64_t seq, const char *text, bool pi = false)
{
    isa::Program p = isa::assembleOrDie(std::string(text) + "\n");
    PetEntry e;
    e.seq = seq;
    e.inst = p.inst(0);
    e.qpTrue = true;
    e.pi = pi;
    return e;
}

} // namespace

TEST(PetBuffer, ProvesOverwriteBeforeReadDead)
{
    PetBuffer pet(4);
    // Poisoned def of r4, overwritten before any read.
    EXPECT_FALSE(pet.retire(entry(0, "movi r4 = 1", true)));
    EXPECT_FALSE(pet.retire(entry(1, "movi r5 = 2")));
    EXPECT_FALSE(pet.retire(entry(2, "movi r4 = 3")));
    EXPECT_FALSE(pet.retire(entry(3, "movi r6 = 4")));
    auto ev = pet.retire(entry(4, "movi r7 = 5"));
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->seq, 0u);
    EXPECT_TRUE(ev->provenDead);
    EXPECT_FALSE(ev->signalled);
}

TEST(PetBuffer, SignalsWhenReadIntervenes)
{
    PetBuffer pet(4);
    pet.retire(entry(0, "movi r4 = 1", true));
    pet.retire(entry(1, "addi r5 = r4, 1"));  // reads r4
    pet.retire(entry(2, "movi r4 = 3"));
    pet.retire(entry(3, "nop"));
    auto ev = pet.retire(entry(4, "nop"));
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->signalled);
}

TEST(PetBuffer, ReadAndOverwriteInSameInstructionCountsAsRead)
{
    PetBuffer pet(2);
    pet.retire(entry(0, "movi r4 = 1", true));
    pet.retire(entry(1, "addi r4 = r4, 1"));
    auto ev = pet.retire(entry(2, "nop"));
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->signalled);
}

TEST(PetBuffer, QpReadCountsAsRead)
{
    PetBuffer pet(3);
    pet.retire(entry(0, "cmpieq p3 = r4, 0", true));
    auto nullified = entry(1, "(p3) addi r5 = r5, 1");
    nullified.qpTrue = false;  // still consults p3
    pet.retire(nullified);
    pet.retire(entry(2, "cmpieq p3 = r4, 1"));
    // Entry 0 is evicted here; the scan sees the qp read before the
    // overwrite and must signal.
    auto ev = pet.retire(entry(3, "nop"));
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->seq, 0u);
    EXPECT_TRUE(ev->signalled);
}

TEST(PetBuffer, NoOverwriteInWindowCannotProve)
{
    PetBuffer pet(2);
    pet.retire(entry(0, "movi r4 = 1", true));
    pet.retire(entry(1, "nop"));
    auto ev = pet.retire(entry(2, "nop"));
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->signalled);  // cannot prove: must signal
}

TEST(PetBuffer, MemoryModeProvesDeadStores)
{
    PetBuffer pet(4, true);
    auto st = entry(0, "st8 [r5, 0] = r4", true);
    st.memAddr = 0x1000;
    pet.retire(st);
    auto st2 = entry(1, "st8 [r5, 0] = r6");
    st2.memAddr = 0x1000;
    pet.retire(st2);
    pet.retire(entry(2, "nop"));
    pet.retire(entry(3, "nop"));
    auto ev = pet.retire(entry(4, "nop"));
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->provenDead);
}

TEST(PetBuffer, DrainResolvesRemainingEntries)
{
    PetBuffer pet(8);
    pet.retire(entry(0, "movi r4 = 1", true));
    pet.retire(entry(1, "movi r4 = 2"));
    auto evs = pet.drain();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_TRUE(evs[0].provenDead);
}

TEST(PetCoverage, GrowsWithBufferSize)
{
    avf::DeadnessResult d;
    // Five FDD-reg defs with overwrite distances 10..50.
    std::vector<avf::DeadKind> kind;
    std::vector<std::uint32_t> dist;
    for (std::uint32_t i = 0; i < 5; ++i) {
        kind.push_back(avf::DeadKind::FddReg);
        dist.push_back((i + 1) * 10);
    }
    kind.push_back(avf::DeadKind::FddMem);
    dist.push_back(25);
    d.kind = std::move(kind);
    d.overwriteDist = std::move(dist);
    // Defs 3 and 4 die across a return.
    d.returnFddWords = std::vector<std::uint64_t>{0b011000};

    PetCoverage small = petCoverage(d, 15);
    EXPECT_EQ(small.coveredNonReturn, 1u);
    EXPECT_EQ(small.coveredReturn, 0u);
    EXPECT_EQ(small.coveredMem, 0u);

    PetCoverage big = petCoverage(d, 100);
    EXPECT_EQ(big.coveredNonReturn, 3u);
    EXPECT_EQ(big.coveredReturn, 2u);
    EXPECT_EQ(big.coveredMem, 1u);
    EXPECT_GE(big.fracAll(), small.fracAll());
}

// ---------------------------------------------------------------

namespace
{

/** Run a program through the pipeline and return trace+deadness. */
struct Ctx
{
    isa::Program program;
    cpu::SimTrace trace;
    avf::DeadnessResult deadness;
};

Ctx
makeCtx(const isa::Program &program)
{
    Ctx c;
    c.program = program;
    cpu::PipelineParams params;
    params.maxInsts = 2000000;
    cpu::InOrderPipeline pipe(c.program, params);
    c.trace = pipe.run();
    c.trace.program = &c.program;
    c.deadness = avf::analyzeDeadness(c.trace);
    return c;
}

Ctx
makeCtx(const std::string &src)
{
    return makeCtx(isa::assembleOrDie(src));
}

} // namespace

TEST(PiMachine, SignalsAtDetectionWithPlainParity)
{
    Ctx c = makeCtx("movi r4 = 1\nout r4\nhalt\n");
    PiMachine m(c.trace, TrackingLevel::None);
    auto out = m.run(0);
    EXPECT_TRUE(out.signalled);
    EXPECT_EQ(out.point, PiSignalPoint::AtDetection);
}

TEST(PiMachine, PredicatedFalseSuppressedFromCommitOn)
{
    Ctx c = makeCtx(R"(
        movi r4 = 5
        cmpieq p2 = r4, 99
        (p2) addi r5 = r5, 1
        out r5
        halt
    )");
    PiMachine m(c.trace, TrackingLevel::PiToCommit);
    EXPECT_FALSE(m.run(2).signalled);  // the nullified add
    EXPECT_TRUE(m.run(0).signalled);   // a live movi signals
}

TEST(PiMachine, AntiPiSuppressesNeutral)
{
    Ctx c = makeCtx("nop\nprefetch [r0, 64]\nhint\nout r0\nhalt\n");
    PiMachine commit_only(c.trace, TrackingLevel::PiToCommit);
    PiMachine anti(c.trace, TrackingLevel::AntiPi);
    for (std::uint64_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(commit_only.run(i).signalled);
        EXPECT_FALSE(anti.run(i).signalled);
    }
}

TEST(PiMachine, PetDefersAndProves)
{
    Ctx c = makeCtx(R"(
        movi r4 = 1
        movi r4 = 2
        out r4
        halt
    )");
    PiMachine pet(c.trace, TrackingLevel::PetBuffer, 16);
    EXPECT_FALSE(pet.run(0).signalled);  // proven FDD
    auto live = pet.run(1);
    EXPECT_TRUE(live.signalled);  // its value reaches out
}

TEST(PiMachine, RegFileTracksReadsAndOverwrites)
{
    Ctx c = makeCtx(R"(
        movi r4 = 1
        movi r5 = 2
        add r6 = r4, r5
        movi r4 = 3
        out r6
        halt
    )");
    PiMachine m(c.trace, TrackingLevel::PiRegFile);
    auto read = m.run(0);  // r4 read by the add
    EXPECT_TRUE(read.signalled);
    EXPECT_EQ(read.point, PiSignalPoint::AtRegisterRead);
    EXPECT_EQ(read.signalSeq, 2u);

    Ctx c2 = makeCtx(R"(
        movi r4 = 1
        movi r4 = 2
        out r4
        halt
    )");
    PiMachine m2(c2.trace, TrackingLevel::PiRegFile);
    EXPECT_FALSE(m2.run(0).signalled);  // overwritten unread
}

TEST(PiMachine, StoreBufferLevelSignalsAtStoreOrOutput)
{
    Ctx c = makeCtx(R"(
        movi r5 = 0x4000
        movi r4 = 7
        addi r6 = r4, 1
        st8 [r5, 0] = r6
        halt
    )");
    PiMachine m(c.trace, TrackingLevel::PiStoreBuffer);
    auto out = m.run(1);  // r4 -> r6 -> store data
    EXPECT_TRUE(out.signalled);
    EXPECT_EQ(out.point, PiSignalPoint::AtStoreCommit);
    EXPECT_EQ(out.signalSeq, 3u);

    // A chain that dies in registers is suppressed at this level.
    Ctx c2 = makeCtx(R"(
        movi r4 = 7
        addi r6 = r4, 1
        movi r6 = 0
        out r6
        halt
    )");
    PiMachine m2(c2.trace, TrackingLevel::PiStoreBuffer);
    EXPECT_FALSE(m2.run(0).signalled);
}

TEST(PiMachine, MemoryLevelFollowsPiThroughMemory)
{
    // The poisoned value goes to memory, is loaded back, and
    // reaches the output: must signal at the out.
    Ctx c = makeCtx(R"(
        movi r5 = 0x4000
        movi r4 = 7
        st8 [r5, 0] = r4
        ld8 r6 = [r5, 0]
        out r6
        halt
    )");
    PiMachine m(c.trace, TrackingLevel::PiMemory);
    auto out = m.run(1);
    EXPECT_TRUE(out.signalled);
    EXPECT_EQ(out.point, PiSignalPoint::AtOutput);

    // A dead store's pi dies with the overwrite: 100% coverage of
    // FDD via memory.
    Ctx c2 = makeCtx(R"(
        movi r5 = 0x4000
        movi r4 = 7
        st8 [r5, 0] = r4
        st8 [r5, 0] = r0
        ld8 r6 = [r5, 0]
        out r6
        halt
    )");
    PiMachine m2(c2.trace, TrackingLevel::PiMemory);
    EXPECT_FALSE(m2.run(2).signalled);  // the dead store
    EXPECT_FALSE(m2.run(1).signalled);  // its data producer (TddMem)
}

TEST(PiMachine, PoisonedPredicateSignals)
{
    Ctx c = makeCtx(R"(
        movi r4 = 5
        cmpieq p2 = r4, 5
        (p2) addi r5 = r5, 1
        out r5
        halt
    )");
    PiMachine m(c.trace, TrackingLevel::PiStoreBuffer);
    auto out = m.run(1);  // the compare's predicate is consulted
    EXPECT_TRUE(out.signalled);
    EXPECT_EQ(out.point, PiSignalPoint::AtPredicate);
}

TEST(PiMachine, ControlConsumersSignal)
{
    Ctx c = makeCtx(R"(
            movi r7 = target
            bri r7
            halt
        target:
            out r0
            halt
    )");
    PiMachine m(c.trace, TrackingLevel::PiMemory);
    auto out = m.run(0);  // poisons r7, consumed by bri
    EXPECT_TRUE(out.signalled);
    EXPECT_EQ(out.point, PiSignalPoint::AtControl);
}

/**
 * The central property: operational pi-bit tracking agrees with the
 * analytical deadness classification on every committed instruction.
 */
class PiDeadnessEquivalence
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PiDeadnessEquivalence, SuppressionMatchesDeadness)
{
    Ctx c = makeCtx(workloads::randomProgram(GetParam()));
    ASSERT_TRUE(c.trace.programHalted);

    PiMachine reg_file(c.trace, TrackingLevel::PiRegFile);
    PiMachine store_buf(c.trace, TrackingLevel::PiStoreBuffer);
    PiMachine mem(c.trace, TrackingLevel::PiMemory);

    for (std::uint64_t i = 0; i < c.trace.commits.size(); ++i) {
        const auto &cr = c.trace.commits[i];
        const isa::StaticInst &inst = c.program.inst(cr.staticIdx);
        if (!cr.qpTrue || inst.isNeutral())
            continue;  // covered by earlier levels
        auto kind = c.deadness.kind[i];

        // Pi-on-memory achieves exactly "signal iff live".
        EXPECT_EQ(mem.run(i).signalled, kind == avf::DeadKind::Live)
            << "seq " << i << " (" << inst.toString() << ") kind "
            << avf::deadKindName(kind);

        // Pi-to-store-buffer: suppression == dead via registers.
        bool reg_dead = kind == avf::DeadKind::FddReg ||
                        kind == avf::DeadKind::TddReg;
        EXPECT_EQ(!store_buf.run(i).signalled, reg_dead)
            << "seq " << i << " (" << inst.toString() << ") kind "
            << avf::deadKindName(kind);

        // Pi-per-register: suppression == first-level dead via regs.
        EXPECT_EQ(!reg_file.run(i).signalled,
                  kind == avf::DeadKind::FddReg)
            << "seq " << i << " (" << inst.toString() << ") kind "
            << avf::deadKindName(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, PiDeadnessEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21,
                                           34));

// ---------------------------------------------------------------

TEST(DueTracker, ResidualIsMonotoneAndReachesZero)
{
    avf::AvfResult avf;
    avf.totalBitCycles = 1000000;
    avf.ace = 200000;
    for (int s = 0; s < avf::numUnAceSources; ++s)
        avf.unAceRead[s] = 30000 + 1000 * s;
    const std::uint64_t fdd =
        avf.unAceRead[static_cast<int>(avf::UnAceSource::FddReg)];
    avf.fddBitCycles =
        std::vector<std::uint64_t>{fdd / 2, fdd - fdd / 2};
    avf.fddOverwriteDist = std::vector<std::uint32_t>{100, 100000};

    FalseDueAnalysis fda = analyzeFalseDue(avf, 512);
    double prev = fda.baseFalseDueAvf + 1;
    for (int l = 0; l < numTrackingLevels; ++l) {
        EXPECT_LE(fda.residualFalseDue[l], prev + 1e-12);
        prev = fda.residualFalseDue[l];
    }
    EXPECT_NEAR(
        fda.residualFalseDue[static_cast<int>(
            TrackingLevel::PiMemory)],
        0.0, 1e-12);
    EXPECT_NEAR(fda.coveredFraction(TrackingLevel::PiMemory), 1.0,
                1e-12);
    // The PET level sits between anti-pi and pi-reg-file.
    double pet =
        fda.residualFalseDue[static_cast<int>(
            TrackingLevel::PetBuffer)];
    double anti = fda.residualFalseDue[static_cast<int>(
        TrackingLevel::AntiPi)];
    double regf = fda.residualFalseDue[static_cast<int>(
        TrackingLevel::PiRegFile)];
    EXPECT_LE(pet, anti);
    EXPECT_GE(pet, regf);
}

TEST(DueTracker, PetCoverageWeightsByBitCycles)
{
    avf::AvfResult avf;
    avf.totalBitCycles = 1000;
    avf.fddBitCycles = std::vector<std::uint64_t>{100, 200, 50};
    avf.fddOverwriteDist =
        std::vector<std::uint32_t>{10, 1000, avf::noOverwrite};
    EXPECT_EQ(petCoveredBitCycles(avf, 512), 100u);
    EXPECT_EQ(petCoveredBitCycles(avf, 2000), 300u);
}
