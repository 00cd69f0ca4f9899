/**
 * @file
 * Tests for the register-file AVF extension and a second wave of
 * edge-case unit tests across the stack (executor op coverage,
 * assembler corner cases, pipeline corner configurations, harness
 * ownership semantics).
 */

#include <gtest/gtest.h>

#include "avf/avf.hh"
#include "avf/regfile_avf.hh"
#include "core/tracked_injection.hh"
#include "cpu/pipeline.hh"
#include "harness/experiment.hh"
#include "isa/assembler.hh"
#include "isa/encoding.hh"
#include "isa/executor.hh"
#include "workloads/random_program.hh"

using namespace ser;

namespace
{

struct Ctx
{
    isa::Program program;
    cpu::SimTrace trace;
    avf::DeadnessResult deadness;
};

Ctx
makeCtx(const std::string &src, std::uint64_t warmup_insts = 0)
{
    Ctx c;
    c.program = isa::assembleOrDie(src);
    cpu::PipelineParams params;
    params.maxInsts = 2000000;
    cpu::InOrderPipeline pipe(c.program, params);
    pipe.setWarmupInsts(warmup_insts);
    c.trace = pipe.run();
    c.trace.program = &c.program;
    c.deadness = avf::analyzeDeadness(c.trace);
    return c;
}

} // namespace

TEST(RegFileAvf, LiveValueChargesAceUntilLastRead)
{
    Ctx c = makeCtx(R"(
        movi r4 = 7
        nop
        nop
        nop
        addi r5 = r4, 1
        out r5
        halt
    )");
    auto rf = avf::computeRegFileAvf(c.trace, c.deadness);
    // r4 is live from its def to the addi's read; r5 from its def
    // to the out.
    EXPECT_GT(rf.intFile.ace, 0u);
    EXPECT_GT(rf.intFile.sdcAvf(), 0.0);
    EXPECT_LT(rf.intFile.sdcAvf(), 0.2);  // 2 regs of 64, short run
}

TEST(RegFileAvf, DeadValuesAreRemovable)
{
    Ctx c = makeCtx(R"(
        movi r4 = 7
        nop
        nop
        nop
        nop
        nop
        movi r4 = 8
        out r4
        halt
    )");
    auto rf = avf::computeRegFileAvf(c.trace, c.deadness);
    EXPECT_GT(rf.intFile.deadValue, 0u);
    EXPECT_GT(rf.intFile.falseDueAvf(), 0.0);
}

TEST(RegFileAvf, ClassesTileTheFile)
{
    Ctx c = makeCtx(R"(
        movi r4 = 1
        movi r5 = 2
        add r6 = r4, r5
        movi r4 = 9
        out r6
        halt
    )");
    auto rf = avf::computeRegFileAvf(c.trace, c.deadness);
    for (const avf::RegFileAvf *f :
         {&rf.intFile, &rf.fpFile, &rf.predFile}) {
        EXPECT_EQ(f->ace + f->exAce + f->deadValue + f->unwritten,
                  f->totalBitCycles);
    }
    // No fp activity at all in this program.
    EXPECT_EQ(rf.fpFile.ace, 0u);
    EXPECT_EQ(rf.fpFile.unwritten, rf.fpFile.totalBitCycles);
}

TEST(RegFileAvf, PredicateFileIsOneBitWide)
{
    Ctx c = makeCtx(R"(
        movi r4 = 1
        cmpieq p2 = r4, 1
        (p2) out r4
        halt
    )");
    auto rf = avf::computeRegFileAvf(c.trace, c.deadness);
    EXPECT_EQ(rf.predFile.bitsPerReg, 1u);
    EXPECT_GT(rf.predFile.ace, 0u);  // p2 read as a qp
}

// The fold charges only the measurement window, as the IQ fold and
// the campaign's sampler do: r4 is defined and last read inside a
// two-instruction warm-up, so none of its residency is ACE.
TEST(RegFileAvf, WarmupWindowsChargeNothing)
{
    std::string src = "movi r4 = 7\nout r4\n";
    for (int i = 0; i < 40; ++i)
        src += "nop\n";
    src += "halt\n";
    Ctx c = makeCtx(src, 2);
    ASSERT_GT(c.trace.startCycle, 0u);
    auto rf = avf::computeRegFileAvf(c.trace, c.deadness);
    EXPECT_EQ(rf.intFile.ace, 0u);
    EXPECT_EQ(rf.intFile.ace + rf.intFile.exAce +
                  rf.intFile.deadValue + rf.intFile.unwritten,
              rf.intFile.totalBitCycles);
}

TEST(RegFileAvf, RandomProgramsTile)
{
    for (std::uint64_t seed : {4u, 17u, 51u}) {
        isa::Program program = workloads::randomProgram(seed);
        cpu::PipelineParams params;
        params.maxInsts = 2000000;
        cpu::InOrderPipeline pipe(program, params);
        cpu::SimTrace trace = pipe.run();
        trace.program = &program;
        auto dead = avf::analyzeDeadness(trace);
        auto rf = avf::computeRegFileAvf(trace, dead);
        for (const avf::RegFileAvf *f :
             {&rf.intFile, &rf.fpFile, &rf.predFile}) {
            EXPECT_EQ(
                f->ace + f->exAce + f->deadValue + f->unwritten,
                f->totalBitCycles)
                << "seed " << seed;
        }
    }
}

// ---------------------------------------------------------------

TEST(Harness, ArtifactsOwnTheirProgram)
{
    harness::RunArtifacts r;
    {
        harness::ExperimentConfig cfg;
        cfg.dynamicTarget = 5000;
        cfg.warmupInsts = 0;
        r = harness::runBenchmark("art", cfg);
    }
    // The trace's program pointer must still be valid (owned).
    ASSERT_NE(r.trace->program, nullptr);
    EXPECT_GT(r.trace->program->size(), 0u);
    auto rf = avf::computeRegFileAvf(*r.trace, *r.deadness);
    EXPECT_GT(rf.intFile.totalBitCycles, 0u);
}

// ---------------------------------------------------------------

namespace
{

std::vector<std::uint64_t>
runSrc(const std::string &src)
{
    isa::Program p = isa::assembleOrDie(src);
    isa::Executor ex(p);
    EXPECT_EQ(ex.run(100000), isa::Termination::Halted);
    return ex.state().output();
}

} // namespace

TEST(ExecutorMore, BitwiseAndShiftImmediates)
{
    auto out = runSrc(R"(
        movi r2 = 0xF0F0
        movi r3 = 0x0FF0
        andc r4 = r2, r3
        out r4
        andi r4 = r2, 0xFF
        out r4
        ori r4 = r2, 0xF
        out r4
        xori r4 = r2, 0xFFFF
        out r4
        shli r4 = r2, 4
        out r4
        shri r4 = r2, 4
        out r4
        cmpltu p2 = r3, r2
        (p2) movi r5 = 1
        out r5
        cmple p3 = r2, r2
        (p3) movi r6 = 2
        out r6
        halt
    )");
    ASSERT_EQ(out.size(), 8u);
    EXPECT_EQ(out[0], 0xF000u);
    EXPECT_EQ(out[1], 0xF0u);
    EXPECT_EQ(out[2], 0xF0FFu);
    EXPECT_EQ(out[3], 0x0F0Fu);
    EXPECT_EQ(out[4], 0xF0F00u);
    EXPECT_EQ(out[5], 0xF0Fu);
    EXPECT_EQ(out[6], 1u);
    EXPECT_EQ(out[7], 2u);
}

TEST(ExecutorMore, FoutAndFpCompare)
{
    auto out = runSrc(R"(
        movi r2 = 2
        i2f f2 = r2
        movi r3 = 3
        i2f f3 = r3
        fcmplt p2 = f2, f3
        (p2) movi r4 = 1
        out r4
        fcmpeq p3 = f2, f2
        (p3) movi r5 = 1
        out r5
        fsub f4 = f3, f2
        fout f4
        halt
    )");
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 1u);
    EXPECT_EQ(out[1], 1u);
    EXPECT_EQ(out[2], std::bit_cast<std::uint64_t>(1.0));
}

TEST(ExecutorMore, PredicatedMemoryOpsAreNullified)
{
    auto out = runSrc(R"(
        movi r5 = 0x5000
        movi r4 = 77
        st8 [r5, 0] = r4
        cmpieq p2 = r4, 0
        (p2) st8 [r5, 0] = r0
        ld8 r6 = [r5, 0]
        out r6
        halt
    )");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 77u);  // the nullified store wrote nothing
}

TEST(ExecutorMore, NegativeImmediatesAndOffsets)
{
    auto out = runSrc(R"(
        movi r2 = -5
        addi r3 = r2, -10
        out r3
        movi r5 = 0x5010
        movi r4 = 42
        st8 [r5, -16] = r4
        ld8 r6 = [r5, -16]
        out r6
        halt
    )");
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(static_cast<std::int64_t>(out[0]), -15);
    EXPECT_EQ(out[1], 42u);
}

TEST(AssemblerMore, EmptyAndLabelOnlyPrograms)
{
    auto empty = isa::assemble("");
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty.program.size(), 0u);

    auto labels = isa::assemble("a:\nb:\n    halt\n");
    ASSERT_TRUE(labels.ok());
    EXPECT_EQ(labels.program.labelIndex("a"), 0u);
    EXPECT_EQ(labels.program.labelIndex("b"), 0u);
}

TEST(AssemblerMore, CommentsEverywhere)
{
    auto r = isa::assemble(R"(
        // leading comment
        # hash comment
        nop // trailing
        halt # trailing hash
    )");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.program.size(), 2u);
}

TEST(AssemblerMore, ImmediateBoundaries)
{
    auto ok = isa::assemble("movi r2 = 2147483647\n"
                            "movi r3 = -2147483648\nhalt\n");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.program.inst(0).imm(), 2147483647);
    auto too_big = isa::assemble("movi r2 = 2147483648\nhalt\n");
    EXPECT_FALSE(too_big.ok());
}

// ---------------------------------------------------------------

TEST(PipelineMore, TinyQueueStillCorrect)
{
    isa::Program program = workloads::randomProgram(99);
    isa::Executor golden(program);
    ASSERT_EQ(golden.run(2000000), isa::Termination::Halted);

    cpu::PipelineParams params;
    params.maxInsts = 2000000;
    params.iqEntries = 8;
    cpu::InOrderPipeline pipe(program, params);
    cpu::SimTrace trace = pipe.run();
    EXPECT_EQ(trace.commits.size(), golden.steps());
    EXPECT_EQ(pipe.archState().output(), golden.state().output());
}

TEST(PipelineMore, NarrowMachineStillCorrect)
{
    isa::Program program = workloads::randomProgram(123);
    isa::Executor golden(program);
    ASSERT_EQ(golden.run(2000000), isa::Termination::Halted);

    cpu::PipelineParams params;
    params.maxInsts = 2000000;
    params.fetchWidth = 1;
    params.issueWidth = 1;
    params.enqueueWidth = 1;
    cpu::InOrderPipeline pipe(program, params);
    cpu::SimTrace trace = pipe.run();
    EXPECT_EQ(trace.commits.size(), golden.steps());
    EXPECT_EQ(pipe.archState().output(), golden.state().output());
    // A 1-wide machine cannot exceed IPC 1.
    EXPECT_LE(trace.ipc(), 1.0);
}

TEST(PipelineMore, MaxInstsTruncatesWithoutHalt)
{
    isa::Program program = isa::assembleOrDie(R"(
        loop:
        addi r2 = r2, 1
        br loop
    )");
    cpu::PipelineParams params;
    params.maxInsts = 5000;
    cpu::InOrderPipeline pipe(program, params);
    cpu::SimTrace trace = pipe.run();
    EXPECT_EQ(trace.commits.size(), 5000u);
    EXPECT_FALSE(trace.programHalted);
}

// ---------------------------------------------------------------

namespace
{

struct InjCtx
{
    isa::Program program;
    cpu::SimTrace trace;
    std::vector<std::uint64_t> golden;
};

InjCtx
makeInjCtx(const std::string &src)
{
    InjCtx c;
    c.program = isa::assembleOrDie(src);
    isa::Executor golden(c.program);
    EXPECT_EQ(golden.run(2000000), isa::Termination::Halted);
    c.golden = golden.state().output();
    cpu::PipelineParams params;
    params.maxInsts = 2000000;
    cpu::InOrderPipeline pipe(c.program, params);
    c.trace = pipe.run();
    c.trace.program = &c.program;
    return c;
}

} // namespace

TEST(EccProtection, CorrectsReadPayloadFaults)
{
    InjCtx c = makeInjCtx("movi r4 = 57\nout r4\nhalt\n");
    faults::FaultInjector inj(c.program, c.trace, c.golden);
    // ECC labels never need the re-run.
    auto ecc = [&](const faults::FaultSite &site) {
        return faults::label(inj.classify(site, false),
                             faults::Protection::Ecc);
    };
    for (const auto &inc : c.trace.incarnations) {
        if (!(inc.flags & cpu::incCommitted))
            continue;
        if (inc.issueCycle <= inc.enqueueCycle)
            continue;
        faults::FaultSite site{inc.iqEntry, 0, inc.enqueueCycle};
        EXPECT_EQ(ecc(site), faults::Outcome::Corrected);
        // Unread strikes need no correction.
        faults::FaultSite late{inc.iqEntry, 0, inc.issueCycle};
        EXPECT_EQ(ecc(late), faults::Outcome::BenignNotRead);
        return;
    }
    FAIL() << "no committed residency";
}

TEST(TrackedInjection, FalseDueBecomesBenign)
{
    // A dead instruction's imm-field strike: parity flags it, the
    // pi machinery proves it false.
    InjCtx c = makeInjCtx(R"(
        movi r4 = 1
        movi r4 = 2
        out r4
        halt
    )");
    faults::FaultInjector inj(c.program, c.trace, c.golden);
    core::PiMachine machine(c.trace,
                            core::TrackingLevel::PiStoreBuffer);
    for (const auto &inc : c.trace.incarnations) {
        if (inc.staticIdx != 0 || !(inc.flags & cpu::incCommitted))
            continue;
        faults::SiteRecord rec;
        rec.site = {inc.iqEntry, 3, inc.enqueueCycle};
        rec.verdict = inj.classify(rec.site);
        EXPECT_EQ(faults::label(rec.verdict, faults::Protection::Parity),
                  faults::Outcome::FalseDue);
        EXPECT_EQ(core::labelTracked(rec, c.trace, machine),
                  faults::Outcome::BenignNoError);
        return;
    }
    FAIL() << "residency not found";
}

TEST(TrackedInjection, TrueErrorsStillSignalOrSurfaceAsSdc)
{
    InjCtx c = makeInjCtx(R"(
        movi r4 = 57
        addi r5 = r4, 1
        out r5
        halt
    )");
    faults::FaultInjector inj(c.program, c.trace, c.golden);
    core::PiMachine machine(c.trace,
                            core::TrackingLevel::PiStoreBuffer);
    for (const auto &inc : c.trace.incarnations) {
        if (inc.staticIdx != 0 || !(inc.flags & cpu::incCommitted))
            continue;
        // Imm strike on a live movi: true DUE, and the pi chain
        // reaches the out — still signalled under tracking.
        faults::SiteRecord rec;
        rec.site = {inc.iqEntry, 0, inc.enqueueCycle};
        rec.verdict = inj.classify(rec.site);
        EXPECT_EQ(core::labelTracked(rec, c.trace, machine),
                  faults::Outcome::TrueDue);
        return;
    }
    FAIL() << "residency not found";
}

TEST(TrackedInjection, DstFieldStrikePoisonsTheActualTarget)
{
    // r4's def is dead (overwritten unread), so an instruction-
    // granularity pi bit would suppress any strike on it. But a
    // dst-field strike redirects the write onto another register;
    // the pi bit follows the value there, and a reader of that
    // register must still raise the error.
    InjCtx c = makeInjCtx(R"(
        movi r6 = 10
        movi r4 = 1
        movi r4 = 2
        add r7 = r6, r6
        out r7
        out r4
        halt
    )");
    faults::FaultInjector inj(c.program, c.trace, c.golden);
    core::PiMachine machine(c.trace,
                            core::TrackingLevel::PiStoreBuffer);
    for (const auto &inc : c.trace.incarnations) {
        if (inc.staticIdx != 1 || !(inc.flags & cpu::incCommitted))
            continue;
        // Flip dst bit 1: r4 (=0b000100) becomes r6 (=0b000110),
        // clobbering live data.
        auto bit = static_cast<std::uint8_t>(
            isa::encoding::dstShift + 1);
        faults::SiteRecord rec;
        rec.site = {inc.iqEntry, bit, inc.enqueueCycle};
        rec.verdict = inj.classify(rec.site);
        EXPECT_EQ(faults::label(rec.verdict, faults::Protection::Parity),
                  faults::Outcome::TrueDue);
        // The overridden poison lands on r6, which the add reads:
        // the error is still detected, not silently suppressed.
        EXPECT_EQ(core::labelTracked(rec, c.trace, machine),
                  faults::Outcome::TrueDue);
        return;
    }
    FAIL() << "residency not found";
}

TEST(TrackedInjection, CampaignNeverSignalsMoreThanParity)
{
    // One campaign's sites, labelled twice: the pi label only ever
    // withdraws a parity detection, site by site.
    InjCtx c = makeInjCtx(R"(
        movi r2 = 17
        movi r4 = 200
        loop:
        mul r2 = r2, r2
        addi r2 = r2, 13
        movi r5 = 1
        movi r5 = 2
        xor r6 = r6, r2
        addi r4 = r4, -1
        cmplt p3 = r0, r4
        (p3) br loop
        out r2
        out r6
        halt
    )");
    avf::DeadnessResult dead = avf::analyzeDeadness(c.trace);
    avf::AvfResult folded = avf::computeAvf(c.trace, dead);
    faults::CampaignSpec spec;
    spec.samples = 300;
    faults::CampaignOutcome campaign = faults::runCampaignEngine(
        c.program, c.trace, dead, folded, spec);
    core::PiMachine machine(c.trace,
                            core::TrackingLevel::PiMemory);

    faults::CampaignResult parity, tracked;
    auto is_due = [](faults::Outcome o) {
        return o == faults::Outcome::FalseDue ||
               o == faults::Outcome::TrueDue;
    };
    for (const faults::SiteRecord &rec : campaign.sites) {
        faults::Outcome p =
            faults::label(rec.verdict, faults::Protection::Parity);
        faults::Outcome t = core::labelTracked(rec, c.trace, machine);
        if (is_due(t)) {
            EXPECT_TRUE(is_due(p))
                << "pi signalled where parity did not";
        }
        parity.add(p);
        tracked.add(t);
    }
    for (faults::Outcome o : {faults::Outcome::BenignNoBit,
                              faults::Outcome::BenignNotRead,
                              faults::Outcome::Corrected})
        EXPECT_EQ(tracked.count(o), parity.count(o))
            << faults::outcomeName(o);
    EXPECT_LT(tracked.count(faults::Outcome::FalseDue),
              parity.count(faults::Outcome::FalseDue));
}
