/**
 * @file
 * Unit and property tests for the TIA64 ISA: encoding round trips,
 * the per-bit field map, the assembler (including error reporting
 * and disassembly round trips), architectural state, and the
 * functional executor's semantics.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "isa/assembler.hh"
#include "isa/encoding.hh"
#include "isa/executor.hh"
#include "isa/isa.hh"
#include "isa/program.hh"
#include "sim/rng.hh"
#include "workloads/suite.hh"

using namespace ser;
using namespace ser::isa;

TEST(Encoding, FieldRoundTrip)
{
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        auto op = static_cast<Opcode>(rng.range(numOpcodes));
        auto qp = static_cast<std::uint8_t>(rng.range(64));
        auto dst = static_cast<std::uint8_t>(rng.range(64));
        auto s1 = static_cast<std::uint8_t>(rng.range(64));
        auto s2 = static_cast<std::uint8_t>(rng.range(64));
        auto imm = static_cast<std::int32_t>(rng.next());
        std::uint64_t w = encodeWord(qp, op, dst, s1, s2, imm);
        EXPECT_EQ(encQp(w), qp);
        EXPECT_EQ(encOpcodeRaw(w), static_cast<std::uint8_t>(op));
        EXPECT_EQ(encDst(w), dst);
        EXPECT_EQ(encSrc1(w), s1);
        EXPECT_EQ(encSrc2(w), s2);
        EXPECT_EQ(encImm(w), imm);
    }
}

TEST(Encoding, FieldForBitCoversWholeWordConsistently)
{
    int counts[6] = {};
    for (int bit = 0; bit < 64; ++bit)
        ++counts[static_cast<int>(fieldForBit(bit))];
    EXPECT_EQ(counts[static_cast<int>(Field::Qp)], 6);
    EXPECT_EQ(counts[static_cast<int>(Field::Opcode)], 8);
    EXPECT_EQ(counts[static_cast<int>(Field::Dst)], 6);
    EXPECT_EQ(counts[static_cast<int>(Field::Src1)], 6);
    EXPECT_EQ(counts[static_cast<int>(Field::Src2)], 6);
    EXPECT_EQ(counts[static_cast<int>(Field::Imm)], 32);
    for (auto f : {Field::Qp, Field::Opcode, Field::Dst, Field::Src1,
                   Field::Src2, Field::Imm}) {
        int w = 0;
        for (int bit = 0; bit < 64; ++bit)
            w += fieldForBit(bit) == f;
        EXPECT_EQ(w, fieldWidth(f));
    }
}

TEST(Encoding, FlippingAFieldBitChangesOnlyThatField)
{
    std::uint64_t w =
        encodeWord(3, Opcode::Add, 4, 5, 6, 1234);
    // Flip one dst bit.
    int dst_bit = encoding::dstShift + 1;
    std::uint64_t w2 = w ^ (1ULL << dst_bit);
    EXPECT_EQ(encQp(w2), encQp(w));
    EXPECT_EQ(encOpcodeRaw(w2), encOpcodeRaw(w));
    EXPECT_NE(encDst(w2), encDst(w));
    EXPECT_EQ(encImm(w2), encImm(w));
}

TEST(StaticInst, DecodeRejectsInvalidOpcode)
{
    std::uint64_t w = encoding::insert(0, encoding::opcodeShift,
                                       encoding::opcodeBits, 0xff);
    StaticInst inst;
    EXPECT_FALSE(StaticInst::decode(w, inst));
    EXPECT_TRUE(inst.isNop());  // left as a safe default
}

TEST(StaticInst, PropertyFlags)
{
    StaticInst ld(Opcode::Ld8, 0, 4, 5, 0, 16);
    EXPECT_TRUE(ld.isLoad());
    EXPECT_TRUE(ld.isMem());
    EXPECT_FALSE(ld.isStore());
    EXPECT_TRUE(ld.writesIntReg());

    StaticInst st(Opcode::St8, 0, 0, 5, 6, 16);
    EXPECT_TRUE(st.isStore());
    EXPECT_FALSE(st.hasDst());

    StaticInst nop(Opcode::Nop, 0, 0, 0, 0, 0);
    EXPECT_TRUE(nop.isNeutral());
    StaticInst pf(Opcode::Prefetch, 0, 0, 5, 0, 64);
    EXPECT_TRUE(pf.isNeutral());
    EXPECT_TRUE(pf.isMem());

    StaticInst br(Opcode::Br, 3, 0, 0, 0, 7);
    EXPECT_TRUE(br.isBranch());
    EXPECT_TRUE(br.isDirectBranch());
    EXPECT_TRUE(br.isConditionalBranch());
    StaticInst br0(Opcode::Br, 0, 0, 0, 0, 7);
    EXPECT_FALSE(br0.isConditionalBranch());

    StaticInst call(Opcode::Call, 0, 62, 0, 0, 3);
    EXPECT_TRUE(call.isCall());
    EXPECT_TRUE(call.writesIntReg());
    StaticInst ret(Opcode::Ret, 0, 0, 62, 0, 0);
    EXPECT_TRUE(ret.isReturn());
    EXPECT_TRUE(ret.isIndirectBranch());

    StaticInst cmp(Opcode::CmpLt, 0, 3, 4, 5, 0);
    EXPECT_TRUE(cmp.writesPredReg());
}

TEST(Assembler, BasicProgramAndLabels)
{
    auto result = assemble(R"(
        .entry main
        main:
            movi r4 = 100
            addi r4 = r4, -1
            cmplt p2 = r0, r4
            (p2) br main
            out r4
            halt
    )");
    ASSERT_TRUE(result.ok());
    const Program &p = result.program;
    EXPECT_EQ(p.size(), 6u);
    EXPECT_EQ(p.entry(), 0u);
    EXPECT_EQ(p.inst(3).opcode(), Opcode::Br);
    EXPECT_EQ(p.inst(3).qp(), 2);
    EXPECT_EQ(p.inst(3).imm(), 0);  // label resolved to index
}

TEST(Assembler, MemoryAndDataDirectives)
{
    auto result = assemble(R"(
        .data 0x2000
        .word 7
        .word 9
        ld8 r4 = [r5, 16]
        st8 [r5, 24] = r4
        fld f3 = [r5, 0]
        fst [r5, 8] = f3
        prefetch [r5, 64]
        halt
    )");
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.program.dataInits().size(), 2u);
    EXPECT_EQ(result.program.dataInits()[0].addr, 0x2000u);
    EXPECT_EQ(result.program.dataInits()[1].addr, 0x2008u);
    EXPECT_EQ(result.program.dataInits()[1].value, 9u);
    EXPECT_EQ(result.program.inst(0).imm(), 16);
    EXPECT_EQ(result.program.inst(1).src2(), 4);
}

TEST(Assembler, ReportsErrorsWithLineNumbers)
{
    auto bad_mnemonic = assemble("main:\n    frobnicate r1\n");
    ASSERT_FALSE(bad_mnemonic.ok());
    EXPECT_EQ(bad_mnemonic.error->line, 2);

    auto bad_reg = assemble("add r99 = r1, r2\n");
    ASSERT_FALSE(bad_reg.ok());

    auto undefined_label = assemble("br nowhere\nhalt\n");
    ASSERT_FALSE(undefined_label.ok());

    auto duplicate = assemble("a:\na:\nhalt\n");
    ASSERT_FALSE(duplicate.ok());

    auto trailing = assemble("nop nop\n");
    ASSERT_FALSE(trailing.ok());
}

TEST(Assembler, MoviOfLabelGivesCodeAddress)
{
    auto result = assemble(R"(
            movi r7 = target
            bri r7
            halt
        target:
            out r0
            halt
    )");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(static_cast<std::uint64_t>(result.program.inst(0).imm()),
              Program::indexToAddr(3));
}

TEST(Assembler, DisassemblyRoundTrips)
{
    // Build a program exercising every syntactic form, disassemble,
    // re-assemble, and require identical encodings.
    auto first = assembleOrDie(R"(
        main:
            movi r4 = -12345
            (p3) add r5 = r4, r6
            cmpieq p3 = r5, 0
            ld8 r7 = [r5, -8]
            st8 [r5, 8] = r7
            fld f2 = [r5, 0]
            fst [r5, 16] = f2
            fadd f3 = f2, f2
            i2f f4 = r5
            f2i r8 = f4
            prefetch [r5, 128]
            hint
            nop
            call r62 = main
            ret r62
            bri r7
            (p3) br main
            out r8
            fout f3
            halt
    )");
    auto second = assembleOrDie(first.disassemble());
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first.inst(i).encode(), second.inst(i).encode())
            << "instruction " << i << ": "
            << first.inst(i).toString();
}

TEST(ArchState, HardwiredRegisters)
{
    ArchState st;
    st.writeInt(0, 99);
    EXPECT_EQ(st.readInt(0), 0u);
    st.writeFp(0, 3.0);
    st.writeFp(1, 3.0);
    EXPECT_DOUBLE_EQ(st.readFp(0), 0.0);
    EXPECT_DOUBLE_EQ(st.readFp(1), 1.0);
    st.writePred(0, false);
    EXPECT_TRUE(st.readPred(0));
}

TEST(ArchState, SparseMemoryWordAccess)
{
    SparseMemory mem;
    EXPECT_EQ(mem.readWord(0x5000), 0u);
    mem.writeWord(0x5000, 0x1122334455667788ULL);
    EXPECT_EQ(mem.readWord(0x5000), 0x1122334455667788ULL);
    EXPECT_EQ(mem.readByte(0x5000), 0x88);
    EXPECT_EQ(mem.readByte(0x5007), 0x11);
    // Unaligned, page-straddling access.
    mem.writeWord(4096 - 3, 0xAABBCCDDEEFF0011ULL);
    EXPECT_EQ(mem.readWord(4096 - 3), 0xAABBCCDDEEFF0011ULL);
}

TEST(SparseMemory, CopyAndSourceDivergeAfterWritesOnEitherSide)
{
    SparseMemory a;
    a.writeWord(0x5000, 1);  // a's one-page memo now holds page 5
    SparseMemory b = a;

    // Hits a's memo right after the copy: must clone, not write the
    // page b still shares.
    a.writeWord(0x5008, 2);
    EXPECT_EQ(a.readWord(0x5008), 2u);
    EXPECT_EQ(b.readWord(0x5008), 0u);

    // b inherited the memo with the copy; its writes stay its own.
    b.writeWord(0x5000, 3);
    EXPECT_EQ(b.readWord(0x5000), 3u);
    EXPECT_EQ(a.readWord(0x5000), 1u);

    // So do pages either side materializes after the copy.
    b.writeWord(0x9000, 4);
    a.writeWord(0xA000, 5);
    EXPECT_EQ(a.readWord(0x9000), 0u);
    EXPECT_EQ(b.readWord(0xA000), 0u);
    EXPECT_EQ(a.numPages(), 2u);
    EXPECT_EQ(b.numPages(), 2u);
}

TEST(SparseMemory, StraddlingStoreClonesBothSharedPages)
{
    SparseMemory a;
    a.writeWord(0x1ff8, 0x1111111111111111ULL);
    a.writeWord(0x2000, 0x2222222222222222ULL);
    SparseMemory b = a;
    b.writeWord(0x1ffc, 0xAABBCCDDEEFF0011ULL);  // 4 bytes per page
    EXPECT_EQ(b.readWord(0x1ffc), 0xAABBCCDDEEFF0011ULL);
    EXPECT_EQ(a.readWord(0x1ff8), 0x1111111111111111ULL);
    EXPECT_EQ(a.readWord(0x2000), 0x2222222222222222ULL);
    EXPECT_FALSE(a.equals(b));
}

TEST(SparseMemory, EqualsOnSharedClonedAndOneSidedZeroPages)
{
    SparseMemory a;
    a.writeWord(0x3000, 42);
    SparseMemory b = a;
    EXPECT_TRUE(a.equals(b));  // shared: equal without a read

    b.writeWord(0x3000, 42);  // cloned, still byte-equal
    EXPECT_TRUE(a.equals(b));
    EXPECT_TRUE(b.equals(a));

    b.writeWord(0x7000, 0);  // an all-zero page on b only
    EXPECT_TRUE(a.equals(b));
    EXPECT_TRUE(b.equals(a));

    b.writeWord(0x7000, 1);
    EXPECT_FALSE(a.equals(b));
    EXPECT_FALSE(b.equals(a));

    b.writeWord(0x7000, 0);
    b.writeWord(0x3008, 1);  // the cloned page now differs
    EXPECT_FALSE(a.equals(b));
    EXPECT_FALSE(b.equals(a));
}

namespace
{

/** The memory a run of 'p' starts from, written word by word from
 * dataInits() and never read from Program::dataImage(). */
SparseMemory
referenceImage(const Program &p)
{
    SparseMemory mem;
    for (const DataInit &init : p.dataInits())
        mem.writeWord(init.addr, init.value);
    return mem;
}

/** The whole state a run of 'p' starts from, by the same route. */
ArchState
referenceStart(const Program &p)
{
    ArchState st;
    st.memory() = referenceImage(p);
    return st;
}

/** Data words with a repeated address (the later value wins) and an
 * unaligned word straddling pages 3 and 4; the code stores over both
 * before printing what it loaded. */
Program
overlappingDataProgram()
{
    return assembleOrDie(R"(
        .data 0x3000
        .word 1
        .word 2
        .data 0x3000
        .word 3
        .data 0x3ffc
        .word 0x1122334455667788
        movi r5 = 0x3000
        ld8 r2 = [r5, 0]
        ld8 r3 = [r5, 4092]
        st8 [r5, 8] = r2
        st8 [r5, 4092] = r2
        out r2
        out r3
        halt
    )");
}

} // namespace

TEST(Program, ContentHashCoversEveryPart)
{
    const Program p = assembleOrDie(
        ".data 0x2000\n.word 7\nmovi r4 = 1\nout r4\nhalt\n");
    // Pinned: run-cache keys and disk-tier blob names derive from
    // this value, so the FNV walk must never change.
    EXPECT_EQ(p.contentHash(), 0x7941d6405c691cc6ULL);
    EXPECT_TRUE(p.dataImage().equals(referenceImage(p)));

    // A program built from p's parts after one edit to them.
    using Insts = std::vector<StaticInst>;
    using Data = std::vector<DataInit>;
    auto rebuilt = [&p](const std::function<void(Insts &, Data &,
                                                 std::size_t &)> &edit) {
        Insts insts = p.instructions();
        Data data(p.dataInits().begin(), p.dataInits().end());
        std::size_t entry = p.entry();
        edit(insts, data, entry);
        return Program(std::move(insts), p.labels(), entry,
                       std::move(data));
    };
    const Program same = rebuilt([](Insts &, Data &, std::size_t &) {});
    EXPECT_EQ(same.contentHash(), p.contentHash());

    // Each edit changes one hashed part, so each hash is new.
    const Program edited[] = {
        rebuilt([](Insts &insts, Data &, std::size_t &) {
            insts[0] = StaticInst(Opcode::Movi, 0, 4, 0, 0, 2);
        }),
        rebuilt([](Insts &insts, Data &, std::size_t &) {
            insts.push_back(StaticInst(Opcode::Nop, 0, 0, 0, 0, 0));
        }),
        rebuilt([](Insts &, Data &data, std::size_t &) {
            data[0].addr = 0x2008;
        }),
        rebuilt([](Insts &, Data &data, std::size_t &) {
            data[0].value = 8;
        }),
        rebuilt([](Insts &, Data &data, std::size_t &) {
            data.push_back({0x2008, 9});
        }),
        rebuilt([](Insts &, Data &, std::size_t &entry) { entry = 1; }),
    };
    std::set<std::uint64_t> seen = {p.contentHash()};
    for (std::size_t k = 0; k < std::size(edited); ++k) {
        EXPECT_TRUE(seen.insert(edited[k].contentHash()).second)
            << "edit " << k;
        EXPECT_TRUE(edited[k].dataImage().equals(
            referenceImage(edited[k])))
            << "edit " << k;
    }

    // Copies share the memo, whether taken before its first use or
    // after: the same hash and the very same image.
    const Program before = same;
    EXPECT_EQ(&before.dataImage(), &same.dataImage());
    const Program after = p;
    EXPECT_EQ(after.contentHash(), p.contentHash());
    EXPECT_EQ(&after.dataImage(), &p.dataImage());
}

TEST(Program, DataImageEqualsTheWordByWordState)
{
    const Program p = overlappingDataProgram();
    const ArchState ref = referenceStart(p);
    EXPECT_EQ(ref.memory().readWord(0x3000), 3u);
    EXPECT_EQ(ref.memory().readWord(0x3ffc), 0x1122334455667788ULL);

    Executor ex(p);
    EXPECT_TRUE(ex.state().equals(ref));
    EXPECT_EQ(ex.state().memory().numPages(), ref.memory().numPages());
    EXPECT_TRUE(p.dataImage().equals(ref.memory()));
}

TEST(Program, StoresNeverReachTheDataImage)
{
    // Executors share the image's pages; a store must clone its page
    // first, whether the other executor was built before or after.
    const Program p = overlappingDataProgram();
    const ArchState ref = referenceStart(p);
    Executor before(p);
    Executor writer(p);
    ASSERT_EQ(writer.run(100), Termination::Halted);
    EXPECT_EQ(writer.state().output(),
              (std::vector<std::uint64_t>{3, 0x1122334455667788ULL}));
    EXPECT_EQ(writer.state().memory().readWord(0x3008), 3u);
    EXPECT_EQ(writer.state().memory().readWord(0x3ffc), 3u);

    Executor after(p);
    EXPECT_TRUE(before.state().equals(ref));
    EXPECT_TRUE(after.state().equals(ref));
    EXPECT_TRUE(p.dataImage().equals(ref.memory()));
}

TEST(Program, DataImageIsRaceFreeOnASharedProgram)
{
    // Eight executors start at once on one shared program, so their
    // first callers race to build the image (TSan builds check the
    // race), and then run side by side on its shared pages.
    const Program p = workloads::buildBenchmark("gzip", 5000);
    std::vector<std::uint64_t> outputs[8];
    std::vector<std::thread> threads;
    for (std::vector<std::uint64_t> &out : outputs) {
        threads.emplace_back([&p, &out] {
            Executor ex(p);
            EXPECT_EQ(ex.run(1000000), Termination::Halted);
            out = ex.state().output();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_FALSE(outputs[0].empty());
    for (const std::vector<std::uint64_t> &out : outputs)
        EXPECT_EQ(out, outputs[0]);
    EXPECT_TRUE(p.dataImage().equals(referenceImage(p)));
}

TEST(Program, ContentHashIsRaceFreeOnASharedProgram)
{
    // Concurrent runProgram calls hash one shared program; the first
    // callers race to fill the memo (TSan builds check the race).
    const Program p = assembleOrDie(".data 0x2000\n.word 7\nhalt\n");
    std::uint64_t seen[4] = {};
    std::vector<std::thread> threads;
    for (std::uint64_t &h : seen)
        threads.emplace_back([&p, &h] { h = p.contentHash(); });
    for (std::thread &t : threads)
        t.join();
    for (std::uint64_t h : seen)
        EXPECT_EQ(h, seen[0]);
}

namespace
{

/** Run source to completion and return the output stream. */
std::vector<std::uint64_t>
runSource(const std::string &src, std::uint64_t max_steps = 100000)
{
    Program p = assembleOrDie(src);
    Executor ex(p);
    EXPECT_EQ(ex.run(max_steps), Termination::Halted);
    return ex.state().output();
}

} // namespace

TEST(Executor, ArithmeticSemantics)
{
    auto out = runSource(R"(
        movi r2 = 7
        movi r3 = 3
        add r4 = r2, r3
        out r4
        sub r4 = r2, r3
        out r4
        mul r4 = r2, r3
        out r4
        divq r4 = r2, r3
        out r4
        remq r4 = r2, r3
        out r4
        divq r4 = r2, r0
        out r4
        shl r4 = r2, r3
        out r4
        sar r4 = r2, r3
        out r4
        halt
    )");
    ASSERT_EQ(out.size(), 8u);
    EXPECT_EQ(out[0], 10u);
    EXPECT_EQ(out[1], 4u);
    EXPECT_EQ(out[2], 21u);
    EXPECT_EQ(out[3], 2u);
    EXPECT_EQ(out[4], 1u);
    EXPECT_EQ(out[5], 0u);  // divide by zero is defined as 0
    EXPECT_EQ(out[6], 56u);
    EXPECT_EQ(out[7], 0u);
}

TEST(Executor, PredicationNullifies)
{
    auto out = runSource(R"(
        movi r2 = 5
        cmpieq p3 = r2, 5
        cmpieq p4 = r2, 6
        (p3) movi r4 = 111
        (p4) movi r4 = 222
        out r4
        halt
    )");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 111u);
}

TEST(Executor, CallAndReturn)
{
    auto out = runSource(R"(
        .entry main
        main:
            movi r2 = 1
            call r62 = fn
            out r2
            halt
        fn:
            addi r2 = r2, 41
            ret r62
    )");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 42u);
}

TEST(Executor, MemoryAndFpRoundTrip)
{
    auto out = runSource(R"(
        movi r5 = 0x3000
        movi r2 = 3
        i2f f2 = r2
        fst [r5, 0] = f2
        fld f3 = [r5, 0]
        fmul f4 = f3, f3
        f2i r6 = f4
        out r6
        halt
    )");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 9u);
}

TEST(Executor, TrapsOnBadIndirectTarget)
{
    Program p = assembleOrDie(R"(
        movi r5 = 12345
        bri r5
        halt
    )");
    Executor ex(p);
    EXPECT_EQ(ex.run(10), Termination::Trap);
}

TEST(Executor, TrapsOnCorruptedOpcode)
{
    Program p = assembleOrDie("nop\nnop\nhalt\n");
    Executor ex(p);
    // Flip opcode bits until the raw value is invalid.
    std::uint64_t mask = 0xffULL << encoding::opcodeShift;
    ex.setCorruption(1, mask);
    auto term = ex.run(10);
    // Either traps (invalid opcode) or survives if the flip happened
    // to land on a valid one; with full-field inversion of Nop (0)
    // the result is 0xff which is invalid.
    EXPECT_EQ(term, Termination::Trap);
}

TEST(Executor, CorruptionChangesSemantics)
{
    Program p = assembleOrDie(R"(
        movi r2 = 5
        out r2
        halt
    )");
    Executor golden(p);
    ASSERT_EQ(golden.run(100), Termination::Halted);

    Executor faulty(p);
    faulty.setCorruption(0, 1ULL << 0);  // flip imm bit 0: 5 -> 4
    ASSERT_EQ(faulty.run(100), Termination::Halted);
    EXPECT_NE(golden.state().output(), faulty.state().output());
}

TEST(Executor, StepInfoReportsControlFlow)
{
    Program p = assembleOrDie(R"(
        movi r2 = 1
        cmpieq p2 = r2, 1
        (p2) br target
        nop
        target:
        halt
    )");
    Executor ex(p);
    StepInfo si;
    ex.step(&si);
    EXPECT_EQ(si.pc, 0u);
    EXPECT_FALSE(si.taken);
    ex.step(&si);
    ex.step(&si);
    EXPECT_TRUE(si.qpTrue);
    EXPECT_TRUE(si.taken);
    EXPECT_EQ(si.nextPc, 4u);
}

TEST(Executor, MaxStepsStopsLoops)
{
    Program p = assembleOrDie("loop:\n    br loop\n");
    Executor ex(p);
    EXPECT_EQ(ex.run(1000), Termination::MaxSteps);
    EXPECT_EQ(ex.steps(), 1000u);
}

TEST(Executor, DeterministicReplay)
{
    Program p = assembleOrDie(R"(
        movi r2 = 12345
        movi r3 = 1103515245
        movi r4 = 10
        loop:
        mul r2 = r2, r3
        addi r2 = r2, 12345
        out r2
        addi r4 = r4, -1
        cmplt p2 = r0, r4
        (p2) br loop
        halt
    )");
    Executor a(p), b(p);
    EXPECT_EQ(a.run(100000), Termination::Halted);
    EXPECT_EQ(b.run(100000), Termination::Halted);
    EXPECT_EQ(a.state().output(), b.state().output());
    EXPECT_EQ(a.steps(), b.steps());
}
