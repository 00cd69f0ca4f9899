#include "random_program.hh"

#include <string>

#include "isa/assembler.hh"
#include "sim/rng.hh"
#include "workloads/builder.hh"

namespace ser
{
namespace workloads
{

namespace
{

constexpr std::uint64_t scratchBase = 0x40000;
constexpr unsigned scratchWords = 512;

// std::string(1, c), not "c": GCC 12's -Wrestrict misfires on a
// one-character literal prepended to a temporary at -O3.
std::string
rs(int reg)
{
    return std::string(1, 'r') + std::to_string(reg);
}

std::string
fs(int reg)
{
    return std::string(1, 'f') + std::to_string(reg);
}

} // namespace

isa::Program
randomProgram(std::uint64_t seed, const RandomProgramOptions &opts)
{
    Rng rng(seed);
    AsmBuilder b(seed);

    auto int_reg = [&]() {
        return static_cast<int>(rng.rangeInclusive(2, 20));
    };
    auto fp_reg = [&]() {
        return static_cast<int>(rng.rangeInclusive(2, 12));
    };
    auto pred_reg = [&]() {
        return static_cast<int>(rng.rangeInclusive(2, 8));
    };
    auto scratch_off = [&]() {
        return std::to_string(rng.range(scratchWords) * 8);
    };

    b.entry("main");
    b.label("main");
    b.op("movi r50 = " + std::to_string(scratchBase));
    // Seed a few registers with data.
    for (int r = 2; r <= 20; ++r) {
        b.op("movi " + rs(r) + " = " +
             std::to_string(rng.rangeInclusive(-100000, 100000)));
    }
    for (int f = 2; f <= 12; ++f) {
        b.op("movi r21 = " +
             std::to_string(rng.rangeInclusive(1, 1000)));
        b.op("i2f " + fs(f) + " = r21");
    }
    b.op("movi r1 = " + std::to_string(opts.loopIterations));
    b.label("loop");

    static const char *alu2[] = {"add", "sub", "mul",  "divq",
                                 "remq", "and", "or",  "xor",
                                 "andc", "shl", "shr", "sar"};
    static const char *alui[] = {"addi", "andi", "ori",
                                 "xori", "shli", "shri"};
    static const char *cmps[] = {"cmpeq", "cmpne", "cmplt",
                                 "cmple", "cmpltu"};
    static const char *fops[] = {"fadd", "fsub", "fmul", "fdiv"};

    for (unsigned i = 0; i < opts.bodyInstructions; ++i) {
        std::string qp;
        bool predicated = rng.chance(opts.predicatedFraction);
        int qp_reg = predicated ? pred_reg() : 0;

        auto emit = [&](const std::string &text) {
            if (predicated)
                b.pred(qp_reg, text);
            else
                b.op(text);
        };

        double roll = rng.uniform();
        if (roll < opts.memFraction) {
            if (rng.chance(0.5)) {
                emit("ld8 " + rs(int_reg()) + " = [r50, " +
                     scratch_off() + "]");
            } else {
                emit("st8 [r50, " + scratch_off() + "] = " +
                     rs(int_reg()));
            }
        } else if (roll < opts.memFraction + opts.branchFraction) {
            // A forward data-dependent branch over a couple of ops.
            std::string skip = b.newLabel("fwd");
            b.op(std::string(cmps[rng.range(5)]) + " p" +
                 std::to_string(pred_reg()) + " = " +
                 rs(int_reg()) + ", " + rs(int_reg()));
            int p = pred_reg();
            b.op(std::string(cmps[rng.range(5)]) + " p" +
                 std::to_string(p) + " = " + rs(int_reg()) + ", " +
                 rs(int_reg()));
            b.pred(p, "br " + skip);
            b.op(std::string(alu2[rng.range(12)]) + " " +
                 rs(int_reg()) + " = " + rs(int_reg()) + ", " +
                 rs(int_reg()));
            b.op(std::string(alui[rng.range(6)]) + " " +
                 rs(int_reg()) + " = " + rs(int_reg()) + ", " +
                 std::to_string(rng.rangeInclusive(0, 63)));
            b.label(skip);
        } else if (roll < opts.memFraction + opts.branchFraction +
                              opts.fpFraction) {
            if (rng.chance(0.3)) {
                if (rng.chance(0.5)) {
                    emit("fld " + fs(fp_reg()) + " = [r50, " +
                         scratch_off() + "]");
                } else {
                    emit("fst [r50, " + scratch_off() + "] = " +
                         fs(fp_reg()));
                }
            } else if (rng.chance(0.2)) {
                emit("i2f " + fs(fp_reg()) + " = " + rs(int_reg()));
            } else if (rng.chance(0.2)) {
                emit("f2i " + rs(int_reg()) + " = " + fs(fp_reg()));
            } else {
                emit(std::string(fops[rng.range(4)]) + " " +
                     fs(fp_reg()) + " = " + fs(fp_reg()) + ", " +
                     fs(fp_reg()));
            }
        } else if (roll < opts.memFraction + opts.branchFraction +
                              opts.fpFraction + opts.outFraction) {
            emit("out " + rs(int_reg()));
        } else if (rng.chance(0.12)) {
            emit(std::string(cmps[rng.range(5)]) + " p" +
                 std::to_string(pred_reg()) + " = " +
                 rs(int_reg()) + ", " + rs(int_reg()));
        } else if (rng.chance(0.08)) {
            emit(rng.chance(0.5)
                     ? std::string("nop")
                     : "prefetch [r50, " + scratch_off() + "]");
        } else if (rng.chance(0.5)) {
            emit(std::string(alu2[rng.range(12)]) + " " +
                 rs(int_reg()) + " = " + rs(int_reg()) + ", " +
                 rs(int_reg()));
        } else {
            emit(std::string(alui[rng.range(6)]) + " " +
                 rs(int_reg()) + " = " + rs(int_reg()) + ", " +
                 std::to_string(rng.rangeInclusive(0, 1 << 20)));
        }
    }

    b.op("addi r1 = r1, -1");
    b.op("cmplt p2 = r0, r1");
    b.pred(2, "br loop");
    for (int r = 2; r <= 20; r += 3)
        b.op("out " + rs(r));
    b.op("halt");

    return isa::assembleOrDie(b.str());
}

} // namespace workloads
} // namespace ser
