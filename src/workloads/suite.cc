#include "suite.hh"

#include <utility>

#include "isa/assembler.hh"
#include "sim/logging.hh"
#include "workloads/kernels.hh"

namespace ser
{
namespace workloads
{

namespace
{

/** Everything buildBenchmark emits plus the data image. */
struct Generated
{
    std::string text;
    std::vector<isa::DataInit> data;
};

Generated
generate(const BenchmarkProfile &profile,
         std::uint64_t dynamic_target)
{
    AsmBuilder b(profile.seed);
    KernelContext ctx(profile);

    b.entry("main");
    b.label("main");
    b.comment("common setup: " + profile.name + " (" +
              kernelName(profile.kernel) + ")");
    std::uint64_t prolog_start = b.size();
    b.op("movi r50 = " + std::to_string(ctx.arrayA));
    b.op("movi r60 = " + std::to_string(ctx.scratchBase));
    b.op("movi r2 = 21930");
    b.op("movi r3 = 13260");
    b.op("movi r61 = " +
         std::to_string((profile.seed & 0x7fffffffULL) | 1));
    b.op("movi r30 = 1103515245");
    b.op("movi r31 = 12345");
    if (profile.floatingPoint) {
        b.op("movi r5 = 3");
        b.op("i2f f2 = r5");
        b.op("movi r5 = 2");
        b.op("i2f f3 = r5");
        b.op("fdiv f2 = f2, f3");  // f2 = 1.5
    }
    std::uint64_t init_dyn = emitKernelProlog(b, ctx);
    init_dyn += b.size() - prolog_start;

    // Size the loop body before committing to a trip count. The
    // body is unrolled so the probabilistic decorations (dead code,
    // predicated arms, padding) are realised across several
    // independently-generated copies rather than a single roll.
    constexpr unsigned unroll = 8;
    AsmBuilder body(profile.seed ^ 0xB0D4B0D4ULL);
    std::uint64_t body_dyn = 0;
    for (unsigned u = 0; u < unroll; ++u)
        body_dyn += emitKernelBody(body, ctx);
    std::uint64_t per_iter = body_dyn + 3;  // + loop overhead

    std::uint64_t iters = 1;
    if (dynamic_target > init_dyn + per_iter)
        iters = (dynamic_target - init_dyn) / per_iter;
    if (iters > 0x7fffffffULL)
        SER_FATAL("benchmark {}: trip count {} exceeds movi range",
                  profile.name, iters);

    b.op("movi r1 = " + std::to_string(iters));
    b.label("mainloop");
    b.append(body);
    b.op("addi r1 = r1, -1");
    b.op("cmplt p2 = r0, r1");
    b.pred(2, "br mainloop");
    b.op("out r63");
    b.op("halt");
    emitKernelFunctions(b, ctx);

    return {b.str(), std::move(ctx.data)};
}

} // namespace

isa::Program
buildBenchmark(const BenchmarkProfile &profile,
               std::uint64_t dynamic_target)
{
    Generated g = generate(profile, dynamic_target);
    return isa::assembleOrDie(g.text, std::move(g.data));
}

isa::Program
buildBenchmark(const std::string &name, std::uint64_t dynamic_target)
{
    return buildBenchmark(findProfile(name), dynamic_target);
}

std::string
benchmarkSource(const BenchmarkProfile &profile,
                std::uint64_t dynamic_target)
{
    return generate(profile, dynamic_target).text;
}

} // namespace workloads
} // namespace ser
