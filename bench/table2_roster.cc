/**
 * @file
 * Reproduces the paper's Table 2 in surrogate form: the benchmark
 * roster (12 integer + 14 floating point CPU2000 programs). Where
 * the paper lists SimPoint skip intervals, we list each surrogate's
 * generator parameters, and then measure the dynamic properties the
 * paper quotes in the text: the dynamically-dead fraction (~20% on
 * average) and the instruction mix.
 *
 * Usage: table2_roster [insts=N] [--csv]
 */

#include <iostream>

#include <vector>

#include "avf/deadness.hh"
#include "cpu/pipeline.hh"
#include "harness/bench_options.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "harness/suite_runner.hh"
#include "sim/config.hh"
#include "sim/prof.hh"
#include "workloads/profile.hh"
#include "workloads/suite.hh"

using namespace ser;
using harness::Table;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv, "Table 2: the surrogate benchmark roster");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::uint64_t insts = config.getUint("insts", 120000);

    Table roster({"benchmark", "type", "kernel", "working set",
                  "no-op density", "prefetch", "branch entropy",
                  "dyn insts", "dead", "fdd-reg", "tdd-reg",
                  "dead-mem", "return-fdd"});

    // Each benchmark's build + run + deadness analysis is
    // independent: fan out on the --jobs worker pool, writing into
    // pre-sized per-benchmark slots, then aggregate serially in
    // suite order so the table is identical for any job count.
    const auto &suite = workloads::specSuite();
    std::vector<avf::DeadnessResult> deadness(suite.size());
    harness::parallelFor(
        suite.size(), opts.jobs, [&](std::size_t i) {
            SER_PROF_SCOPE("roster_point");
            isa::Program program =
                workloads::buildBenchmark(suite[i], insts);
            cpu::PipelineParams params;
            params.maxInsts = insts * 2;
            cpu::InOrderPipeline pipe(program, params);
            cpu::SimTrace trace = pipe.run();
            trace.program = &program;
            deadness[i] = avf::analyzeDeadness(trace);
        });

    SER_PROF_SCOPE("aggregate");
    double dead_sum = 0;
    int count = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const workloads::BenchmarkProfile &profile = suite[i];
        const avf::DeadnessResult &dead = deadness[i];

        double n = static_cast<double>(dead.numInsts);
        roster.addRow(
            {profile.name, profile.floatingPoint ? "fp" : "int",
             workloads::kernelName(profile.kernel),
             std::to_string(profile.wsWords * 8 / 1024) + " KB",
             Table::fmt(profile.noopDensity),
             Table::fmt(profile.prefetchDensity),
             std::to_string(profile.entropyBits) + "b",
             std::to_string(dead.numInsts),
             Table::pct(dead.deadFraction()),
             Table::pct(dead.numFddReg / n),
             Table::pct(dead.numTddReg / n),
             Table::pct((dead.numFddMem + dead.numTddMem) / n),
             Table::pct(dead.numReturnFdd / n)});
        dead_sum += dead.deadFraction();
        ++count;
    }

    harness::printHeading(
        std::cout,
        "Table 2 (surrogate roster): the SPEC CPU2000 stand-ins");
    out.print("roster", roster);

    std::cout << "\nsuite-average dynamically dead fraction: "
              << Table::pct(dead_sum / count)
              << "  (paper: ~20% of all instructions)\n";

    // No run goes through the experiment harness: finish() warns
    // that --trace-events and --topn have nothing to act on.
    out.finish();
    return 0;
}
