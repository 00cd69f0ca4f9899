/**
 * @file
 * Quickstart: run one surrogate benchmark on the Itanium2-like core,
 * compute its instruction-queue AVF, and show what squashing on L1
 * load misses buys (the paper's headline experiment, on one
 * benchmark).
 *
 * Usage:
 *   quickstart [benchmark=mcf] [insts=300000] [trigger=l1]
 */

#include <iostream>

#include "avf/mitf.hh"
#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "sim/config.hh"

using namespace ser;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv, "Quickstart: one benchmark, baseline vs squash");
    harness::BenchOutput out(opts);
    Config &config = opts.config;

    std::string benchmark = config.getString("benchmark", "mcf");
    std::uint64_t insts = config.getUint("insts", 300000);
    std::string trigger = config.getString("trigger", "l1");

    harness::ExperimentConfig base;
    base.dynamicTarget = insts;
    base.warmupInsts = insts / 10;
    base.triggerLevel = "none";

    std::cout << "Running '" << benchmark << "' ("
              << insts << " dynamic instructions)...\n";
    auto baseline = harness::runBenchmark(benchmark, out.stamp(base));

    harness::ExperimentConfig squash = base;
    squash.triggerLevel = trigger;
    squash.triggerAction = "squash";
    auto squashed =
        harness::runBenchmark(benchmark, out.stamp(squash));

    harness::printHeading(std::cout, "baseline (no squashing)");
    std::cout << baseline.avf->summary();
    std::cout << "IPC " << baseline.ipc << "\n";
    std::cout << "dynamically dead instructions: "
              << harness::Table::pct(
                     baseline.deadness->deadFraction())
              << "\n";

    harness::printHeading(std::cout,
                          "squash on " + trigger + " load miss");
    std::cout << squashed.avf->summary();
    std::cout << "IPC " << squashed.ipc << "\n";

    harness::printHeading(std::cout, "the trade-off (MITF)");
    double sdc_ratio = avf::mitfRatio(
        baseline.ipc, baseline.avf->sdcAvf(), squashed.ipc,
        squashed.avf->sdcAvf());
    double due_ratio = avf::mitfRatio(
        baseline.ipc, baseline.avf->dueAvf(), squashed.ipc,
        squashed.avf->dueAvf());
    std::cout << "IPC change        "
              << harness::Table::pct(squashed.ipc / baseline.ipc - 1)
              << "\n";
    std::cout << "SDC AVF change    "
              << harness::Table::pct(
                     squashed.avf->sdcAvf() / baseline.avf->sdcAvf() -
                     1)
              << "\n";
    std::cout << "DUE AVF change    "
              << harness::Table::pct(
                     squashed.avf->dueAvf() / baseline.avf->dueAvf() -
                     1)
              << "\n";
    std::cout << "SDC MITF ratio    " << harness::Table::fmt(sdc_ratio)
              << "x\n";
    std::cout << "DUE MITF ratio    " << harness::Table::fmt(due_ratio)
              << "x\n";

    out.finish({baseline, squashed});
    return 0;
}
