/**
 * @file
 * Ablation: AVF and the benefit of squashing as a function of the
 * instruction-queue size (the paper fixes 64 entries; this sweep
 * shows how exposure and the squashing win scale with the structure
 * being protected).
 *
 * Usage: ablation_iq_size [insts=N] [benchmark=vortex]
 */

#include <iostream>

#include "harness/bench_options.hh"
#include "harness/experiment.hh"
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
        argc, argv, "Ablation: AVF vs instruction-queue size");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::uint64_t insts = config.getUint("insts", 120000);
    std::string benchmark = config.getString("benchmark", "vortex");

    const unsigned sizes[] = {16u, 32u, 64u, 128u, 256u};

    // One shared program build; the 5 sizes x {base, squash-l1}
    // runs execute on the --jobs worker pool.
    harness::SuiteRunner runner(opts.jobs);
    std::size_t prog = runner.addProgram(benchmark, insts);
    for (unsigned entries : sizes) {
        harness::ExperimentConfig cfg;
        cfg.dynamicTarget = insts;
        cfg.warmupInsts = insts / 10;
        cfg.pipeline.iqEntries = entries;
        runner.submit(prog, out.stamp(cfg));

        cfg.triggerLevel = "l1";
        runner.submit(prog, out.stamp(cfg));
    }
    std::vector<harness::RunArtifacts> runs = runner.run();
    // Everything after the sweep (fold, tables, manifest) under
    // one profiled scope, so snapshots show sweep vs aggregation
    // time at a glance.
    SER_PROF_SCOPE("aggregate");

    Table table({"IQ entries", "IPC", "SDC AVF", "idle",
                 "SDC AVF (squash l1)", "squash dSDC"});
    std::size_t idx = 0;
    for (unsigned entries : sizes) {
        const harness::RunArtifacts &base = runs[idx];
        const harness::RunArtifacts &squash = runs[idx + 1];
        idx += 2;

        table.addRow(
            {std::to_string(entries), Table::fmt(base.ipc),
             Table::pct(base.avf->sdcAvf()),
             Table::pct(base.avf->idleFraction()),
             Table::pct(squash.avf->sdcAvf()),
             Table::pct(squash.avf->sdcAvf() / base.avf->sdcAvf() -
                        1)});
    }

    harness::printHeading(std::cout,
                          "IQ size ablation (" + benchmark + ")");
    out.print("iq_size", table);
    std::cout << "\n(the AVF *fraction* falls with queue size as a "
                 "bigger queue holds more idle/unread state, while "
                 "the absolute exposed bit-cycles grow; squashing "
                 "matters more as occupancy rises)\n";

    out.finish(runs);
    return 0;
}
