/**
 * @file
 * Reproduces the paper's Figure 4: the combined impact of both
 * techniques, per benchmark —
 *
 *   - relative SDC AVF of an *unprotected* queue with squashing on
 *     L1 load misses (paper average: 0.74, i.e. a 26% reduction;
 *     ammp is the outlier at ~0.1 for only ~7% IPC loss);
 *   - relative DUE AVF of a *parity-protected* queue with squashing
 *     plus pi-bit tracking to the store-buffer commit point
 *     (Section 4.3.3 option 3; paper average: 0.43, a 57%
 *     reduction);
 *   - the IPC impact (paper: ~2%).
 *
 * Usage: fig4_combined [insts=N] [--csv]
 */

#include <iostream>

#include "core/due_tracker.hh"
#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "harness/suite_runner.hh"
#include "sim/config.hh"
#include "sim/prof.hh"
#include "workloads/profile.hh"

using namespace ser;
using harness::Table;
using core::TrackingLevel;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv,
        "Figure 4: combined squashing + pi-tracking impact");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::uint64_t insts = config.getUint("insts", 200000);

    Table table({"benchmark", "rel SDC AVF", "rel DUE AVF",
                 "dIPC"});
    double sdc_sum = 0, due_sum = 0, ipc_sum = 0;
    int n = 0;

    harness::ExperimentConfig base;
    base.dynamicTarget = insts;
    base.warmupInsts = insts / 10;
    harness::ExperimentConfig opt = base;
    opt.triggerLevel = "l1";
    opt.triggerAction = "squash";

    // Baseline and optimized runs share one program build per
    // surrogate and execute on the --jobs worker pool.
    harness::SuiteRunner runner(opts.jobs);
    for (const auto &profile : workloads::specSuite()) {
        std::size_t prog = runner.addProgram(profile, insts);
        runner.submit(prog, out.stamp(base));
        runner.submit(prog, out.stamp(opt));
    }
    std::vector<harness::RunArtifacts> runs = runner.run();
    // Everything after the sweep (fold, tables, manifest) under
    // one profiled scope, so snapshots show sweep vs aggregation
    // time at a glance.
    SER_PROF_SCOPE("aggregate");

    std::size_t idx = 0;
    for (const auto &profile : workloads::specSuite()) {
        const harness::RunArtifacts &r_base = runs[idx++];
        const harness::RunArtifacts &r_opt = runs[idx++];

        // SDC: unprotected queue, squashing only.
        double rel_sdc =
            r_base.avf->sdcAvf() > 0
                ? r_opt.avf->sdcAvf() / r_base.avf->sdcAvf()
                : 1.0;
        // DUE: parity-protected queue; baseline signals on detect,
        // optimized squashes and tracks pi to the store buffer.
        double due_base =
            r_base.falseDue.dueAvf(TrackingLevel::None);
        double due_opt =
            r_opt.falseDue.dueAvf(TrackingLevel::PiStoreBuffer);
        double rel_due = due_base > 0 ? due_opt / due_base : 1.0;
        double d_ipc = r_opt.ipc / r_base.ipc - 1.0;

        table.addRow({profile.name, Table::fmt(rel_sdc),
                      Table::fmt(rel_due), Table::pct(d_ipc)});
        sdc_sum += rel_sdc;
        due_sum += rel_due;
        ipc_sum += d_ipc;
        ++n;
    }

    harness::printHeading(
        std::cout,
        "Figure 4: combined exposure + false-DUE reduction");
    out.print("combined", table);

    std::cout << "\naverages: relative SDC AVF "
              << Table::fmt(sdc_sum / n) << " (paper ~0.74), "
              << "relative DUE AVF " << Table::fmt(due_sum / n)
              << " (paper ~0.43), IPC change "
              << Table::pct(ipc_sum / n) << " (paper ~-2%)\n";

    out.finish(runs);
    return 0;
}
