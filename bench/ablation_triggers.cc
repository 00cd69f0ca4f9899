/**
 * @file
 * Ablation: the full trigger/action design space of Section 3.1.
 * Sweeps trigger level {l0, l1, l2} x action {squash, throttle,
 * both} over a representative benchmark subset and reports the
 * IPC/AVF/MITF frontier — including the fetch-throttling action the
 * paper studied but did not report numbers for ("we did not observe
 * significant reduction in AVF beyond what instruction squashing
 * already provides").
 *
 * Usage: ablation_triggers [insts=N] [benchmarks=a,b,c]
 */

#include <iostream>
#include <vector>

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
        argc, argv, "Ablation: trigger level x action design space");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::uint64_t insts = config.getUint("insts", 120000);
    std::vector<std::string> benchmarks = config.getList(
        "benchmarks",
        {"mcf", "ammp", "gzip", "equake", "vortex", "facerec"});

    struct Point
    {
        const char *trigger;
        const char *action;
    };
    const Point points[] = {
        {"none", "squash"}, {"l0", "squash"},   {"l1", "squash"},
        {"l2", "squash"},   {"l0", "throttle"}, {"l1", "throttle"},
        {"l0", "both"},     {"l1", "both"},
    };

    // Each program is built once and shared read-only across all
    // eight trigger/action points; the sweep runs on the --jobs
    // worker pool with submission-order aggregation.
    harness::SuiteRunner runner(opts.jobs);
    runner.setLabel("ablation_triggers");
    std::vector<std::size_t> prog_ids;
    for (const auto &name : benchmarks)
        prog_ids.push_back(runner.addProgram(name, insts));
    for (const auto &pt : points) {
        for (std::size_t i = 0; i < prog_ids.size(); ++i) {
            harness::ExperimentConfig cfg;
            cfg.dynamicTarget = insts;
            cfg.warmupInsts = insts / 10;
            cfg.triggerLevel = pt.trigger;
            cfg.triggerAction = pt.action;
            runner.submit(prog_ids[i], out.stamp(cfg));
        }
    }
    std::vector<harness::RunArtifacts> runs = runner.run();
    // Everything after the sweep (fold, tables, manifest) under
    // one profiled scope, so snapshots show sweep vs aggregation
    // time at a glance.
    SER_PROF_SCOPE("aggregate");

    Table table({"trigger", "action", "IPC", "SDC AVF", "DUE AVF",
                 "SDC MITF", "DUE MITF"});
    double base_ipc = 0, base_sdc = 0, base_due = 0;
    std::size_t idx = 0;
    for (const auto &pt : points) {
        double ipc = 0, sdc = 0, due = 0;
        for (std::size_t i = 0; i < prog_ids.size(); ++i, ++idx) {
            const harness::RunArtifacts &r = runs[idx];
            ipc += r.ipc;
            sdc += r.avf->sdcAvf();
            due += r.avf->dueAvf();
        }
        double n = static_cast<double>(prog_ids.size());
        ipc /= n;
        sdc /= n;
        due /= n;
        if (std::string(pt.trigger) == "none") {
            base_ipc = ipc;
            base_sdc = sdc;
            base_due = due;
        }
        table.addRow(
            {pt.trigger, pt.action, Table::fmt(ipc),
             Table::pct(sdc), Table::pct(due),
             Table::fmt((ipc / sdc) / (base_ipc / base_sdc)) + "x",
             Table::fmt((ipc / due) / (base_ipc / base_due)) +
                 "x"});
    }

    harness::printHeading(
        std::cout,
        "trigger/action ablation (avg over " +
            std::to_string(benchmarks.size()) + " benchmarks, " +
            std::to_string(insts) + " insts)");
    out.print("triggers", table);

    out.finish(runs);
    return 0;
}
