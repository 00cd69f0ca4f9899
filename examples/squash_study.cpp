/**
 * @file
 * Scenario: you are sizing an exposure-reduction policy for a
 * memory-bound workload. This example sweeps the full trigger/action
 * space of Section 3.1 on one benchmark and reports the
 * IPC-vs-AVF-vs-MITF frontier, showing how to reason with the
 * paper's MITF metric (worthwhile only if IPC/AVF rises).
 *
 * Usage: squash_study [benchmark=ammp] [insts=200000]
 */

#include <iostream>

#include "avf/mitf.hh"
#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "harness/suite_runner.hh"
#include "sim/config.hh"

using namespace ser;
using harness::Table;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv, "Squash study: trigger/action frontier");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::string benchmark = config.getString("benchmark", "ammp");
    std::uint64_t insts = config.getUint("insts", 200000);

    struct Point
    {
        const char *trigger;
        const char *action;
    };
    const Point points[] = {
        {"none", "squash"},   {"l0", "squash"}, {"l1", "squash"},
        {"l2", "squash"},     {"l0", "throttle"},
        {"l1", "throttle"},   {"l0", "both"},   {"l1", "both"},
    };

    // One program build, shared by the eight design points.
    harness::SuiteRunner runner(opts.jobs);
    runner.setLabel("squash_study");
    std::size_t program = runner.addProgram(benchmark, insts);
    for (const auto &pt : points) {
        harness::ExperimentConfig cfg;
        cfg.dynamicTarget = insts;
        cfg.warmupInsts = insts / 10;
        cfg.triggerLevel = pt.trigger;
        cfg.triggerAction = pt.action;
        runner.submit(program, out.stamp(cfg));
    }
    std::vector<harness::RunArtifacts> runs = runner.run();

    Table table({"trigger", "action", "IPC", "SDC AVF", "DUE AVF",
                 "idle", "SDC MITF", "DUE MITF", "verdict"});
    double base_ipc = 1, base_sdc = 1, base_due = 1;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const harness::RunArtifacts &r = runs[i];
        const auto &pt = points[i];
        if (std::string(pt.trigger) == "none") {
            base_ipc = r.ipc;
            base_sdc = r.avf->sdcAvf();
            base_due = r.avf->dueAvf();
        }
        double sdc_mitf = avf::mitfRatio(base_ipc, base_sdc, r.ipc,
                                         r.avf->sdcAvf());
        double due_mitf = avf::mitfRatio(base_ipc, base_due, r.ipc,
                                         r.avf->dueAvf());
        const char *verdict =
            sdc_mitf > 1.02 ? "worthwhile"
            : sdc_mitf < 0.98 ? "counterproductive"
                              : "neutral";
        table.addRow({pt.trigger, pt.action, Table::fmt(r.ipc),
                      Table::pct(r.avf->sdcAvf()),
                      Table::pct(r.avf->dueAvf()),
                      Table::pct(r.avf->idleFraction()),
                      Table::fmt(sdc_mitf) + "x",
                      Table::fmt(due_mitf) + "x", verdict});
    }

    harness::printHeading(std::cout, "exposure-reduction frontier: " +
                                         benchmark);
    out.print("frontier", table);
    std::cout << "\nMITF = IPC x frequency x MTTF; at fixed "
                 "frequency and raw error rate it is proportional "
                 "to IPC / AVF, so a design point is worthwhile "
                 "exactly when that ratio beats the baseline "
                 "(Section 3.2).\n";

    out.finish(runs);
    return 0;
}
