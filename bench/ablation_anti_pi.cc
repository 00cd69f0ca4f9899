/**
 * @file
 * Ablation: the anti-pi bit versus re-decoding at retire
 * (Section 4.3.2). Without the anti-pi bit, the retire unit must
 * re-read and re-decode each instruction to recognise neutral
 * types, which makes the Ex-ACE residency readable and inflates the
 * false DUE AVF — the paper quotes 33% -> 41%.
 *
 * Usage: ablation_anti_pi [insts=N]
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

using namespace ser;
using harness::Table;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv, "Ablation: anti-pi bit vs decode-at-retire");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::uint64_t insts = config.getUint("insts", 150000);

    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = insts;
    cfg.warmupInsts = insts / 10;

    // One run per surrogate on the --jobs worker pool.
    harness::SuiteRunner runner(opts.jobs);
    runner.setLabel("ablation_anti_pi");
    for (const auto &profile : workloads::specSuite())
        runner.submit(runner.addProgram(profile, insts),
                      out.stamp(cfg));
    std::vector<harness::RunArtifacts> runs = runner.run();
    // Everything after the sweep (fold, tables, manifest) under
    // one profiled scope, so snapshots show sweep vs aggregation
    // time at a glance.
    SER_PROF_SCOPE("aggregate");

    Table table({"benchmark", "false DUE (anti-pi)",
                 "false DUE (decode-at-retire)", "inflation"});
    double a_sum = 0, d_sum = 0;
    int n = 0;
    std::size_t idx = 0;
    for (const auto &profile : workloads::specSuite()) {
        const harness::RunArtifacts &r = runs[idx++];
        double anti = r.avf->falseDueAvf();
        double decode = r.avf->falseDueAvfDecodeAtRetire();
        table.addRow({profile.name, Table::pct(anti),
                      Table::pct(decode),
                      Table::pct(anti > 0 ? decode / anti - 1 : 0)});
        a_sum += anti;
        d_sum += decode;
        ++n;
    }

    harness::printHeading(
        std::cout, "anti-pi bit vs decode-at-retire (Section "
                   "4.3.2 trade-off)");
    out.print("anti_pi", table);
    std::cout << "\naverages: " << Table::pct(a_sum / n) << " -> "
              << Table::pct(d_sum / n)
              << " (paper: 33% -> 41% — re-decoding at retire "
                 "makes Ex-ACE time readable)\n";

    out.finish(runs);
    return 0;
}
