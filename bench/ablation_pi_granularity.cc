/**
 * @file
 * Ablation: pi-bit granularity and self-exposure (Section 4.2).
 *
 * The pi bit is itself vulnerable: "a strike on the pi bit itself
 * will result in a false DUE event". Attaching pi bits at finer
 * granularity (per byte rather than per entry) localises errors but
 * multiplies that self-exposure. This study computes, from a real
 * run's residency, the false-DUE AVF contribution of k pi bits per
 * queue entry for k in {1 (per entry), 2, 4, 8 (per byte)} — the
 * pi-bit self-exposure is the committed residency fraction times
 * k / (64 + k) of the protected block.
 *
 * Usage: ablation_pi_granularity [insts=N] [benchmark=mesa]
 */

#include <iostream>

#include "cpu/trace.hh"
#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "harness/suite_runner.hh"
#include "sim/config.hh"
#include "sim/prof.hh"
#include "workloads/suite.hh"

using namespace ser;
using harness::Table;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv, "Ablation: pi-bit granularity self-exposure");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::uint64_t insts = config.getUint("insts", 150000);
    std::string benchmark = config.getString("benchmark", "mesa");

    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = insts;
    cfg.warmupInsts = insts / 10;

    // Single design point, still routed through the SuiteRunner so
    // the run's phase timing works as in every other bench main.
    harness::SuiteRunner runner(opts.jobs);
    runner.submit(runner.addProgram(benchmark, insts), out.stamp(cfg));
    std::vector<harness::RunArtifacts> runs = runner.run();
    // Everything after the sweep (fold, tables, manifest) under
    // one profiled scope, so snapshots show sweep vs aggregation
    // time at a glance.
    SER_PROF_SCOPE("aggregate");
    harness::RunArtifacts &r = runs.front();

    // A pi-bit strike is examined whenever the instruction commits
    // on the correct path; its exposure window is the entry's full
    // residency (the bit is live from allocation to retire-check).
    std::uint64_t committed_residency = 0;
    for (const auto &inc : r.trace->incarnations) {
        if (inc.flags & cpu::incCommitted)
            committed_residency +=
                inc.evictCycle - inc.enqueueCycle;
    }
    std::uint64_t window = r.trace->endCycle - r.trace->startCycle;
    double entry_cycles =
        static_cast<double>(r.trace->iqEntries) * window;

    harness::printHeading(
        std::cout, "pi-bit granularity self-exposure (" + benchmark +
                       ")");
    Table table({"pi bits/entry", "granularity",
                 "self false-DUE AVF", "vs payload false DUE"});
    double payload_false = r.avf->falseDueAvf();
    for (int k : {1, 2, 4, 8}) {
        // Fraction of the (64 payload + k pi) bit-cycles that are
        // vulnerable pi bits on committed instructions.
        double self =
            (static_cast<double>(committed_residency) /
             entry_cycles) *
            (static_cast<double>(k) / (64.0 + k));
        const char *gran = k == 1   ? "per entry"
                           : k == 8 ? "per byte"
                                    : "per sub-word";
        table.addRow({std::to_string(k), gran, Table::pct(self, 2),
                      Table::pct(payload_false > 0
                                     ? self / payload_false
                                     : 0)});
    }
    out.print("pi_granularity", table);
    std::cout
        << "\npayload false DUE AVF for reference: "
        << Table::pct(payload_false)
        << "\n(finer pi granularity isolates errors for byte-write "
           "ISAs but linearly multiplies the pi bits' own "
           "false-DUE exposure)\n";

    out.finish(runs);
    return 0;
}
