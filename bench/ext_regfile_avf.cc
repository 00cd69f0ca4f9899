/**
 * @file
 * Extension study (the paper's closing remark): applying the same
 * machinery to the register files. For each benchmark, reports the
 * int/fp/predicate register-file SDC AVFs, the dead-value fraction
 * a pi-bit-per-register scheme would prove false on a parity-
 * protected file, and the effect of instruction-queue squashing on
 * the register files (minimal — squashing protects queue residency,
 * not committed values, which is why the paper applies it to the
 * queue).
 *
 * Usage: ext_regfile_avf [insts=N] [--csv]
 */

#include <iostream>

#include "avf/regfile_avf.hh"
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
        argc, argv, "Extension: register-file AVF");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::uint64_t insts = config.getUint("insts", 150000);

    Table table({"benchmark", "int SDC AVF", "int dead-value",
                 "fp SDC AVF", "fp dead-value", "pred SDC AVF",
                 "IQ SDC AVF"});
    double int_sum = 0, dead_sum = 0;
    int n = 0;

    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = insts;
    cfg.warmupInsts = insts / 10;

    // One run per surrogate on the --jobs worker pool.
    harness::SuiteRunner runner(opts.jobs);
    for (const auto &profile : workloads::specSuite())
        runner.submit(runner.addProgram(profile, insts),
                      out.stamp(cfg));
    std::vector<harness::RunArtifacts> runs = runner.run();
    // Everything after the sweep (fold, tables, manifest) under
    // one profiled scope, so snapshots show sweep vs aggregation
    // time at a glance.
    SER_PROF_SCOPE("aggregate");

    std::size_t idx = 0;
    for (const auto &profile : workloads::specSuite()) {
        const harness::RunArtifacts &r = runs[idx++];
        auto rf = avf::computeRegFileAvf(*r.trace, *r.deadness);
        table.addRow({profile.name,
                      Table::pct(rf.intFile.sdcAvf()),
                      Table::pct(rf.intFile.falseDueAvf()),
                      Table::pct(rf.fpFile.sdcAvf()),
                      Table::pct(rf.fpFile.falseDueAvf()),
                      Table::pct(rf.predFile.sdcAvf()),
                      Table::pct(r.avf->sdcAvf())});
        int_sum += rf.intFile.sdcAvf();
        dead_sum += rf.intFile.falseDueAvf();
        ++n;
    }

    harness::printHeading(
        std::cout,
        "extension: register-file AVF (paper Section 8: 'they can "
        "also reduce the AVF of other structures, such as the "
        "register file')");
    out.print("regfile_avf", table);
    std::cout << "\naverages: int-file SDC AVF "
              << Table::pct(int_sum / n) << ", of which dead-value "
              << Table::pct(dead_sum / n)
              << " is removable by the pi-bit-per-register scheme "
                 "on a parity-protected file\n";

    out.finish(runs);
    return 0;
}
