/**
 * @file
 * Reproduces the paper's Figure 3: coverage of FDD (first-level
 * dynamically dead) instructions as a function of PET-buffer size,
 * in the paper's three cumulative categories:
 *
 *   - FDD via registers, excluding return-established FDDs
 *   - + FDD established by procedure returns
 *   - + FDD via memory
 *
 * The paper's anchors: a 512-entry buffer covers ~32% of FDD via
 * registers; growing to ~10,000 entries and including returns covers
 * most of them.
 *
 * The sweep runs benchmark x PET-size points through the experiment
 * harness on the SuiteRunner worker pool. The PET size only matters
 * after commit (the coverage fold and the false-DUE summary), so the
 * process-wide run cache (harness/run_cache.hh) simulates and
 * analyzes each benchmark exactly once: with --json, every
 * benchmark's first point records run_cache {sim, deadness, avf} =
 * "miss" and the other sizes record "hit".
 *
 * Usage: fig3_pet_sweep [insts=N] [benchmarks=a,b,c] [--csv]
 *                       [--jobs N]
 */

#include <iostream>
#include <vector>

#include "core/pet_buffer.hh"
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
        argc, argv, "Figure 3: FDD coverage vs PET-buffer size");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::uint64_t insts = config.getUint("insts", 200000);
    std::vector<std::string> benchmarks =
        config.getList("benchmarks", workloads::suiteNames());

    const std::vector<std::uint32_t> sizes = {
        32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};

    // Queue benchmark x size: each surrogate is built once and
    // shared read-only; each simulation/deadness/AVF is computed
    // once per benchmark (run cache) no matter how many sizes sweep.
    harness::SuiteRunner runner(opts.jobs);
    for (const auto &name : benchmarks) {
        std::size_t prog = runner.addProgram(name, insts);
        for (std::uint32_t size : sizes) {
            harness::ExperimentConfig cfg;
            cfg.dynamicTarget = insts;
            cfg.warmupInsts = 0;
            cfg.petSize = size;
            cfg.pipeline.maxInsts = insts * 2;
            runner.submit(prog, out.stamp(cfg));
        }
    }
    std::vector<harness::RunArtifacts> runs = runner.run();
    // Everything after the sweep (fold, tables, manifest) under
    // one profiled scope, so snapshots show sweep vs aggregation
    // time at a glance.
    SER_PROF_SCOPE("aggregate");

    // Fold the coverage populations over the whole suite, in
    // submission order: integer sums, so the table is identical for
    // any --jobs value (and with --no-run-cache).
    struct Totals
    {
        std::uint64_t nonRet = 0, nonRetCov = 0;
        std::uint64_t ret = 0, retCov = 0;
        std::uint64_t mem = 0, memCov = 0;
    };
    std::vector<Totals> totals(sizes.size());
    std::size_t idx = 0;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        for (std::size_t i = 0; i < sizes.size(); ++i, ++idx) {
            const harness::RunArtifacts &r = runs[idx];
            core::PetCoverage cov =
                core::petCoverage(*r.deadness, sizes[i]);
            totals[i].nonRet += cov.fddRegNonReturn;
            totals[i].nonRetCov += cov.coveredNonReturn;
            totals[i].ret += cov.fddRegReturn;
            totals[i].retCov += cov.coveredReturn;
            totals[i].mem += cov.fddMem;
            totals[i].memCov += cov.coveredMem;
        }
    }

    Table table({"PET entries", "FDD-reg (no returns)",
                 "+ return FDDs", "+ FDD via memory"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const Totals &t = totals[i];
        double non_ret =
            t.nonRet ? double(t.nonRetCov) / t.nonRet : 0;
        double with_ret =
            t.nonRet + t.ret
                ? double(t.nonRetCov + t.retCov) /
                      double(t.nonRet + t.ret)
                : 0;
        double all =
            t.nonRet + t.ret + t.mem
                ? double(t.nonRetCov + t.retCov + t.memCov) /
                      double(t.nonRet + t.ret + t.mem)
                : 0;
        table.addRow({std::to_string(sizes[i]), Table::pct(non_ret),
                      Table::pct(with_ret), Table::pct(all)});
    }

    harness::printHeading(
        std::cout,
        "Figure 3: FDD coverage vs PET buffer size (suite "
        "aggregate)");
    out.print("pet_sweep", table);

    std::cout << "\npaper anchors: 512 entries cover ~32% of FDD "
                 "via registers; ~10k entries with returns cover "
                 "most FDDs (but a 10,000-entry PET buffer may not "
                 "be implementable)\n";

    out.finish(runs);
    return 0;
}
