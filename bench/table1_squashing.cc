/**
 * @file
 * Reproduces the paper's Table 1: the impact of squashing on IPC and
 * the instruction queue's SDC and DUE AVFs, for three design points:
 *
 *     No squashing
 *     Squash on L1 load misses
 *     Squash on L0 load misses
 *
 * Prints per-benchmark rows plus the suite averages the paper
 * reports (IPC, SDC AVF, DUE AVF, IPC/SDC-AVF, IPC/DUE-AVF).
 *
 * The 26 x 3 runs execute on the SuiteRunner worker pool (--jobs N);
 * each surrogate is built once and shared read-only across its three
 * design points, and output is byte-identical for any job count
 * (timings aside).
 *
 * Usage: table1_squashing [insts=N] [benchmarks=a,b,c] [--csv]
 *                         [action=squash|throttle|both]
 *                         [l1_lat=N] [l2_lat=N] [mem_lat=N]
 *                         [samples=N] [cseed=N] [protection=none]
 *                         [structures=iq] [batch=N] [checkpoints=N]
 *                         [--ci-target R] [--jobs N]
 *
 * action= overrides the trigger action of every design point;
 * l1_lat=/l2_lat=/mem_lat= override the memory-hierarchy latencies
 * (0 or absent keeps the defaults). The latency keys exist so the
 * cycle_skip_identical_* ctest fixtures can build a long-latency
 * stress configuration where idle-cycle fast-forward actually has
 * spans to skip.
 *
 * samples=N (default 0 = off) attaches a statistical fault-injection
 * campaign to every run, cross-validating each design point's
 * analytical AVF against measured injection outcomes; the
 * reconciliation lands in an extra table and in each manifest run's
 * campaign block. Under the table, a Holm adjustment says how many of
 * its point comparisons (parity DUE rows) stand.
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

namespace
{

struct DesignPoint
{
    const char *label;
    const char *trigger;
};

struct Row
{
    double ipc = 0.0;
    double sdc = 0.0;
    double due = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv, "Table 1: the IPC and AVF impact of squashing");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::uint64_t insts = config.getUint("insts", 300000);
    std::string action = config.getString("action", "squash");
    std::uint32_t l1_lat =
        static_cast<std::uint32_t>(config.getUint("l1_lat", 0));
    std::uint32_t l2_lat =
        static_cast<std::uint32_t>(config.getUint("l2_lat", 0));
    std::uint32_t mem_lat =
        static_cast<std::uint32_t>(config.getUint("mem_lat", 0));
    std::vector<std::string> benchmarks =
        config.getList("benchmarks", workloads::suiteNames());

    // Optional measured-AVF cross-validation campaign per run.
    faults::CampaignSpec campaign;
    campaign.samples = config.getUint("samples", 0);
    campaign.seed = config.getUint("cseed", 0xFA117);
    campaign.protection =
        faults::parseProtection(config.getString("protection", "none"));
    campaign.structures = faults::parseStructures(
        config.getString("structures", "iq"));
    campaign.batchSamples = config.getUint("batch", 4096);
    campaign.checkpoints =
        static_cast<unsigned>(config.getUint("checkpoints", 32));

    const DesignPoint points[] = {
        {"No squashing", "none"},
        {"Squash on L1 load misses", "l1"},
        {"Squash on L0 load misses", "l0"},
    };

    Table per_bench({"benchmark", "design", "IPC", "SDC AVF",
                     "DUE AVF", "idle", "ex-ACE", "dead"});
    std::vector<Row> totals(3);

    // Queue the whole 26 x 3 sweep: each surrogate is built once
    // (by the first worker that needs it) and shared read-only
    // across its design points.
    harness::SuiteRunner runner(opts.jobs);
    for (const auto &name : benchmarks) {
        std::size_t prog = runner.addProgram(name, insts);
        for (int d = 0; d < 3; ++d) {
            harness::ExperimentConfig cfg;
            cfg.dynamicTarget = insts;
            cfg.warmupInsts = insts / 10;
            cfg.triggerLevel = points[d].trigger;
            cfg.triggerAction = action;
            if (l1_lat)
                cfg.pipeline.hierarchy.l1.hitLatency = l1_lat;
            if (l2_lat)
                cfg.pipeline.hierarchy.l2.hitLatency = l2_lat;
            if (mem_lat)
                cfg.pipeline.hierarchy.memLatency = mem_lat;
            cfg.campaign = campaign;
            runner.submit(prog, out.stamp(cfg));
        }
    }
    std::vector<harness::RunArtifacts> runs = runner.run();
    // Everything after the sweep (fold, tables, manifest) under
    // one profiled scope, so snapshots show sweep vs aggregation
    // time at a glance.
    SER_PROF_SCOPE("aggregate");

    // Aggregate in submission order: identical tables, averages and
    // manifest for any --jobs value.
    std::size_t idx = 0;
    for (const auto &name : benchmarks) {
        for (int d = 0; d < 3; ++d, ++idx) {
            const harness::RunArtifacts &r = runs[idx];
            totals[d].ipc += r.ipc;
            totals[d].sdc += r.avf->sdcAvf();
            totals[d].due += r.avf->dueAvf();
            per_bench.addRow(
                {name, points[d].trigger, Table::fmt(r.ipc),
                 Table::pct(r.avf->sdcAvf()),
                 Table::pct(r.avf->dueAvf()),
                 Table::pct(r.avf->idleFraction()),
                 Table::pct(r.avf->exAceFraction()),
                 Table::pct(r.deadness->deadFraction())});
        }
    }

    harness::printHeading(std::cout,
                          "per-benchmark results (" +
                              std::to_string(insts) +
                              " dynamic instructions each)");
    out.print("per_benchmark", per_bench);

    // The paper's Table 1 (suite averages).
    double n = static_cast<double>(benchmarks.size());
    Table table1({"Design Point", "IPC", "SDC AVF", "DUE AVF",
                  "IPC / SDC AVF", "IPC / DUE AVF"});
    for (int d = 0; d < 3; ++d) {
        double ipc = totals[d].ipc / n;
        double sdc = totals[d].sdc / n;
        double due = totals[d].due / n;
        table1.addRow({points[d].label, Table::fmt(ipc),
                       Table::pct(sdc, 0), Table::pct(due, 0),
                       Table::fmt(sdc > 0 ? ipc / sdc : 0, 1),
                       Table::fmt(due > 0 ? ipc / due : 0, 1)});
    }
    harness::printHeading(
        std::cout, "Table 1: impact of squashing (suite averages)");
    out.print("table1", table1);

    // Paper anchor: L1 squashing cuts SDC AVF ~26% and DUE AVF ~18%
    // for ~2% IPC; L0 squashing cuts more AVF but ~10% IPC.
    harness::printHeading(std::cout, "changes vs no squashing");
    Table deltas({"Design Point", "dIPC", "dSDC AVF", "dDUE AVF",
                  "SDC MITF", "DUE MITF"});
    for (int d = 1; d < 3; ++d) {
        double ipc0 = totals[0].ipc, ipc = totals[d].ipc;
        double sdc0 = totals[0].sdc, sdc = totals[d].sdc;
        double due0 = totals[0].due, due = totals[d].due;
        deltas.addRow(
            {points[d].label, Table::pct(ipc / ipc0 - 1),
             Table::pct(sdc / sdc0 - 1), Table::pct(due / due0 - 1),
             Table::fmt((ipc / sdc) / (ipc0 / sdc0), 2) + "x",
             Table::fmt((ipc / due) / (ipc0 / due0), 2) + "x"});
    }
    out.print("deltas", deltas);

    if (campaign.samples) {
        Table recon({"benchmark", "design", "structure", "samples",
                     "SDC", "SDC 95% CI", "analytical SDC",
                     "covered", "DUE", "DUE 95% CI",
                     "analytical DUE", "covered", "rerun cost"});
        std::size_t covered = 0, checks = 0;
        std::vector<faults::StructureCampaign> rows;
        idx = 0;
        for (const auto &name : benchmarks) {
            for (int d = 0; d < 3; ++d, ++idx) {
                const harness::RunArtifacts &r = runs[idx];
                if (!r.campaign)
                    continue;
                const faults::CampaignOutcome &c = *r.campaign;
                for (const auto &s : c.structures) {
                    rows.push_back(s);
                    checks += 2;
                    covered += (s.sdcCovered ? 1 : 0) +
                               (s.dueCovered ? 1 : 0);
                    recon.addRow(
                        {name, points[d].trigger,
                         faults::structureName(s.structure),
                         std::to_string(s.tally.samples),
                         Table::pct(s.sdcRate()),
                         Table::range(s.sdcCi.lo, s.sdcCi.hi),
                         Table::range(s.analyticalSdcLower,
                                      s.analyticalSdc),
                         s.sdcCovered ? "yes" : "NO",
                         Table::pct(s.dueRate()),
                         Table::range(s.dueCi.lo, s.dueCi.hi),
                         Table::range(s.analyticalDueLower,
                                      s.analyticalDue),
                         s.dueCovered ? "yes" : "NO",
                         Table::pct(c.meanRerunFraction())});
                }
            }
        }
        harness::printHeading(
            std::cout, "measured vs analytical AVF (" +
                           std::to_string(campaign.samples) +
                           "-sample campaigns)");
        out.print("campaign_reconciliation", recon);
        std::cout << "reconciliation: " << covered << "/" << checks
                  << " measured 95% CIs cover their analytical "
                     "band\n";
        const faults::PointChecks points =
            faults::holmPointChecks(rows, 0.05);
        std::cout << "point checks: " << points.standing << "/"
                  << points.total
                  << " stand after a Holm adjustment (family-wise "
                     "5%)\n";
    }
    out.finish(runs);
    return 0;
}
