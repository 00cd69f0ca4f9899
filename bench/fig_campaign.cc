/**
 * @file
 * Statistical fault-injection campaigns cross-validating the
 * analytical AVF fold (the paper's ACE methodology) against
 * *measured* outcome rates.
 *
 * For each benchmark x protection level, a Monte-Carlo campaign
 * samples (structure, entry, bit, cycle) sites, classifies each via
 * checkpoint/fork counterfactual re-execution, and reports the
 * measured SDC/DUE rates with 95% Wilson CIs next to the analytical
 * AVF band each must cover. The final table is the empirical check
 * that the ACE analysis brackets ground truth: measured SDC lands in
 * [field-refined ACE, whole-payload ACE], measured DUE under parity
 * lands on the pre-read occupancy the fold counts. Those parity DUE
 * points are many comparisons at once, so a Holm adjustment
 * (family-wise 5%) under the table says how many of them stand.
 *
 * Each campaign also records its per-batch convergence time-series
 * (faults::ConvergencePoint): the convergence table below shows how
 * many samples each campaign needed to reach --ci-target, and
 * --convergence-out streams the full series as JSONL for plotting
 * time-to-CI-target (scripts/bench_compare.py-style tooling).
 *
 * Usage: fig_campaign [insts=N] [samples=N] [benchmarks=a,b]
 *                     [protections=none,parity,ecc]
 *                     [structures=iq,regfile] [cseed=N] [batch=N]
 *                     [checkpoints=N] [--ci-target X] [--topn N]
 *                     [--jobs N] [--json PATH] [--csv]
 *                     [--convergence-out F]
 */

#include <iostream>
#include <sstream>
#include <vector>

#include "faults/campaign_engine.hh"
#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "harness/suite_runner.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/prof.hh"
#include "workloads/profile.hh"

using namespace ser;
using harness::Table;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv,
        "Measured vs analytical AVF: fault-injection campaigns");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::uint64_t insts = config.getUint("insts", 60000);
    // Defaults span the suite's behaviour space: an integer
    // compressor, the memory-bound pointer chaser, and an FP
    // streaming code.
    std::vector<std::string> bench_names =
        config.getList("benchmarks", {"gzip", "mcf", "swim"});
    std::vector<std::string> prot_names =
        config.getList("protections", {"none", "parity", "ecc"});

    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = insts;
    cfg.warmupInsts = insts / 10;
    cfg.campaign.samples = config.getUint("samples", 20000);
    cfg.campaign.seed = config.getUint("cseed", 0xFA117);
    cfg.campaign.structures = faults::parseStructures(
        config.getString("structures", "iq,regfile"));
    cfg.campaign.batchSamples = config.getUint("batch", 4096);
    cfg.campaign.checkpoints = static_cast<unsigned>(
        config.getUint("checkpoints", 32));

    if (bench_names.empty() || prot_names.empty())
        SER_FATAL("fig_campaign: benchmarks= and protections= must "
                  "be non-empty");

    // One run per benchmark x protection. The run cache shares the
    // simulation and analytical folds across the protection axis
    // (protection only changes the campaign classification), so each
    // benchmark simulates once.
    harness::SuiteRunner runner(opts.jobs);
    runner.setLabel("fig_campaign");
    for (const auto &bench : bench_names) {
        std::size_t program = runner.addProgram(bench, insts);
        for (const auto &prot : prot_names) {
            cfg.campaign.protection = faults::parseProtection(prot);
            runner.submit(program, out.stamp(cfg));
        }
    }
    std::vector<harness::RunArtifacts> runs = runner.run();
    SER_PROF_SCOPE("aggregate");

    Table table({"benchmark", "protection", "structure", "samples",
                 "SDC rate", "SDC 95% CI", "analytical SDC",
                 "SDC ok", "DUE rate", "DUE 95% CI",
                 "analytical DUE", "DUE ok"});
    Table econ({"benchmark", "protection", "samples", "early stop",
                "CI half-width", "reruns", "mean rerun cost",
                "checkpoints"});
    std::size_t covered = 0, checks = 0;
    std::vector<faults::StructureCampaign> rows;
    for (const harness::RunArtifacts &r : runs) {
        if (!r.campaign)
            continue;
        const faults::CampaignOutcome &c = *r.campaign;
        const char *prot = faults::protectionName(c.protection);
        for (const faults::StructureCampaign &s : c.structures) {
            rows.push_back(s);
            table.addRow(
                {r.benchmark, prot,
                 faults::structureName(s.structure),
                 std::to_string(s.tally.samples),
                 Table::pct(s.sdcRate()),
                 Table::range(s.sdcCi.lo, s.sdcCi.hi),
                 Table::range(s.analyticalSdcLower, s.analyticalSdc),
                 s.sdcCovered ? "yes" : "NO",
                 Table::pct(s.dueRate()),
                 Table::range(s.dueCi.lo, s.dueCi.hi),
                 Table::range(s.analyticalDueLower, s.analyticalDue),
                 s.dueCovered ? "yes" : "NO"});
            covered += (s.sdcCovered ? 1 : 0) + (s.dueCovered ? 1 : 0);
            checks += 2;
        }
        std::ostringstream cost;
        cost << Table::pct(c.meanRerunFraction()) << " of golden";
        econ.addRow({r.benchmark, prot,
                     std::to_string(c.samplesRun),
                     c.earlyStopped ? "yes" : "no",
                     Table::pct(c.ciHalfWidth),
                     std::to_string(c.reruns), cost.str(),
                     std::to_string(c.checkpoints)});
    }

    harness::printHeading(
        std::cout,
        "measured vs analytical AVF: statistical fault injection "
        "(cross-validation of the ACE fold)");
    out.print("campaign_reconciliation", table);
    std::cout << "\nreconciliation: " << covered << "/" << checks
              << " measured 95% CIs cover their analytical band\n";
    const faults::PointChecks points = faults::holmPointChecks(rows, 0.05);
    std::cout << "point checks: " << points.standing << "/"
              << points.total
              << " stand after a Holm adjustment (family-wise 5%)\n";

    harness::printHeading(std::cout,
                          "campaign economics: checkpoint/fork "
                          "re-execution cost");
    out.print("campaign_economics", econ);

    // Per-batch convergence: how fast each campaign's worst tracked
    // CI half-width shrank, and (when --ci-target is set) how many
    // samples it took to cross it. The series itself is a campaign
    // result (deterministic), so this table is byte-identical across
    // --jobs and cache variants.
    Table conv({"benchmark", "protection", "batches", "samples",
                "final CI half-width", "samples to target",
                "early stop"});
    for (const harness::RunArtifacts &r : runs) {
        if (!r.campaign)
            continue;
        const faults::CampaignOutcome &c = *r.campaign;
        std::string to_target = "-";
        if (c.ciTarget > 0) {
            for (const faults::ConvergencePoint &p : c.convergence) {
                if (p.worstHalfWidth <= c.ciTarget) {
                    to_target = std::to_string(p.samples);
                    break;
                }
            }
        }
        conv.addRow({r.benchmark,
                     faults::protectionName(c.protection),
                     std::to_string(c.convergence.size()),
                     std::to_string(c.samplesRun),
                     Table::pct(c.ciHalfWidth), to_target,
                     c.earlyStopped ? "yes" : "no"});
    }
    harness::printHeading(std::cout,
                          "campaign convergence: per-batch CI "
                          "half-width time-series");
    out.print("campaign_convergence", conv);

    for (const harness::RunArtifacts &r : runs) {
        if (!r.campaign || r.campaign->rootCauses.empty())
            continue;
        const faults::CampaignOutcome &c = *r.campaign;
        if (c.protection != faults::Protection::None)
            continue;
        harness::printHeading(std::cout,
                              "SDC root causes: " + r.benchmark +
                                  " (measured share vs analytical "
                                  "ACE share)");
        Table rc({"pc", "disasm", "SDC injections", "measured share",
                  "analytical ACE share"});
        for (const faults::RootCause &cause : c.rootCauses) {
            std::ostringstream pc;
            pc << "0x" << std::hex
               << isa::Program::indexToAddr(cause.staticIdx);
            rc.addRow({pc.str(),
                       r.program->inst(cause.staticIdx).toString(),
                       std::to_string(cause.sdcInjections),
                       Table::pct(cause.measuredShare),
                       Table::pct(cause.analyticalAceShare)});
        }
        out.print("root_causes_" + r.benchmark, rc);
    }
    out.finish(runs);
    return 0;
}
