/**
 * @file
 * Scenario: validating the analytical AVF with statistical fault
 * injection (the methodology of the paper's related work, Kim &
 * Somani / Wang et al.). Runs a campaign-engine sweep against a
 * surrogate benchmark through the experiment harness, prints the
 * Figure-1 outcome distribution under each protection scheme next
 * to the analytical band the measured rates must cover, and tells a
 * few concrete fault stories from the parity campaign's sampled sites
 * (which instruction was hit, in which field, and what happened).
 *
 * Usage: fault_injection_demo [benchmark=crafty] [insts=40000]
 *        [samples=2000] [structures=iq] [--ci-target X]
 *        [--progress] [--jobs N] [--json PATH]
 *        [--convergence-out F]
 */

#include <iostream>
#include <vector>

#include "faults/campaign_engine.hh"
#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "harness/progress.hh"
#include "harness/reporting.hh"
#include "isa/encoding.hh"
#include "sim/config.hh"
#include "workloads/suite.hh"

using namespace ser;
using harness::Table;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv, "Monte-Carlo fault-injection campaign");
    Config &config = opts.config;
    std::string benchmark = config.getString("benchmark", "crafty");
    std::uint64_t insts = config.getUint("insts", 40000);
    std::uint64_t samples = config.getUint("samples", 2000);

    // The timing run and the campaigns go through the experiment
    // harness, so --json gets the full manifest (campaign block
    // included), --metrics-out sees the phases, and the run cache
    // shares one simulation across the three protection campaigns.
    harness::ExperimentConfig run_cfg;
    run_cfg.dynamicTarget = insts;
    run_cfg.warmupInsts = 0;
    run_cfg.pipeline.maxInsts = insts * 3;
    run_cfg.intervalCycles = opts.intervalCycles;
    run_cfg.campaign.samples = samples;
    run_cfg.campaign.structures = faults::parseStructures(
        config.getString("structures", "iq"));
    run_cfg.campaign.ciTarget = opts.ciTarget;
    run_cfg.campaign.jobs = opts.jobs;

    harness::Progress &progress = harness::Progress::instance();

    harness::JsonReport report;
    report.setArgs(config);

    harness::printHeading(std::cout, "outcome distribution (" +
                                         std::to_string(samples) +
                                         " samples per protection)");
    Table outcomes(
        {"protection", "outcome", "count", "rate", "lo95", "hi95"});
    harness::RunArtifacts run, parity;
    std::vector<harness::RunArtifacts> all_runs;
    for (auto prot :
         {faults::Protection::None, faults::Protection::Parity,
          faults::Protection::Ecc}) {
        run_cfg.campaign.protection = prot;
        // Campaign batches double as progress ticks: each campaign
        // is one 'sweep' of ~1k-sample units on the --progress line.
        progress.beginSweep((samples + 1023) / 1024,
                            std::string("campaign/") +
                                faults::protectionName(prot));
        auto ticked = std::make_shared<std::uint64_t>(0);
        run_cfg.campaign.onConvergence =
            [&progress, ticked](const faults::ConvergencePoint &point) {
                for (; *ticked + 1024 <= point.samples; *ticked += 1024)
                    progress.runCompleted();
            };
        run = harness::runProgram(
            run.program ? run.program
                        : std::make_shared<const isa::Program>(
                              workloads::buildBenchmark(benchmark,
                                                        insts)),
            run_cfg, benchmark);
        progress.endSweep();
        if (prot == faults::Protection::Parity)
            parity = run;
        if (!opts.jsonPath.empty())
            report.addRun(run, run_cfg);
        if (!opts.convergenceOutPath.empty())
            all_runs.push_back(run);

        const faults::CampaignOutcome &c = *run.campaign;
        std::cout << faults::protectionName(prot) << ":\n"
                  << c.summary() << "\n";
        for (const faults::StructureCampaign &s : c.structures) {
            for (int o = 0; o < faults::numOutcomes; ++o) {
                auto outcome = static_cast<faults::Outcome>(o);
                auto iv = s.tally.interval(outcome);
                outcomes.addRow(
                    {faults::protectionName(prot),
                     faults::outcomeName(outcome),
                     std::to_string(s.tally.count(outcome)),
                     Table::pct(s.tally.rate(outcome)),
                     Table::pct(iv.lo), Table::pct(iv.hi)});
            }
        }
    }
    if (opts.csv)
        outcomes.printCsv(std::cout);
    else
        outcomes.print(std::cout);

    // The stories are the parity campaign's own sites: the first few
    // that struck an occupied IQ entry (idle entries make dull
    // stories).
    harness::printHeading(std::cout, "a few fault stories");
    const cpu::SimTrace &trace = *parity.trace;
    int stories = 0;
    for (const faults::SiteRecord &rec : parity.campaign->sites) {
        if (stories == 6)
            break;
        if (rec.site.structure != faults::Structure::Iq ||
            rec.verdict.residency < 0)
            continue;
        const auto &inc = trace.incarnations[static_cast<std::size_t>(
            rec.verdict.residency)];
        const isa::StaticInst &inst = parity.program->inst(inc.staticIdx);
        std::cout << "cycle " << rec.site.cycle << ", entry "
                  << rec.site.entry << ", bit " << int(rec.site.bit)
                  << " ("
                  << isa::fieldName(isa::fieldForBit(rec.site.bit))
                  << " field of `" << inst.toString() << "`"
                  << (rec.verdict.wrongPath ? ", wrong path" : "")
                  << ") -> " << faults::outcomeName(rec.outcome)
                  << (rec.verdict.reRan
                          ? (rec.verdict.outputChanged
                                 ? " [re-run diverged]"
                                 : " [re-run identical]")
                          : "")
                  << "\n";
        ++stories;
    }

    if (!opts.convergenceOutPath.empty())
        harness::writeConvergenceJsonl(opts.convergenceOutPath,
                                       all_runs);

    if (!opts.jsonPath.empty()) {
        report.addTable("outcomes", outcomes);
        report.write(opts.jsonPath);
    }
    return 0;
}
