/**
 * @file
 * Scenario: validating the analytical AVF with statistical fault
 * injection (the methodology of the paper's related work, Kim &
 * Somani / Wang et al.). Runs a campaign-engine sweep against a
 * surrogate benchmark through the experiment harness, prints the
 * Figure-1 outcome distribution under each protection scheme next
 * to the analytical band the measured rates must cover, and tells a
 * few concrete fault stories (which instruction was hit, in which
 * field, and what happened).
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
#include "isa/executor.hh"
#include "sim/config.hh"
#include "sim/rng.hh"
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
    harness::RunArtifacts run;
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
        run_cfg.campaign.onBatch = [&progress, ticked](
                                       std::uint64_t done,
                                       std::uint64_t) {
            for (; *ticked + 1024 <= done; *ticked += 1024)
                progress.runCompleted();
        };
        run = harness::runProgram(
            run.program ? run.program
                        : std::make_shared<const isa::Program>(
                              workloads::buildBenchmark(benchmark,
                                                        insts)),
            run_cfg, benchmark);
        progress.endSweep();
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

    const cpu::SimTrace &trace = *run.trace;
    isa::Executor golden(*run.program);
    if (golden.run(insts * 3) != isa::Termination::Halted) {
        std::cerr << "golden run failed\n";
        return 1;
    }
    faults::FaultInjector injector(*run.program, trace,
                                   golden.state().output());

    harness::printHeading(std::cout, "a few fault stories");
    Rng rng(0xbead);
    int stories = 0;
    while (stories < 6) {
        faults::FaultSite site;
        site.entry =
            static_cast<std::uint16_t>(rng.range(trace.iqEntries));
        site.bit =
            static_cast<std::uint8_t>(rng.range(faults::payloadBits));
        site.cycle = faults::sampleWindowCycle(rng, trace.startCycle,
                                               trace.endCycle);
        auto fr = injector.classify(site, faults::Protection::Parity);
        if (fr.incarnationIndex < 0)
            continue;  // idle entries make dull stories
        const auto &inc = trace.incarnations[static_cast<std::size_t>(
            fr.incarnationIndex)];
        const isa::StaticInst &inst = run.program->inst(inc.staticIdx);
        std::cout << "cycle " << site.cycle << ", entry "
                  << site.entry << ", bit " << int(site.bit) << " ("
                  << isa::fieldName(isa::fieldForBit(site.bit))
                  << " field of `" << inst.toString() << "`"
                  << ((inc.flags & cpu::incWrongPath)
                          ? ", wrong path"
                          : "")
                  << ") -> " << faults::outcomeName(fr.outcome)
                  << (fr.reRan ? (fr.outputChanged
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
