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
 *        [--jobs N] [--json PATH]
 *        [--convergence-out F]
 */

#include <iostream>
#include <vector>

#include "faults/campaign_engine.hh"
#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "harness/suite_runner.hh"
#include "isa/encoding.hh"
#include "sim/config.hh"

using namespace ser;
using harness::Table;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv, "Monte-Carlo fault-injection campaign");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::string benchmark = config.getString("benchmark", "crafty");
    std::uint64_t insts = config.getUint("insts", 40000);
    std::uint64_t samples = config.getUint("samples", 2000);

    // The three protection campaigns are SuiteRunner submissions
    // against one program build, so --json gets the full manifest
    // (campaign blocks included), --metrics-out sees the phases, and
    // the run cache shares one simulation across them.
    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = insts;
    cfg.warmupInsts = 0;
    cfg.pipeline.maxInsts = insts * 3;
    cfg.campaign.samples = samples;
    cfg.campaign.structures = faults::parseStructures(
        config.getString("structures", "iq"));

    harness::SuiteRunner runner(opts.jobs);
    std::size_t program = runner.addProgram(benchmark, insts);
    for (auto prot :
         {faults::Protection::None, faults::Protection::Parity,
          faults::Protection::Ecc}) {
        cfg.campaign.protection = prot;
        runner.submit(program, out.stamp(cfg));
    }
    std::vector<harness::RunArtifacts> runs = runner.run();

    harness::printHeading(std::cout, "outcome distribution (" +
                                         std::to_string(samples) +
                                         " samples per protection)");
    Table outcomes(
        {"protection", "outcome", "count", "rate", "lo95", "hi95"});
    for (const harness::RunArtifacts &run : runs) {
        const faults::CampaignOutcome &c = *run.campaign;
        const char *prot = faults::protectionName(c.protection);
        std::cout << prot << ":\n" << c.summary() << "\n";
        for (const faults::StructureCampaign &s : c.structures) {
            for (int o = 0; o < faults::numOutcomes; ++o) {
                auto outcome = static_cast<faults::Outcome>(o);
                auto iv = s.tally.interval(outcome);
                outcomes.addRow(
                    {prot, faults::outcomeName(outcome),
                     std::to_string(s.tally.count(outcome)),
                     Table::pct(s.tally.rate(outcome)),
                     Table::pct(iv.lo), Table::pct(iv.hi)});
            }
        }
    }
    out.print("outcomes", outcomes);

    // The stories are the parity campaign's own sites: the first few
    // that struck an occupied IQ entry (idle entries make dull
    // stories).
    harness::printHeading(std::cout, "a few fault stories");
    const harness::RunArtifacts &parity = runs[1];  // submitted 2nd
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

    out.finish(runs);
    return 0;
}
