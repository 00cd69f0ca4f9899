/**
 * @file
 * Reproduces the paper's Figure 1 as a measurement: classifies a
 * Monte-Carlo fault-injection campaign into the possible outcomes of
 * a single-bit fault —
 *
 *   1  benign: no bit affected / fault-free state
 *   2  benign: bit read-protected (squashed or never read again)
 *   3  benign: read, but does not affect the outcome
 *   4  SDC    (no detection)
 *   5  false DUE (detection, error would have been benign)
 *   6  true DUE  (detection, error affects the outcome)
 *
 * and cross-validates the injected SDC/DUE rates against the
 * analytical (ACE) AVF — the injection rate must sit at or below the
 * conservative analytical bound.
 *
 * Usage: fig1_outcome_taxonomy [benchmark=gzip] [insts=N]
 *        [samples=800] [seed=S]
 */

#include <iostream>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "core/tracked_injection.hh"
#include "cpu/pipeline.hh"
#include "faults/campaign.hh"
#include "harness/bench_options.hh"
#include "harness/manifest.hh"
#include "harness/progress.hh"
#include "harness/reporting.hh"
#include "harness/suite_runner.hh"
#include "isa/executor.hh"
#include "sim/config.hh"
#include "sim/prof.hh"
#include "workloads/suite.hh"

using namespace ser;
using harness::Table;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv,
        "Figure 1: fault-injection outcome taxonomy");
    harness::TraceExport::warnUnsupported(opts);
    Config &config = opts.config;
    std::string benchmark = config.getString("benchmark", "gzip");
    std::uint64_t insts = config.getUint("insts", 60000);
    std::uint64_t samples = config.getUint("samples", 800);
    std::uint64_t seed = config.getUint("seed", 0xFA117);

    isa::Program program =
        workloads::buildBenchmark(benchmark, insts);

    isa::Executor golden(program);
    if (golden.run(insts * 3) != isa::Termination::Halted) {
        std::cerr << "golden run did not halt\n";
        return 1;
    }

    cpu::PipelineParams params;
    params.maxInsts = insts * 3;
    cpu::InOrderPipeline pipe(program, params);
    cpu::SimTrace trace = pipe.run();
    trace.program = &program;

    avf::DeadnessResult dead = avf::analyzeDeadness(trace);
    avf::AvfResult avf = avf::computeAvf(trace, dead);

    faults::FaultInjector injector(program, trace,
                                   golden.state().output());

    harness::printHeading(
        std::cout, "Figure 1: outcome taxonomy (" + benchmark +
                       ", " + std::to_string(samples) +
                       " payload-bit faults)");

    Table table({"outcome", "unprotected", "parity", "parity+pi",
                 "ECC"});
    faults::CampaignConfig cfg;
    cfg.samples = samples;
    cfg.seed = seed;

    // The four campaigns share the injector and trace read-only
    // (FaultInjector::classify is const), so they fan out on the
    // --jobs worker pool. Each campaign seeds its own RNG from the
    // config, so results are independent of scheduling. This bench
    // bypasses SuiteRunner, so it drives the --progress reporter
    // itself.
    harness::Progress &progress = harness::Progress::instance();
    progress.beginSweep(4, "fig1_outcome_taxonomy");
    faults::CampaignResult unprot, parity, ecc, tracked;
    harness::parallelFor(4, opts.jobs, [&](std::size_t i) {
        SER_PROF_SCOPE("campaign");
        faults::CampaignConfig c = cfg;
        switch (i) {
          case 0:
            c.protection = faults::Protection::None;
            unprot = faults::runCampaign(injector, trace, c);
            break;
          case 1:
            c.protection = faults::Protection::Parity;
            parity = faults::runCampaign(injector, trace, c);
            break;
          case 2:
            c.protection = faults::Protection::Ecc;
            ecc = faults::runCampaign(injector, trace, c);
            break;
          case 3: {
            // Parity plus the full pi machinery (tracked to the
            // store buffer, the paper's option 3): deferred
            // detections that prove harmless become benign.
            core::PiMachine machine(
                trace, core::TrackingLevel::PiStoreBuffer);
            c.protection = faults::Protection::Parity;
            tracked = core::runTrackedCampaign(injector, trace,
                                               machine, c);
            break;
          }
        }
        progress.runCompleted();
    });
    progress.endSweep();

    for (int o = 0; o < faults::numOutcomes; ++o) {
        auto oc = static_cast<faults::Outcome>(o);
        table.addRow({faults::outcomeName(oc),
                      Table::pct(unprot.rate(oc)),
                      Table::pct(parity.rate(oc)),
                      Table::pct(tracked.rate(oc)),
                      Table::pct(ecc.rate(oc))});
    }
    table.print(std::cout);
    std::cout << "\n(parity turns SDC into DUE; the pi machinery "
                 "moves the provably-false DUEs back to benign; ECC "
                 "removes outcomes 3-6 entirely, at the cost the "
                 "paper's introduction describes)\n";

    harness::printHeading(std::cout,
                          "injection vs analytical (ACE) AVF");
    auto ci = [](faults::Interval i) {
        return "[" + Table::pct(i.lo) + ", " + Table::pct(i.hi) +
               "]";
    };
    std::cout << "SDC rate (injected)     "
              << Table::pct(unprot.sdcRate()) << " 95% CI "
              << ci(unprot.interval(faults::Outcome::Sdc)) << "\n";
    std::cout << "SDC AVF (analytical)    "
              << Table::pct(avf.sdcAvf())
              << "  (conservative upper bound)\n";
    std::cout << "DUE rate (injected)     "
              << Table::pct(parity.dueRate()) << "\n";
    std::cout << "DUE AVF (analytical)    "
              << Table::pct(avf.dueAvf()) << "\n";
    std::cout << "false/total DUE (inj.)  "
              << Table::pct(parity.dueRate() > 0
                                ? parity.rate(
                                      faults::Outcome::FalseDue) /
                                      parity.dueRate()
                                : 0)
              << "  (paper: false DUE up to ~52% of the total)\n";

    bool ok = unprot.interval(faults::Outcome::Sdc).lo <=
              avf.sdcAvf() + 0.02;
    std::cout << "\nconsistency: "
              << (ok ? "PASS (injection within the analytical "
                       "bound)"
                     : "FAIL")
              << "\n";

    if (!opts.jsonPath.empty()) {
        harness::JsonReport report;
        report.setArgs(config);
        report.addTable("outcomes", table);
        report.write(opts.jsonPath);
    }
    return ok ? 0 : 1;
}
