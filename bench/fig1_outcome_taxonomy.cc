/**
 * @file
 * Reproduces the paper's Figure 1 as a measurement: labels the sites
 * of one fault-injection campaign with the possible outcomes of a
 * single-bit fault —
 *
 *   1  benign: no bit affected / fault-free state
 *   2  benign: bit read-protected (squashed or never read again)
 *   3  benign: read, but does not affect the outcome
 *   4  SDC    (no detection)
 *   5  false DUE (detection, error would have been benign)
 *   6  true DUE  (detection, error affects the outcome)
 *
 * under four schemes: unprotected, parity, parity plus the pi
 * machinery, and ECC. Protection changes only how a strike is
 * reported, so one campaign (payload bits of the IQ, no protection)
 * supplies every column: each sampled site's verdict is labelled
 * four ways. The injected SDC/DUE rates are then cross-validated
 * against the analytical (ACE) AVF — the injection rate must sit at
 * or below the conservative analytical bound.
 *
 * Usage: fig1_outcome_taxonomy [benchmark=gzip] [insts=N]
 *        [samples=800] [seed=S] [--jobs N] [--json PATH]
 *        [--trace-events FILE] [--topn N] [--convergence-out F]
 */

#include <iostream>

#include "core/tracked_injection.hh"
#include "faults/campaign_engine.hh"
#include "harness/bench_options.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "harness/suite_runner.hh"
#include "sim/config.hh"
#include "sim/prof.hh"

using namespace ser;
using harness::Table;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv,
        "Figure 1: fault-injection outcome taxonomy");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::string benchmark = config.getString("benchmark", "gzip");
    std::uint64_t insts = config.getUint("insts", 60000);
    std::uint64_t samples = config.getUint("samples", 800);
    std::uint64_t seed = config.getUint("seed", 0xFA117);

    harness::ExperimentConfig cfg;
    cfg.dynamicTarget = insts;
    cfg.warmupInsts = 0;
    cfg.pipeline.maxInsts = insts * 3;
    cfg.campaign.samples = samples;
    cfg.campaign.seed = seed;
    cfg.campaign.structures = faults::structIq;
    cfg.campaign.payloadOnly = true;
    cfg.campaign.protection = faults::Protection::None;

    harness::SuiteRunner runner(opts.jobs);
    runner.submit(runner.addProgram(benchmark, insts), out.stamp(cfg));
    std::vector<harness::RunArtifacts> runs = runner.run();
    SER_PROF_SCOPE("aggregate");
    const harness::RunArtifacts &run = runs.front();
    const avf::AvfResult &avf = *run.avf;

    // Parity plus the full pi machinery (tracked to the store
    // buffer, the paper's option 3): deferred detections that prove
    // harmless become benign.
    core::PiMachine machine(*run.trace,
                            core::TrackingLevel::PiStoreBuffer);
    faults::CampaignResult unprot, parity, tracked, ecc;
    for (const faults::SiteRecord &rec : run.campaign->sites) {
        unprot.add(faults::label(rec.verdict, faults::Protection::None));
        parity.add(
            faults::label(rec.verdict, faults::Protection::Parity));
        tracked.add(core::labelTracked(rec, *run.trace, machine));
        ecc.add(faults::label(rec.verdict, faults::Protection::Ecc));
    }

    harness::printHeading(
        std::cout, "Figure 1: outcome taxonomy (" + benchmark +
                       ", " + std::to_string(samples) +
                       " payload-bit faults)");

    Table table({"outcome", "unprotected", "parity", "parity+pi",
                 "ECC"});
    for (int o = 0; o < faults::numOutcomes; ++o) {
        auto oc = static_cast<faults::Outcome>(o);
        table.addRow({faults::outcomeName(oc),
                      Table::pct(unprot.rate(oc)),
                      Table::pct(parity.rate(oc)),
                      Table::pct(tracked.rate(oc)),
                      Table::pct(ecc.rate(oc))});
    }
    out.print("outcomes", table);
    std::cout << "\n(parity turns SDC into DUE; the pi machinery "
                 "moves the provably-false DUEs back to benign; ECC "
                 "removes outcomes 3-6 entirely, at the cost the "
                 "paper's introduction describes)\n";

    harness::printHeading(std::cout,
                          "injection vs analytical (ACE) AVF");
    faults::Interval sdc_ci = unprot.interval(faults::Outcome::Sdc);
    std::cout << "SDC rate (injected)     "
              << Table::pct(unprot.sdcRate()) << " 95% CI ["
              << Table::range(sdc_ci.lo, sdc_ci.hi, ", ") << "]\n";
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

    bool ok = sdc_ci.lo <= avf.sdcAvf() + 0.02;
    std::cout << "\nconsistency: "
              << (ok ? "PASS (injection within the analytical "
                       "bound)"
                     : "FAIL")
              << "\n";

    out.finish(runs);
    return ok ? 0 : 1;
}
