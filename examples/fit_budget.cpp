/**
 * @file
 * Scenario: a reliability budget review (paper Section 2: "vendors
 * typically specify targets for both SDC and DUE rates"). Converts
 * the instruction queue's measured AVFs into FIT and MTTF numbers
 * under the configurable raw-error-rate model — at sea level and at
 * Denver's altitude (the paper's 3-5x neutron-flux example) — and
 * checks them against example vendor targets, with and without the
 * paper's techniques.
 *
 * Usage: fit_budget [benchmark=equake] [insts=150000]
 *        [mfit_per_bit=1.0] [sdc_target_years=1000]
 *        [due_target_years=25]
 */

#include <iostream>

#include "avf/mitf.hh"
#include "core/due_tracker.hh"
#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "harness/reporting.hh"
#include "sim/config.hh"

using namespace ser;
using harness::Table;

int
main(int argc, char **argv)
{
    harness::BenchOptions opts = harness::BenchOptions::parse(
        argc, argv, "FIT/MTTF budget review for the IQ");
    harness::BenchOutput out(opts);
    Config &config = opts.config;
    std::string benchmark = config.getString("benchmark", "equake");
    std::uint64_t insts = config.getUint("insts", 150000);
    double mfit = config.getDouble("mfit_per_bit", 1.0);
    double sdc_target = config.getDouble("sdc_target_years", 1000);
    double due_target = config.getDouble("due_target_years", 25);

    // The protected structure: 64 entries x 64 payload bits.
    const std::uint64_t bits = 64 * 64;

    harness::ExperimentConfig base;
    base.dynamicTarget = insts;
    base.warmupInsts = insts / 10;
    auto r_base = harness::runBenchmark(benchmark, out.stamp(base));

    harness::ExperimentConfig opt = base;
    opt.triggerLevel = "l1";
    auto r_opt = harness::runBenchmark(benchmark, out.stamp(opt));

    struct DesignPoint
    {
        const char *name;
        double sdcAvf;
        double dueAvf;
        double ipc;
    };
    const DesignPoint points[] = {
        {"unprotected, no techniques", r_base.avf->sdcAvf(), 0.0,
         r_base.ipc},
        {"unprotected + squash(l1)", r_opt.avf->sdcAvf(), 0.0,
         r_opt.ipc},
        {"parity, signal-on-detect", 0.0, r_base.avf->dueAvf(),
         r_base.ipc},
        {"parity + squash + pi(store-buffer)", 0.0,
         r_opt.falseDue.dueAvf(core::TrackingLevel::PiStoreBuffer),
         r_opt.ipc},
    };

    for (double altitude : {0.0, 1.5}) {
        avf::ErrorRateModel model;
        model.rawMilliFitPerBit = mfit;
        model.altitudeKm = altitude;

        harness::printHeading(
            std::cout,
            benchmark + " instruction-queue budget at " +
                (altitude == 0.0 ? std::string("sea level")
                                 : "1.5 km (Denver), neutron flux x" +
                                       Table::fmt(
                                           model.neutronFluxFactor(),
                                           1)));
        Table table({"design point", "SDC FIT", "SDC MTTF",
                     "DUE FIT", "DUE MTTF", "meets targets?"});
        for (const auto &p : points) {
            double sdc_fit =
                avf::structureFit(model, bits, p.sdcAvf);
            double due_fit =
                avf::structureFit(model, bits, p.dueAvf);
            double sdc_mttf = avf::fitToMttfYears(sdc_fit);
            double due_mttf = avf::fitToMttfYears(due_fit);
            bool ok = sdc_mttf >= sdc_target &&
                      due_mttf >= due_target;
            auto years = [](double y) {
                return y > 1e7 ? std::string("inf")
                               : Table::fmt(y, 0) + " y";
            };
            table.addRow({p.name, Table::fmt(sdc_fit, 4),
                          years(sdc_mttf), Table::fmt(due_fit, 4),
                          years(due_mttf), ok ? "yes" : "NO"});
        }
        out.print(altitude == 0.0 ? "budget_sea_level"
                                  : "budget_denver",
                  table);
    }

    std::cout << "\ntargets: SDC MTTF >= "
              << Table::fmt(sdc_target, 0)
              << " years, DUE MTTF >= " << Table::fmt(due_target, 0)
              << " years (per-structure example budget; raw rate "
              << mfit
              << " mFIT/bit). Note the paper's caution: MITF "
                 "reasoning holds for incremental changes, but "
                 "customers still see absolute MTTF.\n";

    out.finish({r_base, r_opt});
    return 0;
}
