/**
 * @file
 * End-to-end integration tests: the experiment harness, the paper's
 * qualitative results on real surrogate runs (squash reduces AVF,
 * pi-bit coverage ordering, 100% coverage at pi-on-memory, PET
 * coverage growth), reporting, and AVF accounting closure.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/pet_buffer.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"

using namespace ser;
using namespace ser::harness;

namespace
{

ExperimentConfig
smallConfig(const std::string &trigger = "none")
{
    ExperimentConfig cfg;
    cfg.dynamicTarget = 60000;
    cfg.warmupInsts = 6000;
    cfg.triggerLevel = trigger;
    return cfg;
}

} // namespace

TEST(Integration, BaselineRunProducesSaneNumbers)
{
    auto r = runBenchmark("gzip", smallConfig());
    EXPECT_GT(r.ipc, 0.2);
    EXPECT_LT(r.ipc, 6.0);
    double sdc = r.avf->sdcAvf();
    EXPECT_GT(sdc, 0.02);
    EXPECT_LT(sdc, 0.95);
    EXPECT_GE(r.avf->dueAvf(), sdc);  // DUE = true (=SDC) + false
    EXPECT_GT(r.deadness->deadFraction(), 0.05);
    EXPECT_LT(r.deadness->deadFraction(), 0.40);

    // The AVF classes must tile the queue's bit-cycles exactly.
    std::uint64_t sum = r.avf->idle + r.avf->exAce +
                        r.avf->squashedUnread + r.avf->ace;
    for (int s = 0; s < avf::numUnAceSources; ++s)
        sum += r.avf->unAceRead[s];
    EXPECT_EQ(sum, r.avf->totalBitCycles);
}

TEST(Integration, SquashingTradesIpcForAvf)
{
    // On a memory-bound benchmark, squashing must cut the AVF
    // substantially at only a small IPC cost — the paper's headline.
    auto base = runBenchmark("ammp", smallConfig("none"));
    auto squash = runBenchmark("ammp", smallConfig("l0"));
    EXPECT_LT(squash.avf->sdcAvf(), base.avf->sdcAvf() * 0.9);
    EXPECT_GT(squash.ipc, base.ipc * 0.80);
    // MITF (IPC/AVF) improves.
    EXPECT_GT(squash.ipc / squash.avf->sdcAvf(),
              base.ipc / base.avf->sdcAvf());
}

TEST(Integration, FalseDueCoverageIsOrderedAndComplete)
{
    auto r = runBenchmark("vortex", smallConfig());
    const auto &f = r.falseDue;
    EXPECT_GT(f.baseFalseDueAvf, 0.0);
    // Residual shrinks level by level, hitting zero at pi-memory
    // (the paper's 100% coverage claim).
    double prev = f.baseFalseDueAvf;
    for (int l = 1; l < core::numTrackingLevels; ++l) {
        double cur = f.residualFalseDue[l];
        EXPECT_LE(cur, prev + 1e-12) << "level " << l;
        prev = cur;
    }
    EXPECT_NEAR(f.residualFalseDue[core::numTrackingLevels - 1], 0.0,
                1e-12);
    // DUE AVF at parity-only equals true+false.
    EXPECT_NEAR(f.dueAvf(core::TrackingLevel::None), r.avf->dueAvf(),
                1e-9);
}

TEST(Integration, PetCoverageGrowsWithSize)
{
    auto r = runBenchmark("cc", smallConfig());
    double prev = -1;
    for (std::uint32_t size : {32u, 128u, 512u, 4096u, 16384u}) {
        auto cov = core::petCoverage(*r.deadness, size);
        double frac = cov.fracNonReturn();
        EXPECT_GE(frac, prev) << "PET size " << size;
        prev = frac;
    }
    // Return-established FDDs exist in call-heavy code and need
    // bigger buffers than the near overwrites (Figure 3's story).
    auto small = core::petCoverage(*r.deadness, 64);
    auto large = core::petCoverage(*r.deadness, 16384);
    EXPECT_GT(r.deadness->numReturnFdd, 0u);
    EXPECT_GT(large.fracRegWithReturns(),
              small.fracRegWithReturns());
}

TEST(Integration, IntegerCodesHaveMoreWrongPathExposure)
{
    // Figure 2: pi-to-commit (wrong-path + predicated-false) matters
    // more for integer benchmarks.
    auto fp = runBenchmark("mgrid", smallConfig());
    auto integer = runBenchmark("crafty", smallConfig());
    auto frac = [](const RunArtifacts &r) {
        std::uint64_t covered =
            r.avf->unAceRead[static_cast<int>(
                avf::UnAceSource::WrongPath)] +
            r.avf->unAceRead[static_cast<int>(
                avf::UnAceSource::PredFalse)];
        std::uint64_t total = r.avf->unAceReadTotal();
        return total ? double(covered) / double(total) : 0.0;
    };
    EXPECT_GT(frac(integer), frac(fp));
}

TEST(Integration, FpCodesGainMoreFromAntiPi)
{
    // Figure 2: the anti-pi bit's coverage share is larger for fp
    // benchmarks (more no-op padding).
    auto fp = runBenchmark("mgrid", smallConfig());
    auto integer = runBenchmark("crafty", smallConfig());
    auto neutral_share = [](const RunArtifacts &r) {
        std::uint64_t total = r.avf->unAceReadTotal();
        return total ? double(r.avf->unAceRead[static_cast<int>(
                           avf::UnAceSource::Neutral)]) /
                           double(total)
                     : 0.0;
    };
    EXPECT_GT(neutral_share(fp), neutral_share(integer));
}

TEST(Integration, StatsDumpMentionsKeyCounters)
{
    auto r = runBenchmark("art", smallConfig());
    EXPECT_NE(r.statsDump.find("cpu.committed"), std::string::npos);
    EXPECT_NE(r.statsDump.find("cpu.dcache.l0.hits"),
              std::string::npos);
    EXPECT_NE(r.statsDump.find("trigger.fired"), std::string::npos);
}

TEST(Reporting, TableAlignsAndCsvEscapesNothing)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream text, csv;
    t.print(text);
    t.printCsv(csv);
    EXPECT_NE(text.str().find("333"), std::string::npos);
    EXPECT_EQ(csv.str(), "a,bb\n1,2\n333,4\n");
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::pct(0.125, 1), "12.5%");
}

TEST(Integration, CombinedTechniquesReduceBothRates)
{
    // The paper's Figure 4 claim in miniature: squashing cuts the
    // unprotected queue's SDC AVF, and squashing + pi-to-store-
    // buffer cuts the parity-protected queue's DUE AVF by more.
    auto base = runBenchmark("facerec", smallConfig("none"));
    auto opt = runBenchmark("facerec", smallConfig("l1"));

    double rel_sdc = opt.avf->sdcAvf() / base.avf->sdcAvf();
    double due_base = base.falseDue.dueAvf(core::TrackingLevel::None);
    double due_opt =
        opt.falseDue.dueAvf(core::TrackingLevel::PiStoreBuffer);
    double rel_due = due_opt / due_base;
    EXPECT_LT(rel_sdc, 1.0);
    EXPECT_LT(rel_due, rel_sdc);  // tracking adds coverage
}
