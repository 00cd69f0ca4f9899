/**
 * @file
 * Tests for the instruction-lifetime trace export and the per-PC AVF
 * attribution: the Chrome trace-event writer (valid JSON via the
 * in-tree parser, matched B/E pairs, per-track monotonic timestamps,
 * fragment merging), and the attribution fold — both on a hand-built
 * trace with known answers and against the AVF fold's totals on a
 * real pipeline run — and the --topn hotspot table it prints.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "avf/attribution.hh"
#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "cpu/pipeline.hh"
#include "harness/manifest.hh"
#include "isa/assembler.hh"
#include "sim/json.hh"
#include "sim/trace_event.hh"

using namespace ser;
using json::JsonValue;

namespace
{

/** Parse a merged trace document and return the traceEvents array. */
JsonValue
parseTrace(const std::vector<std::string> &fragments)
{
    std::ostringstream os;
    trace::writeChromeTrace(os, fragments);
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(json::parseJson(os.str(), &doc, &err)) << err;
    EXPECT_TRUE(doc.isObject());
    const JsonValue *events = doc.find("traceEvents");
    EXPECT_NE(events, nullptr);
    EXPECT_TRUE(events->isArray());
    return *events;
}

/** Run a program on the pipeline and analyze deadness. */
struct Analyzed
{
    isa::Program program;
    cpu::SimTrace trace;
    avf::DeadnessResult deadness;
};

Analyzed
analyze(const std::string &src)
{
    Analyzed a;
    a.program = isa::assembleOrDie(src);
    cpu::PipelineParams params;
    params.maxInsts = 1000000;
    cpu::InOrderPipeline pipe(a.program, params);
    a.trace = pipe.run();
    a.trace.program = &a.program;
    a.deadness = avf::analyzeDeadness(a.trace);
    return a;
}

} // namespace

TEST(TraceWriter, EmitsValidChromeTraceJson)
{
    trace::TraceWriter tw(3);
    tw.processName("gzip");
    tw.threadName(trace::tracks::pipeline, "pipeline events");
    tw.begin(16, "add r1 = r2, r3", 10,
             {{"seq", std::uint64_t{7}}, {"wrong_path", false}});
    tw.instant(trace::tracks::pipeline, "trigger_fire", 12,
               {{"level", std::int64_t{1}}});
    tw.counter("iq_occupancy", 12,
               {{"valid", std::uint64_t{5}},
                {"waiting", std::uint64_t{2}}});
    tw.end(16, 20);
    EXPECT_TRUE(tw.balanced());

    JsonValue events = parseTrace({tw.str()});
    ASSERT_EQ(events.array.size(), 6u);  // 2 M + B + i + C + E
    int begins = 0, ends = 0;
    for (const JsonValue &e : events.array) {
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        const JsonValue *pid = e.find("pid");
        ASSERT_NE(pid, nullptr);
        EXPECT_DOUBLE_EQ(pid->number, 3.0);
        if (ph->string == "B")
            ++begins;
        if (ph->string == "E")
            ++ends;
        if (ph->string == "C") {
            EXPECT_DOUBLE_EQ(e.find("tid")->number, 0.0);
        }
        if (ph->string == "i") {
            EXPECT_EQ(e.find("s")->string, "t");
        }
    }
    EXPECT_EQ(begins, 1);
    EXPECT_EQ(ends, 1);
}

TEST(TraceWriter, MergesFragmentsInOrderAndSkipsEmpty)
{
    trace::TraceWriter a(1), b(2);
    a.instant(1, "one", 5);
    b.instant(1, "two", 3);

    JsonValue events = parseTrace({a.str(), std::string(), b.str()});
    ASSERT_EQ(events.array.size(), 2u);
    EXPECT_DOUBLE_EQ(events.array[0].find("pid")->number, 1.0);
    EXPECT_DOUBLE_EQ(events.array[1].find("pid")->number, 2.0);
}

TEST(TraceWriter, EscapesStringsInNamesAndArgs)
{
    trace::TraceWriter tw;
    tw.instant(1, "ld r1 = [r2 + \"8\"]\\n", 1,
               {{"outcome", "commit \"quoted\""}});
    JsonValue events = parseTrace({tw.str()});
    ASSERT_EQ(events.array.size(), 1u);
    EXPECT_EQ(events.array[0].find("name")->string,
              "ld r1 = [r2 + \"8\"]\\n");
    EXPECT_EQ(events.array[0].find("args")->find("outcome")->string,
              "commit \"quoted\"");
}

TEST(TraceWriter, BalancedReportsOpenSlices)
{
    trace::TraceWriter tw;
    tw.begin(2, "fetch_throttle", 4);
    EXPECT_FALSE(tw.balanced());
    tw.end(2, 9);
    EXPECT_TRUE(tw.balanced());
    // Nesting on one track balances too (slices close inner-first).
    tw.begin(3, "outer", 10);
    tw.begin(3, "inner", 11);
    tw.end(3, 12);
    EXPECT_FALSE(tw.balanced());
    tw.end(3, 13);
    EXPECT_TRUE(tw.balanced());
}

TEST(TraceWriterDeath, EndWithoutBeginPanics)
{
    EXPECT_DEATH(
        {
            trace::TraceWriter tw;
            tw.end(1, 5);
        },
        "no open slice");
}

TEST(TraceWriterDeath, TimeMovingBackwardsPanics)
{
    EXPECT_DEATH(
        {
            trace::TraceWriter tw;
            tw.instant(1, "late", 10);
            tw.instant(1, "early", 9);
        },
        "before track");
}

TEST(Attribution, FoldOnHandBuiltTrace)
{
    // Two static instructions; three residencies built by hand so
    // every cycle count is known: pc0 commits twice (issued), pc1 is
    // squashed before issue.
    isa::Program program = isa::assembleOrDie(R"(
        add r1 = r2, r3
        halt
    )");
    cpu::SimTrace trace;
    trace.program = &program;
    trace.startCycle = 0;
    trace.endCycle = 100;
    trace.iqEntries = 4;
    trace.committedInsts = 2;
    trace.commits =
        std::vector<cpu::CommitRecord>{{0, true, 0}, {0, true, 0}};

    cpu::IncarnationLog incs;
    cpu::IncarnationRecord inc{};
    inc.staticIdx = 0;
    inc.oracleSeq = 0;
    inc.enqueueCycle = 10;
    inc.issueCycle = 14;
    inc.evictCycle = 20;  // pre 4, post 6
    inc.iqEntry = 0;
    inc.flags = cpu::incCommitted;
    incs.push_back(inc);
    inc.oracleSeq = 1;
    inc.enqueueCycle = 30;
    inc.issueCycle = 31;
    inc.evictCycle = 40;  // pre 1, post 9
    incs.push_back(inc);
    inc.staticIdx = 1;
    inc.oracleSeq = cpu::noSeq32;
    inc.enqueueCycle = 50;
    inc.issueCycle = cpu::noCycle32;
    inc.evictCycle = 55;  // never issued: 5 squashed cycles
    inc.flags = cpu::incSquashMispredict;
    incs.push_back(inc);
    trace.incarnations = std::move(incs);

    avf::DeadnessResult deadness;
    deadness.kind =
        std::vector<avf::DeadKind>{avf::DeadKind::Live, avf::DeadKind::Live};
    deadness.overwriteDist =
        std::vector<std::uint32_t>{avf::noOverwrite, avf::noOverwrite};
    deadness.returnFddWords = std::vector<std::uint64_t>{0};
    deadness.numInsts = 2;

    avf::AttributionResult attr =
        avf::attributeAvf(trace, deadness);
    ASSERT_EQ(attr.pcs.size(), 2u);
    // pc0 carries all the ACE bit-cycles, so it sorts first.
    EXPECT_EQ(attr.pcs[0].staticIdx, 0u);
    EXPECT_EQ(attr.pcs[0].incarnations, 2u);
    EXPECT_EQ(attr.pcs[0].committedIncs, 2u);
    EXPECT_EQ(attr.pcs[0].residencyCycles, 20u);
    EXPECT_GT(attr.pcs[0].ace, 0u);
    EXPECT_EQ(attr.pcs[1].staticIdx, 1u);
    EXPECT_EQ(attr.pcs[1].ace, 0u);
    EXPECT_EQ(attr.pcs[1].residencyCycles, 5u);
    EXPECT_GT(attr.pcs[1].squashedUnread, 0u);

    EXPECT_EQ(attr.totalAce, attr.pcs[0].ace);
    EXPECT_DOUBLE_EQ(attr.aceShare(attr.pcs[0]), 1.0);
    EXPECT_EQ(attr.totalIncarnations, 3u);
    EXPECT_EQ(attr.totalResidencyCycles, 25u);
    EXPECT_EQ(attr.lifetime.count, 3u);
    // Only issued residencies contribute read-phase samples.
    EXPECT_EQ(attr.preRead.count, 2u);
    EXPECT_EQ(attr.postRead.count, 2u);

    // The fold and the AVF fold classify identically, so the totals
    // agree exactly even on this synthetic trace.
    avf::AvfResult avf = avf::computeAvf(trace, deadness);
    EXPECT_EQ(attr.totalAce, avf.ace);
    EXPECT_EQ(attr.totalExAce, avf.exAce);
    EXPECT_EQ(attr.totalSquashedUnread, avf.squashedUnread);
    EXPECT_EQ(attr.totalUnAceRead, avf.unAceReadTotal());
}

TEST(Attribution, TotalsMatchAvfFoldOnRealRun)
{
    Analyzed a = analyze(R"(
        movi r10 = 200
        movi r1 = 0
    loop:
        add r1 = r1, r10
        shli r2 = r1, 1
        addi r10 = r10, -1
        movi r3 = 77       # dead: overwritten before any read
        movi r3 = 1
        cmplt p1 = r0, r10
        (p1) br loop
        halt
    )");
    avf::AvfResult avf = avf::computeAvf(a.trace, a.deadness);
    avf::AttributionResult attr =
        avf::attributeAvf(a.trace, a.deadness);

    // Per-PC attribution is a partition of the AVF fold's totals.
    EXPECT_EQ(attr.totalAce, avf.ace);
    EXPECT_EQ(attr.totalExAce, avf.exAce);
    EXPECT_EQ(attr.totalSquashedUnread, avf.squashedUnread);
    EXPECT_EQ(attr.totalUnAceRead, avf.unAceReadTotal());
    EXPECT_GT(attr.totalAce, 0u);

    // Sorted descending by ACE, shares sum to 1.
    double share_sum = 0.0;
    std::uint64_t prev = ~std::uint64_t{0};
    for (const avf::PcAttribution &pc : attr.pcs) {
        EXPECT_LE(pc.ace, prev);
        prev = pc.ace;
        share_sum += attr.aceShare(pc);
    }
    EXPECT_NEAR(share_sum, 1.0, 1e-9);

    // The --topn hotspot table: one row per requested PC, in
    // ranking order, under its 13 columns.
    harness::RunArtifacts run;
    run.benchmark = "loop";
    run.program = std::make_shared<const isa::Program>(a.program);
    run.attribution = attr;
    const harness::Table table = harness::hotspotTable(run, 5);
    EXPECT_EQ(table.headers(),
              (std::vector<std::string>{
                  "rank", "pc", "static_idx", "ace_bit_cycles",
                  "ace_share", "cum_ace_share", "un_ace_read",
                  "ex_ace", "squashed_unread", "incarnations",
                  "committed", "residency_cycles", "disassembly"}));
    ASSERT_EQ(table.rows().size(),
              std::min<std::size_t>(5, attr.pcs.size()));
    for (std::size_t i = 0; i < table.rows().size(); ++i) {
        EXPECT_EQ(table.rows()[i][0], std::to_string(i + 1));
        EXPECT_EQ(table.rows()[i][3], std::to_string(attr.pcs[i].ace));
    }

    // BenchOutput::finish prints it under a per-run heading; in
    // aligned mode only, between a summary line and a footer of
    // residency-lifetime percentiles.
    for (bool csv : {false, true}) {
        harness::BenchOptions opts;
        opts.topn = 5;
        opts.csv = csv;
        harness::BenchOutput out(opts);
        testing::internal::CaptureStdout();
        out.finish({run});
        const std::string text = testing::internal::GetCapturedStdout();
        EXPECT_NE(text.find("==== AVF hotspots: loop ===="),
                  std::string::npos);
        EXPECT_EQ(text.find("rank,pc,static_idx,ace_bit_cycles,") !=
                      std::string::npos,
                  csv);
        EXPECT_EQ(text.find(" PCs by ACE bit-cycles; run ACE total ") !=
                      std::string::npos,
                  !csv);
        EXPECT_EQ(text.find("residency lifetime (cycles): p50 ") !=
                      std::string::npos,
                  !csv);
        EXPECT_EQ(text.find(" p99 ") != std::string::npos, !csv);
    }
}
