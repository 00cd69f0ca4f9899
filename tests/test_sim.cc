/**
 * @file
 * Unit tests for the simulation substrate: logging format helper,
 * RNG, statistics package, the config store, the JSON layer, the
 * interval sampler, and the shared bench options.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/sampler.hh"
#include "harness/bench_options.hh"
#include "harness/reporting.hh"
#include "sim/config.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace ser;

TEST(Logging, FormatSubstitutesPlaceholders)
{
    EXPECT_EQ(logging_detail::format("a {} b {}", 1, "x"), "a 1 b x");
    EXPECT_EQ(logging_detail::format("no holes", 1), "no holes");
    EXPECT_EQ(logging_detail::format("{} {} {}", 1, 2), "1 2 {}");
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(42), c2(43);
    // Different seeds diverge (overwhelmingly likely).
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a2.next() == c2.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, RangeStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.range(17), 17u);
        auto v = rng.rangeInclusive(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, SkewedPrefersSmallIndices)
{
    Rng rng(5);
    std::uint64_t low = 0, total = 10000;
    for (std::uint64_t i = 0; i < total; ++i) {
        auto v = rng.skewed(100, 0.5);
        ASSERT_LT(v, 100u);
        low += v < 10;
    }
    EXPECT_GT(low, total * 9 / 10);
}

TEST(Stats, ScalarAccumulates)
{
    statistics::StatGroup g("g");
    statistics::Scalar s(&g, "s", "d");
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, AverageTracksMinMaxMean)
{
    statistics::StatGroup g("g");
    statistics::Average a(&g, "a", "d");
    a.sample(1);
    a.sample(5);
    a.sample(3);
    EXPECT_DOUBLE_EQ(a.value(), 3.0);
    EXPECT_DOUBLE_EQ(a.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(a.maxValue(), 5.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, AverageWeightedSampleMatchesRepeatedSamples)
{
    // The cycle-skipping pipeline folds an N-cycle idle span into one
    // weighted sample; for integer-valued samples the products are
    // exact, so the aggregate must be bit-identical to N plain calls.
    statistics::StatGroup g("g");
    statistics::Average batched(&g, "batched", "d");
    statistics::Average ticked(&g, "ticked", "d");
    batched.sample(3.0, 1000);
    batched.sample(7.0);
    for (int i = 0; i < 1000; ++i)
        ticked.sample(3.0);
    ticked.sample(7.0, 1);
    EXPECT_EQ(batched.count(), ticked.count());
    EXPECT_EQ(batched.value(), ticked.value());
    EXPECT_EQ(batched.minValue(), ticked.minValue());
    EXPECT_EQ(batched.maxValue(), ticked.maxValue());

    // Zero weight is a no-op and must not disturb min/max.
    batched.sample(99.0, 0);
    EXPECT_EQ(batched.count(), 1001u);
    EXPECT_DOUBLE_EQ(batched.maxValue(), 7.0);
}

TEST(Stats, DistributionBucketsAndOverflow)
{
    statistics::StatGroup g("g");
    statistics::Distribution d(&g, "d", "d", 0, 10, 2);
    d.sample(0);
    d.sample(1.9);
    d.sample(9.9);
    d.sample(-1);
    d.sample(100);
    EXPECT_EQ(d.bucketCount(0), 2u);
    EXPECT_EQ(d.bucketCount(4), 1u);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 1u);
    EXPECT_EQ(d.count(), 5u);
}

TEST(Stats, DistributionPercentiles)
{
    statistics::StatGroup g("g");
    statistics::Distribution d(&g, "d", "d", 0, 100, 10);
    // One sample per unit in [0, 100): every bucket holds 10, so the
    // interpolated percentiles land exactly on their rank.
    for (int v = 0; v < 100; ++v)
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(d.percentile(90), 90.0);
    EXPECT_DOUBLE_EQ(d.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(0), 0.0);
}

TEST(Stats, DistributionPercentileInterpolatesWithinBucket)
{
    statistics::StatGroup g("g");
    statistics::Distribution d(&g, "d", "d", 0, 10, 10);
    // All four samples share the single bucket: the p50 rank (2 of
    // 4) interpolates to the bucket's midpoint.
    for (int i = 0; i < 4; ++i)
        d.sample(5);
    EXPECT_DOUBLE_EQ(d.percentile(50), 5.0);
    EXPECT_DOUBLE_EQ(d.percentile(25), 2.5);
}

TEST(Stats, DistributionPercentileClampsOutOfRange)
{
    statistics::StatGroup g("g");
    statistics::Distribution d(&g, "d", "d", 0, 10, 2);
    EXPECT_DOUBLE_EQ(d.percentile(50), 0.0);  // no samples
    d.sample(-5);
    d.sample(-5);
    d.sample(3);
    d.sample(100);
    // Underflowed ranks pin to the range minimum, overflowed ranks
    // to the range maximum: the histogram never saw the true values.
    EXPECT_DOUBLE_EQ(d.percentile(25), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 10.0);
}

TEST(Stats, DistributionDumpsPercentiles)
{
    statistics::StatGroup g("g");
    statistics::Distribution d(&g, "d", "d", 0, 10, 2);
    for (int v = 0; v < 10; ++v)
        d.sample(v);
    std::ostringstream os;
    g.dumpStats(os);
    EXPECT_NE(os.str().find("g.d::p50"), std::string::npos);
    EXPECT_NE(os.str().find("g.d::p99"), std::string::npos);

    std::ostringstream js;
    {
        json::JsonWriter jw(js);
        g.dumpJson(jw);
    }
    EXPECT_NE(js.str().find("\"p90\""), std::string::npos);
}

TEST(Stats, GroupDumpAndReset)
{
    statistics::StatGroup root("root");
    statistics::StatGroup child("child", &root);
    statistics::Scalar s(&child, "counter", "a counter");
    s += 7;
    std::ostringstream os;
    root.dumpStats(os);
    EXPECT_NE(os.str().find("root.child.counter 7"),
              std::string::npos);
    root.resetStats();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, FindStat)
{
    statistics::StatGroup g("g");
    statistics::Scalar s(&g, "x", "d");
    EXPECT_EQ(g.findStat("x"), &s);
    EXPECT_EQ(g.findStat("y"), nullptr);
}

TEST(Config, ParsesAssignments)
{
    Config c;
    EXPECT_TRUE(c.parseAssignment("a=1"));
    EXPECT_TRUE(c.parseAssignment("b.c=2.5"));
    EXPECT_FALSE(c.parseAssignment("pos"));
    EXPECT_TRUE(c.parseAssignment("flag=true"));
    EXPECT_EQ(c.getUint("a", 0), 1u);
    EXPECT_DOUBLE_EQ(c.getDouble("b.c", 0), 2.5);
    EXPECT_TRUE(c.getBool("flag", false));
    EXPECT_FALSE(c.has("pos"));
}

TEST(Config, DefaultsWhenMissing)
{
    Config c;
    EXPECT_EQ(c.getUint("nope", 42), 42u);
    EXPECT_EQ(c.getString("nope", "x"), "x");
    EXPECT_FALSE(c.has("nope"));
}

TEST(Config, HexAndBoolForms)
{
    Config c;
    c.set("h", "0x10");
    c.set("b1", "on");
    c.set("b0", "Off");
    EXPECT_EQ(c.getUint("h", 0), 16u);
    EXPECT_TRUE(c.getBool("b1", false));
    EXPECT_FALSE(c.getBool("b0", true));
}

TEST(ConfigDeathTest, CountsStartWithADigitAndFit)
{
    // strtoull alone reads -5 as 2^64 - 5 and the empty string as 0
    // (which turns a campaign's samples= off instead of defaulting).
    Config c;
    c.parseAssignment("insts=-5");
    c.parseAssignment("samples=");
    c.parseAssignment("width= 4");
    c.parseAssignment("seed=18446744073709551616");
    EXPECT_EXIT(c.getUint("insts", 1), testing::ExitedWithCode(1),
                "insts = '-5' is not an unsigned integer");
    EXPECT_EXIT(c.getUint("samples", 1), testing::ExitedWithCode(1),
                "samples = '' is not an unsigned integer");
    EXPECT_EXIT(c.getUint("width", 1), testing::ExitedWithCode(1),
                "width");
    EXPECT_EXIT(c.getUint("seed", 1), testing::ExitedWithCode(1),
                "seed");
}

TEST(ConfigDeathTest, NumbersAreFinite)
{
    Config c;
    c.parseAssignment("rate=nan");
    c.parseAssignment("scale=");
    c.parseAssignment("limit=inf");
    EXPECT_EXIT(c.getDouble("rate", 1), testing::ExitedWithCode(1),
                "rate = 'nan' is not a number");
    EXPECT_EXIT(c.getDouble("scale", 1), testing::ExitedWithCode(1),
                "scale = '' is not a number");
    EXPECT_EXIT(c.getDouble("limit", 1), testing::ExitedWithCode(1),
                "limit");
}

TEST(Config, RecordsWhichKeysWereRead)
{
    Config c;
    c.set("insts", "4000");
    c.set("insnts", "4000");  // a typo no getter asks for
    c.set("benchmarks", "gzip,,mcf");
    c.set("csv", "1");
    EXPECT_EQ(c.unread(), (std::vector<std::string>{
                              "benchmarks", "csv", "insnts", "insts"}));
    EXPECT_EQ(c.getUint("insts", 0), 4000u);
    EXPECT_TRUE(c.has("csv"));
    EXPECT_EQ(c.getList("benchmarks", {"swim"}),
              (std::vector<std::string>{"gzip", "mcf"}));
    EXPECT_EQ(c.getString("absent", "x"), "x");
    EXPECT_EQ(c.unread(), std::vector<std::string>{"insnts"});
}

TEST(Config, ListsSkipEmptyItems)
{
    Config c;
    EXPECT_EQ(c.getList("benchmarks", {"swim"}),
              std::vector<std::string>{"swim"});
    EXPECT_EQ(splitList(",gzip,,mcf,"),
              (std::vector<std::string>{"gzip", "mcf"}));
    EXPECT_TRUE(splitList("").empty());
}

TEST(Json, EscapesSpecialCharacters)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json::escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(json::escape(std::string("a\x01") + "b"),
              "a\\u0001b");
}

TEST(Json, WriterRoundTripsThroughParser)
{
    std::ostringstream os;
    json::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("name", "quote\" and \\slash");
    jw.kv("count", std::uint64_t(12345));
    jw.kv("delta", std::int64_t(-7));
    jw.kv("ratio", 0.25);
    jw.kv("flag", true);
    jw.key("none").nullValue();
    jw.key("list").beginArray();
    jw.value(1).value(2).value(3);
    jw.endArray();
    jw.key("nested").beginObject();
    jw.kv("inner", "x");
    jw.endObject();
    jw.endObject();

    json::JsonValue doc;
    std::string err;
    ASSERT_TRUE(json::parseJson(os.str(), &doc, &err)) << err;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("name")->string, "quote\" and \\slash");
    EXPECT_DOUBLE_EQ(doc.find("count")->number, 12345.0);
    EXPECT_DOUBLE_EQ(doc.find("delta")->number, -7.0);
    EXPECT_DOUBLE_EQ(doc.find("ratio")->number, 0.25);
    EXPECT_TRUE(doc.find("flag")->boolean);
    EXPECT_TRUE(doc.find("none")->isNull());
    ASSERT_EQ(doc.find("list")->array.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.find("list")->array[2].number, 3.0);
    EXPECT_EQ(doc.find("nested")->find("inner")->string, "x");
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    std::ostringstream os;
    json::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("nan", std::nan(""));
    jw.kv("inf", std::numeric_limits<double>::infinity());
    jw.endObject();
    json::JsonValue doc;
    ASSERT_TRUE(json::parseJson(os.str(), &doc));
    EXPECT_TRUE(doc.find("nan")->isNull());
    EXPECT_TRUE(doc.find("inf")->isNull());
}

TEST(Json, CompactModeIsSingleLine)
{
    std::ostringstream os;
    json::JsonWriter jw(os, 0);
    jw.beginObject();
    jw.kv("a", 1);
    jw.key("b").beginArray().value(2).value(3).endArray();
    jw.endObject();
    EXPECT_EQ(os.str().find('\n'), std::string::npos);
    json::JsonValue doc;
    EXPECT_TRUE(json::parseJson(os.str(), &doc));
}

TEST(Json, RawValueSplicesVerbatim)
{
    std::ostringstream os;
    json::JsonWriter jw(os, 0);
    jw.beginObject();
    jw.key("stats").rawValue("{\"x\": 1}");
    jw.kv("after", 2);
    jw.endObject();
    json::JsonValue doc;
    ASSERT_TRUE(json::parseJson(os.str(), &doc));
    EXPECT_DOUBLE_EQ(doc.find("stats")->find("x")->number, 1.0);
    EXPECT_DOUBLE_EQ(doc.find("after")->number, 2.0);
}

TEST(Json, ParserRejectsMalformedInput)
{
    json::JsonValue doc;
    EXPECT_FALSE(json::parseJson("{", &doc));
    EXPECT_FALSE(json::parseJson("{} trailing", &doc));
    EXPECT_FALSE(json::parseJson("{\"a\": }", &doc));
    EXPECT_FALSE(json::parseJson("[1, 2,]", &doc));
    EXPECT_FALSE(json::parseJson("nul", &doc));
}

TEST(Stats, DumpJsonNestedTreeRoundTrips)
{
    statistics::StatGroup root("cpu");
    statistics::Scalar cycles(&root, "cycles", "d");
    cycles += 100;
    statistics::StatGroup child("iq", &root);
    statistics::Scalar enq(&child, "enqueued", "d");
    enq += 42;
    statistics::Average occ(&child, "occupancy", "d");
    occ.sample(2);
    occ.sample(4);
    statistics::Distribution lat(&child, "latency", "d", 0, 8, 2);
    lat.sample(1);
    lat.sample(3);
    lat.sample(100);

    std::ostringstream os;
    json::JsonWriter jw(os);
    jw.beginObject();
    root.dumpJson(jw);
    jw.endObject();

    json::JsonValue doc;
    std::string err;
    ASSERT_TRUE(json::parseJson(os.str(), &doc, &err)) << err;
    const json::JsonValue *cpu = doc.find("cpu");
    ASSERT_NE(cpu, nullptr);
    EXPECT_DOUBLE_EQ(cpu->find("cycles")->number, 100.0);
    const json::JsonValue *iq = cpu->find("iq");
    ASSERT_NE(iq, nullptr);
    EXPECT_DOUBLE_EQ(iq->find("enqueued")->number, 42.0);
    const json::JsonValue *jocc = iq->find("occupancy");
    ASSERT_NE(jocc, nullptr);
    ASSERT_TRUE(jocc->isObject());
    EXPECT_DOUBLE_EQ(jocc->find("mean")->number, 3.0);
    const json::JsonValue *jlat = iq->find("latency");
    ASSERT_NE(jlat, nullptr);
    ASSERT_TRUE(jlat->isObject());
    EXPECT_DOUBLE_EQ(jlat->find("count")->number, 3.0);
}

TEST(Stats, DistributionReset)
{
    statistics::StatGroup g("g");
    statistics::Distribution d(&g, "d", "d", 0, 10, 2);
    d.sample(1);
    d.sample(11);
    d.sample(-1);
    ASSERT_EQ(d.count(), 3u);
    g.resetStats();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.underflows(), 0u);
    EXPECT_EQ(d.overflows(), 0u);
    for (std::size_t i = 0; i < d.numBuckets(); ++i)
        EXPECT_EQ(d.bucketCount(i), 0u);
}

TEST(Stats, FindStatEdgeCases)
{
    statistics::StatGroup root("root");
    statistics::StatGroup child("child", &root);
    statistics::Scalar s(&child, "x", "d");
    // findStat is by local name within one group: the parent does
    // not see the child's stats, and lookups are exact-match.
    EXPECT_EQ(root.findStat("x"), nullptr);
    EXPECT_EQ(root.findStat("child.x"), nullptr);
    EXPECT_EQ(child.findStat("x"), &s);
    EXPECT_EQ(child.findStat("X"), nullptr);
    EXPECT_EQ(child.findStat(""), nullptr);
}

namespace
{

cpu::IntervalCounters
countersAt(std::uint64_t committed, std::uint64_t occupancy)
{
    cpu::IntervalCounters c;
    c.committed = committed;
    c.fetched = committed * 2;
    c.iqOccupancy = occupancy;
    c.iqWaiting = occupancy / 2;
    return c;
}

} // namespace

TEST(Sampler, ClosesEpochsOnTheGridWithPartialTail)
{
    cpu::IntervalSampler sampler(10);
    sampler.windowOpen(100);
    // 25 in-window cycles: two full epochs plus a 5-cycle tail.
    for (std::uint64_t cycle = 100; cycle < 125; ++cycle)
        sampler.tick(cycle, countersAt(2 * (cycle - 99), 3));
    sampler.finish(125);

    const auto &s = sampler.samples();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].startCycle, 100u);
    EXPECT_EQ(s[0].endCycle, 110u);
    EXPECT_EQ(s[0].committed, 20u);
    EXPECT_EQ(s[0].iqValidEntryCycles, 30u);
    EXPECT_DOUBLE_EQ(s[0].ipc(), 2.0);
    EXPECT_DOUBLE_EQ(s[0].avgIqOccupancy(), 3.0);
    EXPECT_EQ(s[1].startCycle, 110u);
    EXPECT_EQ(s[1].endCycle, 120u);
    EXPECT_EQ(s[1].committed, 20u);
    // The partial last epoch covers the remaining 5 cycles.
    EXPECT_EQ(s[2].startCycle, 120u);
    EXPECT_EQ(s[2].endCycle, 125u);
    EXPECT_EQ(s[2].cycles(), 5u);
    EXPECT_EQ(s[2].committed, 10u);

    std::uint64_t total = 0;
    for (const auto &e : s)
        total += e.committed;
    EXPECT_EQ(total, 50u);  // == the run's committed instructions
}

TEST(Sampler, WarmupTicksAreExcluded)
{
    cpu::IntervalSampler sampler(10);
    // Ticks before the window opens must leave no trace.
    for (std::uint64_t cycle = 0; cycle < 50; ++cycle)
        sampler.tick(cycle, countersAt(1000 + cycle, 60));
    EXPECT_TRUE(sampler.samples().empty());
    sampler.finish(50);
    EXPECT_TRUE(sampler.samples().empty());

    sampler.windowOpen(50);
    for (std::uint64_t cycle = 50; cycle < 60; ++cycle)
        sampler.tick(cycle, countersAt(cycle - 49, 1));
    ASSERT_EQ(sampler.samples().size(), 1u);
    // The grid restarts at the window-open cycle and the deltas
    // restart from zero, untouched by the warmup values.
    EXPECT_EQ(sampler.samples()[0].startCycle, 50u);
    EXPECT_EQ(sampler.samples()[0].endCycle, 60u);
    EXPECT_EQ(sampler.samples()[0].committed, 10u);
    EXPECT_EQ(sampler.samples()[0].iqValidEntryCycles, 10u);
}

TEST(Sampler, ExactMultipleLeavesNoPartialEpoch)
{
    cpu::IntervalSampler sampler(5);
    sampler.windowOpen(0);
    for (std::uint64_t cycle = 0; cycle < 10; ++cycle)
        sampler.tick(cycle, countersAt(cycle + 1, 0));
    sampler.finish(10);
    ASSERT_EQ(sampler.samples().size(), 2u);
    EXPECT_EQ(sampler.samples()[1].endCycle, 10u);
}

TEST(Sampler, BatchAdvanceMatchesPerCycleTicks)
{
    // An inert span batch-advanced in one call must leave the sampler
    // in exactly the state that per-cycle ticking with unchanged
    // counters would, including spans that cross several epoch
    // boundaries and the snapshot-free mid-epoch fast path.
    cpu::IntervalSampler ticked(10);
    cpu::IntervalSampler batched(10);
    ticked.windowOpen(0);
    batched.windowOpen(0);

    struct Span
    {
        std::uint64_t cycles;
        std::uint64_t committed;
        std::uint64_t occupancy;
    };
    const Span spans[] = {
        {3, 4, 2}, {12, 4, 5}, {1, 6, 1}, {9, 8, 7}, {25, 9, 3},
    };
    std::uint64_t cycle = 0;
    cpu::IntervalCounters c;
    for (const Span &sp : spans) {
        c = countersAt(sp.committed, sp.occupancy);
        for (std::uint64_t i = 0; i < sp.cycles; ++i)
            ticked.tick(cycle + i, c);
        if (batched.needsCounters(sp.cycles))
            batched.advance(cycle, sp.cycles, c);
        else
            batched.advanceMidEpoch(sp.cycles, c.iqOccupancy,
                                    c.iqWaiting);
        cycle += sp.cycles;
    }
    ticked.finish(cycle, c);
    batched.finish(cycle, c);

    const auto &a = ticked.samples();
    const auto &b = batched.samples();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].startCycle, b[i].startCycle) << i;
        EXPECT_EQ(a[i].endCycle, b[i].endCycle) << i;
        EXPECT_EQ(a[i].committed, b[i].committed) << i;
        EXPECT_EQ(a[i].fetched, b[i].fetched) << i;
        EXPECT_EQ(a[i].iqValidEntryCycles, b[i].iqValidEntryCycles)
            << i;
        EXPECT_EQ(a[i].iqWaitingEntryCycles,
                  b[i].iqWaitingEntryCycles)
            << i;
    }
}

TEST(Table, CsvQuotesPerRfc4180)
{
    harness::Table t({"name", "value, with comma"});
    t.addRow({"say \"hi\"", "multi\nline"});
    t.addRow({"plain", "1.5"});
    std::ostringstream os;
    t.printCsv(os);
    std::string csv = os.str();
    EXPECT_NE(csv.find("\"value, with comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
    EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
    EXPECT_NE(csv.find("plain,1.5"), std::string::npos);
}

TEST(BenchOptions, ParsesSharedFlagsAndConfig)
{
    std::vector<std::string> args = {
        "prog", "--csv", "--json", "out.json", "--intervals", "500",
        "insts=1234", "benchmark=mcf"};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    auto opts = harness::BenchOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(opts.csv);
    EXPECT_EQ(opts.jsonPath, "out.json");
    EXPECT_EQ(opts.intervalCycles, 500u);
    EXPECT_EQ(opts.config.getUint("insts", 0), 1234u);
    EXPECT_EQ(opts.config.getString("benchmark", ""), "mcf");
}

TEST(BenchOptions, EqualsFormAndLegacyCsvKey)
{
    // --csv is the only spelling: csv=1 is an ordinary Config key
    // that no option reads, so it leaves CSV off and is listed as
    // unread (BenchOutput::finish warns about it).
    std::vector<std::string> args = {"prog", "--json=m.json", "csv=1"};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    auto opts = harness::BenchOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_FALSE(opts.csv);
    EXPECT_EQ(opts.jsonPath, "m.json");
    EXPECT_EQ(opts.intervalCycles, 0u);
    EXPECT_EQ(opts.config.unread(), std::vector<std::string>{"csv"});
}
