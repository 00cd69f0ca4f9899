/**
 * @file
 * Tests for the cache model and the three-level hierarchy, including
 * LRU behaviour, inclusive fills, in-flight (MSHR) latency, and the
 * timed prefetch path.
 */

#include <gtest/gtest.h>

#include "memory/cache.hh"
#include "memory/hierarchy.hh"

using namespace ser;
using namespace ser::memory;

namespace
{

CacheParams
tinyCache(unsigned assoc = 2)
{
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = 4 * 64 * assoc;  // 4 sets
    p.lineBytes = 64;
    p.assoc = assoc;
    p.hitLatency = 2;
    return p;
}

} // namespace

TEST(Cache, MissThenFillThenHit)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.access(0x1000));
    c.fill(0x1000);
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1038));  // same line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_EQ(c.hits() + c.misses(), 0u);
    c.fill(0x1000);
    EXPECT_TRUE(c.probe(0x1000));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyCache(2));  // 2-way, 4 sets, set stride 64*4=256
    // Two lines in the same set.
    c.fill(0x0000);
    c.fill(0x0400);
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_TRUE(c.probe(0x0400));
    // Touch the first so the second becomes LRU.
    EXPECT_TRUE(c.access(0x0000));
    c.fill(0x0800);  // evicts 0x0400
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0400));
    EXPECT_TRUE(c.probe(0x0800));
}

TEST(Cache, InvalidateAllDropsEverything)
{
    Cache c(tinyCache());
    c.fill(0x1000);
    c.fill(0x2000);
    c.invalidateAll();
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x2000));
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    CacheParams p;
    p.sizeBytes = 10 * 1024 * 1024;
    p.lineBytes = 128;
    p.assoc = 16;
    Cache c(p);  // 5120 sets, like the paper's 10MB L2
    EXPECT_EQ(c.numSets(), 5120u);
    c.fill(0x12345680);
    EXPECT_TRUE(c.probe(0x12345680));
}

TEST(Hierarchy, LatenciesMatchServiceLevel)
{
    CacheHierarchy h;
    auto first = h.access(0x100000, 0);
    EXPECT_EQ(first.level, HitLevel::Memory);
    EXPECT_EQ(first.latency, h.params().memLatency);

    // After the fill completes, the line is everywhere.
    auto later = h.access(0x100000, 1000);
    EXPECT_EQ(later.level, HitLevel::L0);
    EXPECT_EQ(later.latency, h.params().l0.hitLatency);
}

TEST(Hierarchy, InflightSecondaryMissPaysRemainder)
{
    CacheHierarchy h;
    auto first = h.access(0x200000, 100);  // memory: ready at 300
    ASSERT_EQ(first.level, HitLevel::Memory);
    auto second = h.access(0x200008, 150);  // same L0 line
    EXPECT_TRUE(second.secondary);
    EXPECT_EQ(second.level, HitLevel::Memory);
    EXPECT_EQ(second.latency, 150u);  // 300 - 150
    auto third = h.access(0x200010, 299);
    EXPECT_EQ(third.latency, h.params().l0.hitLatency);  // clamped
    auto after = h.access(0x200018, 301);
    EXPECT_FALSE(after.secondary);
    EXPECT_EQ(after.level, HitLevel::L0);
}

TEST(Hierarchy, PrefetchHidesLatency)
{
    CacheHierarchy h;
    h.prefetch(0x300000, 0);  // starts a memory fill, ready at 200
    auto early = h.access(0x300000, 50);
    EXPECT_TRUE(early.secondary);
    EXPECT_EQ(early.latency, 150u);

    h.prefetch(0x340000, 0);
    auto late = h.access(0x340000, 500);
    EXPECT_EQ(late.level, HitLevel::L0);
    EXPECT_EQ(late.latency, h.params().l0.hitLatency);
}

TEST(Hierarchy, InclusiveFillsServeFromCloserLevelNextTime)
{
    CacheHierarchy h;
    h.access(0x400000, 0);
    // Evict from L0 by filling its set heavily; the L1 copy remains.
    // L0: 8KB/64B/4-way = 32 sets; lines mapping to the same set are
    // 32*64 = 2KB apart.
    for (int i = 1; i <= 8; ++i)
        h.access(0x400000 + i * 2048ULL, 1000 + i * 300ULL);
    auto again = h.access(0x400000, 100000);
    EXPECT_EQ(again.level, HitLevel::L1);
    EXPECT_EQ(again.latency, h.params().l1.hitLatency);
}
