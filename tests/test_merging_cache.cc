/**
 * @file
 * Tests of the merging-aware cache: band computation from the byte
 * budget, Eq. (1) set indexing, hit/extract semantics, LRU eviction
 * and write-back victims.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/merging_cache.hh"

namespace fp::core
{
namespace
{

mem::TreeGeometry geo24(24);

MergingCacheParams
params(unsigned m1 = 9, std::uint64_t budget = 1 << 20,
       unsigned ways = 2, std::uint64_t bucket_bytes = 256)
{
    MergingCacheParams p;
    p.m1 = m1;
    p.budgetBytes = budget;
    p.bucketsPerSet = ways;
    p.bucketBytes = bucket_bytes;
    return p;
}

mem::Bucket
bucketWith(BlockAddr addr, LeafLabel leaf)
{
    mem::Bucket b(4);
    b.add(mem::Block(addr, leaf));
    return b;
}

TEST(MergingCache, BandFromBudget)
{
    // 1 MB / 256 B = 4096 frames: levels 9 (512), 10 (1024) and
    // 11 (2048) are fully covered; the remaining 512 frames form a
    // partial region for level 12.
    MergingAwareCache cache(geo24, params(9));
    EXPECT_EQ(cache.m1(), 9u);
    EXPECT_EQ(cache.m2(), 12u);
    EXPECT_EQ(cache.capacityBuckets(), 4096u);
    EXPECT_TRUE(cache.inRange(9));
    EXPECT_TRUE(cache.inRange(12));
    EXPECT_FALSE(cache.inRange(8));
    EXPECT_FALSE(cache.inRange(13));
}

TEST(MergingCache, SmallBudget)
{
    // 1 KB / 256 B = 4 frames -> a 4-frame partial region of m1.
    MergingAwareCache cache(geo24, params(9, 1024));
    EXPECT_EQ(cache.m1(), 9u);
    EXPECT_EQ(cache.m2(), 9u);
    EXPECT_EQ(cache.capacityBuckets(), 4u);
}

TEST(MergingCache, QuadrupleBudgetAddsTwoLevels)
{
    MergingAwareCache small(geo24, params(9, 256 << 10));
    MergingAwareCache big(geo24, params(9, 1 << 20));
    EXPECT_EQ(big.m2(), small.m2() + 2);
}

TEST(MergingCache, SetIndexInRangeAndLevelDisjoint)
{
    MergingAwareCache cache(geo24, params(9));
    // Eq (1): different levels occupy disjoint set regions (when
    // each level's allocation is at least one full set).
    std::set<std::uint64_t> level9_sets, level10_sets;
    for (std::uint64_t y = 0; y < 64; ++y) {
        BucketIndex idx9 = ((1ULL << 9) - 1) + (y % (1ULL << 9));
        BucketIndex idx10 = ((1ULL << 10) - 1) + (y % (1ULL << 10));
        auto s9 = cache.setIndex(idx9);
        auto s10 = cache.setIndex(idx10);
        EXPECT_LT(s9, cache.numSets());
        EXPECT_LT(s10, cache.numSets());
        level9_sets.insert(s9);
        level10_sets.insert(s10);
    }
    for (auto s : level9_sets)
        EXPECT_EQ(level10_sets.count(s), 0u);
}

TEST(MergingCache, SetIndexMatchesDividingFormula)
{
    // Eq. (1) with every division: the frame is the level's base plus
    // the offset mod the level's frames, and the set is the frame
    // over the ways, mod the set count. The levels' frames are
    // allocated here as the constructor does it, from the budget.
    struct Config
    {
        unsigned leaf, m1;
        std::uint64_t frames;
        unsigned ways;
    };
    const Config configs[] = {
        {10, 3, 120, 2},   // four full levels, no partial one
        {10, 3, 200, 2},   // four full levels and a partial one
        {8, 2, 4, 1},      // one full level
        {11, 4, 500, 1},   // partial level of 4 frames
        {12, 4, 1000, 3},  // 3 ways: m1 itself is partial
        {14, 5, 3000, 5},
        {16, 6, 16000, 4},
        {20, 9, 4096, 8},
    };
    for (const Config &c : configs) {
        SCOPED_TRACE(::testing::Message()
                     << "L " << c.leaf << " m1 " << c.m1 << " frames "
                     << c.frames << " ways " << c.ways);
        mem::TreeGeometry geo(c.leaf);
        MergingAwareCache cache(geo, params(c.m1, c.frames * 256, c.ways));
        std::vector<std::uint64_t> base, alloc;
        std::uint64_t used = 0;
        for (unsigned x = c.m1; x <= c.leaf; ++x) {
            const std::uint64_t full = std::uint64_t{1} << x;
            std::uint64_t a = std::min(full, c.frames - used);
            a -= a % c.ways;
            if (a == 0)
                break;
            base.push_back(used);
            alloc.push_back(a);
            used += a;
            if (a < full)
                break;
        }
        ASSERT_EQ(cache.m2(), c.m1 + alloc.size() - 1);
        ASSERT_EQ(cache.capacityBuckets(), used);
        const std::uint64_t sets = used / c.ways;
        ASSERT_EQ(cache.numSets(), sets);
        for (unsigned x = c.m1; x <= cache.m2(); ++x) {
            const std::uint64_t first = (std::uint64_t{1} << x) - 1;
            for (std::uint64_t y = 0; y < (std::uint64_t{1} << x); ++y) {
                const std::uint64_t frame =
                    base[x - c.m1] + y % alloc[x - c.m1];
                ASSERT_EQ(cache.setIndex(first + y),
                          frame / c.ways % sets)
                    << "level " << x << " offset " << y;
            }
        }
    }
}

TEST(MergingCache, InsertThenExtractHits)
{
    MergingAwareCache cache(geo24, params(9));
    BucketIndex idx = (1ULL << 9) - 1 + 5; // level 9, offset 5
    EXPECT_FALSE(cache.insert(idx, bucketWith(1, 2)).has_value());
    auto hit = cache.extract(idx);
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(hit->occupancy(), 1u);
    EXPECT_EQ(hit->blocks()[0].addr, 1u);
    EXPECT_EQ(cache.hits(), 1u);
    // Extraction invalidates: a second lookup misses.
    EXPECT_FALSE(cache.extract(idx).has_value());
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(MergingCache, ReinsertSameBucketNoVictim)
{
    MergingAwareCache cache(geo24, params(9));
    BucketIndex idx = (1ULL << 9) - 1 + 3;
    cache.insert(idx, bucketWith(1, 0));
    // Refilling the same bucket must update in place.
    EXPECT_FALSE(cache.insert(idx, bucketWith(2, 0)).has_value());
    auto hit = cache.extract(idx);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->blocks()[0].addr, 2u);
}

TEST(MergingCache, LruEvictionProducesVictim)
{
    // Tiny cache: 4 frames, 2 ways -> 2 sets, only level m1.
    MergingAwareCache cache(geo24, params(9, 1024));
    // Level 9's region is 4 frames (2 sets of 2 ways); offsets hash
    // by y % 4, so offsets 0 and 4 collide in set 0.
    BucketIndex base = (1ULL << 9) - 1;
    cache.insert(base + 0, bucketWith(10, 0));
    cache.insert(base + 1, bucketWith(11, 0));
    // Offset 4 maps onto frame 0 -> set 0: evicts LRU (base+0).
    auto victim = cache.insert(base + 4, bucketWith(12, 0));
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->idx, base + 0);
    ASSERT_EQ(victim->bucket.occupancy(), 1u);
    EXPECT_EQ(victim->bucket.blocks()[0].addr, 10u);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(MergingCache, LruOrderRespected)
{
    MergingAwareCache cache(geo24, params(9, 1024));
    BucketIndex base = (1ULL << 9) - 1;
    cache.insert(base + 0, bucketWith(10, 0));
    cache.insert(base + 1, bucketWith(11, 0));
    // Touch base+0 by re-inserting it; base+1 becomes LRU in set 0.
    // Offset 5 (5 % 4 = 1 -> frame 1 -> set 0) displaces it.
    cache.insert(base + 0, bucketWith(20, 0));
    auto victim = cache.insert(base + 5, bucketWith(13, 0));
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->idx, base + 1);
}

TEST(MergingCache, CapacityAccounting)
{
    MergingAwareCache cache(geo24, params(9, 1 << 20));
    EXPECT_EQ(cache.sizeBytes(), cache.capacityBuckets() * 256);
    EXPECT_LE(cache.sizeBytes(), 1u << 20);
}

TEST(MergingCache, ForEachVisitsResidents)
{
    MergingAwareCache cache(geo24, params(9));
    BucketIndex a = (1ULL << 9) - 1 + 1;
    BucketIndex b = (1ULL << 10) - 1 + 7;
    cache.insert(a, bucketWith(1, 0));
    cache.insert(b, bucketWith(2, 0));
    // Fully-covered levels are pre-warmed with empty buckets; the
    // two inserted buckets must be visited with their contents.
    std::set<BlockAddr> contents;
    cache.forEachBucket(
        [&](BucketIndex idx, const mem::Bucket &bucket) {
            for (const auto &blk : bucket.blocks())
                contents.insert(blk.addr);
            if (idx == a || idx == b) {
                EXPECT_EQ(bucket.occupancy(), 1u);
            }
        });
    EXPECT_EQ(contents, (std::set<BlockAddr>{1, 2}));
}

TEST(MergingCache, PrewarmedLevelsHitEmpty)
{
    MergingAwareCache cache(geo24, params(9));
    // A never-inserted bucket of a fully-covered level hits with an
    // empty bucket (the controller initialised the tree, so it knows
    // the content); the partial level m2 stays cold.
    BucketIndex warm = (1ULL << 10) - 1 + 123;
    auto hit = cache.extract(warm);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->empty());
    BucketIndex cold =
        (1ULL << cache.m2()) - 1 + (1ULL << (cache.m2() - 1));
    EXPECT_FALSE(cache.extract(cold).has_value());
}

} // anonymous namespace
} // namespace fp::core
