/**
 * @file
 * Tests of the DDR3 model: address decomposition, the subtree bucket
 * layout, bank/row-buffer timing, FR-FCFS behaviour and energy
 * accounting.
 */

#include <gtest/gtest.h>

#include <set>

#include "dram/address_mapping.hh"
#include "dram/dram_system.hh"
#include "mem/tree_geometry.hh"
#include "util/event_queue.hh"
#include "util/logging.hh"

namespace fp::dram
{
namespace
{

DramParams
testParams(unsigned channels = 2)
{
    return DramParams::ddr3_1600(channels);
}

// --- address mapping -------------------------------------------------------

TEST(AddressMapping, DecodeRoundTrip)
{
    DramOrganization org;
    org.channels = 2;
    org.banksPerRank = 8;
    org.rowBytes = 8192;
    AddressMapping map(org);

    auto loc = map.decode(0);
    EXPECT_EQ(loc.channel, 0u);
    EXPECT_EQ(loc.bank, 0u);
    EXPECT_EQ(loc.row, 0u);
    EXPECT_EQ(loc.column, 0u);

    // Next row rotates channel first.
    auto loc2 = map.decode(8192);
    EXPECT_EQ(loc2.channel, 1u);
    EXPECT_EQ(loc2.row, 0u);

    // Same row, different column.
    auto loc3 = map.decode(4096);
    EXPECT_EQ(loc3.channel, 0u);
    EXPECT_EQ(loc3.column, 4096u);
}

TEST(AddressMapping, AllFieldsInRange)
{
    DramOrganization org;
    AddressMapping map(org);
    for (Addr a = 0; a < (1ULL << 26); a += 4093) {
        auto loc = map.decode(a);
        EXPECT_LT(loc.channel, org.channels);
        EXPECT_LT(loc.bank, org.banksTotal());
        EXPECT_LT(loc.column, org.rowBytes);
    }
}

// --- bucket layout -----------------------------------------------------------

TEST(BucketLayout, LinearIsDense)
{
    mem::TreeGeometry geo(4);
    BucketLayout layout(geo, 256, 8192, LayoutPolicy::linear);
    for (BucketIndex i = 0; i < geo.numBuckets(); ++i)
        EXPECT_EQ(layout.physAddr(i), i * 256);
}

TEST(BucketLayout, SubtreeDepthFromRow)
{
    mem::TreeGeometry geo(24);
    BucketLayout layout(geo, 256, 8192, LayoutPolicy::subtree);
    // 8192/256 = 32 buckets per row -> 5-level subtrees.
    EXPECT_EQ(layout.subtreeLevels(), 5u);
}

TEST(BucketLayout, SubtreeNoAliasing)
{
    mem::TreeGeometry geo(8);
    BucketLayout layout(geo, 256, 8192, LayoutPolicy::subtree);
    std::set<Addr> seen;
    for (BucketIndex i = 0; i < geo.numBuckets(); ++i) {
        Addr a = layout.physAddr(i);
        EXPECT_TRUE(seen.insert(a).second)
            << "bucket " << i << " aliases address " << a;
    }
}

TEST(BucketLayout, SubtreeNeverStraddlesRow)
{
    mem::TreeGeometry geo(9);
    // 320 B buckets: 25.6 per row, a non-power-of-two case.
    BucketLayout layout(geo, 320, 8192, LayoutPolicy::subtree);
    for (BucketIndex i = 0; i < geo.numBuckets(); ++i) {
        Addr a = layout.physAddr(i);
        EXPECT_EQ(a / 8192, (a + 320 - 1) / 8192)
            << "bucket " << i << " straddles a row";
    }
}

TEST(BucketLayout, SubtreeMappingExhaustivelyInjectiveAndRowAligned)
{
    // Exhaustive proof over small geometries that the subtree layout
    // is injective and never lets a bucket straddle a row, including
    // the awkward cases: a non-power-of-two number of buckets per row
    // (per_row in {2,3,5,7,9,17}), rows that are not a multiple of
    // the bucket size, and tree depths where numLevels is not a
    // multiple of the subtree depth (the last super-level is
    // truncated).
    const std::uint64_t bucket_bytes = 96;
    for (unsigned leaf = 0; leaf <= 8; ++leaf) {
        mem::TreeGeometry geo(leaf);
        for (std::uint64_t per_row : {2, 3, 5, 7, 8, 9, 17}) {
            // +37 makes the row a non-multiple of the bucket size.
            const std::uint64_t row_bytes =
                per_row * bucket_bytes + 37;
            BucketLayout layout(geo, bucket_bytes, row_bytes,
                                LayoutPolicy::subtree);
            std::set<Addr> seen;
            for (BucketIndex i = 0; i < geo.numBuckets(); ++i) {
                Addr a = layout.physAddr(i);
                EXPECT_TRUE(seen.insert(a).second)
                    << "leaf " << leaf << " per_row " << per_row
                    << ": bucket " << i << " aliases address " << a;
                EXPECT_EQ(a / row_bytes,
                          (a + bucket_bytes - 1) / row_bytes)
                    << "leaf " << leaf << " per_row " << per_row
                    << ": bucket " << i << " straddles a row";
            }
        }
    }
}

TEST(BucketLayout, SubtreeRejectsRowsSmallerThanTwoBuckets)
{
    // A row holding fewer than two buckets cannot host any subtree;
    // that is a configuration error (reject loudly), not a simulator
    // invariant.
    mem::TreeGeometry geo(4);
    ScopedRecoverableFailures recover;
    EXPECT_THROW(
        BucketLayout(geo, 8192, 8192 + 1, LayoutPolicy::subtree),
        SimFailure);
}

TEST(BucketLayout, PathTouchesFewRowsUnderSubtree)
{
    mem::TreeGeometry geo(24);
    BucketLayout subtree(geo, 256, 8192, LayoutPolicy::subtree);
    BucketLayout linear(geo, 256, 8192, LayoutPolicy::linear);

    auto rows_touched = [&](const BucketLayout &l, LeafLabel leaf) {
        std::set<std::uint64_t> rows;
        for (unsigned d = 0; d <= geo.leafLevel(); ++d)
            rows.insert(l.physAddr(geo.bucketAt(leaf, d)) / 8192);
        return rows.size();
    };

    // 25 levels / 5-level subtrees = 5 rows; the linear layout
    // scatters the upper path across many rows.
    EXPECT_EQ(rows_touched(subtree, 0x5a5a5a), 5u);
    EXPECT_GT(rows_touched(linear, 0x5a5a5a), 15u);
}

TEST(BucketLayout, SubtreeSharedPrefixSharesRows)
{
    mem::TreeGeometry geo(24);
    BucketLayout layout(geo, 256, 8192, LayoutPolicy::subtree);
    // Two paths overlapping in the top 10 levels share the top two
    // 5-level subtree rows.
    LeafLabel a = 0;
    LeafLabel b = 1 << (24 - 10); // differs at level 10
    for (unsigned d = 0; d < 10; ++d) {
        EXPECT_EQ(layout.physAddr(geo.bucketAt(a, d)) / 8192,
                  layout.physAddr(geo.bucketAt(b, d)) / 8192);
    }
}

// --- timing ---------------------------------------------------------------

/** Issue one transaction and return its completion latency. */
Tick
oneAccess(DramSystem &dram, EventQueue &eq, Addr addr, bool write,
          unsigned bursts = 4)
{
    Tick done = 0;
    Tick start = eq.now();
    DramRequest req;
    req.addr = addr;
    req.isWrite = write;
    req.bursts = bursts;
    req.onComplete = [&](Tick t) { done = t; };
    dram.access(std::move(req));
    eq.run();
    return done - start;
}

TEST(DramTiming, RowHitFasterThanMiss)
{
    EventQueue eq;
    DramSystem dram(testParams(1), eq);
    Tick miss = oneAccess(dram, eq, 0, false);     // cold: row miss
    Tick hit = oneAccess(dram, eq, 64, false);     // same row
    Tick conflict = oneAccess(dram, eq,
                              8192 * 16, false);   // same bank? other row
    EXPECT_LT(hit, miss);
    EXPECT_GE(conflict, miss); // needs PRE + ACT
}

TEST(DramTiming, LatencyMatchesParameters)
{
    EventQueue eq;
    auto p = testParams(1);
    DramSystem dram(p, eq);
    // Cold single-burst read: ACT + tRCD + CL + tBURST.
    Tick lat = oneAccess(dram, eq, 0, false, 1);
    Tick expected = p.timing.cycles(p.timing.tRCD + p.timing.cl +
                                    p.timing.tBURST);
    EXPECT_EQ(lat, expected);
}

TEST(DramTiming, BurstsSerializeOnDataBus)
{
    EventQueue eq;
    auto p = testParams(1);
    DramSystem dram(p, eq);
    Tick one = oneAccess(dram, eq, 0, false, 1);
    // A different bank so no precharge/tRAS interaction intrudes.
    Tick four = oneAccess(dram, eq, 8192 * 65, false, 4);
    EXPECT_EQ(four - one, p.timing.cycles(p.timing.tBURST) * 3);
}

TEST(DramTiming, ChannelsServeInParallel)
{
    EventQueue eq1;
    DramSystem one(testParams(1), eq1);
    EventQueue eq2;
    DramSystem two(testParams(2), eq2);

    auto flood = [](DramSystem &dram, EventQueue &eq) {
        int done = 0;
        for (int i = 0; i < 64; ++i) {
            DramRequest req;
            req.addr = static_cast<Addr>(i) * 8192;
            req.isWrite = false;
            req.bursts = 4;
            req.onComplete = [&done](Tick) { ++done; };
            dram.access(std::move(req));
        }
        eq.run();
        EXPECT_EQ(done, 64);
        return eq.now();
    };
    Tick t1 = flood(one, eq1);
    Tick t2 = flood(two, eq2);
    EXPECT_LT(t2, t1);
    EXPECT_GT(t1, t2 + t2 / 2); // roughly 2x throughput
}

TEST(DramTiming, FrFcfsPrefersRowHits)
{
    EventQueue eq;
    DramSystem dram(testParams(1), eq);
    // Open row 0 of bank 0.
    oneAccess(dram, eq, 0, false);

    // Occupy the scheduler with a transaction to another bank, then
    // queue a row-conflict ahead of a row-hit; FR-FCFS should still
    // serve the hit first.
    std::vector<int> order;
    DramRequest blocker;
    blocker.addr = 8192 * 17; // bank 1
    blocker.bursts = 4;
    blocker.onComplete = [&](Tick) { order.push_back(0); };
    DramRequest conflict;
    conflict.addr = 8192 * 16; // bank 0, other row
    conflict.bursts = 4;
    conflict.onComplete = [&](Tick) { order.push_back(1); };
    DramRequest hit;
    hit.addr = 128; // bank 0, open row
    hit.bursts = 4;
    hit.onComplete = [&](Tick) { order.push_back(2); };
    dram.access(std::move(blocker));
    dram.access(std::move(conflict));
    dram.access(std::move(hit));
    eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 1);
}

TEST(DramTiming, RowHitStatsTracked)
{
    EventQueue eq;
    DramSystem dram(testParams(1), eq);
    oneAccess(dram, eq, 0, false);
    oneAccess(dram, eq, 64, false);
    oneAccess(dram, eq, 128, false);
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_EQ(dram.rowHits(), 2u);
}

TEST(DramTiming, PeakBandwidth)
{
    auto p = testParams(2);
    // DDR3-1600 x64: 12.8 GB/s per channel, 2 channels.
    EXPECT_NEAR(p.org.peakBandwidth(p.timing) / 1e9, 25.6, 0.1);
}

TEST(DramTiming, TwoRanksDoubleTheBanks)
{
    auto p = testParams(1);
    p.org.ranksPerChannel = 2;
    EXPECT_EQ(p.org.banksTotal(), 16u);
    EventQueue eq;
    DramSystem dram(p, eq);
    // Row ids 0..15 now land in 16 distinct banks: no bank conflicts
    // across 16 consecutive rows.
    AddressMapping map(p.org);
    std::set<unsigned> banks;
    for (std::uint64_t r = 0; r < 16; ++r)
        banks.insert(map.decode(r * 8192).bank);
    EXPECT_EQ(banks.size(), 16u);
}

TEST(DramTiming, RefreshClosesRowsAcrossEpochs)
{
    EventQueue eq;
    auto p = testParams(1);
    DramSystem dram(p, eq);
    // Open a row, then idle past a refresh interval; the next access
    // to the same row must be a row miss (refresh closed it).
    oneAccess(dram, eq, 0, false);
    Tick refi = p.timing.cycles(p.timing.tREFI);
    eq.schedule(eq.now() + 2 * refi, [] {});
    eq.run();
    oneAccess(dram, eq, 64, false);
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_EQ(dram.rowMisses(), 2u);
}

TEST(DramTiming, FourActivateWindowThrottles)
{
    EventQueue eq;
    auto p = testParams(1);
    DramSystem dram(p, eq);
    // Five row misses to five different banks back-to-back: the
    // fifth ACT must respect tFAW from the first.
    std::vector<Tick> completions;
    for (int i = 0; i < 5; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i) * 8192; // banks 0..4
        req.bursts = 1;
        req.onComplete = [&](Tick t) { completions.push_back(t); };
        dram.access(std::move(req));
    }
    eq.run();
    ASSERT_EQ(completions.size(), 5u);
    // First ACT at ~0; fifth no earlier than tFAW + tRCD + CL + BL.
    Tick lower = p.timing.cycles(p.timing.tFAW + p.timing.tRCD +
                                 p.timing.cl + p.timing.tBURST);
    EXPECT_GE(completions[4], lower);
}

// --- energy ----------------------------------------------------------------

TEST(DramEnergy, GrowsWithTraffic)
{
    EventQueue eq;
    DramSystem dram(testParams(1), eq);
    auto e0 = dram.energy(eq.now()).total();
    for (int i = 0; i < 16; ++i)
        oneAccess(dram, eq, static_cast<Addr>(i) * 8192 * 16, false);
    auto e1 = dram.energy(eq.now()).total();
    EXPECT_GT(e1, e0);
}

TEST(DramEnergy, WritesCostMoreThanReads)
{
    auto p = testParams(1);
    EXPECT_GT(p.energy.writeBurstNj, p.energy.readBurstNj);
}

TEST(DramEnergy, BreakdownComponents)
{
    EventQueue eq;
    DramSystem dram(testParams(1), eq);
    oneAccess(dram, eq, 0, false);
    oneAccess(dram, eq, 0, true);
    auto e = dram.energy(eq.now());
    EXPECT_GT(e.activateNj, 0.0);
    EXPECT_GT(e.readNj, 0.0);
    EXPECT_GT(e.writeNj, 0.0);
    EXPECT_GT(e.backgroundNj, 0.0);
    EXPECT_DOUBLE_EQ(e.total(), e.activateNj + e.readNj + e.writeNj +
                                    e.refreshNj + e.backgroundNj);
}

} // anonymous namespace
} // namespace fp::dram
