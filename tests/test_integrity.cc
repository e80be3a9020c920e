/**
 * @file
 * Tests of the Merkle integrity extension: digest algebra, slice
 * verification against tampering, fork-shaped partial updates, and
 * the controller integration (tamper detection as an active-attack
 * countermeasure, paper Section 2.2).
 */

#include <gtest/gtest.h>

#include <set>

#include "core/oram_controller.hh"
#include "dram/dram_backend.hh"
#include "dram/dram_system.hh"
#include "oram/integrity.hh"
#include "util/random.hh"

namespace fp::oram
{
namespace
{

mem::Bucket
bucketWith(std::initializer_list<BlockAddr> addrs)
{
    mem::Bucket b(4);
    for (BlockAddr a : addrs)
        b.add(mem::Block(a, 0, {1, 2, 3}));
    return b;
}

std::vector<mem::Bucket>
emptyPath(const mem::TreeGeometry &geo)
{
    return std::vector<mem::Bucket>(geo.numLevels(), mem::Bucket(4));
}

TEST(Merkle, FreshTreeVerifies)
{
    mem::TreeGeometry geo(5);
    MerkleTree tree(geo, 42);
    EXPECT_TRUE(tree.verifySlice(3, 0, emptyPath(geo)));
    EXPECT_EQ(tree.failures(), 0u);
}

TEST(Merkle, HashDependsOnContent)
{
    mem::TreeGeometry geo(4);
    MerkleTree tree(geo, 1);
    auto a = tree.hashBucket(bucketWith({1}));
    auto b = tree.hashBucket(bucketWith({2}));
    auto c = tree.hashBucket(bucketWith({1, 2}));
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(tree.hashBucket(mem::Bucket(4)), a);
}

TEST(Merkle, HashDependsOnPayload)
{
    mem::TreeGeometry geo(4);
    MerkleTree tree(geo, 1);
    mem::Bucket x(4), y(4);
    x.add(mem::Block(1, 0, {9, 9, 9}));
    y.add(mem::Block(1, 0, {9, 9, 8}));
    EXPECT_NE(tree.hashBucket(x), tree.hashBucket(y));
}

TEST(Merkle, UpdateThenVerifyRoundTrip)
{
    mem::TreeGeometry geo(5);
    MerkleTree tree(geo, 7);
    auto path = emptyPath(geo);
    path[2] = bucketWith({10, 11});
    path[5] = bucketWith({12});
    tree.updateSlice(9, 0, path);
    EXPECT_TRUE(tree.verifySlice(9, 0, path));
}

TEST(Merkle, DetectsTamperedBucket)
{
    mem::TreeGeometry geo(5);
    MerkleTree tree(geo, 7);
    auto path = emptyPath(geo);
    path[3] = bucketWith({20});
    tree.updateSlice(17, 0, path);

    auto tampered = path;
    tampered[3] = bucketWith({21}); // adversary swaps a block
    EXPECT_FALSE(tree.verifySlice(17, 0, tampered));
    EXPECT_EQ(tree.failures(), 1u);
}

TEST(Merkle, DetectsReplayOfStaleBucket)
{
    mem::TreeGeometry geo(5);
    MerkleTree tree(geo, 7);
    auto v1 = emptyPath(geo);
    v1[4] = bucketWith({30});
    tree.updateSlice(3, 0, v1);
    auto v2 = v1;
    v2[4] = bucketWith({31});
    tree.updateSlice(3, 0, v2);
    // Replaying the older (authenticated at the time!) version must
    // now fail: the root has moved on.
    EXPECT_FALSE(tree.verifySlice(3, 0, v1));
}

TEST(Merkle, DetectsCrossPathSwap)
{
    mem::TreeGeometry geo(5);
    MerkleTree tree(geo, 7);
    // Two sibling leaves: paths 0 and 1 share all but the leaf.
    auto p0 = emptyPath(geo);
    p0[5] = bucketWith({40});
    tree.updateSlice(0, 0, p0);
    auto p1 = emptyPath(geo);
    p1[5] = bucketWith({41});
    // Path 1's top levels were just rewritten by path 0's update;
    // verify-then-update through the proper sequence instead.
    p1 = p0;
    p1[5] = bucketWith({41});
    tree.updateSlice(1, 0, p1);
    // Swapping the two leaf buckets between paths must be detected.
    auto swapped = p0;
    swapped[5] = bucketWith({41});
    EXPECT_FALSE(tree.verifySlice(0, 0, swapped));
}

TEST(Merkle, ForkShapedPartialUpdate)
{
    mem::TreeGeometry geo(6);
    MerkleTree tree(geo, 9);
    Rng rng(11);

    // Simulate merged accesses: full write, then partial writes and
    // partial reads at the fork levels, verifying each read slice.
    auto full = emptyPath(geo);
    full[6] = bucketWith({50});
    LeafLabel prev = rng.uniformInt(geo.numLeaves());
    tree.updateSlice(prev, 0, full);

    for (int i = 0; i < 200; ++i) {
        LeafLabel next = rng.uniformInt(geo.numLeaves());
        unsigned k = geo.overlap(prev, next);
        if (k >= geo.numLevels()) {
            prev = next;
            continue;
        }
        // Read slice [k, L] of `next` must verify (contents: we did
        // not track them, so rebuild what the tree believes by
        // writing first). Write slice then read slice round-trips.
        std::vector<mem::Bucket> slice(geo.numLevels() - k,
                                       mem::Bucket(4));
        if (!slice.empty())
            slice.back() = bucketWith({100 + (std::uint64_t)i});
        tree.updateSlice(next, k, slice);
        EXPECT_TRUE(tree.verifySlice(next, k, slice)) << i;
        prev = next;
    }
}

TEST(Merkle, PointUpdateTracksMutation)
{
    mem::TreeGeometry geo(5);
    MerkleTree tree(geo, 13);
    auto path = emptyPath(geo);
    path[2] = bucketWith({60, 61});
    tree.updateSlice(5, 0, path);

    // On-chip mutation (e.g. MAC data hit removes block 60).
    auto mutated = bucketWith({61});
    tree.updateBucket(geo.bucketAt(5, 2), mutated);
    auto new_path = path;
    new_path[2] = mutated;
    EXPECT_TRUE(tree.verifySlice(5, 0, new_path));
    EXPECT_FALSE(tree.verifySlice(5, 0, path));
}

TEST(Merkle, RootChangesOnEveryUpdate)
{
    mem::TreeGeometry geo(5);
    MerkleTree tree(geo, 15);
    auto r0 = tree.root();
    auto path = emptyPath(geo);
    path[1] = bucketWith({70});
    tree.updateSlice(2, 0, path);
    auto r1 = tree.root();
    EXPECT_NE(r0, r1);
}

TEST(Merkle, BatchUpdateMatchesPointUpdates)
{
    mem::TreeGeometry geo(6);
    MerkleTree batched(geo, 17);
    MerkleTree pointwise(geo, 17);
    std::vector<mem::Bucket> contents(geo.numBuckets(), mem::Bucket(4));
    Rng rng(5);
    for (int round = 0; round < 30; ++round) {
        // Buckets at random depths on a few paths, plus the sibling
        // leaves of those paths: the set shares ancestors and holds
        // sibling and parent-child pairs.
        std::set<BucketIndex> touched;
        for (int i = 0; i < 6; ++i) {
            const LeafLabel leaf = rng.uniformInt(geo.numLeaves());
            for (int j = 0; j < 3; ++j)
                touched.insert(geo.bucketAt(
                    leaf, static_cast<unsigned>(
                              rng.uniformInt(geo.numLevels()))));
            touched.insert(geo.bucketAt(leaf ^ 1, geo.leafLevel()));
        }
        std::vector<MerkleTree::BucketDigest> updates;
        for (BucketIndex idx : touched) {
            mem::Bucket bucket(4);
            for (auto n = rng.uniformInt(5); n > 0; --n)
                bucket.add(mem::Block(rng.uniformInt(1000), 0,
                                      {static_cast<std::uint8_t>(rng())}));
            contents[idx] = bucket;
            updates.push_back({idx, batched.hashBucket(bucket)});
        }
        batched.updateBuckets(updates);

        // One point update per bucket, in a shuffled order.
        std::vector<BucketIndex> order(touched.begin(), touched.end());
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.uniformInt(i)]);
        for (BucketIndex idx : order)
            pointwise.updateBucket(idx, contents[idx]);
        ASSERT_EQ(batched.root(), pointwise.root()) << "round " << round;
    }

    // The stored digests agree with the contents: every full path
    // verifies in both trees, through verifySlice's own recomputation.
    for (LeafLabel leaf = 0; leaf < geo.numLeaves(); ++leaf) {
        std::vector<mem::Bucket> path;
        for (unsigned level = 0; level < geo.numLevels(); ++level)
            path.push_back(contents[geo.bucketAt(leaf, level)]);
        EXPECT_TRUE(batched.verifySlice(leaf, 0, path)) << leaf;
        EXPECT_TRUE(pointwise.verifySlice(leaf, 0, path)) << leaf;
    }
}

TEST(MerkleDeathTest, BatchUpdateNeedsAscendingBuckets)
{
    mem::TreeGeometry geo(4);
    MerkleTree tree(geo, 3);
    const MerkleTree::BucketDigest updates[] = {{5, 1}, {2, 2}};
    EXPECT_DEATH(tree.updateBuckets(updates), "not strictly ascending");
}

// --- controller integration --------------------------------------------------

core::ControllerParams
integrityParams()
{
    core::ControllerParams p;
    p.oram.leafLevel = 6;
    p.oram.payloadBytes = 8;
    p.oram.seed = 77;
    p.policy = core::PolicyKind::forkpath;
    p.labelQueueSize = 8;
    p.enableIntegrity = true;
    return p;
}

struct Harness
{
    EventQueue eq;
    dram::DramSystem dram;
    dram::DramBackend mem;
    core::OramController ctrl;

    explicit Harness(const core::ControllerParams &p)
        : dram(dram::DramParams::ddr3_1600(2), eq), mem(dram),
          ctrl(p, eq, mem)
    {
    }

    void
    writeSync(BlockAddr addr, std::vector<std::uint8_t> data)
    {
        ctrl.request(oram::Op::write, addr, std::move(data),
                     [](Tick, const auto &) {});
        eq.run();
    }

    std::vector<std::uint8_t>
    readSync(BlockAddr addr)
    {
        std::vector<std::uint8_t> out;
        ctrl.request(oram::Op::read, addr, {},
                     [&](Tick, const auto &d) { out = d; });
        eq.run();
        return out;
    }
};

TEST(MerkleController, CleanRunVerifies)
{
    Harness h(integrityParams());
    Rng rng(3);
    for (int i = 0; i < 300; ++i) {
        BlockAddr a = rng.uniformInt(48);
        if (rng.chance(0.5))
            h.writeSync(a, std::vector<std::uint8_t>(8, 1));
        else
            h.readSync(a);
    }
    ASSERT_NE(h.ctrl.merkle(), nullptr);
    EXPECT_GT(h.ctrl.merkle()->verifications(), 100u);
    EXPECT_EQ(h.ctrl.merkle()->failures(), 0u);
}

TEST(MerkleController, IntegrityWithMacAndDataHits)
{
    auto p = integrityParams();
    p.cachePolicy = core::CachePolicy::mac;
    p.cacheBudgetBytes = 32 << 10;
    Harness h(p);
    Rng rng(5);
    for (int i = 0; i < 400; ++i) {
        BlockAddr a = rng.uniformInt(32); // small set: hits likely
        if (rng.chance(0.5))
            h.writeSync(a, std::vector<std::uint8_t>(8, 2));
        else
            h.readSync(a);
    }
    EXPECT_EQ(h.ctrl.merkle()->failures(), 0u);
}

TEST(MerkleControllerDeathTest, TamperDetected)
{
    EXPECT_DEATH(
        {
            Harness h(integrityParams());
            Rng rng(9);
            // Warm up so real blocks reach external memory.
            for (int i = 0; i < 60; ++i)
                h.writeSync(rng.uniformInt(16),
                            std::vector<std::uint8_t>(8, 7));
            // Adversary flips a payload bit in every resident block
            // of external memory.
            auto &store = h.ctrl.store();
            std::uint64_t tampered = 0;
            for (BucketIndex idx = 0;
                 idx < h.ctrl.geometry().numBuckets(); ++idx) {
                mem::Bucket b = store.readBucket(idx);
                if (b.empty())
                    continue;
                mem::Bucket nb(4);
                for (const auto &blk : b.blocks()) {
                    mem::Block copy = blk;
                    copy.payload[0] ^= 0xFF;
                    nb.add(std::move(copy));
                }
                store.writeBucket(idx, nb);
                ++tampered;
            }
            fp_assert(tampered > 0, "nothing reached memory");
            // Churn until a tampered bucket is fetched.
            for (int i = 0; i < 200; ++i)
                h.readSync(rng.uniformInt(16));
        },
        "integrity violation");
}

} // anonymous namespace
} // namespace fp::oram
