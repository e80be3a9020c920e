/**
 * @file
 * Property tests of the ORAM tree substrate: geometry arithmetic
 * (parameterized across tree depths), buckets, and the lazy encrypted
 * tree store.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "mem/bucket.hh"
#include "mem/tree_geometry.hh"
#include "mem/tree_store.hh"
#include "util/random.hh"

namespace fp::mem
{
namespace
{

// --- geometry: fixed-point checks -----------------------------------------

TEST(Geometry, PaperConfiguration)
{
    // 4 GB data, 64 B blocks, 50% utilization, Z=4 -> L=24,
    // path length 25 (the paper's "baseline path length equals 25").
    auto geo = TreeGeometry::forCapacity(4ULL << 30, 64, 0.5, 4);
    EXPECT_EQ(geo.leafLevel(), 24u);
    EXPECT_EQ(geo.numLevels(), 25u);
}

TEST(Geometry, CapacitySweep)
{
    // Fig 17(b): ORAM sizes 1/4/16/32 GB.
    EXPECT_EQ(TreeGeometry::forCapacity(1ULL << 30, 64, 0.5, 4)
                  .leafLevel(),
              22u);
    EXPECT_EQ(TreeGeometry::forCapacity(16ULL << 30, 64, 0.5, 4)
                  .leafLevel(),
              26u);
    EXPECT_EQ(TreeGeometry::forCapacity(32ULL << 30, 64, 0.5, 4)
                  .leafLevel(),
              27u);
}

TEST(Geometry, SmallTreeByHand)
{
    TreeGeometry geo(2); // 7 buckets: level 0 {0}, 1 {1,2}, 2 {3..6}
    EXPECT_EQ(geo.numLeaves(), 4u);
    EXPECT_EQ(geo.numBuckets(), 7u);
    EXPECT_EQ(geo.bucketAt(0, 0), 0u);
    EXPECT_EQ(geo.bucketAt(0, 1), 1u);
    EXPECT_EQ(geo.bucketAt(0, 2), 3u);
    EXPECT_EQ(geo.bucketAt(3, 1), 2u);
    EXPECT_EQ(geo.bucketAt(3, 2), 6u);
    EXPECT_EQ(geo.overlap(0, 0), 3u);
    EXPECT_EQ(geo.overlap(0, 1), 2u); // share root + level-1 node
    EXPECT_EQ(geo.overlap(0, 2), 1u); // share root only
    EXPECT_EQ(geo.overlap(0, 3), 1u);
    EXPECT_EQ(geo.overlap(2, 3), 2u);
}

TEST(Geometry, PathIndicesRootFirst)
{
    TreeGeometry geo(3);
    auto path = geo.pathIndices(5);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path[0], 0u);
    for (std::size_t i = 0; i < path.size(); ++i)
        EXPECT_EQ(geo.levelOf(path[i]), i);
}

// --- geometry: properties across depths -----------------------------------

class GeometryProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GeometryProperty, LevelOffsetRoundTrip)
{
    TreeGeometry geo(GetParam());
    Rng rng(GetParam() * 31 + 1);
    for (int i = 0; i < 500; ++i) {
        BucketIndex idx = rng.uniformInt(geo.numBuckets());
        unsigned level = geo.levelOf(idx);
        std::uint64_t off = geo.offsetInLevel(idx);
        EXPECT_EQ(((std::uint64_t{1} << level) - 1) + off, idx);
        EXPECT_LT(off, std::uint64_t{1} << level);
    }
}

TEST_P(GeometryProperty, AncestorConsistency)
{
    TreeGeometry geo(GetParam());
    Rng rng(GetParam() * 37 + 2);
    for (int i = 0; i < 200; ++i) {
        LeafLabel l = rng.uniformInt(geo.numLeaves());
        // Each path node's parent is the next node up the path.
        for (unsigned d = 1; d <= geo.leafLevel(); ++d) {
            BucketIndex child = geo.bucketAt(l, d);
            BucketIndex parent = geo.bucketAt(l, d - 1);
            EXPECT_EQ((child - 1) / 2, parent);
        }
    }
}

TEST_P(GeometryProperty, OverlapSymmetricAndBounded)
{
    TreeGeometry geo(GetParam());
    Rng rng(GetParam() * 41 + 3);
    for (int i = 0; i < 500; ++i) {
        LeafLabel a = rng.uniformInt(geo.numLeaves());
        LeafLabel b = rng.uniformInt(geo.numLeaves());
        unsigned ov = geo.overlap(a, b);
        EXPECT_EQ(ov, geo.overlap(b, a));
        EXPECT_GE(ov, 1u);
        EXPECT_LE(ov, geo.numLevels());
        if (a == b) {
            EXPECT_EQ(ov, geo.numLevels());
        }
    }
}

TEST_P(GeometryProperty, OverlapMatchesSharedPathPrefix)
{
    TreeGeometry geo(GetParam());
    Rng rng(GetParam() * 43 + 4);
    for (int i = 0; i < 200; ++i) {
        LeafLabel a = rng.uniformInt(geo.numLeaves());
        LeafLabel b = rng.uniformInt(geo.numLeaves());
        auto pa = geo.pathIndices(a);
        auto pb = geo.pathIndices(b);
        unsigned shared = 0;
        while (shared < pa.size() && pa[shared] == pb[shared])
            ++shared;
        EXPECT_EQ(geo.overlap(a, b), shared);
    }
}

TEST_P(GeometryProperty, CanResideMatchesPathMembership)
{
    TreeGeometry geo(GetParam());
    Rng rng(GetParam() * 47 + 5);
    for (int i = 0; i < 200; ++i) {
        LeafLabel blk = rng.uniformInt(geo.numLeaves());
        LeafLabel path = rng.uniformInt(geo.numLeaves());
        for (unsigned d = 0; d <= geo.leafLevel(); ++d) {
            bool expect =
                geo.bucketAt(blk, d) == geo.bucketAt(path, d);
            EXPECT_EQ(geo.canReside(blk, path, d), expect);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, GeometryProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 12u,
                                           16u, 24u, 27u));

// --- bucket -----------------------------------------------------------------

TEST(Bucket, AddAndTake)
{
    Bucket b(4);
    EXPECT_TRUE(b.empty());
    b.add(Block(1, 0));
    b.add(Block(2, 1));
    EXPECT_EQ(b.occupancy(), 2u);
    EXPECT_FALSE(b.full());
    EXPECT_EQ(b.blocks().size(), 2u);
    b.clear();
    EXPECT_TRUE(b.empty());
}

TEST(Bucket, TakeKeepsOrderAndMoveEmpties)
{
    Bucket b(4);
    for (std::uint8_t a : {5, 6, 7})
        b.add(Block(a, 0, {a}));
    auto got = b.take(6);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, std::vector<std::uint8_t>{6});
    EXPECT_FALSE(b.take(6).has_value());
    ASSERT_EQ(b.occupancy(), 2u);
    EXPECT_EQ(b.blocks()[0].addr, 5u);
    EXPECT_EQ(b.blocks()[1].addr, 7u);

    Bucket copy = b;
    Bucket moved = std::move(b);
    EXPECT_TRUE(b.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.occupancy(), 2u);
    EXPECT_EQ(copy.blocks()[1].payload, std::vector<std::uint8_t>{7});
    copy = Bucket(2); // a smaller bucket replaces every slot
    EXPECT_TRUE(copy.empty());
    EXPECT_EQ(copy.z(), 2u);
}

TEST(Bucket, FullAtZ)
{
    Bucket b(2);
    b.add(Block(1, 0));
    b.add(Block(2, 0));
    EXPECT_TRUE(b.full());
}

TEST(BucketDeathTest, OverflowPanics)
{
    Bucket b(1);
    b.add(Block(1, 0));
    EXPECT_DEATH(b.add(Block(2, 0)), "overflow");
}

// --- tree store ---------------------------------------------------------------

TEST(TreeStore, LazyMaterialization)
{
    // The paper's full-size tree: reading must not allocate.
    TreeGeometry geo(24);
    TreeStore store(geo, 4, 0);
    EXPECT_EQ(store.materializedBuckets(), 0u);
    Bucket b = store.readBucket(12345);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(store.materializedBuckets(), 0u);
    store.writeBucket(12345, b);
    EXPECT_EQ(store.materializedBuckets(), 0u);
    b.add(Block(1, 0));
    store.writeBucket(12345, b);
    EXPECT_EQ(store.materializedBuckets(), 1u);
    store.writeBucket(12345, Bucket(4));
    EXPECT_EQ(store.materializedBuckets(), 0u);
}

TEST(TreeStore, ReadBack)
{
    TreeGeometry geo(4);
    TreeStore store(geo, 4, 8);
    Bucket b(4);
    b.add(Block(7, 3, {1, 2, 3, 4, 5, 6, 7, 8}));
    store.writeBucket(9, b);
    Bucket rb = store.readBucket(9);
    ASSERT_EQ(rb.occupancy(), 1u);
    EXPECT_EQ(rb.blocks()[0].addr, 7u);
    EXPECT_EQ(rb.blocks()[0].leaf, 3u);
    EXPECT_EQ(rb.blocks()[0].payload,
              (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(TreeStore, EncryptedRoundTrip)
{
    TreeGeometry geo(4);
    TreeStore store(geo, 4, 16, /*encrypt=*/true, 0xbeef);
    Bucket b(4);
    std::vector<std::uint8_t> payload(16, 0xCD);
    b.add(Block(11, 2, payload));
    b.add(Block(12, 3, payload));
    store.writeBucket(5, b);
    Bucket rb = store.readBucket(5);
    ASSERT_EQ(rb.occupancy(), 2u);
    EXPECT_EQ(rb.blocks()[0].payload, payload);
}

TEST(TreeStore, CiphertextHidesOccupancy)
{
    TreeGeometry geo(3);
    TreeStore store(geo, 4, 8, /*encrypt=*/true);
    Bucket empty(4);
    Bucket fullb(4);
    for (int i = 0; i < 4; ++i)
        fullb.add(Block(100 + i, 1, std::vector<std::uint8_t>(8, 1)));
    store.writeBucket(1, empty);
    store.writeBucket(2, fullb);
    EXPECT_EQ(store.rawCiphertext(1).size(),
              store.rawCiphertext(2).size());
}

TEST(TreeStoreDeathTest, OversizePayloadFatal)
{
    // Both record kinds hold payloadBytes per slot; a longer payload
    // must not be cut short.
    TreeGeometry geo(3);
    for (bool encrypt : {false, true}) {
        TreeStore store(geo, 4, 8, encrypt);
        Bucket b(4);
        b.add(Block(1, 0, std::vector<std::uint8_t>(12, 7)));
        EXPECT_DEATH(store.writeBucket(1, b),
                     "12-byte payload exceeds the store's 8 bytes");
    }
}

TEST(TreeStore, ProbabilisticRewrites)
{
    TreeGeometry geo(3);
    TreeStore store(geo, 4, 8, /*encrypt=*/true);
    Bucket b(4);
    b.add(Block(5, 0, std::vector<std::uint8_t>(8, 9)));
    store.writeBucket(3, b);
    auto first = store.rawCiphertext(3);
    store.writeBucket(3, b);
    auto second = store.rawCiphertext(3);
    EXPECT_NE(first, second); // same plaintext, fresh counter
}

TEST(TreeStore, CountsAccesses)
{
    TreeGeometry geo(3);
    TreeStore store(geo, 4, 0);
    store.readBucket(0);
    store.readBucket(1);
    store.writeBucket(0, Bucket(4));
    EXPECT_EQ(store.readCount(), 2u);
    EXPECT_EQ(store.writeCount(), 1u);
}

TEST(TreeStore, ResidentBlocks)
{
    TreeGeometry geo(3);
    TreeStore store(geo, 4, 0);
    Bucket b(4);
    b.add(Block(1, 0));
    b.add(Block(2, 1));
    store.writeBucket(0, b);
    Bucket c(4);
    c.add(Block(3, 2));
    store.writeBucket(4, c);
    EXPECT_EQ(store.residentBlocks(), 3u);
}

// --- plaintext and sealed stores vs a std::map reference ----------------------

/** The reference: the blocks of every bucket that holds one, with
 *  payloads as the store returns them (zero-padded to its size). */
using Reference = std::map<BucketIndex, std::vector<Block>>;

void
expectBucket(TreeStore &store, const Reference &ref, BucketIndex idx)
{
    Bucket got = store.readBucket(idx);
    auto it = ref.find(idx);
    ASSERT_EQ(got.occupancy(), it == ref.end() ? 0u : it->second.size())
        << "bucket " << idx;
    for (unsigned i = 0; i < got.occupancy(); ++i) {
        const Block &want = it->second[i];
        EXPECT_EQ(got.blocks()[i].addr, want.addr) << "bucket " << idx;
        EXPECT_EQ(got.blocks()[i].leaf, want.leaf) << "bucket " << idx;
        EXPECT_EQ(got.blocks()[i].payload, want.payload)
            << "bucket " << idx;
    }
}

/**
 * Drive random empty and non-empty writes through the store and check
 * it against the reference after every step. Three phases: heavy
 * churn on at most 32 of 80 buckets (the 64-slot index at up to half
 * load, where some probe runs wrap past its last slot, so a deletion
 * must shift entries back across the wrap; an instrumented build
 * counted 14 and 18 such shifts for the two seeds below), growth to
 * over 1000 buckets (the index doubles six times), then shrinking to
 * empty. Each deletion is followed by a full sweep of the reference,
 * so an entry stranded behind a hole shows up as a lost bucket.
 *
 * A sealed store (@p encrypt) keeps a record for every bucket it has
 * ever written, and it unseals every record to count resident blocks,
 * so that count is checked only at the end of each phase.
 */
void
differential(std::size_t payload_bytes, std::uint64_t seed,
             bool encrypt = false)
{
    TreeGeometry geo(12);
    TreeStore store(geo, 4, payload_bytes, encrypt);
    Reference ref;
    std::set<BucketIndex> written;
    std::uint64_t resident = 0;
    Rng rng(seed);
    auto materialized = [&] {
        return encrypt ? written.size() : ref.size();
    };

    auto step = [&](bool fill, std::uint64_t span) {
        BucketIndex idx;
        if (!fill && !ref.empty() && rng.chance(0.8)) {
            auto it = ref.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.uniformInt(ref.size())));
            idx = it->first;
        } else {
            idx = rng.uniformInt(span);
        }
        Bucket b(4);
        std::vector<Block> want;
        unsigned n = fill ? 1 + static_cast<unsigned>(rng.uniformInt(4))
                          : 0;
        for (unsigned k = 0; k < n; ++k) {
            std::vector<std::uint8_t> payload(
                rng.chance(0.25) ? rng.uniformInt(payload_bytes + 1)
                                 : payload_bytes);
            for (auto &byte : payload)
                byte = static_cast<std::uint8_t>(rng());
            Block blk(1000 * idx + k, rng.uniformInt(geo.numLeaves()),
                      payload);
            b.add(blk);
            blk.payload.resize(payload_bytes, 0);
            want.push_back(std::move(blk));
        }
        auto old = ref.find(idx);
        bool erased = old != ref.end() && n == 0;
        if (old != ref.end()) {
            resident -= old->second.size();
            ref.erase(old);
        }
        if (n > 0)
            ref.emplace(idx, std::move(want));
        resident += n;

        store.writeBucket(idx, b);
        written.insert(idx);
        expectBucket(store, ref, idx);
        expectBucket(store, ref, rng.uniformInt(geo.numBuckets()));
        EXPECT_EQ(store.materializedBuckets(), materialized());
        if (!encrypt) {
            EXPECT_EQ(store.residentBlocks(), resident);
        }
        if (erased) {
            for (const auto &entry : ref)
                expectBucket(store, ref, entry.first);
        }
    };

    for (int i = 0; i < 20000; ++i)
        step(ref.size() < 32 && rng.chance(0.5), 80);
    EXPECT_EQ(store.residentBlocks(), resident);
    for (int i = 0; i < 3000; ++i)
        step(rng.chance(0.7), geo.numBuckets());
    EXPECT_GT(ref.size(), 1000u);
    EXPECT_EQ(store.residentBlocks(), resident);
    while (!ref.empty())
        step(false, geo.numBuckets());
    EXPECT_EQ(store.materializedBuckets(), materialized());
    EXPECT_EQ(store.residentBlocks(), 0u);
}

TEST(TreeStore, PlainMatchesReference)
{
    differential(0, 11);
}

TEST(TreeStore, PlainWithPayloadMatchesReference)
{
    differential(24, 12);
}

TEST(TreeStore, SealedMatchesReference)
{
    // 4 x (16 + 13) image bytes: the image ends inside a word.
    differential(13, 13, /*encrypt=*/true);
}

} // anonymous namespace
} // namespace fp::mem
