/**
 * @file
 * Tests of the sim-layer components not covered by the full-system
 * suite: the SyncOram facade, the controller energy model, and the
 * configuration variant helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "mem/tree_store.hh"
#include "oram/integrity.hh"
#include "sim/metrics.hh"
#include "sim/sim_config.hh"
#include "sim/sync_oram.hh"
#include "util/random.hh"

namespace fp::sim
{
namespace
{

core::ControllerParams
syncParams()
{
    auto p = core::ControllerParams::forkPath();
    p.oram.leafLevel = 10;
    p.oram.payloadBytes = 16;
    p.oram.seed = 5;
    p.labelQueueSize = 8;
    p.cacheBudgetBytes = 32 << 10;
    return p;
}

TEST(SyncOram, ReadYourWrites)
{
    SyncOram oram(syncParams());
    std::vector<std::uint8_t> v(16, 0xAB);
    oram.write(9, v);
    EXPECT_EQ(oram.read(9), v);
    EXPECT_EQ(oram.read(10), std::vector<std::uint8_t>(16, 0));
}

TEST(SyncOram, EncryptedMode)
{
    auto p = syncParams();
    p.oram.encrypt = true;
    SyncOram oram(p);
    std::vector<std::uint8_t> v(16, 0x3C);
    oram.write(1, v);
    EXPECT_EQ(oram.read(1), v);
}

TEST(SyncOram, TimeAdvances)
{
    SyncOram oram(syncParams());
    Tick t0 = oram.now();
    oram.write(1, std::vector<std::uint8_t>(16, 1));
    EXPECT_GT(oram.now(), t0);
}

TEST(SyncOram, BlockSizeMatchesConfig)
{
    SyncOram oram(syncParams());
    EXPECT_EQ(oram.blockSize(), 16u);
}

TEST(SyncOramDeathTest, WrongSizeWriteFatal)
{
    SyncOram oram(syncParams());
    EXPECT_DEATH(oram.write(1, std::vector<std::uint8_t>(3, 0)),
                 "write of 3 bytes");
}

TEST(SyncOram, ManyBlocksStressWithMac)
{
    SyncOram oram(syncParams());
    Rng rng(17);
    std::vector<std::uint8_t> expect(64);
    for (std::uint64_t a = 0; a < 64; ++a) {
        std::vector<std::uint8_t> v(16,
                                    static_cast<std::uint8_t>(a));
        oram.write(a, v);
        expect[a] = static_cast<std::uint8_t>(a);
    }
    for (int i = 0; i < 200; ++i) {
        std::uint64_t a = rng.uniformInt(64);
        EXPECT_EQ(oram.read(a)[0], expect[a]);
    }
}

// --- bulk load -----------------------------------------------------------

TEST(SyncOramBulkLoad, ReadsBackAllBlocks)
{
    SyncOram oram(syncParams());
    std::vector<std::pair<BlockAddr, std::vector<std::uint8_t>>>
        blocks;
    for (std::uint64_t a = 0; a < 200; ++a) {
        blocks.emplace_back(
            a, std::vector<std::uint8_t>(
                   16, static_cast<std::uint8_t>(a * 3)));
    }
    oram.bulkLoad(blocks);
    Rng rng(23);
    for (int i = 0; i < 300; ++i) {
        std::uint64_t a = rng.uniformInt(200);
        EXPECT_EQ(oram.read(a)[0],
                  static_cast<std::uint8_t>(a * 3))
            << "addr " << a;
    }
}

TEST(SyncOramBulkLoad, FastPathDominates)
{
    SyncOram oram(syncParams());
    std::vector<std::pair<BlockAddr, std::vector<std::uint8_t>>>
        blocks;
    for (std::uint64_t a = 0; a < 300; ++a)
        blocks.emplace_back(a, std::vector<std::uint8_t>(16, 1));
    std::size_t slow = oram.bulkLoad(blocks);
    // L=10 with MAC band up to ~some level still leaves plenty of
    // deep slots; at most a handful of blocks should need the slow
    // path, and planting must not consume timed accesses.
    EXPECT_LT(slow, 20u);
    EXPECT_EQ(oram.controller().realAccesses(), slow);
}

TEST(SyncOramBulkLoad, CoexistsWithIntegrity)
{
    auto p = syncParams();
    p.enableIntegrity = true;
    SyncOram oram(p);
    std::vector<std::pair<BlockAddr, std::vector<std::uint8_t>>>
        blocks;
    for (std::uint64_t a = 0; a < 100; ++a)
        blocks.emplace_back(
            a, std::vector<std::uint8_t>(
                   16, static_cast<std::uint8_t>(a)));
    oram.bulkLoad(blocks);
    // Post-load accesses must verify cleanly against the root the
    // bulk load maintained.
    Rng rng(29);
    for (int i = 0; i < 150; ++i)
        oram.read(rng.uniformInt(100));
    EXPECT_EQ(oram.controller().merkle()->failures(), 0u);
}

TEST(SyncOramBulkLoadDeathTest, AfterAccessFatal)
{
    SyncOram oram(syncParams());
    oram.write(1, std::vector<std::uint8_t>(16, 1));
    EXPECT_DEATH(
        oram.bulkLoad({{2, std::vector<std::uint8_t>(16, 2)}}),
        "before the first access");
}

TEST(SyncOramBulkLoadDeathTest, RepeatedAddressFatal)
{
    // Planting an address twice would leave a stale copy on its path.
    SyncOram within(syncParams());
    EXPECT_DEATH(within.bulkLoad({{5, std::vector<std::uint8_t>(16, 0xA)},
                                  {6, std::vector<std::uint8_t>(16, 0xC)},
                                  {5, std::vector<std::uint8_t>(16, 0xB)}}),
                 "address 5 is already loaded");
    SyncOram across(syncParams());
    across.bulkLoad({{5, std::vector<std::uint8_t>(16, 0xA)}});
    EXPECT_DEATH(across.bulkLoad({{5, std::vector<std::uint8_t>(16, 0xB)}}),
                 "address 5 is already loaded");
}

using LoadBlocks =
    std::vector<std::pair<BlockAddr, std::vector<std::uint8_t>>>;

/**
 * The per-block bulk load that the one-pass SyncOram::bulkLoad
 * replaced, through the public API: each block goes to the deepest
 * bucket of its path with room, and that bucket is sealed and its
 * Merkle path re-derived at once; a block that finds no room takes a
 * timed write. Returns the positions in @p blocks of the timed
 * writes.
 */
std::vector<std::size_t>
perBlockBulkLoad(SyncOram &oram, const LoadBlocks &blocks)
{
    core::OramController &ctrl = oram.controller();
    const mem::TreeGeometry &geo = ctrl.geometry();
    unsigned floor_level = 0;
    if (ctrl.mac())
        floor_level = ctrl.mac()->m2() + 1;
    if (ctrl.treetop())
        floor_level =
            std::max(floor_level, ctrl.treetop()->numCachedLevels());
    std::vector<std::size_t> slow_path;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const auto &[addr, payload] = blocks[i];
        const LeafLabel label = ctrl.positionMap().lookupOrAssign(addr);
        bool placed = false;
        for (unsigned level = geo.leafLevel() + 1;
             level-- > floor_level;) {
            const BucketIndex idx = geo.bucketAt(label, level);
            mem::Bucket bucket = ctrl.store().readBucket(idx);
            if (bucket.full())
                continue;
            bucket.add(mem::Block(addr, label, payload));
            ctrl.store().writeBucket(idx, bucket);
            if (ctrl.merkle())
                ctrl.merkle()->updateBucket(idx, bucket);
            placed = true;
            break;
        }
        if (!placed) {
            slow_path.push_back(i);
            oram.write(addr, payload);
        }
    }
    return slow_path;
}

/** @p count blocks with distinct payloads at shuffled addresses. */
LoadBlocks
loadBlocks(std::uint64_t count, std::size_t payload_bytes,
           std::uint64_t seed)
{
    Rng rng(seed);
    LoadBlocks blocks;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::vector<std::uint8_t> payload(payload_bytes);
        for (auto &byte : payload)
            byte = static_cast<std::uint8_t>(rng());
        blocks.emplace_back(3 * i + 1, std::move(payload));
    }
    for (std::size_t i = blocks.size(); i > 1; --i)
        std::swap(blocks[i - 1], blocks[rng.uniformInt(i)]);
    return blocks;
}

/**
 * Load @p blocks both ways, in two calls, and compare the trees. At
 * least @p min_planted_after blocks must be planted after the first
 * timed write of the second call.
 */
void
expectSameAsPerBlockLoad(const core::ControllerParams &params,
                         const LoadBlocks &blocks,
                         std::size_t min_planted_after)
{
    SyncOram fast(params);
    SyncOram reference(params);
    // Two calls: the second must count the blocks the first left.
    const auto half = blocks.begin() +
                      static_cast<std::ptrdiff_t>(blocks.size() / 2);
    const LoadBlocks first(blocks.begin(), half);
    const LoadBlocks second(half, blocks.end());
    EXPECT_EQ(fast.bulkLoad(first),
              perBlockBulkLoad(reference, first).size());
    const std::vector<std::size_t> ref_second =
        perBlockBulkLoad(reference, second);
    EXPECT_EQ(fast.bulkLoad(second), ref_second.size());
    if (min_planted_after > 0) {
        ASSERT_FALSE(ref_second.empty());
        EXPECT_GE(second.size() - ref_second.front() - ref_second.size(),
                  min_planted_after);
    }

    core::OramController &a = fast.controller();
    core::OramController &b = reference.controller();
    if (params.enableIntegrity) {
        EXPECT_EQ(a.merkle()->root(), b.merkle()->root());
    }
    EXPECT_EQ(fast.now(), reference.now());
    EXPECT_EQ(a.stash().size(), b.stash().size());
    for (BucketIndex idx = 0; idx < a.geometry().numBuckets(); ++idx) {
        const mem::Bucket got = a.store().readBucket(idx);
        const mem::Bucket want = b.store().readBucket(idx);
        ASSERT_EQ(got.occupancy(), want.occupancy()) << "bucket " << idx;
        for (unsigned s = 0; s < got.occupancy(); ++s) {
            const mem::Block &x = got.blocks()[s];
            const mem::Block &y = want.blocks()[s];
            EXPECT_EQ(x.addr, y.addr) << "bucket " << idx;
            EXPECT_EQ(x.leaf, y.leaf) << "bucket " << idx;
            EXPECT_EQ(x.payload, y.payload) << "bucket " << idx;
        }
    }
    ASSERT_EQ(a.positionMap().size(), b.positionMap().size());
    for (const auto &[addr, payload] : blocks)
        EXPECT_EQ(a.positionMap().get(addr), b.positionMap().get(addr));
    for (const auto &[addr, payload] : blocks)
        EXPECT_EQ(fast.read(addr), payload) << "addr " << addr;
    if (params.enableIntegrity) {
        EXPECT_EQ(a.merkle()->failures(), 0u);
    }
}

TEST(SyncOramBulkLoad, MatchesPerBlockLoad)
{
    auto p = syncParams();
    p.enableIntegrity = true;
    for (bool encrypt : {false, true}) {
        SCOPED_TRACE(encrypt ? "sealed" : "plain");
        p.oram.encrypt = encrypt;
        expectSameAsPerBlockLoad(p, loadBlocks(600, 16, 41), 0);
    }
}

TEST(SyncOramBulkLoad, MatchesPerBlockLoadOnCongestedTree)
{
    // 140 blocks for the 124 slots of 16 leaves at Z = 4 with no
    // cache band: paths fill up during the second call, so timed
    // writes run between planted blocks and leave blocks in the stash.
    auto p = syncParams();
    p.oram.leafLevel = 4;
    p.cachePolicy = core::CachePolicy::none;
    p.enableIntegrity = true;
    for (bool encrypt : {false, true}) {
        SCOPED_TRACE(encrypt ? "sealed" : "plain");
        p.oram.encrypt = encrypt;
        expectSameAsPerBlockLoad(p, loadBlocks(140, 16, 43), 3);
    }
}

/** FNV-1a over the index and ciphertext of every sealed bucket, in
 *  bucket order. */
std::uint64_t
ciphertextDigest(const mem::TreeStore &store)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint8_t byte) {
        h = (h ^ byte) * 0x100000001b3ULL;
    };
    for (BucketIndex idx = 0; idx < store.geometry().numBuckets();
         ++idx) {
        const std::vector<std::uint8_t> bytes = store.rawCiphertext(idx);
        if (bytes.empty())
            continue;
        for (unsigned i = 0; i < 8; ++i)
            mix(static_cast<std::uint8_t>(idx >> (8 * i)));
        for (std::uint8_t byte : bytes)
            mix(byte);
    }
    return h;
}

TEST(SyncOram, SealedDataPlaneAnchor)
{
    // Encryption, integrity and the MAC over a bulk load and a seeded
    // run. The three values were pinned from the byte-vector sealed
    // store and the node-map Merkle tree: the record store and the
    // flat node table must change no ciphertext byte, no digest and
    // no simulated time. A 13-byte payload makes the bucket image
    // (4 x 29 bytes) end inside a word.
    auto p = syncParams();
    p.oram.payloadBytes = 13;
    p.oram.encrypt = true;
    p.enableIntegrity = true;
    SyncOram oram(p);
    ASSERT_NE(oram.controller().mac(), nullptr);
    oram.bulkLoad(loadBlocks(400, 13, 47));
    Rng rng(53);
    for (int i = 0; i < 300; ++i) {
        const BlockAddr addr = 3 * rng.uniformInt(400) + 1;
        if (rng.chance(0.5)) {
            std::vector<std::uint8_t> payload(13);
            for (auto &byte : payload)
                byte = static_cast<std::uint8_t>(rng());
            oram.write(addr, std::move(payload));
        } else {
            oram.read(addr);
        }
    }
    const oram::MerkleTree &merkle = *oram.controller().merkle();
    EXPECT_EQ(merkle.failures(), 0u);
    EXPECT_EQ(merkle.root(), 0x1f41f16ced885779ULL);
    EXPECT_EQ(ciphertextDigest(oram.controller().store()),
              0x50d53941bfb83547ULL);
    EXPECT_EQ(oram.now(), Tick{270608750});
}

// --- energy model -----------------------------------------------------------

TEST(ControllerEnergy, ScalesWithWork)
{
    auto p = syncParams();
    SyncOram small(p), big(p);
    small.write(1, std::vector<std::uint8_t>(16, 1));
    for (std::uint64_t a = 0; a < 64; ++a)
        big.write(a, std::vector<std::uint8_t>(16, 1));
    double e_small =
        controllerEnergyNj(small.controller(), small.now());
    double e_big = controllerEnergyNj(big.controller(), big.now());
    EXPECT_GT(e_big, e_small);
}

TEST(ControllerEnergy, CacheAddsLeakage)
{
    auto with_cache = syncParams();
    auto without = syncParams();
    without.cachePolicy = core::CachePolicy::none;
    SyncOram a(with_cache), b(without);
    a.write(1, std::vector<std::uint8_t>(16, 1));
    b.write(1, std::vector<std::uint8_t>(16, 1));
    // Equal simulated time horizon for a fair leakage comparison.
    Tick horizon = std::max(a.now(), b.now());
    EXPECT_GT(controllerEnergyNj(a.controller(), horizon),
              controllerEnergyNj(b.controller(), horizon));
}

// --- config variants ----------------------------------------------------------

TEST(SimConfigVariants, TraditionalResetsFeatures)
{
    auto cfg = SimConfig::paperDefault();
    cfg.controller.oram.leafLevel = 14;
    auto t = withTraditional(cfg);
    EXPECT_EQ(t.controller.policy, core::PolicyKind::traditional);
    EXPECT_EQ(t.controller.labelQueueSize, 1u);
    EXPECT_EQ(t.controller.cachePolicy, core::CachePolicy::none);
    // ORAM geometry is preserved.
    EXPECT_EQ(t.controller.oram.leafLevel, 14u);
}

TEST(SimConfigVariants, MergeVariants)
{
    auto cfg = SimConfig::paperDefault();
    auto m = withMergeOnly(cfg, 32);
    EXPECT_EQ(m.controller.policy, core::PolicyKind::forkpath);
    EXPECT_EQ(m.controller.labelQueueSize, 32u);
    EXPECT_EQ(m.controller.cachePolicy, core::CachePolicy::none);

    auto mac = withMergeMac(cfg, 256 << 10, 32);
    EXPECT_EQ(mac.controller.cachePolicy, core::CachePolicy::mac);
    EXPECT_EQ(mac.controller.cacheBudgetBytes, 256u << 10);

    auto tt = withMergeTreetop(cfg, 512 << 10, 16);
    EXPECT_EQ(tt.controller.cachePolicy, core::CachePolicy::treetop);

    auto ins = withInsecure(cfg);
    EXPECT_TRUE(ins.insecure);
}

TEST(SimConfigVariants, PaperDefaultMatchesTable1)
{
    auto cfg = SimConfig::paperDefault();
    EXPECT_EQ(cfg.cores, 4u);
    EXPECT_EQ(cfg.cpuPeriodTicks, 500u); // 2 GHz
    EXPECT_EQ(cfg.controller.oram.leafLevel, 24u);
    EXPECT_EQ(cfg.controller.oram.z, 4u);
    EXPECT_EQ(cfg.dram.org.channels, 2u);
    // DDR3-1600: 12.8 GB/s per channel.
    EXPECT_NEAR(cfg.dram.org.peakBandwidth(cfg.dram.timing) / 1e9 /
                    cfg.dram.org.channels,
                12.8, 0.1);
}

} // anonymous namespace
} // namespace fp::sim
