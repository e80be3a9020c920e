/**
 * @file
 * Integration tests of the Fork Path ORAM controller against the
 * event-driven DRAM model: functional correctness (read-your-writes
 * under every feature combination), the fork-shape invariant on the
 * revealed access sequence, dummy accounting, hazards, caching and
 * recursion chains.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/oram_controller.hh"
#include "dram/dram_backend.hh"
#include "dram/dram_system.hh"
#include "sim/sim_config.hh"
#include "util/random.hh"

namespace fp::core
{
namespace
{

struct Harness
{
    EventQueue eq;
    dram::DramSystem dram;
    dram::DramBackend mem;
    OramController ctrl;

    explicit Harness(const ControllerParams &params,
                     unsigned channels = 2)
        : dram(dram::DramParams::ddr3_1600(channels), eq), mem(dram),
          ctrl(params, eq, mem)
    {
    }

    std::vector<std::uint8_t>
    readSync(BlockAddr addr)
    {
        std::vector<std::uint8_t> out;
        bool done = false;
        auto id = ctrl.request(oram::Op::read, addr, {},
                               [&](Tick, const auto &data) {
                                   out = data;
                                   done = true;
                               });
        EXPECT_NE(id, 0u);
        eq.run();
        EXPECT_TRUE(done);
        return out;
    }

    void
    writeSync(BlockAddr addr, std::vector<std::uint8_t> data)
    {
        bool done = false;
        auto id = ctrl.request(oram::Op::write, addr, std::move(data),
                               [&](Tick, const auto &) {
                                   done = true;
                               });
        EXPECT_NE(id, 0u);
        eq.run();
        EXPECT_TRUE(done);
    }
};

ControllerParams
smallParams(unsigned leaf_level = 6, std::size_t payload = 8)
{
    ControllerParams p;
    p.oram.leafLevel = leaf_level;
    p.oram.z = 4;
    p.oram.payloadBytes = payload;
    p.oram.seed = 4321;
    p.policy = core::PolicyKind::forkpath;
    p.enableDummyReplacing = true;
    p.labelQueueSize = 8;
    p.cachePolicy = CachePolicy::none;
    return p;
}

std::vector<std::uint8_t>
valueFor(std::uint64_t x, std::size_t n = 8)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(x * 17 + i);
    return v;
}

void
randomWorkload(Harness &h, std::uint64_t addr_space, int ops,
               std::uint64_t seed)
{
    std::map<BlockAddr, std::vector<std::uint8_t>> ref;
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        BlockAddr a = rng.uniformInt(addr_space);
        if (rng.chance(0.5)) {
            auto v = valueFor(rng());
            h.writeSync(a, v);
            ref[a] = v;
        } else {
            auto expect = ref.count(a)
                              ? ref[a]
                              : std::vector<std::uint8_t>(8, 0);
            EXPECT_EQ(h.readSync(a), expect) << "addr " << a;
        }
    }
}

TEST(Controller, ForkPathReadYourWrites)
{
    Harness h(smallParams());
    randomWorkload(h, 48, 600, 11);
    EXPECT_FALSE(h.ctrl.busy());
    EXPECT_EQ(h.ctrl.inFlight(), 0u);
}

TEST(Controller, TraditionalReadYourWrites)
{
    auto p = smallParams();
    p.policy = core::PolicyKind::traditional;
    p.enableDummyReplacing = false;
    p.labelQueueSize = 1;
    Harness h(p);
    randomWorkload(h, 48, 400, 13);
}

TEST(Controller, MergeWithMacReadYourWrites)
{
    auto p = smallParams();
    p.cachePolicy = CachePolicy::mac;
    p.macM1 = 2;
    p.cacheBudgetBytes = 16 << 10;
    Harness h(p);
    randomWorkload(h, 48, 600, 17);
}

TEST(Controller, MergeWithTreetopReadYourWrites)
{
    auto p = smallParams();
    p.cachePolicy = CachePolicy::treetop;
    p.cacheBudgetBytes = 4 << 10; // pins a few top levels
    Harness h(p);
    randomWorkload(h, 48, 400, 19);
}

TEST(Controller, RecursionChainsReadYourWrites)
{
    auto p = smallParams();
    p.recursionDepth = 2;
    Harness h(p);
    randomWorkload(h, 32, 200, 23);
    // Each LLC miss that reaches the tree runs a 3-access chain.
    EXPECT_GE(h.ctrl.realAccesses(),
              3 * (h.ctrl.realAccesses() / 3));
    EXPECT_GT(h.ctrl.realAccesses(), 150u);
}

TEST(Controller, ForkShapeInvariant)
{
    auto p = smallParams();
    Harness h(p);
    h.ctrl.setRevealTraceEnabled(true);
    randomWorkload(h, 64, 300, 29);

    const auto &trace = h.ctrl.revealTrace();
    ASSERT_GT(trace.size(), 100u);
    const auto &geo = h.ctrl.geometry();
    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
        // The refill of access i stops exactly at its overlap with
        // the next revealed path, and the next read starts there.
        unsigned ov = geo.overlap(trace[i].label, trace[i + 1].label);
        EXPECT_EQ(trace[i].writeStopLevel, ov) << "at " << i;
        EXPECT_EQ(trace[i + 1].readStartLevel,
                  trace[i].writeStopLevel)
            << "at " << i;
    }
}

TEST(Controller, TraditionalAccessesFullPaths)
{
    auto p = smallParams();
    p.policy = core::PolicyKind::traditional;
    p.labelQueueSize = 1;
    Harness h(p);
    h.ctrl.setRevealTraceEnabled(true);
    randomWorkload(h, 64, 200, 31);
    for (const auto &r : h.ctrl.revealTrace()) {
        EXPECT_EQ(r.readStartLevel, 0u);
        EXPECT_EQ(r.writeStopLevel, 0u);
    }
    EXPECT_DOUBLE_EQ(h.ctrl.avgReadPathLength(),
                     h.ctrl.geometry().numLevels());
    EXPECT_EQ(h.ctrl.dummyAccessesRun(), 0u);
}

TEST(Controller, MergingShortensPaths)
{
    Harness h(smallParams());
    randomWorkload(h, 64, 300, 37);
    // Every consecutive pair shares at least the root, so merging
    // must strictly shorten the average fetched path.
    EXPECT_LT(h.ctrl.avgReadPathLength(),
              h.ctrl.geometry().numLevels() - 0.5);
    EXPECT_GT(h.ctrl.avgReadPathLength(), 1.0);
}

TEST(Controller, SyncTrafficInsertsDummies)
{
    // Synchronous (one-at-a-time) requests leave the label queue
    // empty of real work at every refill, so merging must insert and
    // run dummy accesses.
    Harness h(smallParams());
    for (int i = 0; i < 50; ++i)
        h.writeSync(static_cast<BlockAddr>(i), valueFor(i));
    EXPECT_GT(h.ctrl.dummyAccessesRun(), 0u);
}

TEST(Controller, ParkedControllerDrainsEventQueue)
{
    Harness h(smallParams());
    h.writeSync(1, valueFor(1));
    // After completion the committed dummy parks; no events remain.
    EXPECT_TRUE(h.eq.empty());
    // A later request unparks and completes normally.
    EXPECT_EQ(h.readSync(1), valueFor(1));
}

TEST(Controller, StashShortcutServesStashResidents)
{
    Harness h(smallParams());
    h.writeSync(5, valueFor(5));
    // The block is now in the stash (just accessed); an immediate
    // re-read should be served without a new ORAM access.
    auto before = h.ctrl.realAccesses();
    EXPECT_EQ(h.readSync(5), valueFor(5));
    EXPECT_GT(h.ctrl.stashShortcuts(), 0u);
    EXPECT_EQ(h.ctrl.realAccesses(), before);
}

TEST(Controller, WriteReadForwarding)
{
    Harness h(smallParams());
    // Warm up so the pipeline is realistic.
    h.writeSync(40, valueFor(1));

    // Issue a write and a read to a fresh address back-to-back; the
    // read must observe the write's data through WbR forwarding or
    // ordering, never the stale zero block.
    std::vector<std::uint8_t> read_data;
    bool read_done = false;
    h.ctrl.request(oram::Op::write, 41, valueFor(9),
                   [](Tick, const auto &) {});
    h.ctrl.request(oram::Op::read, 41, {},
                   [&](Tick, const auto &d) {
                       read_data = d;
                       read_done = true;
                   });
    h.eq.run();
    ASSERT_TRUE(read_done);
    EXPECT_EQ(read_data, valueFor(9));
}

TEST(Controller, WriteWriteCancellation)
{
    Harness h(smallParams());
    int acks = 0;
    // A read to the address holds the first write un-issued (RbW),
    // so the second write arrives while it can still be cancelled.
    std::vector<std::uint8_t> read_out;
    h.ctrl.request(oram::Op::read, 7, {},
                   [&](Tick, const auto &d) { read_out = d; });
    h.ctrl.request(oram::Op::write, 7, valueFor(1),
                   [&](Tick, const auto &) { ++acks; });
    h.ctrl.request(oram::Op::write, 7, valueFor(2),
                   [&](Tick, const auto &) { ++acks; });
    h.eq.run();
    EXPECT_EQ(acks, 2);
    EXPECT_EQ(read_out, std::vector<std::uint8_t>(8, 0));
    EXPECT_EQ(h.readSync(7), valueFor(2));
    EXPECT_GE(h.ctrl.addressQueue().cancels(), 1u);
}

TEST(Controller, PipelinedReadsSameAddress)
{
    Harness h(smallParams());
    h.writeSync(9, valueFor(9));
    // Make sure the block is out of the stash by churning others.
    for (int i = 0; i < 30; ++i)
        h.writeSync(100 + i, valueFor(i));

    int done = 0;
    std::vector<std::uint8_t> a, b;
    h.ctrl.request(oram::Op::read, 9, {},
                   [&](Tick, const auto &d) { a = d; ++done; });
    h.ctrl.request(oram::Op::read, 9, {},
                   [&](Tick, const auto &d) { b = d; ++done; });
    h.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(a, valueFor(9));
    EXPECT_EQ(b, valueFor(9));
}

TEST(Controller, MacGetsHitsUnderMerging)
{
    auto p = smallParams(8);
    p.cachePolicy = CachePolicy::mac;
    p.macM1 = 2;
    p.cacheBudgetBytes = 64 << 10;
    Harness h(p);
    randomWorkload(h, 64, 400, 41);
    ASSERT_NE(h.ctrl.mac(), nullptr);
    EXPECT_GT(h.ctrl.mac()->hits(), 0u);
}

TEST(Controller, TreetopEliminatesTopLevelDram)
{
    auto p = smallParams(6);
    p.policy = core::PolicyKind::traditional;
    p.labelQueueSize = 1;
    p.cachePolicy = CachePolicy::treetop;
    p.cacheBudgetBytes = 2 << 10; // 8 buckets -> levels 0..2
    Harness h(p);
    randomWorkload(h, 48, 200, 43);
    ASSERT_NE(h.ctrl.treetop(), nullptr);
    unsigned pinned = h.ctrl.treetop()->numCachedLevels();
    EXPECT_GT(pinned, 0u);
    EXPECT_DOUBLE_EQ(h.ctrl.avgDramBucketsRead(),
                     h.ctrl.geometry().numLevels() - pinned);
}

TEST(Controller, MidRefillArrivalsReplaceDummyPending)
{
    // A request arriving while the in-flight access is refilling
    // with a dummy pending should replace the dummy (paper Case-3).
    // Sweep the injection delay so some arrivals land inside the
    // write phase's replacement window.
    auto p = smallParams(8);
    p.labelQueueSize = 4;
    Harness h(p);
    Rng rng(47);
    int done = 0, issued = 0;
    for (int round = 0; round < 60; ++round) {
        h.ctrl.request(oram::Op::read, rng.uniformInt(64), {},
                       [&](Tick, const auto &) { ++done; });
        ++issued;
        Tick delay = 50'000 + 25'000 * (round % 40); // 50ns..1.05us
        BlockAddr addr = 64 + rng.uniformInt(64);
        h.eq.scheduleIn(delay, [&h, &done, &issued, addr] {
            if (h.ctrl.canAccept()) {
                h.ctrl.request(oram::Op::read, addr, {},
                               [&done](Tick, const auto &) {
                                   ++done;
                               });
                ++issued;
            }
        });
        h.eq.run();
    }
    EXPECT_EQ(done, issued);
    EXPECT_GT(h.ctrl.dummyReplacements(), 0u);
}

TEST(Controller, LatencyRecorded)
{
    Harness h(smallParams());
    randomWorkload(h, 32, 100, 53);
    EXPECT_GT(h.ctrl.oramLatency().count(), 50u);
    EXPECT_GT(h.ctrl.oramLatency().mean(), 0.0);
}

TEST(Controller, StashOccupancyBounded)
{
    Harness h(smallParams(8));
    randomWorkload(h, 300, 800, 59);
    EXPECT_EQ(h.ctrl.stash().overflowEvents(), 0u);
    EXPECT_LT(h.ctrl.stash().peakSize(), 150u);
}

TEST(Controller, RejectsWhenAddressQueueFull)
{
    auto p = smallParams();
    p.addressQueueSize = 2;
    Harness h(p);
    // Without running the event loop, flood the queue.
    int cb = 0;
    auto noop = [&](Tick, const std::vector<std::uint8_t> &) { ++cb; };
    EXPECT_NE(h.ctrl.request(oram::Op::read, 1, {}, noop), 0u);
    EXPECT_NE(h.ctrl.request(oram::Op::read, 2, {}, noop), 0u);
    // Queue can be full now (entries pending until events run).
    if (!h.ctrl.canAccept()) {
        EXPECT_EQ(h.ctrl.request(oram::Op::read, 3, {}, noop), 0u);
    }
    h.eq.run();
}

} // anonymous namespace
} // namespace fp::core
