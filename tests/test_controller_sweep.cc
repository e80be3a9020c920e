/**
 * @file
 * Parameterized property sweep of the ORAM controller across tree
 * depths, bucket sizes, feature combinations and DRAM organizations:
 * every configuration must satisfy the same contracts — functional
 * read-your-writes, the fork-shape chaining invariant on the
 * revealed sequence, bounded stash, and clean drain.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "core/oram_controller.hh"
#include "dram/dram_backend.hh"
#include "dram/dram_system.hh"
#include "util/random.hh"

namespace fp::core
{
namespace
{

struct SweepConfig
{
    unsigned leafLevel;
    unsigned z;
    bool merging;
    CachePolicy cache;
    unsigned queueSize;
    unsigned recursionDepth;
    unsigned channels;

    friend std::ostream &
    operator<<(std::ostream &os, const SweepConfig &c)
    {
        os << "L" << c.leafLevel << "_Z" << c.z << "_"
           << (c.merging ? "merge" : "trad") << "_q" << c.queueSize
           << "_cache" << static_cast<int>(c.cache) << "_rec"
           << c.recursionDepth << "_ch" << c.channels;
        return os;
    }
};

class ControllerSweep : public ::testing::TestWithParam<SweepConfig>
{
};

TEST_P(ControllerSweep, ContractHolds)
{
    const SweepConfig &sc = GetParam();

    ControllerParams p;
    p.oram.leafLevel = sc.leafLevel;
    p.oram.z = sc.z;
    p.oram.payloadBytes = 8;
    p.oram.seed = 1000 + sc.leafLevel * 13 + sc.z;
    p.policy = sc.merging ? core::PolicyKind::forkpath : core::PolicyKind::traditional;
    p.enableDummyReplacing = sc.merging;
    p.labelQueueSize = sc.queueSize;
    p.cachePolicy = sc.cache;
    p.cacheBudgetBytes = 16 << 10;
    p.macM1 = sc.cache == CachePolicy::mac ? 2 : -1;
    p.recursionDepth = sc.recursionDepth;
    p.plbEntries = sc.recursionDepth > 0 ? 64 : 0;
    p.blockPhysBytes = 64;

    EventQueue eq;
    dram::DramSystem dram(dram::DramParams::ddr3_1600(sc.channels),
                          eq);
    dram::DramBackend mem(dram);
    OramController ctrl(p, eq, mem);
    ctrl.setRevealTraceEnabled(true);

    // Random functional workload against a reference map.
    std::map<BlockAddr, std::vector<std::uint8_t>> ref;
    Rng rng(sc.leafLevel * 7 + sc.z * 3 + sc.queueSize);
    const std::uint64_t addr_space =
        std::min<std::uint64_t>(48, 1ULL << sc.leafLevel);
    for (int i = 0; i < 250; ++i) {
        BlockAddr a = rng.uniformInt(addr_space);
        if (rng.chance(0.5)) {
            std::vector<std::uint8_t> v(8);
            for (auto &b : v)
                b = static_cast<std::uint8_t>(rng());
            bool done = false;
            ctrl.request(oram::Op::write, a, v,
                         [&](Tick, const auto &) { done = true; });
            eq.run();
            ASSERT_TRUE(done);
            ref[a] = v;
        } else {
            std::vector<std::uint8_t> out;
            bool done = false;
            ctrl.request(oram::Op::read, a, {},
                         [&](Tick, const auto &d) {
                             out = d;
                             done = true;
                         });
            eq.run();
            ASSERT_TRUE(done);
            auto expect = ref.count(a)
                              ? ref[a]
                              : std::vector<std::uint8_t>(8, 0);
            ASSERT_EQ(out, expect) << "addr " << a << " at op " << i;
        }
    }

    // Clean drain.
    EXPECT_FALSE(ctrl.busy());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(ctrl.stash().overflowEvents(), 0u);

    // Fork-shape chaining on the revealed sequence.
    const auto &trace = ctrl.revealTrace();
    const auto &geo = ctrl.geometry();
    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
        if (sc.merging) {
            EXPECT_EQ(trace[i].writeStopLevel,
                      geo.overlap(trace[i].label,
                                  trace[i + 1].label))
                << i;
            EXPECT_EQ(trace[i + 1].readStartLevel,
                      trace[i].writeStopLevel)
                << i;
        } else {
            EXPECT_EQ(trace[i].writeStopLevel, 0u);
            EXPECT_EQ(trace[i].readStartLevel, 0u);
        }
    }

    // Dummies only ever appear under merging.
    if (!sc.merging) {
        EXPECT_EQ(ctrl.dummyAccessesRun(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ControllerSweep,
    ::testing::Values(
        // Tree depth sweep, plain merging.
        SweepConfig{2, 4, true, CachePolicy::none, 4, 0, 2},
        SweepConfig{4, 4, true, CachePolicy::none, 8, 0, 2},
        SweepConfig{8, 4, true, CachePolicy::none, 8, 0, 2},
        SweepConfig{12, 4, true, CachePolicy::none, 16, 0, 2},
        // Bucket size sweep.
        SweepConfig{6, 2, true, CachePolicy::none, 8, 0, 2},
        SweepConfig{6, 6, true, CachePolicy::none, 8, 0, 2},
        SweepConfig{6, 8, true, CachePolicy::none, 8, 0, 2},
        // Baseline (no merging) across depths and Z.
        SweepConfig{5, 4, false, CachePolicy::none, 1, 0, 2},
        SweepConfig{9, 2, false, CachePolicy::none, 1, 0, 2},
        // Cache policies.
        SweepConfig{7, 4, true, CachePolicy::mac, 8, 0, 2},
        SweepConfig{7, 4, true, CachePolicy::treetop, 8, 0, 2},
        SweepConfig{7, 4, false, CachePolicy::treetop, 1, 0, 2},
        // Recursion chains, with and without caches.
        SweepConfig{6, 4, true, CachePolicy::none, 8, 2, 2},
        SweepConfig{6, 4, true, CachePolicy::mac, 8, 3, 2},
        SweepConfig{6, 4, false, CachePolicy::none, 1, 2, 2},
        // DRAM organization variations.
        SweepConfig{6, 4, true, CachePolicy::none, 8, 0, 1},
        SweepConfig{6, 4, true, CachePolicy::none, 8, 0, 4},
        // Queue extremes.
        SweepConfig{6, 4, true, CachePolicy::none, 1, 0, 2},
        SweepConfig{6, 4, true, CachePolicy::none, 64, 0, 2}),
    [](const ::testing::TestParamInfo<SweepConfig> &info) {
        std::ostringstream os;
        os << info.param;
        return os.str();
    });

} // anonymous namespace
} // namespace fp::core
