/**
 * @file
 * Security-property tests for Fork Path ORAM, matching the paper's
 * Section 3.6 arguments:
 *
 *  - the revealed leaf-label sequence is uniform even under heavily
 *    skewed program access patterns;
 *  - the revealed access shape (labels + fork levels) is a
 *    deterministic function of public information and independent of
 *    the data values written;
 *  - the revealed overlap-degree distribution does not leak memory
 *    intensity (Figure 7), thanks to dummy padding;
 *  - path merging leaves the stash occupancy distribution unchanged
 *    w.r.t. traditional Path ORAM.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/oram_controller.hh"
#include "dram/dram_backend.hh"
#include "dram/dram_system.hh"
#include "util/random.hh"
#include "util/stat_tests.hh"

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

    explicit Harness(const ControllerParams &params)
        : dram(dram::DramParams::ddr3_1600(2), eq), mem(dram),
          ctrl(params, eq, mem)
    {
        ctrl.setRevealTraceEnabled(true);
    }

    void
    syncAccess(oram::Op op, BlockAddr addr,
               std::vector<std::uint8_t> data = {})
    {
        ctrl.request(op, addr, std::move(data),
                     [](Tick, const auto &) {});
        eq.run();
    }
};

ControllerParams
forkParams(unsigned leaf_level = 10)
{
    ControllerParams p;
    p.oram.leafLevel = leaf_level;
    p.oram.payloadBytes = 8;
    p.oram.seed = 9001;
    // Force a full ORAM access per request so the revealed trace has
    // statistical weight even for tiny, stash-resident working sets.
    p.oram.stashShortcut = false;
    p.policy = core::PolicyKind::forkpath;
    p.enableDummyReplacing = true;
    p.labelQueueSize = 8;
    return p;
}

double
chiSquareTopBits(const std::vector<RevealedAccess> &trace,
                 unsigned leaf_level, unsigned buckets_log2 = 4)
{
    std::vector<std::uint64_t> counts(1ULL << buckets_log2, 0);
    std::uint64_t n = 0;
    for (const auto &r : trace) {
        ++counts[r.label >> (leaf_level - buckets_log2)];
        ++n;
    }
    double expect = static_cast<double>(n) /
                    static_cast<double>(counts.size());
    double chi2 = 0.0;
    for (auto c : counts) {
        double d = static_cast<double>(c) - expect;
        chi2 += d * d / expect;
    }
    return chi2;
}

TEST(Security, RevealedLabelsUniformUnderSkewedAccesses)
{
    Harness h(forkParams());
    // Pathological program pattern: hammer two addresses only.
    Rng rng(3);
    for (int i = 0; i < 1500; ++i) {
        std::vector<std::uint8_t> v(8, static_cast<std::uint8_t>(i));
        h.syncAccess(oram::Op::write, rng.uniformInt(2), v);
    }
    const auto &trace = h.ctrl.revealTrace();
    ASSERT_GT(trace.size(), 500u);
    // 15 dof chi-square, 99.9th percentile ~ 37.7.
    EXPECT_LT(chiSquareTopBits(trace, 10), 37.7);
}

TEST(Security, RevealedShapeIndependentOfDataValues)
{
    // Two runs with identical request sequences but different data
    // values must reveal byte-identical access shapes.
    auto run = [](std::uint8_t fill) {
        Harness h(forkParams());
        Rng rng(77);
        for (int i = 0; i < 300; ++i) {
            BlockAddr a = rng.uniformInt(64);
            if (i % 3 == 0) {
                h.syncAccess(oram::Op::read, a);
            } else {
                h.syncAccess(oram::Op::write, a,
                             std::vector<std::uint8_t>(8, fill));
            }
        }
        return h.ctrl.revealTrace();
    };
    auto t1 = run(0x00);
    auto t2 = run(0xFF);
    ASSERT_EQ(t1.size(), t2.size());
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].label, t2[i].label) << i;
        EXPECT_EQ(t1[i].readStartLevel, t2[i].readStartLevel) << i;
        EXPECT_EQ(t1[i].writeStopLevel, t2[i].writeStopLevel) << i;
        EXPECT_EQ(t1[i].dummy, t2[i].dummy) << i;
    }
}

TEST(Security, DeterministicGivenSeed)
{
    auto run = [] {
        Harness h(forkParams());
        Rng rng(123);
        for (int i = 0; i < 200; ++i)
            h.syncAccess(oram::Op::write, rng.uniformInt(32),
                         std::vector<std::uint8_t>(8, 1));
        return h.ctrl.revealTrace();
    };
    auto t1 = run();
    auto t2 = run();
    ASSERT_EQ(t1.size(), t2.size());
    for (std::size_t i = 0; i < t1.size(); ++i)
        EXPECT_EQ(t1[i].label, t2[i].label);
}

TEST(Security, OverlapDistributionIndependentOfIntensity)
{
    // Figure 7: scheduling always operates on a full (padded) queue,
    // so the revealed overlap degrees must not reflect how many real
    // requests were pending.
    auto mean_overlap = [](bool burst) {
        auto p = forkParams();
        // Disable aging so only the padding argument is under test;
        // with aging, forced FIFO promotions under backlog lower the
        // high-intensity overlap for fairness reasons.
        p.agingThreshold = 1u << 30;
        Harness h(p);
        const auto &geo = h.ctrl.geometry();
        Rng rng(55);
        if (burst) {
            // High intensity: many requests in flight at once.
            int done = 0, issued = 0;
            for (int round = 0; round < 40; ++round) {
                for (int k = 0; k < 16; ++k) {
                    if (h.ctrl.canAccept()) {
                        h.ctrl.request(
                            oram::Op::read, rng.uniformInt(4096),
                            {},
                            [&done](Tick, const auto &) { ++done; });
                        ++issued;
                    }
                }
                h.eq.run();
            }
            EXPECT_EQ(done, issued);
        } else {
            // Low intensity: strictly one at a time.
            for (int i = 0; i < 640; ++i)
                h.syncAccess(oram::Op::read, rng.uniformInt(4096));
        }
        const auto &trace = h.ctrl.revealTrace();
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
            sum += geo.overlap(trace[i].label, trace[i + 1].label);
            ++n;
        }
        return sum / static_cast<double>(n);
    };

    double low = mean_overlap(false);
    double high = mean_overlap(true);
    // Both should be near E[max of queue-size samples]; allow a
    // modest statistical gap but nothing like the >1-level gap an
    // unpadded scheduler would show.
    EXPECT_NEAR(low, high, 0.8);
}

TEST(Security, MergingPreservesStashOccupancy)
{
    // Paper Section 3.6: merging does not change the stash
    // occupancy distribution (the retained fork handle blocks would
    // have been written out and immediately read back).
    auto p_base = forkParams(8);
    p_base.policy = core::PolicyKind::traditional;
    p_base.enableDummyReplacing = false;
    p_base.labelQueueSize = 1;
    Harness base(p_base);
    Harness fork(forkParams(8));
    Rng rng(99);
    for (int i = 0; i < 1200; ++i) {
        BlockAddr a = rng.uniformInt(700);
        std::vector<std::uint8_t> v(8, 1);
        base.syncAccess(oram::Op::write, a, v);
        fork.syncAccess(oram::Op::write, a, v);
    }
    double base_mean = base.ctrl.stash().occupancy().mean();
    double fork_mean = fork.ctrl.stash().occupancy().mean();
    // Distributions should be comparable: neither explodes.
    EXPECT_EQ(base.ctrl.stash().overflowEvents(), 0u);
    EXPECT_EQ(fork.ctrl.stash().overflowEvents(), 0u);
    EXPECT_NEAR(fork_mean, base_mean, base_mean * 0.5 + 8.0);
}

TEST(Security, LabelQueueObservedFull)
{
    // After any selection the controller re-pads, so the queue the
    // scheduler operates on is always at capacity once warm.
    Harness h(forkParams());
    Rng rng(1);
    for (int i = 0; i < 50; ++i)
        h.syncAccess(oram::Op::read, rng.uniformInt(128));
    // Warm steady state: padded to capacity or one short (the
    // committed pending holds one slot's worth of work).
    EXPECT_GE(h.ctrl.labelQueue().size() + 1,
              h.ctrl.labelQueue().capacity());
}

TEST(Security, TraditionalLabelsSeriallyIndependent)
{
    // Without scheduling the revealed label sequence is i.i.d.
    // uniform; lag-1 correlation must vanish. (With scheduling the
    // top bits correlate BY DESIGN — that reordering is a public
    // function of an i.i.d. pool, the paper's Section 3.6 argument.)
    auto p = forkParams();
    p.policy = core::PolicyKind::traditional;
    p.enableDummyReplacing = false;
    p.labelQueueSize = 1;
    Harness h(p);
    Rng rng(7);
    for (int i = 0; i < 1200; ++i)
        h.syncAccess(oram::Op::read, rng.uniformInt(512));
    std::vector<double> labels;
    for (const auto &r : h.ctrl.revealTrace())
        labels.push_back(static_cast<double>(r.label));
    ASSERT_GT(labels.size(), 1000u);
    EXPECT_LT(std::abs(serialCorrelation(labels)), 0.08);
}

TEST(Security, ForkLowLabelBitsSeriallyIndependent)
{
    // Scheduling correlates the *top* label bits of consecutive
    // accesses (that is the optimisation); the low bits — which pin
    // the leaf within the shared subtree — must stay independent.
    Harness h(forkParams());
    Rng rng(9);
    for (int i = 0; i < 1200; ++i)
        h.syncAccess(oram::Op::read, rng.uniformInt(512));
    std::vector<double> low_bits;
    for (const auto &r : h.ctrl.revealTrace())
        low_bits.push_back(static_cast<double>(r.label & 0x1F));
    ASSERT_GT(low_bits.size(), 1000u);
    EXPECT_LT(std::abs(serialCorrelation(low_bits)), 0.08);
}

TEST(Security, DummiesIndistinguishableInTraceShape)
{
    // Dummy accesses traverse paths exactly like real ones: fork
    // levels obey the same chaining rule (checked in
    // test_controller's ForkShapeInvariant); here: dummies' labels
    // are also uniform.
    Harness h(forkParams());
    for (int i = 0; i < 800; ++i)
        h.syncAccess(oram::Op::read, 1); // maximally boring program
    std::vector<RevealedAccess> dummies;
    for (const auto &r : h.ctrl.revealTrace())
        if (r.dummy)
            dummies.push_back(r);
    ASSERT_GT(dummies.size(), 200u);
    EXPECT_LT(chiSquareTopBits(dummies, 10), 37.7);
}

} // anonymous namespace
} // namespace fp::core
