/**
 * @file
 * Tests of the overlap analysis: closed-form expectations against
 * Monte-Carlo simulation, and the MAC m1 derivation.
 */

#include <gtest/gtest.h>

#include "core/overlap.hh"
#include "util/random.hh"

namespace fp::core
{
namespace
{

TEST(Overlap, PairwiseExpectationNearTwo)
{
    mem::TreeGeometry geo(24);
    // sum of 2^-(k-1) for k=1..L -> 2 - 2^-(L-1), plus the tail term.
    EXPECT_NEAR(expectedPairwiseOverlap(geo), 2.0, 0.01);
}

TEST(Overlap, BestOfOneEqualsPairwise)
{
    mem::TreeGeometry geo(20);
    EXPECT_DOUBLE_EQ(expectedBestOverlap(geo, 1),
                     expectedPairwiseOverlap(geo));
}

TEST(Overlap, GrowsLogarithmically)
{
    mem::TreeGeometry geo(24);
    double prev = 0.0;
    // Doubling the queue should add about one level each time.
    for (unsigned q : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
        double e = expectedBestOverlap(geo, q);
        if (prev > 0.0) {
            EXPECT_NEAR(e - prev, 1.0, 0.35) << "step to q=" << q;
        }
        prev = e;
    }
    EXPECT_NEAR(expectedBestOverlap(geo, 64), 7.34, 0.1);
}

TEST(Overlap, MatchesMonteCarlo)
{
    mem::TreeGeometry geo(16);
    Rng rng(31);
    for (unsigned q : {1u, 8u, 64u}) {
        double sum = 0.0;
        constexpr int trials = 20000;
        for (int t = 0; t < trials; ++t) {
            LeafLabel cur = rng.uniformInt(geo.numLeaves());
            unsigned best = 0;
            for (unsigned i = 0; i < q; ++i) {
                LeafLabel x = rng.uniformInt(geo.numLeaves());
                best = std::max(best, geo.overlap(cur, x));
            }
            sum += best;
        }
        double mc = sum / trials;
        EXPECT_NEAR(expectedBestOverlap(geo, q), mc, 0.06)
            << "q=" << q;
    }
}

TEST(Overlap, MacBottomLevel)
{
    // len_overlap is the pairwise expectation, 2 - 2^-L -> m1 = 2 for
    // every L >= 2 (see macBottomLevel's rationale).
    for (unsigned leaf = 2; leaf <= 30; ++leaf)
        EXPECT_EQ(macBottomLevel(mem::TreeGeometry(leaf)), 2u)
            << "L=" << leaf;
    // At L = 1 the band is clamped to the leaf level.
    EXPECT_EQ(macBottomLevel(mem::TreeGeometry(1)), 1u);
}

} // anonymous namespace
} // namespace fp::core
