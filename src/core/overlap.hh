/**
 * @file
 * Overlap analysis for Fork Path scheduling.
 *
 * The runtime overlap of two paths is pure geometry
 * (TreeGeometry::overlap). This header adds the closed-form
 * expectations used to (a) auto-configure the merging-aware cache's
 * bottom level m1 = len_overlap + 1 and (b) validate the paper's
 * Fig. 10 claim that the average accessed path length falls linearly
 * with log2(label queue size):
 *
 *   P[overlap(a, X) >= k] = 2^-(k-1)   for uniform X, k = 1..L+1
 *                                       (capped at 2^-L for k = L+1)
 *
 *   E[overlap]           = sum_k P[.. >= k]          ~= 2
 *   E[max of Q samples]  = sum_k (1 - (1 - 2^-(k-1))^Q)
 *                        ~= log2(Q) + 2
 */

#ifndef FP_CORE_OVERLAP_HH
#define FP_CORE_OVERLAP_HH

#include <cstdint>

#include "mem/tree_geometry.hh"

namespace fp::core
{

/** E[overlap(a, X)] for one uniform candidate X. */
double expectedPairwiseOverlap(const mem::TreeGeometry &geo);

/**
 * E[max over @p q uniform candidates of overlap(a, X_i)] — the
 * expected retained ("fork handle") length when scheduling selects
 * the best of a q-entry label queue.
 */
double expectedBestOverlap(const mem::TreeGeometry &geo,
                           unsigned q);

/**
 * The merging-aware cache's bottom cached level:
 * m1 = floor(expected pairwise overlap) + 1, clamped to the leaf
 * level (paper Section 3.5: levels below len_overlap are almost never
 * fetched once merging is on). The pairwise overlap is 2 - 2^-L, so
 * m1 is 2 for every L >= 2.
 */
unsigned macBottomLevel(const mem::TreeGeometry &geo);

/**
 * Expected tree buckets a merged access saves over the naive 2L
 * (full read + full refill) baseline with a @p q-entry label queue:
 * the fork handle is skipped on the read AND elided from the previous
 * refill, so each access saves about twice the expected best overlap.
 * A loose analytic yardstick for the profiler's effectiveness
 * counters (tests and the smoke bench sanity-check against it), not
 * an exact model — dummy competition, aging promotions and chain
 * spawns all perturb the realized overlap.
 */
double expectedMergeSavedBuckets(const mem::TreeGeometry &geo,
                                 unsigned q);

} // namespace fp::core

#endif // FP_CORE_OVERLAP_HH
