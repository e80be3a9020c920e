#include "core/overlap.hh"

#include <cmath>

#include "util/logging.hh"

namespace fp::core
{

namespace
{

/** P[overlap(a, uniform X) >= k], k in [1, L+1]. */
double
probOverlapAtLeast(const mem::TreeGeometry &geo, unsigned k)
{
    fp_assert(k >= 1 && k <= geo.numLevels(),
              "probOverlapAtLeast: bad k");
    // Sharing >= k buckets means agreeing on the top k-1 label bits;
    // at k = L+1 the two labels are identical (probability 2^-L).
    unsigned bits = k - 1;
    if (bits >= geo.leafLevel())
        bits = geo.leafLevel();
    return std::ldexp(1.0, -static_cast<int>(bits));
}

} // anonymous namespace

double
expectedPairwiseOverlap(const mem::TreeGeometry &geo)
{
    double e = 0.0;
    for (unsigned k = 1; k <= geo.numLevels(); ++k)
        e += probOverlapAtLeast(geo, k);
    return e;
}

double
expectedBestOverlap(const mem::TreeGeometry &geo, unsigned q)
{
    fp_assert(q >= 1, "expectedBestOverlap: empty queue");
    double e = 0.0;
    for (unsigned k = 1; k <= geo.numLevels(); ++k) {
        double p = probOverlapAtLeast(geo, k);
        e += 1.0 - std::pow(1.0 - p, static_cast<double>(q));
    }
    return e;
}

double
expectedMergeSavedBuckets(const mem::TreeGeometry &geo, unsigned q)
{
    return 2.0 * expectedBestOverlap(geo, q);
}

unsigned
macBottomLevel(const mem::TreeGeometry &geo)
{
    // len_overlap is the overlap any two *consecutive* merged paths
    // are guaranteed on average (the pairwise expectation, ~2), not
    // the best-of-queue mean: scheduling raises the average fork
    // level, but its distribution still reaches down to m1, and a
    // band that starts at the low tail is what lets MAC match
    // treetop's useful coverage. (With 256 B buckets the paper's
    // 1 MB budget then spans levels 2..11 almost exactly.)
    double len = expectedPairwiseOverlap(geo);
    auto m1 = static_cast<unsigned>(len) + 1;
    if (m1 > geo.leafLevel())
        m1 = geo.leafLevel();
    return m1;
}

} // namespace fp::core
