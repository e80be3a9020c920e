/**
 * @file
 * The merging-aware cache (MAC) of paper Section 3.5 / Figure 8(b).
 *
 * Once path merging is active, the top len_overlap levels of the tree
 * are almost never fetched from memory (they ride in the stash as the
 * fork handle), so treetop caching's budget is wasted there. MAC is a
 * set-associative LRU cache over the band of levels
 * [m1, m2], m1 = len_overlap + 1, holding decrypted buckets evicted
 * from the stash on write phases; read phases that hit promote the
 * bucket's blocks back to the stash.
 *
 * Set indexing follows the structure of the paper's Eq. (1): each
 * cached level owns a contiguous region of bucket frames, and a
 * bucket at (level x, offset y) maps into its level's region at
 * y mod region_size, with `ways` buckets per set and LRU within a
 * set. Levels are allocated bottom-up from m1: every level that fits
 * entirely (2^x frames) is fully covered, and the last level m2
 * receives whatever frames remain as a partial region. (Taken
 * literally, the printed allocation of 2^(x-m1+1) frames per level
 * would cover only 2^(1-m1) of each level and the cache could not
 * reproduce Figure 13; full-band coverage matches Figure 8(b)'s
 * shaded band and the reported treetop-equivalent performance.)
 *
 * Security: the cache is indexed purely by logical bucket position
 * and filled/emptied purely as a function of the revealed label
 * sequence, so its hit/miss pattern is a deterministic function of
 * public information (tested in tests/test_security.cc).
 */

#ifndef FP_CORE_MERGING_CACHE_HH
#define FP_CORE_MERGING_CACHE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mem/bucket.hh"
#include "mem/tree_geometry.hh"
#include "obs/tracer.hh"
#include "util/stats.hh"

namespace fp::core
{

struct MergingCacheParams
{
    unsigned m1 = 9;                  //!< Bottom cached level.
    std::uint64_t budgetBytes = 1 << 20;
    unsigned bucketsPerSet = 2;       //!< Associativity in buckets.
    std::uint64_t bucketBytes = 256;  //!< Z * physical block size.
    unsigned z = 4;                   //!< Slots per bucket.
};

class MergingAwareCache
{
  public:
    MergingAwareCache(const mem::TreeGeometry &geo,
                      const MergingCacheParams &params);

    /** True iff @p level falls in the cached band [m1, m2]. */
    bool inRange(unsigned level) const
    {
        return level >= m1_ && level <= m2_;
    }

    /**
     * Read-phase lookup: on a hit the bucket is removed from the
     * cache (its blocks move to the stash) and returned.
     */
    std::optional<mem::Bucket> extract(BucketIndex idx);

    /**
     * Data-hit lookup (paper Section 4 / Figure 9: each line stores
     * the blocks' program addresses, and pending requests that hit
     * promote their block back to the stash and complete without a
     * DRAM access). Searches the cached bucket at @p idx for @p addr
     * and removes just that block; the bucket line stays resident.
     */
    std::optional<mem::Block> extractBlock(BucketIndex idx,
                                           BlockAddr addr);

    /** A bucket displaced by an insertion, owed a DRAM write-back. */
    struct Victim
    {
        BucketIndex idx;
        mem::Bucket bucket;
    };

    /**
     * Write-phase insertion of a refilled bucket. Returns the LRU
     * victim if a valid line had to be displaced.
     */
    std::optional<Victim> insert(BucketIndex idx,
                                 const mem::Bucket &bucket);

    unsigned m1() const { return m1_; }
    unsigned m2() const { return m2_; }
    std::uint64_t numSets() const { return sets_.size(); }
    unsigned ways() const { return ways_; }
    std::uint64_t capacityBuckets() const { return capacity_; }
    std::uint64_t sizeBytes() const
    {
        return capacity_ * bucketBytes_;
    }

    /** Paper Eq. (1): set index of a cached-band bucket. */
    std::uint64_t setIndex(BucketIndex idx) const;

    /** Resident bucket contents at @p idx; nullptr on miss. */
    const mem::Bucket *peek(BucketIndex idx) const;

    /** Visit every valid cached bucket (tests, invariant checks). */
    void forEachBucket(
        const std::function<void(BucketIndex, const mem::Bucket &)>
            &fn) const;

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t insertions() const { return insertions_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }

    /** Attach the event tracer (cache hit/miss/eviction track). */
    void setTracer(obs::Tracer *tracer) { trc_ = tracer; }

  private:
    struct Line
    {
        bool valid = false;
        BucketIndex tag = 0;
        std::uint64_t lastUse = 0;
        mem::Bucket bucket;
    };

    /** Make @p line the valid, most recent holder of @p bucket. */
    void fill(Line &line, BucketIndex idx, const mem::Bucket &bucket);

    mem::TreeGeometry geo_;
    unsigned m1_;
    unsigned m2_;
    unsigned ways_;
    std::uint64_t bucketBytes_;
    unsigned z_;
    std::uint64_t capacity_; //!< Total bucket frames.
    /** Per-level region sizes and bases, indexed by level - m1. */
    std::vector<std::uint64_t> levelAlloc_;
    std::vector<std::uint64_t> levelBase_;
    std::vector<std::vector<Line>> sets_;
    std::uint64_t useClock_ = 0;
    obs::Tracer *trc_ = nullptr;

    fp::Counter hits_;
    fp::Counter misses_;
    fp::Counter insertions_;
    fp::Counter evictions_;
};

} // namespace fp::core

#endif // FP_CORE_MERGING_CACHE_HH
