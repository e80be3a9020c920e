/**
 * @file
 * The on-chip stash: a small associative buffer of data blocks that
 * are currently off the tree (paper Figure 1(b)).
 *
 * Besides plain lookup/insert/remove it implements the refill
 * selection: given a path label and a level, pick up to Z blocks that
 * may legally reside in that bucket (greedy deepest-first eviction,
 * the "fill with as many stash blocks as possible" rule of Step 5).
 *
 * Occupancy is tracked in a histogram so experiments can verify the
 * paper's claim that path merging leaves the stash-overflow
 * probability unchanged.
 */

#ifndef FP_ORAM_STASH_HH
#define FP_ORAM_STASH_HH

#include <cstdint>
#include <unordered_map>

#include "mem/block.hh"
#include "mem/bucket.hh"
#include "mem/tree_geometry.hh"
#include "obs/tracer.hh"
#include "util/stats.hh"

namespace fp::obs
{
class RequestProfiler;
} // namespace fp::obs

namespace fp::oram
{

class Stash
{
  public:
    /**
     * @param geo      Tree geometry (for residency checks).
     * @param capacity Soft capacity; exceeding it counts overflows.
     */
    Stash(const mem::TreeGeometry &geo, std::size_t capacity);

    /** Block lookup; nullptr if absent. */
    mem::Block *find(BlockAddr addr);
    const mem::Block *find(BlockAddr addr) const;

    bool contains(BlockAddr addr) const { return find(addr) != nullptr; }

    /** Insert a block; the address must not already be stashed. */
    void insert(mem::Block block);

    /**
     * Ingest a block read from the tree: if the address is already
     * stashed, the stashed copy is newer (the memory copy inside the
     * retained fork handle is stale by construction) and the incoming
     * block is dropped.
     * @return true if the block was inserted.
     */
    bool insertOrIgnore(mem::Block block);

    /** Remove and return the block at @p addr; must exist. */
    mem::Block take(BlockAddr addr);

    /**
     * Remove up to @p max_blocks (<= mem::Bucket::maxZ) blocks that
     * can reside in the bucket at (@p path_label, @p level), i.e.
     * whose own leaf label shares that bucket, and return them as a
     * bucket of Z = @p max_blocks in ascending address order.
     */
    mem::Bucket evictForBucket(LeafLabel path_label, unsigned level,
                               unsigned max_blocks);

    std::size_t size() const { return blocks_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool overCapacity() const { return blocks_.size() > capacity_; }

    /** Record current occupancy (call once per ORAM access). */
    void recordOccupancy();

    /** Attach the event tracer (occupancy counter track). */
    void setTracer(obs::Tracer *tracer) { trc_ = tracer; }

    /** Attach the request profiler (eviction-yield sampling). */
    void setProfiler(obs::RequestProfiler *prof) { prof_ = prof; }

    const fp::Histogram &occupancy() const { return occupancyHist_; }
    std::uint64_t overflowEvents() const { return overflows_.value(); }
    std::size_t peakSize() const { return peak_; }

    /** Iterate all blocks (tests/invariant checks). */
    const std::unordered_map<BlockAddr, mem::Block> &
    contents() const
    {
        return blocks_;
    }

  private:
    mem::TreeGeometry geo_;
    std::size_t capacity_;
    std::unordered_map<BlockAddr, mem::Block> blocks_;
    std::size_t peak_ = 0;
    obs::Tracer *trc_ = nullptr;
    obs::RequestProfiler *prof_ = nullptr;

    fp::Histogram occupancyHist_;
    fp::Counter overflows_;
};

} // namespace fp::oram

#endif // FP_ORAM_STASH_HH
