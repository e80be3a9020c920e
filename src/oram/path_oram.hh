/**
 * @file
 * Functional (untimed) baseline Path ORAM engine implementing the
 * access flow of the paper's Section 2.3 (Steps 1-5):
 *
 *   1. search the stash; on a hit return immediately;
 *   2. look up the leaf label, remap to a fresh uniform label;
 *   3. read the whole path into the stash;
 *   4. the stashed copy (with its new label) is now the only valid
 *      copy;
 *   5. refill the path greedily from the stash, deepest bucket first.
 *
 * This class is the golden reference the Fork Path controller is
 * checked against. It can trace the exact bucket-index sequence of
 * every access so tests can reason about the access pattern an
 * adversary would see.
 */

#ifndef FP_ORAM_PATH_ORAM_HH
#define FP_ORAM_PATH_ORAM_HH

#include <cstdint>
#include <vector>

#include "mem/tree_store.hh"
#include "oram/oram_params.hh"
#include "oram/position_map.hh"
#include "oram/stash.hh"
#include "util/stats.hh"

namespace fp::oram
{

/** RAM-interface operation, per the paper's (addr, op, data) tuple. */
enum class Op
{
    read,
    write,
};

/** One access as visible on the (simulated) memory bus. */
struct AccessTrace
{
    LeafLabel label = invalidLeaf;
    bool dummy = false;
    std::vector<BucketIndex> bucketsRead;
    std::vector<BucketIndex> bucketsWritten;
};

class PathOram
{
  public:
    explicit PathOram(const OramParams &params);

    /**
     * Perform one logical access.
     * @param op    read or write.
     * @param addr  Program block address.
     * @param data  Payload for writes (sized to payloadBytes).
     * @return the block's payload before the write / at the read.
     */
    std::vector<std::uint8_t>
    access(Op op, BlockAddr addr,
           const std::vector<std::uint8_t> *data = nullptr);

    /** Convenience read. */
    std::vector<std::uint8_t> read(BlockAddr addr)
    {
        return access(Op::read, addr);
    }

    /** Convenience write. */
    void
    write(BlockAddr addr, const std::vector<std::uint8_t> &data)
    {
        access(Op::write, addr, &data);
    }

    /** A dummy access: read and refill a uniformly random path. */
    void dummyAccess();

    // --- component access for tests and composition -------------------
    const OramParams &params() const { return params_; }
    const mem::TreeGeometry &geometry() const { return geo_; }
    Stash &stash() { return stash_; }
    const Stash &stash() const { return stash_; }
    PositionMap &positionMap() { return posMap_; }
    mem::TreeStore &store() { return store_; }

    /** Capture per-access bucket traces (off by default). */
    void setTraceEnabled(bool enabled) { traceEnabled_ = enabled; }
    const std::vector<AccessTrace> &trace() const { return trace_; }

    std::uint64_t accessCount() const { return accesses_.value(); }
    std::uint64_t stashHits() const { return stashHits_.value(); }
    fp::StatGroup &stats() { return stats_; }

  private:
    /** Read path into the stash; returns indices for tracing. */
    std::vector<BucketIndex> readPath(LeafLabel label);

    /** Greedy deepest-first refill of the whole path. */
    std::vector<BucketIndex> writePath(LeafLabel label);

    OramParams params_;
    mem::TreeGeometry geo_;
    PositionMap posMap_;
    Stash stash_;
    mem::TreeStore store_;

    bool traceEnabled_ = false;
    std::vector<AccessTrace> trace_;

    fp::Counter accesses_;
    fp::Counter stashHits_;
    fp::Counter dummyAccesses_;
    fp::StatGroup stats_;
};

} // namespace fp::oram

#endif // FP_ORAM_PATH_ORAM_HH
