/**
 * @file
 * Merkle-tree integrity verification over the ORAM tree.
 *
 * The paper treats integrity checking as orthogonal and combinable
 * ("the integrity checking (e.g., Merkel Tree) can be combined with
 * ORAM to counteract active attacks", Section 2.2, citing Ren et al.
 * and Freecursive). This module provides that combination point,
 * co-designed with path merging:
 *
 *  - Each tree node carries a bucket digest and a subtree digest
 *    (subtree = H(bucket, left subtree, right subtree)); only the
 *    root digest must be trusted (pinned on chip).
 *  - A fork-path read fetches levels [k, L] only; verifySlice()
 *    authenticates exactly that slice: the recomputation uses the
 *    stored bucket digests for the retained levels [0, k) — whose
 *    live contents sit in the trusted stash, so their digests were
 *    authenticated when last read — plus the stored sibling subtree
 *    digests, and compares the recomputed root against the pinned
 *    root.
 *  - A fork-path refill rewrites levels [k', L]; updateSlice()
 *    re-hashes those buckets and propagates to a new pinned root.
 *
 * Digest storage conceptually lives in untrusted memory next to the
 * buckets (only the root is on-chip); this model does not charge its
 * DRAM traffic — the paper scopes integrity out of its evaluation.
 * The model keeps the (bucket, subtree) digests of every node that
 * has ever been written or verified in one flat open-addressing
 * table for all depths (util/flat_table.hh), which never erases; a
 * node without an entry has an empty bucket and an empty subtree.
 * The hash is Davies-Meyer over SPECK-64: not production crypto, but
 * a real avalanche function so tamper detection is genuinely
 * exercised by tests.
 */

#ifndef FP_ORAM_INTEGRITY_HH
#define FP_ORAM_INTEGRITY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/speck.hh"
#include "mem/bucket.hh"
#include "mem/tree_geometry.hh"
#include "util/flat_table.hh"
#include "util/stats.hh"

namespace fp::oram
{

class MerkleTree
{
  public:
    using Digest = std::uint64_t;

    /** A bucket and the digest of its contents. */
    struct BucketDigest
    {
        BucketIndex bucket;
        Digest digest;
    };

    MerkleTree(const mem::TreeGeometry &geo, std::uint64_t key_seed);

    /**
     * Authenticate the fetched slice of path @p label: @p buckets
     * hold levels [start_level, leafLevel], root-most first.
     * @return true iff the recomputed root matches the pinned root.
     */
    bool verifySlice(LeafLabel label, unsigned start_level,
                     std::span<const mem::Bucket> buckets);

    /**
     * Commit a refill of levels [start_level, leafLevel] of path
     * @p label (same bucket ordering) and advance the pinned root.
     */
    void updateSlice(LeafLabel label, unsigned start_level,
                     std::span<const mem::Bucket> buckets);

    /**
     * Point update of one bucket's digest (used when an on-chip
     * cache mutates a bucket outside a refill, e.g. a MAC data hit
     * pulling a block out); propagates to the pinned root.
     */
    void updateBucket(BucketIndex idx, const mem::Bucket &bucket);

    /**
     * Set the digests of many buckets at once and advance the pinned
     * root. @p updates must be in strictly ascending bucket order.
     * Each updated node and each of its ancestors is derived once,
     * level by level from the leaves, so the root equals that of one
     * updateBucket call per bucket. updateBucket and updateSlice are
     * this routine on one bucket and on one path slice.
     */
    void updateBuckets(std::span<const BucketDigest> updates);

    /** The pinned (trusted) root digest. */
    Digest root() const { return root_; }

    /** Digest of one bucket's contents (exposed for tests). */
    Digest hashBucket(const mem::Bucket &bucket) const;

    std::uint64_t verifications() const { return verifies_.value(); }
    std::uint64_t failures() const { return failures_.value(); }

  private:
    struct Node
    {
        Digest bucket;
        Digest subtree;
    };

    Digest bucketDigest(BucketIndex idx) const;
    Digest subtreeDigest(BucketIndex idx) const;
    Digest combine(Digest bucket_digest, Digest left,
                   Digest right) const;

    mem::TreeGeometry geo_;
    crypto::Speck64 hasher_;
    /** Digests of the nodes that have them. An insertion can move
     *  every entry, so no Node reference outlives the next one. */
    FlatTable<Node> nodes_;
    std::vector<Digest> emptySubtreeByLevel_;
    Digest emptyBucket_;
    Digest root_;

    /** Scratch, kept to avoid per-call allocation: the digests of a
     *  slice's buckets, root-most first ... */
    std::vector<BucketDigest> slice_;
    /** ... and updateBuckets' (node, subtree digest) lists for the
     *  level being derived and the level below it, ascending. */
    std::vector<BucketDigest> level_;
    std::vector<BucketDigest> childLevel_;

    fp::Counter verifies_;
    fp::Counter failures_;
};

} // namespace fp::oram

#endif // FP_ORAM_INTEGRITY_HH
