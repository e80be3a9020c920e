#include "oram/integrity.hh"

#include "util/logging.hh"

namespace fp::oram
{

namespace
{

/** One Davies-Meyer absorption step over SPECK-64. */
std::uint64_t
absorb(const crypto::Speck64 &cipher, std::uint64_t state,
       std::uint64_t word)
{
    std::uint64_t x = state ^ word;
    return cipher.encryptBlock(x) ^ x;
}

} // anonymous namespace

MerkleTree::MerkleTree(const mem::TreeGeometry &geo,
                       std::uint64_t key_seed)
    : geo_(geo), hasher_(key_seed ^ 0x4a5be11), verifies_(),
      failures_()
{
    emptyBucket_ = hashBucket(mem::Bucket(4));
    emptySubtreeByLevel_.resize(geo_.numLevels());
    for (unsigned level = geo_.numLevels(); level-- > 0;) {
        if (level == geo_.leafLevel()) {
            emptySubtreeByLevel_[level] = combine(emptyBucket_, 0, 0);
        } else {
            emptySubtreeByLevel_[level] =
                combine(emptyBucket_, emptySubtreeByLevel_[level + 1],
                        emptySubtreeByLevel_[level + 1]);
        }
    }
    root_ = emptySubtreeByLevel_[0];
}

MerkleTree::Digest
MerkleTree::hashBucket(const mem::Bucket &bucket) const
{
    Digest h = 0x6a09e667f3bcc908ULL;
    h = absorb(hasher_, h, bucket.occupancy());
    for (const auto &blk : bucket.blocks()) {
        h = absorb(hasher_, h, blk.addr);
        h = absorb(hasher_, h, blk.leaf);
        const auto &p = blk.payload;
        for (std::size_t off = 0; off < p.size(); off += 8) {
            std::uint64_t w = 0;
            for (std::size_t i = 0; i < 8 && off + i < p.size(); ++i)
                w |= static_cast<std::uint64_t>(p[off + i])
                     << (8 * i);
            h = absorb(hasher_, h, w);
        }
    }
    return h;
}

MerkleTree::Digest
MerkleTree::combine(Digest bucket_digest, Digest left,
                    Digest right) const
{
    Digest h = bucket_digest;
    h = absorb(hasher_, h, left);
    h = absorb(hasher_, h, right ^ 0x9e3779b97f4a7c15ULL);
    return h;
}

MerkleTree::Digest
MerkleTree::bucketDigest(BucketIndex idx) const
{
    const Node *node = nodes_.find(idx);
    return node ? node->bucket : emptyBucket_;
}

MerkleTree::Digest
MerkleTree::subtreeDigest(BucketIndex idx) const
{
    const Node *node = nodes_.find(idx);
    return node ? node->subtree
                : emptySubtreeByLevel_[geo_.levelOf(idx)];
}

bool
MerkleTree::verifySlice(LeafLabel label, unsigned start_level,
                        std::span<const mem::Bucket> buckets)
{
    verifies_.inc();
    fp_assert(buckets.size() == geo_.numLevels() - start_level,
              "verifySlice: slice size mismatch");

    // Recompute the root bottom-up: fetched levels hash the supplied
    // buckets; retained levels use their stored (previously
    // authenticated) bucket digests; off-path children use stored
    // subtree digests.
    slice_.resize(buckets.size());
    Digest below = 0;
    for (unsigned level = geo_.numLevels(); level-- > 0;) {
        BucketIndex idx = geo_.bucketAt(label, level);
        Digest bd;
        if (level >= start_level) {
            bd = hashBucket(buckets[level - start_level]);
            slice_[level - start_level] = BucketDigest{idx, bd};
        } else {
            bd = bucketDigest(idx);
        }
        Digest d;
        if (level == geo_.leafLevel()) {
            d = combine(bd, 0, 0);
        } else {
            BucketIndex on_path = geo_.bucketAt(label, level + 1);
            BucketIndex left = 2 * idx + 1;
            BucketIndex right = 2 * idx + 2;
            Digest ld =
                left == on_path ? below : subtreeDigest(left);
            Digest rd =
                right == on_path ? below : subtreeDigest(right);
            d = combine(bd, ld, rd);
        }
        below = d;
    }

    if (below != root_) {
        failures_.inc();
        return false;
    }

    // Accepted: cache the fetched buckets' digests so later partial
    // verifications of retained levels can trust them.
    for (unsigned level = start_level; level < geo_.numLevels();
         ++level) {
        const BucketDigest &bd = slice_[level - start_level];
        nodes_
            .insert(bd.bucket,
                    Node{emptyBucket_, emptySubtreeByLevel_[level]})
            .bucket = bd.digest;
    }
    return true;
}

void
MerkleTree::updateBucket(BucketIndex idx, const mem::Bucket &bucket)
{
    const BucketDigest update{idx, hashBucket(bucket)};
    updateBuckets({&update, 1});
}

void
MerkleTree::updateSlice(LeafLabel label, unsigned start_level,
                        std::span<const mem::Bucket> buckets)
{
    fp_assert(buckets.size() == geo_.numLevels() - start_level,
              "updateSlice: slice size mismatch");
    // Heap indices grow with depth, so the slice is already ascending.
    slice_.clear();
    for (unsigned level = start_level; level < geo_.numLevels(); ++level)
        slice_.push_back({geo_.bucketAt(label, level),
                          hashBucket(buckets[level - start_level])});
    updateBuckets(slice_);
}

void
MerkleTree::updateBuckets(std::span<const BucketDigest> updates)
{
    if (updates.empty())
        return;
    for (std::size_t u = 1; u < updates.size(); ++u)
        fp_assert(updates[u - 1].bucket < updates[u].bucket,
                  "updateBuckets: buckets not strictly ascending");
    fp_assert(updates.back().bucket < geo_.numBuckets(),
              "updateBuckets: bad index");

    // Derive level by level from the deepest update up. The nodes of
    // a level are its updated buckets merged with the parents of the
    // level below; a child's subtree digest comes from the level
    // below when it was derived there, else from the stored digest
    // of the untouched sibling. Every node is written once.
    childLevel_.clear();
    std::size_t end = updates.size(); // updates[0, end) not yet used
    for (unsigned level = geo_.levelOf(updates.back().bucket) + 1;
         level-- > 0;) {
        const BucketIndex level_first = (BucketIndex{1} << level) - 1;
        std::size_t u = end;
        while (u > 0 && updates[u - 1].bucket >= level_first)
            --u;
        const std::size_t level_updates = u;

        level_.clear();
        std::size_t c = 0;
        auto child = [&](BucketIndex idx) {
            if (c < childLevel_.size() && childLevel_[c].bucket == idx)
                return childLevel_[c++].digest;
            return subtreeDigest(idx);
        };
        while (u < end || c < childLevel_.size()) {
            BucketIndex idx;
            if (c < childLevel_.size() &&
                (u == end ||
                 (childLevel_[c].bucket - 1) / 2 <= updates[u].bucket))
                idx = (childLevel_[c].bucket - 1) / 2;
            else
                idx = updates[u].bucket;
            // child() only looks nodes up, so this reference
            // outlives no insertion.
            Node &node = nodes_.insert(
                idx, Node{emptyBucket_, emptySubtreeByLevel_[level]});
            if (u < end && updates[u].bucket == idx)
                node.bucket = updates[u++].digest;
            if (level == geo_.leafLevel()) {
                node.subtree = combine(node.bucket, 0, 0);
            } else {
                const Digest left = child(2 * idx + 1);
                const Digest right = child(2 * idx + 2);
                node.subtree = combine(node.bucket, left, right);
            }
            level_.push_back({idx, node.subtree});
        }
        childLevel_.swap(level_);
        end = level_updates;
    }
    root_ = childLevel_.front().digest;

    // Keep only path-sized scratch, so a bulk update's level lists do
    // not hold memory for the tree's lifetime.
    if (childLevel_.capacity() > geo_.numLevels() ||
        level_.capacity() > geo_.numLevels()) {
        childLevel_ = std::vector<BucketDigest>();
        level_ = std::vector<BucketDigest>();
    }
}

} // namespace fp::oram
