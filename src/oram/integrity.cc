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
    auto it = nodes_.find(idx);
    return it == nodes_.end() ? emptyBucket_ : it->second.bucket;
}

MerkleTree::Digest
MerkleTree::subtreeDigest(BucketIndex idx) const
{
    auto it = nodes_.find(idx);
    if (it != nodes_.end())
        return it->second.subtree;
    return emptySubtreeByLevel_[geo_.levelOf(idx)];
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
    Digest below = 0;
    for (unsigned level = geo_.numLevels(); level-- > 0;) {
        BucketIndex idx = geo_.bucketAt(label, level);
        Digest bd = level >= start_level
                        ? hashBucket(buckets[level - start_level])
                        : bucketDigest(idx);
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
        BucketIndex idx = geo_.bucketAt(label, level);
        auto it = nodes_
                      .try_emplace(idx,
                                   Node{emptyBucket_,
                                        emptySubtreeByLevel_[level]})
                      .first;
        it->second.bucket = hashBucket(buckets[level - start_level]);
    }
    return true;
}

void
MerkleTree::updateBucket(BucketIndex idx, const mem::Bucket &bucket)
{
    unsigned level = geo_.levelOf(idx);
    auto it = nodes_
                  .try_emplace(idx, Node{emptyBucket_,
                                         emptySubtreeByLevel_[level]})
                  .first;
    it->second.bucket = hashBucket(bucket);

    // Re-derive subtree digests along the ancestor chain.
    BucketIndex i = idx;
    for (;;) {
        Node &node =
            nodes_
                .try_emplace(i, Node{emptyBucket_,
                                     emptySubtreeByLevel_
                                         [geo_.levelOf(i)]})
                .first->second;
        if (geo_.levelOf(i) == geo_.leafLevel()) {
            node.subtree = combine(node.bucket, 0, 0);
        } else {
            node.subtree = combine(node.bucket,
                                   subtreeDigest(2 * i + 1),
                                   subtreeDigest(2 * i + 2));
        }
        if (i == 0)
            break;
        i = (i - 1) / 2;
    }
    root_ = subtreeDigest(0);
}

void
MerkleTree::updateSlice(LeafLabel label, unsigned start_level,
                        std::span<const mem::Bucket> buckets)
{
    fp_assert(buckets.size() == geo_.numLevels() - start_level,
              "updateSlice: slice size mismatch");

    for (unsigned level = geo_.numLevels(); level-- > 0;) {
        BucketIndex idx = geo_.bucketAt(label, level);
        Node &node = nodes_.try_emplace(idx,
                                        Node{emptyBucket_,
                                             emptySubtreeByLevel_
                                                 [level]})
                         .first->second;
        if (level >= start_level)
            node.bucket = hashBucket(buckets[level - start_level]);
        if (level == geo_.leafLevel()) {
            node.subtree = combine(node.bucket, 0, 0);
        } else {
            node.subtree = combine(node.bucket,
                                   subtreeDigest(2 * idx + 1),
                                   subtreeDigest(2 * idx + 2));
        }
    }
    root_ = subtreeDigest(0);
}

} // namespace fp::oram
