/**
 * @file
 * Functional model of the untrusted external memory holding the ORAM
 * tree.
 *
 * Two properties make the paper's 4 GB / L=24 configuration feasible
 * in a unit test or benchmark process:
 *
 *  1. The plaintext store keeps a record only for a bucket that holds
 *     a real block. A bucket never written, or last written with no
 *     real block, occupies no host memory and reads back all-dummy,
 *     so memory use is bounded by the blocks resident in the tree,
 *     not by the 2^25 - 1 buckets of the full tree. Records have a
 *     fixed size (occupancy, Z (addr, leaf) pairs and, only when
 *     payloadBytes > 0, Z payload slots), sit in a dense slab that
 *     grows in fixed-size chunks, and are found through an
 *     open-addressing index.
 *  2. Encryption is optional. With a cipher attached, every bucket is
 *     serialised and sealed with counter-mode SPECK on write and
 *     unsealed on read — the full functional crypto path. The sealed
 *     store keeps every bucket ever written, empty ones included,
 *     because a ciphertext must not reveal its bucket's occupancy.
 *     Timing-only simulations detach the cipher.
 *
 * Payloads are stored as payloadBytes bytes per block: a shorter
 * payload reads back zero-padded, and a block written to a store with
 * payloadBytes = 0 reads back without one.
 *
 * The store also counts reads/writes per bucket so tests can verify
 * access-pattern claims (e.g. that path merging never touches the
 * overlapped buckets).
 */

#ifndef FP_MEM_TREE_STORE_HH
#define FP_MEM_TREE_STORE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/counter_mode.hh"
#include "mem/bucket.hh"
#include "mem/tree_geometry.hh"
#include "util/stats.hh"

namespace fp::mem
{

class TreeStore
{
  public:
    /**
     * @param geo          Tree shape.
     * @param z            Slots per bucket, at most Bucket::maxZ.
     * @param payload_bytes Block payload size stored per slot.
     * @param encrypt      Attach the counter-mode cipher.
     * @param key_seed     Cipher key seed (ignored unless encrypting).
     */
    TreeStore(const TreeGeometry &geo, unsigned z,
              std::size_t payload_bytes, bool encrypt = false,
              std::uint64_t key_seed = 0x5eed);

    /** Read (and decrypt) the bucket at @p idx. */
    Bucket readBucket(BucketIndex idx);

    /** Encrypt and write the bucket at @p idx. */
    void writeBucket(BucketIndex idx, const Bucket &bucket);

    const TreeGeometry &geometry() const { return geo_; }
    unsigned z() const { return z_; }
    std::size_t payloadBytes() const { return payloadBytes_; }
    bool encrypted() const { return cipher_ != nullptr; }

    /** Buckets that hold host memory: plaintext buckets with a real
     *  block, or every sealed bucket ever written. */
    std::size_t materializedBuckets() const;

    /** Total real blocks resident in the tree (walks the store). */
    std::uint64_t residentBlocks() const;

    std::uint64_t readCount() const { return reads_.value(); }
    std::uint64_t writeCount() const { return writes_.value(); }

    /** Raw ciphertext bytes of a bucket, for tamper-visibility tests;
     *  empty when the bucket is unmaterialised or store is plain. */
    std::vector<std::uint8_t> rawCiphertext(BucketIndex idx) const;

    fp::StatGroup &stats() { return stats_; }

  private:
    /** Open-addressing index entry: a bucket and its record number. */
    struct IndexSlot
    {
        BucketIndex bucket;
        std::size_t record;
    };

    std::vector<std::uint8_t> serialize(const Bucket &bucket) const;
    Bucket deserialize(const std::vector<std::uint8_t> &bytes) const;

    /** Index position holding @p idx, or npos. */
    std::size_t findSlot(BucketIndex idx) const;
    /** Home position of @p idx in the index. */
    std::size_t homeSlot(BucketIndex idx) const;
    /** Words of record @p r in the slab. */
    std::span<std::uint64_t> record(std::size_t r);
    std::span<const std::uint64_t> record(std::size_t r) const;
    /** Append a record for @p idx and index it; returns its slot. */
    std::size_t addRecord(BucketIndex idx);
    /** Unindex the record at index slot @p slot and close the gap it
     *  leaves in the slab with the last record. */
    void eraseRecord(std::size_t slot);
    void fillRecord(std::span<std::uint64_t> rec,
                    const Bucket &bucket) const;
    void growIndex();

    TreeGeometry geo_;
    unsigned z_;
    std::size_t payloadBytes_;

    /** Plaintext store (no cipher): the record index, a power-of-two
     *  table with linear probing ... */
    std::vector<IndexSlot> index_;
    /** ... and the dense record slab, in chunks of
     *  2^chunkShift_ records of recordWords_ words each. */
    std::vector<std::vector<std::uint64_t>> chunks_;
    std::size_t records_ = 0;
    std::size_t recordWords_;
    unsigned chunkShift_;

    /** Ciphertext store (cipher attached). */
    std::unordered_map<BucketIndex, crypto::SealedBlock> sealed_;
    std::unique_ptr<crypto::CounterModeCipher> cipher_;

    fp::Counter reads_;
    fp::Counter writes_;
    fp::StatGroup stats_;
};

} // namespace fp::mem

#endif // FP_MEM_TREE_STORE_HH
