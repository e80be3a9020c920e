/**
 * @file
 * Functional model of the untrusted external memory holding the ORAM
 * tree.
 *
 * Two properties make the paper's 4 GB / L=24 configuration feasible
 * in a unit test or benchmark process:
 *
 *  1. Buckets are fixed-size records in a dense slab that grows in
 *     fixed-size chunks, found through an open-addressing index
 *     (util/flat_table.hh). The plaintext store keeps a record only
 *     for a bucket that holds a real block: a bucket never written,
 *     or last written with no real block, occupies no host memory and
 *     reads back all-dummy, so memory use is bounded by the blocks
 *     resident in the tree, not by the 2^25 - 1 buckets of the full
 *     tree. A plaintext record holds the occupancy, Z (addr, leaf)
 *     pairs and, only when payloadBytes > 0, Z payload slots.
 *  2. Encryption is optional. With a cipher attached, every record is
 *     a sealed bucket: its owner (also the nonce), the counter it was
 *     sealed under, and the bucket image, Z slots of (addr, leaf,
 *     payloadBytes payload bytes) with dummies marked by
 *     invalidBlockAddr, sealed in place with counter-mode SPECK on
 *     write and unsealed into a scratch buffer on read: the full
 *     functional crypto path. The image has the same size whatever
 *     the occupancy, and the sealed store keeps the record of every
 *     bucket ever written, empty ones included, because a ciphertext
 *     must not reveal its bucket's occupancy. Timing-only simulations
 *     detach the cipher.
 *
 * Payloads are stored as payloadBytes bytes per block: a shorter
 * payload reads back zero-padded and a longer one is fatal, so a
 * store with payloadBytes = 0 holds blocks without payloads.
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
#include <vector>

#include "crypto/counter_mode.hh"
#include "mem/bucket.hh"
#include "mem/tree_geometry.hh"
#include "util/flat_table.hh"
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

    /** Total real blocks resident in the tree (walks the store; a
     *  sealed store unseals every record). */
    std::uint64_t residentBlocks() const;

    std::uint64_t readCount() const { return reads_.value(); }
    std::uint64_t writeCount() const { return writes_.value(); }

    /** Raw ciphertext bytes of a bucket, for tamper-visibility tests;
     *  empty when the bucket is unmaterialised or store is plain. */
    std::vector<std::uint8_t> rawCiphertext(BucketIndex idx) const;

    fp::StatGroup &stats() { return stats_; }

  private:
    /** Words of record @p r in the slab. */
    std::span<std::uint64_t> record(std::size_t r);
    std::span<const std::uint64_t> record(std::size_t r) const;
    /** Append a record for @p idx and index it; returns its number. */
    std::size_t addRecord(BucketIndex idx);
    /** Close the gap unindexed record @p r leaves in the slab with
     *  the last record. */
    void dropRecord(std::size_t r);
    void fillRecord(std::span<std::uint64_t> rec,
                    const Bucket &bucket) const;
    /** Write @p bucket's image into sealed record @p rec and seal
     *  it under the record's owner and a fresh counter. */
    void sealRecord(std::span<std::uint64_t> rec, const Bucket &bucket);
    /** Decrypt sealed record @p r's image into @p image. */
    void unsealRecord(std::size_t r,
                      std::span<std::uint8_t> image) const;

    TreeGeometry geo_;
    unsigned z_;
    std::size_t payloadBytes_;

    /** Record number of each bucket that has one ... */
    FlatTable<std::size_t> index_;
    /** ... and the dense record slab, in chunks of
     *  2^chunkShift_ records of recordWords_ words each. */
    std::vector<std::vector<std::uint64_t>> chunks_;
    std::size_t records_ = 0;
    std::size_t recordWords_;
    unsigned chunkShift_;

    /** Sealed store only: the cipher, the bytes of a bucket image,
     *  and readBucket's buffer for one unsealed image. */
    std::unique_ptr<crypto::CounterModeCipher> cipher_;
    std::size_t imageBytes_ = 0;
    std::vector<std::uint64_t> scratch_;

    fp::Counter reads_;
    fp::Counter writes_;
    fp::StatGroup stats_;
};

} // namespace fp::mem

#endif // FP_MEM_TREE_STORE_HH
