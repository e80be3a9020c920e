#include "mem/tree_store.hh"

#include <algorithm>
#include <cstring>
#include <optional>

#include "util/logging.hh"

namespace fp::mem
{

namespace
{

/** Record words: [0] bucket index, then, in a plaintext record,
 *  [1] occupancy, Z (addr, leaf) pairs and Z payload slots rounded up
 *  to whole words; in a sealed record, [1] the counter it was sealed
 *  under and the sealed bucket image rounded up to whole words. */
constexpr std::size_t ownerWord = 0;
constexpr std::size_t occupancyWord = 1;
constexpr std::size_t pairsWord = 2;
constexpr std::size_t counterWord = 1;
constexpr std::size_t imageWord = 2;

/** A bucket image slot: addr, leaf, then the payload bytes. */
constexpr std::size_t slotHeaderBytes = 16;

/** Target slab chunk size; a chunk holds a power of two of records. */
constexpr std::size_t chunkBytes = 64 * 1024;

/** The image's words are little-endian whatever the host's order. */
void
storeWord(std::uint8_t *at, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
loadWord(const std::uint8_t *at)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(at[i]) << (8 * i);
    return v;
}

} // anonymous namespace

TreeStore::TreeStore(const TreeGeometry &geo, unsigned z,
                     std::size_t payload_bytes, bool encrypt,
                     std::uint64_t key_seed)
    : geo_(geo), z_(z), payloadBytes_(payload_bytes),
      stats_("tree_store")
{
    if (z == 0 || z > Bucket::maxZ)
        fp_fatal("TreeStore: Z=%u outside [1, %u] (bucket slots are "
                 "held inline)",
                 z, Bucket::maxZ);
    if (encrypt) {
        cipher_ = std::make_unique<crypto::CounterModeCipher>(key_seed);
        imageBytes_ = std::size_t{z} * (slotHeaderBytes + payloadBytes_);
        scratch_.resize((imageBytes_ + 7) / 8);
        recordWords_ = imageWord + scratch_.size();
    } else {
        recordWords_ = pairsWord + 2 * std::size_t{z} +
                       (std::size_t{z} * payloadBytes_ + 7) / 8;
    }
    chunkShift_ = 0;
    while ((std::size_t{2} << chunkShift_) * recordWords_ * 8 <=
           chunkBytes)
        ++chunkShift_;
    stats_.regCounter("reads", reads_, "bucket reads");
    stats_.regCounter("writes", writes_, "bucket writes");
}

Bucket
TreeStore::readBucket(BucketIndex idx)
{
    fp_assert(idx < geo_.numBuckets(), "readBucket: bad index");
    reads_.inc();
    // One named result on every path, so it is built in place.
    Bucket bucket(z_);
    const std::size_t *r = index_.find(idx);
    if (!r)
        return bucket;
    if (cipher_) {
        std::span<std::uint8_t> image(
            reinterpret_cast<std::uint8_t *>(scratch_.data()),
            imageBytes_);
        unsealRecord(*r, image);
        const std::size_t slot_bytes = slotHeaderBytes + payloadBytes_;
        for (unsigned s = 0; s < z_; ++s) {
            const std::uint8_t *slot = image.data() + s * slot_bytes;
            const BlockAddr addr = loadWord(slot);
            if (addr == invalidBlockAddr)
                continue;
            Block blk(addr, loadWord(slot + 8));
            const std::uint8_t *payload = slot + slotHeaderBytes;
            blk.payload.assign(payload, payload + payloadBytes_);
            bucket.add(std::move(blk));
        }
        return bucket;
    }
    std::span<const std::uint64_t> rec = record(*r);
    const auto *payload = reinterpret_cast<const std::uint8_t *>(
        rec.subspan(pairsWord + 2 * z_).data());
    for (std::size_t s = 0; s < rec[occupancyWord]; ++s) {
        Block blk(rec[pairsWord + 2 * s], rec[pairsWord + 2 * s + 1]);
        const std::uint8_t *bytes = payload + s * payloadBytes_;
        blk.payload.assign(bytes, bytes + payloadBytes_);
        bucket.add(std::move(blk));
    }
    return bucket;
}

void
TreeStore::writeBucket(BucketIndex idx, const Bucket &bucket)
{
    fp_assert(idx < geo_.numBuckets(), "writeBucket: bad index");
    fp_assert(bucket.occupancy() <= z_, "writeBucket: overfull bucket");
    for (const Block &blk : bucket.blocks())
        fp_assert(blk.payload.size() <= payloadBytes_,
                  "writeBucket: %zu-byte payload exceeds the store's "
                  "%zu bytes (addr %llu)",
                  blk.payload.size(), payloadBytes_,
                  static_cast<unsigned long long>(blk.addr));
    writes_.inc();
    // A sealed bucket keeps its record when it empties: its
    // ciphertext must not reveal its occupancy.
    if (!cipher_ && bucket.empty()) {
        if (std::optional<std::size_t> r = index_.erase(idx))
            dropRecord(*r);
        return;
    }
    const std::size_t *r = index_.find(idx);
    std::span<std::uint64_t> rec = record(r ? *r : addRecord(idx));
    if (cipher_)
        sealRecord(rec, bucket);
    else
        fillRecord(rec, bucket);
}

std::size_t
TreeStore::materializedBuckets() const
{
    return records_;
}

std::uint64_t
TreeStore::residentBlocks() const
{
    std::uint64_t total = 0;
    if (cipher_) {
        std::vector<std::uint64_t> words(scratch_.size());
        std::span<std::uint8_t> image(
            reinterpret_cast<std::uint8_t *>(words.data()), imageBytes_);
        const std::size_t slot_bytes = slotHeaderBytes + payloadBytes_;
        for (std::size_t r = 0; r < records_; ++r) {
            unsealRecord(r, image);
            for (unsigned s = 0; s < z_; ++s)
                total += loadWord(image.data() + s * slot_bytes) !=
                         invalidBlockAddr;
        }
    } else {
        for (std::size_t r = 0; r < records_; ++r)
            total += record(r)[occupancyWord];
    }
    return total;
}

std::vector<std::uint8_t>
TreeStore::rawCiphertext(BucketIndex idx) const
{
    const std::size_t *r = cipher_ ? index_.find(idx) : nullptr;
    if (!r)
        return {};
    const auto *image = reinterpret_cast<const std::uint8_t *>(
        record(*r).subspan(imageWord).data());
    return std::vector<std::uint8_t>(image, image + imageBytes_);
}

std::span<std::uint64_t>
TreeStore::record(std::size_t r)
{
    return std::span<std::uint64_t>(chunks_[r >> chunkShift_])
        .subspan((r & ((std::size_t{1} << chunkShift_) - 1)) *
                     recordWords_,
                 recordWords_);
}

std::span<const std::uint64_t>
TreeStore::record(std::size_t r) const
{
    return std::span<const std::uint64_t>(chunks_[r >> chunkShift_])
        .subspan((r & ((std::size_t{1} << chunkShift_) - 1)) *
                     recordWords_,
                 recordWords_);
}

std::size_t
TreeStore::addRecord(BucketIndex idx)
{
    if ((records_ >> chunkShift_) == chunks_.size())
        chunks_.emplace_back(recordWords_ << chunkShift_);
    const std::size_t r = records_++;
    record(r)[ownerWord] = idx;
    index_.insert(idx, r);
    return r;
}

void
TreeStore::dropRecord(std::size_t r)
{
    // Keep the slab dense: the last record moves into the freed one.
    const std::size_t last = --records_;
    if (r != last) {
        std::span<const std::uint64_t> from = record(last);
        std::copy(from.begin(), from.end(), record(r).begin());
        *index_.find(from[ownerWord]) = r;
    }
}

void
TreeStore::fillRecord(std::span<std::uint64_t> rec,
                      const Bucket &bucket) const
{
    rec[occupancyWord] = bucket.occupancy();
    std::span<std::uint64_t> pairs = rec.subspan(pairsWord, 2 * z_);
    std::span<std::uint64_t> payload = rec.subspan(pairsWord + 2 * z_);
    std::fill(payload.begin(), payload.end(), 0);
    auto *bytes = reinterpret_cast<std::uint8_t *>(payload.data());
    std::size_t s = 0;
    for (const Block &blk : bucket.blocks()) {
        pairs[2 * s] = blk.addr;
        pairs[2 * s + 1] = blk.leaf;
        if (!blk.payload.empty())
            std::memcpy(bytes + s * payloadBytes_, blk.payload.data(),
                        blk.payload.size());
        ++s;
    }
}

void
TreeStore::sealRecord(std::span<std::uint64_t> rec, const Bucket &bucket)
{
    // Z slots whatever the occupancy: the real blocks in order, then
    // dummies (invalidBlockAddr, a zero leaf and zero payload bytes).
    std::span<std::uint64_t> words = rec.subspan(imageWord);
    std::fill(words.begin(), words.end(), 0);
    auto *image = reinterpret_cast<std::uint8_t *>(words.data());
    const std::size_t slot_bytes = slotHeaderBytes + payloadBytes_;
    unsigned s = 0;
    for (const Block &blk : bucket.blocks()) {
        std::uint8_t *slot = image + s++ * slot_bytes;
        storeWord(slot, blk.addr);
        storeWord(slot + 8, blk.leaf);
        if (!blk.payload.empty())
            std::memcpy(slot + slotHeaderBytes, blk.payload.data(),
                        blk.payload.size());
    }
    for (; s < z_; ++s)
        storeWord(image + s * slot_bytes, invalidBlockAddr);
    rec[counterWord] = cipher_->seal({image, imageBytes_}, rec[ownerWord]);
}

void
TreeStore::unsealRecord(std::size_t r,
                        std::span<std::uint8_t> image) const
{
    std::span<const std::uint64_t> rec = record(r);
    std::memcpy(image.data(), rec.subspan(imageWord).data(),
                imageBytes_);
    cipher_->unseal(image, rec[ownerWord], rec[counterWord]);
}

} // namespace fp::mem
