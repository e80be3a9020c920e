#include "mem/tree_store.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/logging.hh"

namespace fp::mem
{

namespace
{

/** Index slot marker: no bucket (never a valid heap index). */
constexpr BucketIndex noBucket = std::numeric_limits<BucketIndex>::max();
constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

/** Record words: [0] bucket index, [1] occupancy, then Z (addr, leaf)
 *  pairs, then Z payload slots rounded up to whole words. */
constexpr std::size_t ownerWord = 0;
constexpr std::size_t occupancyWord = 1;
constexpr std::size_t pairsWord = 2;

/** Target slab chunk size; a chunk holds a power of two of records. */
constexpr std::size_t chunkBytes = 64 * 1024;
constexpr std::size_t minIndexSlots = 64;

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
    recordWords_ = pairsWord + 2 * std::size_t{z} +
                   (std::size_t{z} * payloadBytes_ + 7) / 8;
    chunkShift_ = 0;
    while ((std::size_t{2} << chunkShift_) * recordWords_ * 8 <=
           chunkBytes)
        ++chunkShift_;
    if (encrypt)
        cipher_ = std::make_unique<crypto::CounterModeCipher>(key_seed);
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
    if (cipher_) {
        auto it = sealed_.find(idx);
        if (it != sealed_.end())
            bucket = deserialize(cipher_->decrypt(it->second));
        return bucket;
    }
    std::size_t slot = findSlot(idx);
    if (slot == npos)
        return bucket;
    std::span<const std::uint64_t> rec = record(index_[slot].record);
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
    writes_.inc();
    if (cipher_) {
        sealed_[idx] = cipher_->encrypt(serialize(bucket), idx);
        return;
    }
    std::size_t slot = findSlot(idx);
    if (bucket.empty()) {
        if (slot != npos)
            eraseRecord(slot);
        return;
    }
    if (slot == npos)
        slot = addRecord(idx);
    fillRecord(record(index_[slot].record), bucket);
}

std::size_t
TreeStore::materializedBuckets() const
{
    return cipher_ ? sealed_.size() : records_;
}

std::uint64_t
TreeStore::residentBlocks() const
{
    std::uint64_t total = 0;
    if (cipher_) {
        for (const auto &[idx, sb] : sealed_) {
            Bucket b = deserialize(cipher_->decrypt(sb));
            total += b.occupancy();
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
    auto it = sealed_.find(idx);
    if (it == sealed_.end())
        return {};
    return it->second.bytes;
}

std::size_t
TreeStore::homeSlot(BucketIndex idx) const
{
    std::uint64_t h = idx * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h) & (index_.size() - 1);
}

std::size_t
TreeStore::findSlot(BucketIndex idx) const
{
    if (index_.empty())
        return npos;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t s = homeSlot(idx);; s = (s + 1) & mask) {
        if (index_[s].bucket == idx)
            return s;
        if (index_[s].bucket == noBucket)
            return npos;
    }
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
    if (2 * (records_ + 1) > index_.size())
        growIndex();
    if ((records_ >> chunkShift_) == chunks_.size())
        chunks_.emplace_back(recordWords_ << chunkShift_);
    const std::size_t r = records_++;
    record(r)[ownerWord] = idx;

    const std::size_t mask = index_.size() - 1;
    std::size_t s = homeSlot(idx);
    while (index_[s].bucket != noBucket)
        s = (s + 1) & mask;
    index_[s] = IndexSlot{idx, r};
    return s;
}

void
TreeStore::eraseRecord(std::size_t slot)
{
    const std::size_t r = index_[slot].record;

    // Backward-shift deletion: walk the probe run after the hole and
    // pull back every entry whose home does not lie cyclically in
    // (hole, position], so lookups never stop early at the hole.
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = slot;
    for (std::size_t s = (hole + 1) & mask; index_[s].bucket != noBucket;
         s = (s + 1) & mask) {
        std::size_t home = homeSlot(index_[s].bucket);
        bool stays = hole <= s ? (hole < home && home <= s)
                               : (hole < home || home <= s);
        if (!stays) {
            index_[hole] = index_[s];
            hole = s;
        }
    }
    index_[hole].bucket = noBucket;

    // Keep the slab dense: the last record moves into the freed one.
    const std::size_t last = --records_;
    if (r != last) {
        std::span<const std::uint64_t> from = record(last);
        std::copy(from.begin(), from.end(), record(r).begin());
        index_[findSlot(from[ownerWord])].record = r;
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
        fp_assert(blk.payload.size() <= payloadBytes_,
                  "writeBucket: %zu-byte payload exceeds the store's "
                  "%zu bytes (addr %llu)",
                  blk.payload.size(), payloadBytes_,
                  static_cast<unsigned long long>(blk.addr));
        pairs[2 * s] = blk.addr;
        pairs[2 * s + 1] = blk.leaf;
        if (!blk.payload.empty())
            std::memcpy(bytes + s * payloadBytes_, blk.payload.data(),
                        blk.payload.size());
        ++s;
    }
}

void
TreeStore::growIndex()
{
    std::vector<IndexSlot> old = std::move(index_);
    index_.assign(std::max(minIndexSlots, 2 * old.size()),
                  IndexSlot{noBucket, 0});
    const std::size_t mask = index_.size() - 1;
    for (const IndexSlot &e : old) {
        if (e.bucket == noBucket)
            continue;
        std::size_t s = homeSlot(e.bucket);
        while (index_[s].bucket != noBucket)
            s = (s + 1) & mask;
        index_[s] = e;
    }
}

std::vector<std::uint8_t>
TreeStore::serialize(const Bucket &bucket) const
{
    // Fixed layout independent of occupancy, Z slots of
    // (addr, leaf, payload); unused slots are dummies with
    // invalidBlockAddr. A fixed size is essential: ciphertext length
    // must not reveal how many real blocks the bucket holds.
    const std::size_t slot = 16 + payloadBytes_;
    std::vector<std::uint8_t> out(slot * z_, 0);
    auto put64 = [&out](std::size_t off, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            out[off + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(v >> (8 * i));
    };
    unsigned s = 0;
    for (const auto &blk : bucket.blocks()) {
        std::size_t base = slot * s++;
        put64(base, blk.addr);
        put64(base + 8, blk.leaf);
        for (std::size_t i = 0;
             i < payloadBytes_ && i < blk.payload.size(); ++i)
            out[base + 16 + i] = blk.payload[i];
    }
    for (; s < z_; ++s)
        put64(slot * s, invalidBlockAddr);
    return out;
}

Bucket
TreeStore::deserialize(const std::vector<std::uint8_t> &bytes) const
{
    const std::size_t slot = 16 + payloadBytes_;
    fp_assert(bytes.size() == slot * z_,
              "deserialize: bad bucket image size");
    auto get64 = [&bytes](std::size_t off) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     bytes[off + static_cast<std::size_t>(i)])
                 << (8 * i);
        return v;
    };
    Bucket bucket(z_);
    for (unsigned s = 0; s < z_; ++s) {
        std::size_t base = slot * s;
        std::uint64_t addr = get64(base);
        if (addr == invalidBlockAddr)
            continue;
        Block blk;
        blk.addr = addr;
        blk.leaf = get64(base + 8);
        blk.payload.assign(bytes.begin() +
                               static_cast<std::ptrdiff_t>(base + 16),
                           bytes.begin() +
                               static_cast<std::ptrdiff_t>(base + 16 +
                                                           payloadBytes_));
        bucket.add(std::move(blk));
    }
    return bucket;
}

} // namespace fp::mem
