/**
 * @file
 * A flat open-addressing table from 64-bit keys (bucket indices) to
 * small values: a power-of-two array of (key, value) slots probed
 * linearly from a multiplicative hash of the key, doubled before an
 * insertion would take it past half load. The tree store's record
 * index, the Merkle tree's node digests and the bulk load's bucket
 * occupancy counts live in one each.
 *
 * An insertion can grow the table and move every entry, so a pointer
 * or reference to a value is valid only until the next insertion.
 */

#ifndef FP_UTIL_FLAT_TABLE_HH
#define FP_UTIL_FLAT_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace fp
{

template <typename Value>
class FlatTable
{
  public:
    /** The one key the table cannot hold: it marks an empty slot. */
    static constexpr std::uint64_t noKey =
        std::numeric_limits<std::uint64_t>::max();

    /** The value of @p key, or nullptr when the key is absent. */
    const Value *
    find(std::uint64_t key) const
    {
        if (slots_.empty())
            return nullptr;
        const Slot &slot = slots_[probe(key)];
        return slot.key == key ? &slot.value : nullptr;
    }

    Value *
    find(std::uint64_t key)
    {
        return const_cast<Value *>(std::as_const(*this).find(key));
    }

    /** The value of @p key, inserted as @p init if the key is absent. */
    Value &
    insert(std::uint64_t key, const Value &init)
    {
        fp_assert(key != noKey, "FlatTable: the empty-slot key");
        if (Value *value = find(key))
            return *value;
        if (2 * (size_ + 1) > slots_.size())
            grow();
        Slot &slot = slots_[probe(key)];
        slot = Slot{key, init};
        ++size_;
        return slot.value;
    }

    /** Remove @p key; its value, or nullopt if the key was absent. */
    std::optional<Value>
    erase(std::uint64_t key)
    {
        if (slots_.empty())
            return std::nullopt;
        std::size_t hole = probe(key);
        if (slots_[hole].key != key)
            return std::nullopt;
        std::optional<Value> value(std::move(slots_[hole].value));
        // Backward-shift deletion: walk the probe run after the hole
        // and pull back every entry whose home does not lie
        // cyclically in (hole, position], so that no lookup stops
        // early at the hole.
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t s = (hole + 1) & mask; slots_[s].key != noKey;
             s = (s + 1) & mask) {
            const std::size_t home = homeSlot(slots_[s].key);
            const bool stays = hole <= s ? (hole < home && home <= s)
                                         : (hole < home || home <= s);
            if (!stays) {
                slots_[hole] = std::move(slots_[s]);
                hole = s;
            }
        }
        slots_[hole].key = noKey;
        --size_;
        return value;
    }

  private:
    struct Slot
    {
        std::uint64_t key = noKey;
        Value value{};
    };

    static constexpr std::size_t minSlots = 64;

    std::size_t
    homeSlot(std::uint64_t key) const
    {
        std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
        return static_cast<std::size_t>(h) & (slots_.size() - 1);
    }

    /** The slot holding @p key, else the empty slot ending its run. */
    std::size_t
    probe(std::uint64_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t s = homeSlot(key);
        while (slots_[s].key != key && slots_[s].key != noKey)
            s = (s + 1) & mask;
        return s;
    }

    void
    grow()
    {
        std::vector<Slot> old(std::max(minSlots, 2 * slots_.size()));
        old.swap(slots_);
        for (const Slot &slot : old) {
            if (slot.key != noKey)
                slots_[probe(slot.key)] = slot;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace fp

#endif // FP_UTIL_FLAT_TABLE_HH
