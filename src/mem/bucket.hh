/**
 * @file
 * A tree node's bucket: Z slots, each holding a real data block or a
 * dummy. In external memory every slot is occupied (dummies are
 * indistinguishable from data under probabilistic encryption); in the
 * software model we only store the real blocks and know Z.
 *
 * The slots live inline (Z <= maxZ) and only the occupied ones hold
 * constructed blocks, so building, copying, caching and reading a
 * bucket allocate nothing and cost nothing per empty slot; only a
 * block's own payload bytes, which timing runs leave empty, live on
 * the heap.
 */

#ifndef FP_MEM_BUCKET_HH
#define FP_MEM_BUCKET_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "mem/block.hh"

namespace fp::mem
{

class Bucket
{
  public:
    /** Compile-time bound on Z: the slots are held inline. */
    static constexpr unsigned maxZ = 8;

    Bucket() noexcept {}
    explicit Bucket(unsigned z);

    /** Copies and moves touch only the occupied slots; a moved-from
     *  bucket is empty. */
    Bucket(const Bucket &other);
    Bucket(Bucket &&other) noexcept;
    Bucket &operator=(const Bucket &other);
    Bucket &operator=(Bucket &&other) noexcept;
    ~Bucket() { clear(); }

    unsigned z() const { return z_; }

    /** Number of real data blocks currently held. */
    unsigned occupancy() const { return n_; }

    bool full() const { return n_ >= z_; }
    bool empty() const { return n_ == 0; }

    /** Add a real block; bucket must not be full. */
    void add(Block block);

    /** All real blocks in insertion order (dummies are implicit). */
    std::span<Block> blocks() { return {slots_, n_}; }
    std::span<const Block> blocks() const { return {slots_, n_}; }

    Block *begin() { return slots_; }
    Block *end() { return slots_ + n_; }
    const Block *begin() const { return slots_; }
    const Block *end() const { return slots_ + n_; }

    /** Remove the block at @p addr, keeping the others in order;
     *  nullopt if the bucket does not hold it. */
    std::optional<Block> take(BlockAddr addr);

    /** Drop all real blocks. */
    void
    clear()
    {
        std::destroy(begin(), end());
        n_ = 0;
    }

  private:
    unsigned n_ = 0;
    unsigned z_ = 4;
    /** Slots [0, n_) hold constructed blocks; the rest are storage. */
    union
    {
        Block slots_[maxZ];
    };
};

} // namespace fp::mem

#endif // FP_MEM_BUCKET_HH
