#include "mem/bucket.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace fp::mem
{

Bucket::Bucket(unsigned z) : z_(z)
{
    fp_assert(z <= maxZ, "bucket: Z=%u exceeds the inline bound %u", z,
              maxZ);
}

Bucket::Bucket(const Bucket &other) : z_(other.z_)
{
    for (const Block &blk : other) {
        std::construct_at(&slots_[n_], blk);
        ++n_;
    }
}

Bucket::Bucket(Bucket &&other) noexcept : z_(other.z_)
{
    for (Block &blk : other) {
        std::construct_at(&slots_[n_], std::move(blk));
        ++n_;
    }
    other.clear();
}

Bucket &
Bucket::operator=(const Bucket &other)
{
    if (this == &other)
        return *this;
    clear();
    z_ = other.z_;
    for (const Block &blk : other) {
        std::construct_at(&slots_[n_], blk);
        ++n_;
    }
    return *this;
}

Bucket &
Bucket::operator=(Bucket &&other) noexcept
{
    if (this == &other)
        return *this;
    clear();
    z_ = other.z_;
    for (Block &blk : other) {
        std::construct_at(&slots_[n_], std::move(blk));
        ++n_;
    }
    other.clear();
    return *this;
}

void
Bucket::add(Block block)
{
    fp_assert(!full(), "bucket overflow (Z=%u)", z_);
    fp_assert(block.valid(), "adding dummy block to bucket");
    std::construct_at(&slots_[n_], std::move(block));
    ++n_;
}

std::optional<Block>
Bucket::take(BlockAddr addr)
{
    Block *it = std::find_if(begin(), end(), [addr](const Block &blk) {
        return blk.addr == addr;
    });
    if (it == end())
        return std::nullopt;
    std::optional<Block> found = std::move(*it);
    std::move(it + 1, end(), it);
    std::destroy_at(&slots_[--n_]);
    return found;
}

} // namespace fp::mem
