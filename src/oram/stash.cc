#include "oram/stash.hh"

#include <algorithm>
#include <array>

#include "obs/request_profiler.hh"
#include "util/logging.hh"

namespace fp::oram
{

Stash::Stash(const mem::TreeGeometry &geo, std::size_t capacity)
    : geo_(geo), capacity_(capacity), occupancyHist_(128, 4.0)
{
}

mem::Block *
Stash::find(BlockAddr addr)
{
    auto it = blocks_.find(addr);
    return it == blocks_.end() ? nullptr : &it->second;
}

const mem::Block *
Stash::find(BlockAddr addr) const
{
    auto it = blocks_.find(addr);
    return it == blocks_.end() ? nullptr : &it->second;
}

void
Stash::insert(mem::Block block)
{
    fp_assert(block.valid(), "stash: inserting dummy block");
    fp_assert(geo_.validLeaf(block.leaf), "stash: bad leaf label");
    fp_assert(blocks_.count(block.addr) == 0,
              "stash: duplicate insert of addr %llu",
              static_cast<unsigned long long>(block.addr));
    blocks_[block.addr] = std::move(block);
    peak_ = std::max(peak_, blocks_.size());
}

bool
Stash::insertOrIgnore(mem::Block block)
{
    if (blocks_.count(block.addr) > 0)
        return false;
    insert(std::move(block));
    return true;
}

mem::Block
Stash::take(BlockAddr addr)
{
    auto it = blocks_.find(addr);
    fp_assert(it != blocks_.end(), "stash: take of absent block");
    mem::Block out = std::move(it->second);
    blocks_.erase(it);
    return out;
}

mem::Bucket
Stash::evictForBucket(LeafLabel path_label, unsigned level,
                      unsigned max_blocks)
{
    mem::Bucket out(max_blocks);
    if (max_blocks == 0)
        return out;
    // Candidate selection must not depend on unordered_map iteration
    // order (which varies across standard libraries and across runs
    // under ASLR-keyed hashing): take the max_blocks lowest eligible
    // addresses, kept sorted in a fixed array, so eviction — and
    // everything downstream of it — is a pure function of the
    // simulation state. Erasing one map entry leaves the iterators to
    // the others valid.
    using It = decltype(blocks_)::iterator;
    std::array<It, mem::Bucket::maxZ> pick;
    unsigned picked = 0;
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (!geo_.canReside(it->second.leaf, path_label, level))
            continue;
        if (picked == max_blocks && pick[picked - 1]->first < it->first)
            continue;
        unsigned pos = picked < max_blocks ? picked++ : picked - 1;
        for (; pos > 0 && pick[pos - 1]->first > it->first; --pos)
            pick[pos] = pick[pos - 1];
        pick[pos] = it;
    }
    for (unsigned i = 0; i < picked; ++i) {
        out.add(std::move(pick[i]->second));
        blocks_.erase(pick[i]);
    }
    if (prof_)
        prof_->sampleEvictedPerBucket(out.occupancy());
    return out;
}

void
Stash::recordOccupancy()
{
    occupancyHist_.sample(static_cast<double>(blocks_.size()));
    if (overCapacity())
        overflows_.inc();
    if (trc_ && trc_->on(obs::TraceLevel::access)) {
        trc_->counter(obs::Track::stash, "stash_occupancy", "blocks",
                      static_cast<double>(blocks_.size()));
        if (overCapacity())
            trc_->instant(obs::Track::stash, "stash_overflow",
                          {obs::TraceArg::num("blocks",
                                              blocks_.size())});
    }
}

} // namespace fp::oram
