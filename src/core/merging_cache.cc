#include "core/merging_cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace fp::core
{

MergingAwareCache::MergingAwareCache(const mem::TreeGeometry &geo,
                                     const MergingCacheParams &params)
    : geo_(geo), m1_(params.m1), ways_(params.bucketsPerSet),
      bucketBytes_(params.bucketBytes), z_(params.z)
{
    fp_assert(ways_ >= 1, "MAC: associativity must be >= 1");
    fp_assert(bucketBytes_ > 0, "MAC: zero bucket size");
    fp_assert(m1_ <= geo_.leafLevel(), "MAC: m1 beyond leaf level");

    std::uint64_t budget_frames = params.budgetBytes / bucketBytes_;
    fp_assert(budget_frames >= ways_, "MAC: budget below one set");

    // Allocate levels bottom-up from m1: full coverage (2^x frames)
    // while the budget lasts, then a partial region for the last
    // level from the remaining frames (rounded to whole sets).
    std::uint64_t used = 0;
    unsigned x = m1_;
    while (x <= geo_.leafLevel()) {
        std::uint64_t full = std::uint64_t{1} << x;
        std::uint64_t remaining = budget_frames - used;
        std::uint64_t alloc = std::min(full, remaining);
        alloc -= alloc % ways_;
        if (alloc == 0)
            break;
        levelBase_.push_back(used);
        levelAlloc_.push_back(alloc);
        used += alloc;
        ++x;
        if (alloc < full)
            break; // partial level terminates the band
    }
    fp_assert(!levelAlloc_.empty(),
              "MAC: budget cannot hold one set of level m1");
    m2_ = m1_ + static_cast<unsigned>(levelAlloc_.size()) - 1;
    capacity_ = used;

    std::uint64_t num_sets =
        std::max<std::uint64_t>(1, capacity_ / ways_);
    sets_.assign(num_sets, std::vector<Line>(ways_));

    // Pre-warm the fully-covered levels: the tree starts all-dummy
    // and the controller initialised it, so it legitimately knows
    // those buckets' (empty) contents. This models the post-warmup
    // steady state, mirroring the idealised treetop cache whose
    // pinned levels never pay a fill cost.
    for (unsigned lvl = m1_; lvl <= m2_; ++lvl) {
        std::uint64_t alloc = levelAlloc_[lvl - m1_];
        if (alloc != (std::uint64_t{1} << lvl))
            continue; // partial level stays cold
        for (std::uint64_t y = 0; y < alloc; ++y) {
            BucketIndex idx =
                ((std::uint64_t{1} << lvl) - 1) + y;
            auto &set = sets_[setIndex(idx)];
            for (Line &line : set) {
                if (!line.valid) {
                    line.valid = true;
                    line.tag = idx;
                    line.bucket = mem::Bucket(z_);
                    break;
                }
            }
        }
    }
}

std::uint64_t
MergingAwareCache::setIndex(BucketIndex idx) const
{
    unsigned x = geo_.levelOf(idx);
    fp_assert(inRange(x), "setIndex: level outside cached band");
    std::uint64_t y = geo_.offsetInLevel(idx);

    // A fully covered level has alloc = 2^x > y, so only the partial
    // level wraps. Every level's frames are whole sets below
    // capacity_, so the set needs no wrap either.
    const std::uint64_t alloc = levelAlloc_[x - m1_];
    if (y >= alloc)
        y %= alloc;
    return (levelBase_[x - m1_] + y) / ways_;
}

const mem::Bucket *
MergingAwareCache::peek(BucketIndex idx) const
{
    const auto &set = sets_[setIndex(idx)];
    for (const Line &line : set) {
        if (line.valid && line.tag == idx)
            return &line.bucket;
    }
    return nullptr;
}

void
MergingAwareCache::forEachBucket(
    const std::function<void(BucketIndex, const mem::Bucket &)> &fn)
    const
{
    for (const auto &set : sets_) {
        for (const Line &line : set) {
            if (line.valid)
                fn(line.tag, line.bucket);
        }
    }
}

std::optional<mem::Bucket>
MergingAwareCache::extract(BucketIndex idx)
{
    auto &set = sets_[setIndex(idx)];
    for (Line &line : set) {
        if (line.valid && line.tag == idx) {
            hits_.inc();
            if (trc_ && trc_->on(obs::TraceLevel::access))
                trc_->instant(obs::Track::cache, "mac_hit",
                              {obs::TraceArg::num("bucket", idx)});
            line.valid = false;
            return std::move(line.bucket);
        }
    }
    misses_.inc();
    return std::nullopt;
}

std::optional<mem::Block>
MergingAwareCache::extractBlock(BucketIndex idx, BlockAddr addr)
{
    auto &set = sets_[setIndex(idx)];
    for (Line &line : set) {
        if (!line.valid || line.tag != idx)
            continue;
        std::optional<mem::Block> found = line.bucket.take(addr);
        if (found) {
            line.lastUse = ++useClock_;
            if (trc_ && trc_->on(obs::TraceLevel::access))
                trc_->instant(obs::Track::cache, "mac_data_hit",
                              {obs::TraceArg::num("bucket", idx),
                               obs::TraceArg::num("addr", addr)});
        }
        return found;
    }
    return std::nullopt;
}

std::optional<MergingAwareCache::Victim>
MergingAwareCache::insert(BucketIndex idx, const mem::Bucket &bucket)
{
    insertions_.inc();
    auto &set = sets_[setIndex(idx)];

    // Same-tag line (refreshed refill) or an invalid line first.
    Line *dest = nullptr;
    for (Line &line : set) {
        if (line.valid && line.tag == idx) {
            dest = &line;
            break;
        }
    }
    if (!dest) {
        for (Line &line : set) {
            if (!line.valid) {
                dest = &line;
                break;
            }
        }
    }

    if (dest) {
        fill(*dest, idx, bucket);
        return std::nullopt;
    }

    // LRU victim, built in place: a default-constructed optional or a
    // braced Victim temporary would zero-fill the whole inline bucket.
    dest = &*std::min_element(set.begin(), set.end(),
                              [](const Line &a, const Line &b) {
                                  return a.lastUse < b.lastUse;
                              });
    evictions_.inc();
    if (trc_ && trc_->on(obs::TraceLevel::access))
        trc_->instant(obs::Track::cache, "mac_evict",
                      {obs::TraceArg::num("victim", dest->tag),
                       obs::TraceArg::num("for", idx)});
    std::optional<Victim> victim(std::in_place, dest->tag,
                                 std::move(dest->bucket));
    fill(*dest, idx, bucket);
    return victim;
}

void
MergingAwareCache::fill(Line &line, BucketIndex idx,
                        const mem::Bucket &bucket)
{
    line.valid = true;
    line.tag = idx;
    line.bucket = bucket;
    line.lastUse = ++useClock_;
}

} // namespace fp::core
