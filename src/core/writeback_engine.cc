#include "core/writeback_engine.hh"

#include <span>

#include "core/merging_cache.hh"
#include "obs/request_profiler.hh"
#include "oram/integrity.hh"
#include "oram/treetop_cache.hh"
#include "util/logging.hh"

namespace fp::core
{

namespace
{

/** Outstanding bucket writes during a refill (paces commitment). */
constexpr unsigned writeWindow = 4;

} // anonymous namespace

WritebackEngine::WritebackEngine(PipelineContext &ctx)
    : ctx_(ctx), stats_("writeback_engine")
{
    if (ctx_.params.enableIntegrity)
        integrityWrite_.resize(ctx_.geo.numLevels());

    stats_.regCounter("refills", refills_,
                      "write (refill) phases run");
    stats_.regCounter("buckets_written", bucketsWritten_,
                      "buckets refilled (on-chip included)");
    stats_.regCounter("dram_bucket_writes", dramBucketWrites_,
                      "bucket writes issued to the memory backend");
    stats_.regGauge(
        "outstanding", [this] { return double(outstanding_); },
        "bucket writes in flight");
}

void
WritebackEngine::start(const ActiveAccess &acc, unsigned stop_level,
                       DoneFn on_done)
{
    label_ = acc.label;
    onDone_ = std::move(on_done);
    active_ = true;
    startTick_ = ctx_.eq.now();
    dramBuckets_ = 0;
    fp_assert(outstanding_ == 0, "writes leak across accesses");
    stopLevel_ = stop_level;
    refills_.inc();

    nextLevel_ = static_cast<int>(ctx_.geo.leafLevel());
    pump();
}

void
WritebackEngine::pump()
{
    if (!active_)
        return;
    while (outstanding_ < writeWindow &&
           nextLevel_ >= static_cast<int>(stopLevel_)) {
        writeBucketAt(static_cast<unsigned>(nextLevel_));
        --nextLevel_;
    }
    checkDone();
}

void
WritebackEngine::writeBucketAt(unsigned level)
{
    BucketIndex idx = ctx_.geo.bucketAt(label_, level);
    bucketsWritten_.inc();

    mem::Bucket bucket =
        ctx_.stash.evictForBucket(label_, level, ctx_.params.oram.z);
    if (ctx_.merkle)
        integrityWrite_[level] = bucket;

    if (ctx_.treetop && ctx_.treetop->covers(level)) {
        ctx_.store.writeBucket(idx, bucket);
        return; // on-chip, no DRAM traffic
    }

    bool dram_write = true;
    if (ctx_.mac && ctx_.mac->inRange(level)) {
        auto victim = ctx_.mac->insert(idx, bucket);
        dram_write = false;
        if (victim) {
            // Write the displaced bucket back to memory instead.
            ctx_.store.writeBucket(victim->idx, victim->bucket);
            macVictimWrites_.inc();
            idx = victim->idx;
            dram_write = true;
        }
    } else {
        ctx_.store.writeBucket(idx, bucket);
    }

    if (!dram_write)
        return;

    dramBucketWrites_.inc();
    ++dramBuckets_;
    ++outstanding_;
    mem::BackendRequest req;
    req.addr = ctx_.layout.physAddr(idx);
    req.isWrite = true;
    req.bytes = ctx_.params.bucketBytes();
    req.onComplete = [this](Tick) {
        fp_assert(outstanding_ > 0, "write completion underflow");
        --outstanding_;
        pump();
    };
    ctx_.fingerprintRequest(req.addr, req.isWrite, req.bytes);
    ctx_.mem.access(std::move(req));
}

void
WritebackEngine::checkDone()
{
    if (!active_)
        return;
    if (nextLevel_ >= static_cast<int>(stopLevel_))
        return;
    if (outstanding_ > 0)
        return;
    finish();
}

void
WritebackEngine::finish()
{
    active_ = false;

    if (ctx_.merkle && stopLevel_ < ctx_.geo.numLevels()) {
        ctx_.merkle->updateSlice(
            label_, stopLevel_,
            std::span<const mem::Bucket>(integrityWrite_)
                .subspan(stopLevel_));
    }
    if (ctx_.prof)
        ctx_.prof->sampleWriteback(startTick_, ctx_.eq.now());

    onDone_();
}

} // namespace fp::core
