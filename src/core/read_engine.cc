#include "core/read_engine.hh"

#include <span>

#include "core/merging_cache.hh"
#include "obs/request_profiler.hh"
#include "oram/integrity.hh"
#include "oram/treetop_cache.hh"
#include "util/logging.hh"

namespace fp::core
{

ReadEngine::ReadEngine(PipelineContext &ctx)
    : ctx_(ctx), forkLevelHist_(ctx.geo.numLevels() + 1, 1.0),
      stats_("read_engine")
{
    mergeSkipsPerLevel_.assign(ctx_.geo.numLevels(), 0);
    if (ctx_.params.enableIntegrity)
        integrityRead_.resize(ctx_.geo.numLevels());

    stats_.regCounter("phases", readsStarted_, "read phases run");
    stats_.regGauge(
        "outstanding", [this] { return double(outstanding_); },
        "bucket reads in flight");
}

void
ReadEngine::start(const ActiveAccess &acc, unsigned start_level,
                  DoneFn on_done)
{
    acc_ = acc;
    onDone_ = std::move(on_done);
    active_ = true;
    startTick_ = ctx_.eq.now();
    startLevel_ = start_level;
    forkLevelHist_.sample(static_cast<double>(startLevel_));
    if (startLevel_ > 0) {
        mergeSkippedLevels_.inc(startLevel_);
        for (unsigned l = 0; l < startLevel_; ++l)
            ++mergeSkipsPerLevel_[l];
    }
    if (ctx_.prof && !acc_.dummy &&
        acc_.chainIndex == ctx_.params.recursionDepth)
        ctx_.prof->onReadStart(acc_.llcId);
    dramBuckets_ = 0;
    fp_assert(outstanding_ == 0, "reads leak across accesses");
    readsStarted_.inc();

    for (unsigned level = startLevel_;
         level <= ctx_.geo.leafLevel(); ++level) {
        readBucketAt(level);
    }
    if (outstanding_ == 0) {
        // Entire read phase served on chip (or zero-length fork).
        ctx_.eq.scheduleIn(0, [this] {
            if (active_ && outstanding_ == 0)
                finish();
        });
    }
}

void
ReadEngine::readBucketAt(unsigned level)
{
    BucketIndex idx = ctx_.geo.bucketAt(acc_.label, level);

    if (ctx_.treetop && ctx_.treetop->covers(level)) {
        mem::Bucket bucket = ctx_.store.readBucket(idx);
        ingestBucket(level, bucket);
        onChipBucketReads_.inc();
        return;
    }
    if (ctx_.mac && ctx_.mac->inRange(level)) {
        if (auto bucket = ctx_.mac->extract(idx)) {
            ingestBucket(level, *bucket);
            onChipBucketReads_.inc();
            return;
        }
    }

    mem::Bucket bucket = ctx_.store.readBucket(idx);
    ingestBucket(level, bucket);
    ++dramBuckets_;
    ++outstanding_;
    mem::BackendRequest req;
    req.addr = ctx_.layout.physAddr(idx);
    req.isWrite = false;
    req.bytes = ctx_.params.bucketBytes();
    req.onComplete = [this](Tick) {
        fp_assert(outstanding_ > 0, "read completion underflow");
        if (--outstanding_ == 0 && active_)
            finish();
    };
    ctx_.fingerprintRequest(req.addr, req.isWrite, req.bytes);
    ctx_.mem.access(std::move(req));
}

void
ReadEngine::ingestBucket(unsigned level, mem::Bucket &bucket)
{
    if (ctx_.merkle)
        integrityRead_[level] = bucket;
    for (mem::Block &blk : bucket)
        ctx_.stash.insertOrIgnore(std::move(blk));
    bucket.clear();
}

void
ReadEngine::finish()
{
    fp_assert(active_, "finishRead out of phase");
    if (ctx_.merkle) {
        if (!ctx_.merkle->verifySlice(
                acc_.label, startLevel_,
                std::span<const mem::Bucket>(integrityRead_)
                    .subspan(startLevel_))) {
            fp_panic("integrity violation: path %llu failed Merkle "
                     "verification (active attack detected)",
                     static_cast<unsigned long long>(acc_.label));
        }
    }
    readLen_.sample(static_cast<double>(ctx_.geo.numLevels()) -
                    startLevel_);
    dramReadLen_.sample(static_cast<double>(dramBuckets_));
    doneTick_ = ctx_.eq.now();
    if (ctx_.prof && !acc_.dummy &&
        acc_.chainIndex == ctx_.params.recursionDepth)
        ctx_.prof->onReadDone(acc_.llcId);

    if (ctx_.traceOn()) {
        ctx_.trc->complete(
            obs::Track::controller,
            startLevel_ > 0 ? "read_merged" : "read", startTick_,
            doneTick_,
            {obs::TraceArg::num("label", acc_.label),
             obs::TraceArg::num("start_level", startLevel_),
             obs::TraceArg::flag("dummy", acc_.dummy),
             obs::TraceArg::num("dram_buckets", dramBuckets_)});
    }

    active_ = false;
    onDone_();
}

} // namespace fp::core
