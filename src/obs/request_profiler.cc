#include "obs/request_profiler.hh"

#include <algorithm>

#include "util/json.hh"
#include "util/logging.hh"

namespace fp::obs
{

namespace
{

// Stage histogram shape: 1024 linear buckets of 250 ns cover latencies
// up to 256 us before the overflow bucket — wide enough for network
// backends, fine enough that DRAM-scale percentiles interpolate well.
constexpr std::size_t kStageBuckets = 1024;
constexpr double kStageWidthNs = 250.0;

} // anonymous namespace

RequestProfiler::RequestProfiler(const Tick *now,
                                 std::uint64_t bucket_bytes)
    : now_(now),
      addrQueueNs_(kStageBuckets, kStageWidthNs),
      labelQueueNs_(kStageBuckets, kStageWidthNs),
      pathReadNs_(kStageBuckets, kStageWidthNs),
      completionNs_(kStageBuckets, kStageWidthNs),
      totalNs_(kStageBuckets, kStageWidthNs),
      writebackNs_(kStageBuckets, kStageWidthNs),
      backendReadNs_(kStageBuckets, kStageWidthNs),
      backendWriteNs_(kStageBuckets, kStageWidthNs),
      labelResidencyNs_(kStageBuckets, kStageWidthNs),
      evictPerBucket_(16, 1.0), bucketBytes_(bucket_bytes),
      stats_("request_profiler")
{
    fp_assert(now_ != nullptr, "RequestProfiler: null clock");
    stats_.regCounter("completed_requests", completed_,
                      "LLC requests with a full lifecycle record");
    stats_.regHistogram("addr_queue_ns", addrQueueNs_,
                        "arrival to issue (admission/hazard wait)");
    stats_.regHistogram("label_queue_ns", labelQueueNs_,
                        "issue to own path-read start");
    stats_.regHistogram("path_read_ns", pathReadNs_,
                        "path-read start to last bucket");
    stats_.regHistogram("completion_ns", completionNs_,
                        "read done to LLC response");
    stats_.regHistogram("total_ns", totalNs_,
                        "end-to-end request latency");
    stats_.regHistogram("writeback_ns", writebackNs_,
                        "refill (write phase) duration");
    stats_.regHistogram("backend_read_ns", backendReadNs_,
                        "memory-backend read service time");
    stats_.regHistogram("backend_write_ns", backendWriteNs_,
                        "memory-backend write service time");
    stats_.regHistogram("label_residency_ns", labelResidencyNs_,
                        "real label wait in the label queue");
    stats_.regHistogram("evict_per_bucket", evictPerBucket_,
                        "stash blocks evicted per refilled bucket");
    stats_.regCounter("merged_accesses", merged_,
                      "accesses whose read started above level 0");
    stats_.regCounter("read_levels_skipped", readSkipped_,
                      "path-read levels elided by merging");
    stats_.regCounter("write_levels_elided", writeElided_,
                      "refill levels elided by early stop");
}

void
RequestProfiler::setTracer(Tracer *tracer)
{
    trc_ = tracer;
    if (trc_)
        trc_->nameTrack(Track::requests, "requests");
}

void
RequestProfiler::sampleNs(fp::Histogram &h, Tick start, Tick end)
{
    fp_assert(end >= start, "RequestProfiler: negative span");
    h.sample(ticksToNs(end - start));
}

void
RequestProfiler::onArrival(std::uint64_t id)
{
    OpenRecord &r = open_[id];
    r.arrival = *now_;
    if (trc_)
        trc_->asyncBegin(Track::requests, "request", "request", id,
                         {TraceArg::num("id", id)});
}

void
RequestProfiler::onIssue(std::uint64_t id)
{
    auto it = open_.find(id);
    if (it == open_.end() || it->second.issued)
        return;
    it->second.issue = *now_;
    it->second.issued = true;
    if (trc_)
        trc_->asyncInstant(Track::requests, "issue", "request", id);
}

void
RequestProfiler::onReadStart(std::uint64_t id)
{
    auto it = open_.find(id);
    if (it == open_.end() || it->second.readStarted)
        return;
    // A request can reach its path read without an explicit issue
    // stamp (e.g. admitted and scheduled in the same pump); close the
    // earlier milestone here so the stage partition stays exact.
    if (!it->second.issued) {
        it->second.issue = *now_;
        it->second.issued = true;
    }
    it->second.readStart = *now_;
    it->second.readStarted = true;
    if (trc_)
        trc_->asyncInstant(Track::requests, "read_start", "request",
                           id);
}

void
RequestProfiler::onReadDone(std::uint64_t id)
{
    auto it = open_.find(id);
    if (it == open_.end() || it->second.readFinished)
        return;
    if (!it->second.readStarted)
        return;
    it->second.readDone = *now_;
    it->second.readFinished = true;
    if (trc_)
        trc_->asyncInstant(Track::requests, "read_done", "request",
                           id);
}

void
RequestProfiler::onComplete(std::uint64_t id)
{
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    OpenRecord r = it->second;
    open_.erase(it);

    Tick done = *now_;
    // Requests answered without their own path read (forwarding,
    // stash shortcut, MAC data hit, piggyback) backfill the unset
    // milestones with the completion tick: the whole latency lands in
    // the earliest unset stage and the partition still sums exactly.
    if (!r.issued)
        r.issue = done;
    if (!r.readStarted)
        r.readStart = std::max(r.issue, done);
    if (!r.readFinished)
        r.readDone = std::max(r.readStart, done);

    sampleNs(addrQueueNs_, r.arrival, r.issue);
    sampleNs(labelQueueNs_, r.issue, r.readStart);
    sampleNs(pathReadNs_, r.readStart, r.readDone);
    sampleNs(completionNs_, r.readDone, done);
    sampleNs(totalNs_, r.arrival, done);
    completed_.inc();

    if (keepRecords_)
        records_.push_back(
            {id, r.arrival, r.issue, r.readStart, r.readDone, done});
    if (trc_)
        trc_->asyncEnd(
            Track::requests, "request", "request", id,
            {TraceArg::real("total_ns", ticksToNs(done - r.arrival))});
}

void
RequestProfiler::sampleWriteback(Tick start, Tick end)
{
    sampleNs(writebackNs_, start, end);
}

void
RequestProfiler::sampleBackendService(bool is_write, Tick start,
                                      Tick end)
{
    sampleNs(is_write ? backendWriteNs_ : backendReadNs_, start, end);
}

void
RequestProfiler::sampleLabelResidency(Tick enqueued, Tick selected)
{
    sampleNs(labelResidencyNs_, enqueued, selected);
}

void
RequestProfiler::sampleEvictedPerBucket(std::size_t blocks)
{
    evictPerBucket_.sample(static_cast<double>(blocks));
}

void
RequestProfiler::onAccessDone(unsigned read_start_level,
                              unsigned write_stop_level,
                              unsigned num_levels,
                              unsigned backend_buckets_read,
                              unsigned backend_buckets_written)
{
    accesses_.inc();
    if (read_start_level > 0)
        merged_.inc();
    readSkipped_.inc(read_start_level);
    writeElided_.inc(write_stop_level);
    // The naive baseline reads and refills the full path every
    // access; dummies included, since a traditional ORAM cannot skip
    // them either.
    naiveBuckets_.inc(2ull * num_levels);
    backendBuckets_.inc(backend_buckets_read + backend_buckets_written);
}

ProfileEffectiveness
RequestProfiler::effectiveness() const
{
    ProfileEffectiveness eff;
    eff.totalAccesses = accesses_.value();
    eff.mergedAccesses = merged_.value();
    eff.readLevelsSkipped = readSkipped_.value();
    eff.writeLevelsElided = writeElided_.value();
    eff.naivePathBuckets = naiveBuckets_.value();
    eff.backendBuckets = backendBuckets_.value();
    eff.bucketBytes = bucketBytes_;
    return eff;
}

void
RequestProfiler::merge(const RequestProfiler &other)
{
    fp_assert(other.open_.empty(),
              "RequestProfiler::merge: source still has %zu open "
              "requests",
              other.open_.size());
    fp_assert(bucketBytes_ == other.bucketBytes_,
              "RequestProfiler::merge: bucket size mismatch "
              "(%llu vs %llu)",
              static_cast<unsigned long long>(bucketBytes_),
              static_cast<unsigned long long>(other.bucketBytes_));

    addrQueueNs_.merge(other.addrQueueNs_);
    labelQueueNs_.merge(other.labelQueueNs_);
    pathReadNs_.merge(other.pathReadNs_);
    completionNs_.merge(other.completionNs_);
    totalNs_.merge(other.totalNs_);
    writebackNs_.merge(other.writebackNs_);
    backendReadNs_.merge(other.backendReadNs_);
    backendWriteNs_.merge(other.backendWriteNs_);
    labelResidencyNs_.merge(other.labelResidencyNs_);
    evictPerBucket_.merge(other.evictPerBucket_);

    if (keepRecords_)
        records_.insert(records_.end(), other.records_.begin(),
                        other.records_.end());

    completed_.inc(other.completed_.value());
    accesses_.inc(other.accesses_.value());
    merged_.inc(other.merged_.value());
    readSkipped_.inc(other.readSkipped_.value());
    writeElided_.inc(other.writeElided_.value());
    naiveBuckets_.inc(other.naiveBuckets_.value());
    backendBuckets_.inc(other.backendBuckets_.value());
}

const std::vector<std::string> &
RequestProfiler::stageNames()
{
    static const std::vector<std::string> names = {
        "addr_queue",    "label_queue",     "path_read",
        "completion",    "total",           "writeback",
        "backend_read",  "backend_write",   "label_residency",
        "evict_per_bucket",
    };
    return names;
}

const fp::Histogram &
RequestProfiler::stageHistogram(const std::string &stage) const
{
    if (stage == "addr_queue")
        return addrQueueNs_;
    if (stage == "label_queue")
        return labelQueueNs_;
    if (stage == "path_read")
        return pathReadNs_;
    if (stage == "completion")
        return completionNs_;
    if (stage == "total")
        return totalNs_;
    if (stage == "writeback")
        return writebackNs_;
    if (stage == "backend_read")
        return backendReadNs_;
    if (stage == "backend_write")
        return backendWriteNs_;
    if (stage == "label_residency")
        return labelResidencyNs_;
    if (stage == "evict_per_bucket")
        return evictPerBucket_;
    fp_fatal("RequestProfiler: unknown stage '%s'", stage.c_str());
}

std::vector<ProfileStageSummary>
RequestProfiler::stageSummaries() const
{
    std::vector<ProfileStageSummary> out;
    out.reserve(stageNames().size());
    for (const std::string &name : stageNames()) {
        const fp::Histogram &h = stageHistogram(name);
        ProfileStageSummary s;
        s.stage = name;
        s.count = h.count();
        s.meanNs = h.mean();
        s.maxNs = h.max();
        s.p50Ns = h.percentile(0.50);
        s.p95Ns = h.percentile(0.95);
        s.p99Ns = h.percentile(0.99);
        s.p999Ns = h.percentile(0.999);
        out.push_back(std::move(s));
    }
    return out;
}

std::string
RequestProfiler::reportJson(const ProfileEffectiveness &eff) const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "forkpath-profile-v1");
    w.field("completed_requests", completed_.value());
    w.field("open_requests",
            static_cast<std::uint64_t>(open_.size()));
    w.key("stages").beginArray();
    for (const ProfileStageSummary &s : stageSummaries()) {
        const fp::Histogram &h = stageHistogram(s.stage);
        s.writeFields(w.beginObject());
        w.field("bucket_width", h.bucketWidth())
            .field("underflow", h.underflow())
            .field("overflow", h.overflow());
        w.key("buckets").beginArray();
        for (std::uint64_t b : h.buckets())
            w.value(b);
        w.endArray().endObject();
    }
    w.endArray();
    eff.writeFields(w.key("effectiveness").beginObject());
    w.endObject();
    w.endObject();
    return w.str();
}

void
ProfileStageSummary::writeFields(JsonWriter &w) const
{
    w.field("stage", stage)
        .field("count", count)
        .field("mean_ns", meanNs)
        .field("max_ns", maxNs)
        .field("p50_ns", p50Ns)
        .field("p95_ns", p95Ns)
        .field("p99_ns", p99Ns)
        .field("p999_ns", p999Ns);
}

void
ProfileEffectiveness::writeFields(JsonWriter &w) const
{
    w.field("total_accesses", totalAccesses)
        .field("merged_accesses", mergedAccesses)
        .field("read_levels_skipped", readLevelsSkipped)
        .field("write_levels_elided", writeLevelsElided)
        .field("writebacks_replaced", writebacksReplaced)
        .field("pending_swaps", pendingSwaps)
        .field("onchip_bucket_reads", onChipBucketReads)
        .field("mac_data_hits", macDataHits)
        .field("cache_victim_writes", cacheVictimWrites)
        .field("stash_shortcuts", stashShortcuts)
        .field("naive_path_buckets", naivePathBuckets)
        .field("backend_buckets", backendBuckets)
        .field("bucket_bytes", bucketBytes)
        .field("buckets_saved", bucketsSaved())
        .field("bytes_saved", bytesSaved());
}

} // namespace fp::obs
