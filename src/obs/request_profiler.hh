/**
 * @file
 * Per-request lifecycle profiler for the Fork Path pipeline.
 *
 * The paper's claim is that path merging, dummy replacing and
 * merging-aware caching remove redundant memory accesses; aggregate
 * throughput alone cannot show *where* each ORAM request spends its
 * time or *how many* accesses each optimization actually removed.
 * This profiler stamps every LLC request with a tick timestamp at
 * each pipeline milestone, folds the resulting spans into per-stage
 * latency histograms (p50/p95/p99/p99.9 via interpolated quantiles),
 * and counts the revealed shape of every finished access, from which
 * the effectiveness block derives a bytes-saved figure against a
 * naive Path ORAM baseline that would read and refill the full path
 * on every access. The block's pipeline-event counts (replacements,
 * swaps, on-chip reads, ...) are not kept here: each has one owner,
 * the stage counter that counts it, and sim::System fills them in.
 *
 * Milestones (monotonic per request):
 *
 *   arrival    LLC request admitted to the address queue
 *   issue      label resolved, access entered the label-queue pool
 *   readStart  the request's own path read began (fork point chosen)
 *   readDone   last bucket of the path read arrived
 *   complete   data returned to the LLC
 *
 * The stage partition is the consecutive differences, so the spans
 * sum exactly to the end-to-end latency for every request (a property
 * tests/test_obs.cc enforces):
 *
 *   addr_queue  = issue     - arrival   (hazard / admission wait)
 *   label_queue = readStart - issue     (overlap scheduling wait)
 *   path_read   = readDone  - readStart (backend service, read phase)
 *   completion  = complete  - readDone  (stash install + response)
 *
 * Requests that complete without their own path read (stash
 * shortcuts, MAC data hits, write-forwarding, piggybacked reads,
 * superseded writes) backfill unset milestones with the completion
 * tick, so their whole latency is attributed to the earliest unset
 * stage and the partition invariant still holds. With modelled
 * recursion, readStart/readDone describe the *data* element of the
 * chain; position-map elements are label-queue time.
 *
 * Everything here is passive: components carry a null pointer when
 * profiling is off (--profile-requests), and the golden RunResult
 * identity test pins that the off-path is byte-identical. When a
 * Tracer is attached, each request additionally emits Chrome-trace
 * async events ("b"/"n"/"e", cat "request", id = LLC request id) so
 * one request is followable across stages in the trace viewer.
 */

#ifndef FP_OBS_REQUEST_PROFILER_HH
#define FP_OBS_REQUEST_PROFILER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/tracer.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace fp
{
class JsonWriter;
} // namespace fp

namespace fp::obs
{

/** Milestone timestamps of one completed LLC request (ticks). */
struct RequestRecord
{
    std::uint64_t id = 0;
    Tick arrival = 0;
    Tick issue = 0;
    Tick readStart = 0;
    Tick readDone = 0;
    Tick complete = 0;
};

/** Rendered percentile summary of one stage histogram (ns). */
struct ProfileStageSummary
{
    std::string stage;
    std::uint64_t count = 0;
    double meanNs = 0.0;
    double maxNs = 0.0;
    double p50Ns = 0.0;
    double p95Ns = 0.0;
    double p99Ns = 0.0;
    double p999Ns = 0.0;

    /** The eight fields above, into @p w's open object. */
    void writeFields(JsonWriter &w) const;
};

/**
 * Fork-path effectiveness accounting. The shape counts (accesses,
 * merges, levels skipped/elided, buckets) come from the profiler,
 * once per finished access; the six pipeline-event counts
 * (writebacksReplaced through stashShortcuts) from the controllers'
 * stage counters, filled in by sim::System.
 */
struct ProfileEffectiveness
{
    std::uint64_t totalAccesses = 0;   //!< real + dummy accesses run
    std::uint64_t mergedAccesses = 0;  //!< read started above level 0
    std::uint64_t readLevelsSkipped = 0;
    std::uint64_t writeLevelsElided = 0;
    std::uint64_t writebacksReplaced = 0; //!< dummy refills given to reals
    std::uint64_t pendingSwaps = 0;
    std::uint64_t onChipBucketReads = 0;  //!< treetop/MAC bucket hits
    std::uint64_t macDataHits = 0;        //!< requests answered by MAC
    std::uint64_t cacheVictimWrites = 0;
    std::uint64_t stashShortcuts = 0;
    /** Buckets a naive Path ORAM would move (2 * L per access). */
    std::uint64_t naivePathBuckets = 0;
    /** Buckets actually moved over the backend (read + write). */
    std::uint64_t backendBuckets = 0;
    std::uint64_t bucketBytes = 0;

    std::uint64_t
    bucketsSaved() const
    {
        return naivePathBuckets > backendBuckets
                   ? naivePathBuckets - backendBuckets
                   : 0;
    }
    std::uint64_t bytesSaved() const
    {
        return bucketsSaved() * bucketBytes;
    }

    /** The thirteen counts and the two saved figures, into @p w's
     *  open object. */
    void writeFields(JsonWriter &w) const;
};

class RequestProfiler
{
  public:
    /**
     * @param now          The simulation clock (EventQueue::nowPtr()).
     * @param bucket_bytes Physical bucket size (bytes-saved scaling).
     */
    RequestProfiler(const Tick *now, std::uint64_t bucket_bytes);

    RequestProfiler(const RequestProfiler &) = delete;
    RequestProfiler &operator=(const RequestProfiler &) = delete;

    /** Attach the event tracer (async request spans; null detaches). */
    void setTracer(Tracer *tracer);

    /** Keep every completed RequestRecord (tests; off by default). */
    void setKeepRecords(bool keep) { keepRecords_ = keep; }

    Tick now() const { return *now_; }

    // --- per-request lifecycle hooks -----------------------------------
    void onArrival(std::uint64_t id);
    void onIssue(std::uint64_t id);
    void onReadStart(std::uint64_t id);
    void onReadDone(std::uint64_t id);
    void onComplete(std::uint64_t id);

    // --- per-access aggregate feeds ------------------------------------
    /** One refill (write phase), [start, end] ticks. */
    void sampleWriteback(Tick start, Tick end);
    /** One backend request's service interval at the memory seam. */
    void sampleBackendService(bool is_write, Tick start, Tick end);
    /** Residency of one real entry in the label queue. */
    void sampleLabelResidency(Tick enqueued, Tick selected);
    /** Blocks the stash supplied for one refilled bucket. */
    void sampleEvictedPerBucket(std::size_t blocks);

    /** One finished ORAM access (real or dummy) with its revealed
     *  shape and the backend buckets it actually moved. */
    void onAccessDone(unsigned read_start_level,
                      unsigned write_stop_level, unsigned num_levels,
                      unsigned backend_buckets_read,
                      unsigned backend_buckets_written);

    // --- results --------------------------------------------------------
    std::uint64_t completed() const { return completed_.value(); }
    std::uint64_t openRequests() const { return open_.size(); }
    /** The shape counts of every finished access; the pipeline-event
     *  fields are zero (their owners are the stage counters). */
    ProfileEffectiveness effectiveness() const;
    const std::vector<RequestRecord> &records() const
    {
        return records_;
    }

    /** Stage names in canonical order: the four partition stages,
     *  total, then the auxiliary service histograms. */
    static const std::vector<std::string> &stageNames();

    const fp::Histogram &stageHistogram(const std::string &stage) const;

    /** Percentile summaries for every stage, canonical order. */
    std::vector<ProfileStageSummary> stageSummaries() const;

    /**
     * Full profile document (--profile-out): stage summaries with
     * their histogram buckets plus @p eff as the effectiveness block
     * (effectiveness() with the pipeline-event fields filled in), as
     * one JSON object. tools/report.py renders it as a dashboard.
     */
    std::string reportJson(const ProfileEffectiveness &eff) const;

    /**
     * Fold @p other in, as if its requests had been profiled here:
     * every stage histogram is merged bucket-wise, the completed
     * count and all shape counts are summed. @p other must
     * be drained (no open requests) and share this profiler's bucket
     * size. This is how sim::System rolls the per-shard profilers of
     * a core::ShardedOram up into the single forkpath-profile-v1
     * report.
     */
    void merge(const RequestProfiler &other);

    fp::StatGroup &stats() { return stats_; }

  private:
    struct OpenRecord
    {
        Tick arrival = 0;
        Tick issue = 0;
        Tick readStart = 0;
        Tick readDone = 0;
        bool issued = false;
        bool readStarted = false;
        bool readFinished = false;
    };

    void sampleNs(fp::Histogram &h, Tick start, Tick end);

    const Tick *now_;
    Tracer *trc_ = nullptr;
    bool keepRecords_ = false;

    std::unordered_map<std::uint64_t, OpenRecord> open_;
    std::vector<RequestRecord> records_;

    // Stage latency histograms (ns).
    fp::Histogram addrQueueNs_;
    fp::Histogram labelQueueNs_;
    fp::Histogram pathReadNs_;
    fp::Histogram completionNs_;
    fp::Histogram totalNs_;
    fp::Histogram writebackNs_;
    fp::Histogram backendReadNs_;
    fp::Histogram backendWriteNs_;
    fp::Histogram labelResidencyNs_;
    fp::Histogram evictPerBucket_;

    fp::Counter completed_;
    // Shape counts, taken once per finished access (onAccessDone).
    fp::Counter accesses_;
    fp::Counter merged_;
    fp::Counter readSkipped_;
    fp::Counter writeElided_;
    fp::Counter naiveBuckets_;
    fp::Counter backendBuckets_;
    std::uint64_t bucketBytes_;
    fp::StatGroup stats_;
};

} // namespace fp::obs

#endif // FP_OBS_REQUEST_PROFILER_HH
