/**
 * @file
 * Read stage of the access pipeline: one fork-shaped path fetch
 * (paper Figure 1(c) read half). Under a merging policy the fetch
 * starts at the fork point — the levels retained by the previous
 * refill — instead of the root; every fetched bucket's blocks are
 * ingested into the stash, and the phase completes when the last
 * outstanding DRAM read returns (or immediately, off a zero-delay
 * event, when the whole path was served on chip).
 */

#ifndef FP_CORE_READ_ENGINE_HH
#define FP_CORE_READ_ENGINE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/pipeline.hh"
#include "util/stats.hh"

namespace fp::core
{

class ReadEngine
{
  public:
    using DoneFn = std::function<void()>;

    explicit ReadEngine(PipelineContext &ctx);

    /**
     * Fetch @p acc's path from @p start_level (the fork point) to the
     * leaf. @p on_done fires after integrity verification, the
     * per-phase stats, the profiler readDone milestone and the trace
     * slice — i.e. at the stage boundary.
     */
    void start(const ActiveAccess &acc, unsigned start_level,
               DoneFn on_done);

    /** A read phase is in flight. */
    bool active() const { return active_; }

    /** Fork point of the current/last phase. */
    unsigned startLevel() const { return startLevel_; }

    /** DRAM buckets fetched during the current/last phase. */
    unsigned dramBuckets() const { return dramBuckets_; }

    /** Bus-visible start tick of the current/last phase. */
    Tick startTick() const { return startTick_; }

    /** Completion tick of the last phase. */
    Tick doneTick() const { return doneTick_; }

    // Stage-owned stats, re-exported under the controller's legacy
    // stat names for cross-shard aggregation and plotting.
    const fp::Average &readLenStat() const { return readLen_; }
    const fp::Average &dramReadLenStat() const { return dramReadLen_; }
    const fp::Histogram &forkLevelHist() const
    {
        return forkLevelHist_;
    }
    const fp::Counter &onChipBucketReadsStat() const
    {
        return onChipBucketReads_;
    }
    std::uint64_t onChipBucketReads() const
    {
        return onChipBucketReads_.value();
    }
    const fp::Counter &mergeSkippedLevelsStat() const
    {
        return mergeSkippedLevels_;
    }
    std::uint64_t mergedLevelsSkipped() const
    {
        return mergeSkippedLevels_.value();
    }
    const std::vector<std::uint64_t> &mergeSkipsPerLevel() const
    {
        return mergeSkipsPerLevel_;
    }

    fp::StatGroup &stats() { return stats_; }

  private:
    /** Fetch one bucket of the current path (cache-aware). */
    void readBucketAt(unsigned level);
    /** Move a fetched bucket's blocks into the stash (keeping a copy
     *  for integrity at @p level), leaving @p bucket empty. */
    void ingestBucket(unsigned level, mem::Bucket &bucket);
    void finish();

    PipelineContext &ctx_;

    /** Per-level bucket captures for integrity. */
    std::vector<mem::Bucket> integrityRead_;

    ActiveAccess acc_;
    DoneFn onDone_;
    bool active_ = false;
    unsigned outstanding_ = 0;
    unsigned startLevel_ = 0;
    unsigned dramBuckets_ = 0;
    Tick startTick_ = 0;
    Tick doneTick_ = 0;

    fp::Counter readsStarted_;
    fp::Histogram forkLevelHist_;
    fp::Counter mergeSkippedLevels_;
    std::vector<std::uint64_t> mergeSkipsPerLevel_;
    fp::Average readLen_;
    fp::Average dramReadLen_;
    fp::Counter onChipBucketReads_;
    fp::StatGroup stats_;
};

} // namespace fp::core

#endif // FP_CORE_READ_ENGINE_HH
