/**
 * @file
 * Writeback stage of the access pipeline: one windowed refill phase
 * (paper Figure 1(c) write half). Buckets are filled from the stash
 * and issued leaf -> stop level with at most four writes outstanding,
 * so the deepest (cheapest to re-plan) levels commit first and the
 * stop level can still be deepened by dummy replacing while the
 * shallow levels are unissued.
 */

#ifndef FP_CORE_WRITEBACK_ENGINE_HH
#define FP_CORE_WRITEBACK_ENGINE_HH

#include <functional>
#include <vector>

#include "core/pipeline.hh"
#include "util/stats.hh"

namespace fp::core
{

class WritebackEngine
{
  public:
    using DoneFn = std::function<void()>;

    explicit WritebackEngine(PipelineContext &ctx);

    /**
     * Begin the refill of @p acc's path down to @p stop_level.
     * @p on_done fires (synchronously from the last completion) after
     * the Merkle update and the profiler's writeback sample.
     */
    void start(const ActiveAccess &acc, unsigned stop_level,
               DoneFn on_done);

    /** Issue further buckets up to the window; called on completions
     *  and when the stop level deepens mid-phase. */
    void pump();

    /** A refill is in flight (the dummy-replacing window is open). */
    bool active() const { return active_; }

    /** Next level to issue (sweeping downward); levels strictly
     *  above are already committed to the command stream. */
    int nextLevel() const { return nextLevel_; }

    unsigned stopLevel() const { return stopLevel_; }

    /** Deepen/replace the stop level mid-phase (dummy replacing). */
    void setStopLevel(unsigned level) { stopLevel_ = level; }

    /** DRAM buckets written during the current/last phase. */
    unsigned dramBuckets() const { return dramBuckets_; }

    /** Bus-visible start tick of the current/last phase. */
    Tick startTick() const { return startTick_; }

    std::uint64_t bucketsWritten() const
    {
        return bucketsWritten_.value();
    }
    std::uint64_t dramBucketWrites() const
    {
        return dramBucketWrites_.value();
    }
    const fp::Counter &macVictimWritesStat() const
    {
        return macVictimWrites_;
    }

    fp::StatGroup &stats() { return stats_; }

  private:
    /** Refill one bucket of the current path (cache-aware). */
    void writeBucketAt(unsigned level);
    void checkDone();
    void finish();

    PipelineContext &ctx_;

    /** Per-level bucket captures for integrity. */
    std::vector<mem::Bucket> integrityWrite_;

    LeafLabel label_ = invalidLeaf;
    DoneFn onDone_;
    bool active_ = false;
    unsigned stopLevel_ = 0;
    int nextLevel_ = -1;      //!< Next level to issue (downward).
    unsigned outstanding_ = 0;
    unsigned dramBuckets_ = 0;
    Tick startTick_ = 0;

    fp::Counter refills_;
    fp::Counter bucketsWritten_;
    fp::Counter dramBucketWrites_;
    fp::Counter macVictimWrites_;
    fp::StatGroup stats_;
};

} // namespace fp::core

#endif // FP_CORE_WRITEBACK_ENGINE_HH
