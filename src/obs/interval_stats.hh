/**
 * @file
 * Periodic statistics sampling: every N simulated ticks, snapshot
 * every live StatGroup of one System's StatRegistry into one line of
 * JSON (JSON-lines format), producing time series of the quantities
 * the paper's claims live in — stash depth, label-queue occupancy,
 * overlap-length histogram, DRAM row-hit rate — without touching any
 * simulation state.
 *
 * One line looks like:
 *
 *   {"tick":2000000,"oram_controller.stash_depth":12,
 *    "dram.ch0.row_hits":3141, ...}
 *
 * Counters are cumulative (consumers diff adjacent lines for rates);
 * gauges are instantaneous; averages/histograms render as nested
 * objects. `tools/plot_results.py --stats` turns the file into
 * time-series plots and `tools/validate_trace.py` checks its shape.
 */

#ifndef FP_OBS_INTERVAL_STATS_HH
#define FP_OBS_INTERVAL_STATS_HH

#include <cstdio>
#include <functional>
#include <string>

#include "util/event_queue.hh"
#include "util/types.hh"

namespace fp
{
class StatRegistry;
}

namespace fp::obs
{

class IntervalStats
{
  public:
    /**
     * @param path     Output file (created/truncated).
     * @param interval Sampling period in ticks (> 0).
     * @param registry The stat registry to snapshot (the owning
     *                 System's; must outlive this object).
     */
    IntervalStats(const std::string &path, Tick interval,
                  const StatRegistry &registry);
    ~IntervalStats();

    IntervalStats(const IntervalStats &) = delete;
    IntervalStats &operator=(const IntervalStats &) = delete;

    /**
     * Install the self-rescheduling sampling event on @p eq. Sampling
     * stops (and the chain ends) once @p keep_going returns false;
     * callers typically pass "the run is still in progress".
     */
    void start(EventQueue &eq, std::function<bool()> keep_going);

    /** Write one snapshot line for simulated time @p now. */
    void sample(Tick now);

    /**
     * End-of-run flush: write a final snapshot covering the partial
     * interval since the last periodic sample — but only if @p now is
     * actually past the last sampled tick (a run ending exactly on an
     * interval boundary must not emit a duplicate, which would break
     * the strictly-increasing tick check in tools/validate_trace.py)
     * — then close the file.
     */
    void finish(Tick now);

    /** Flush and close the file; further samples are dropped. */
    void close();

    Tick interval() const { return interval_; }

  private:
    void scheduleNext(EventQueue &eq);

    Tick interval_;
    const StatRegistry &registry_;
    std::FILE *file_ = nullptr;
    std::function<bool()> keepGoing_;
    std::uint64_t samples_ = 0;
    Tick lastSampleTick_ = 0;
    bool closed_ = false;
};

} // namespace fp::obs

#endif // FP_OBS_INTERVAL_STATS_HH
