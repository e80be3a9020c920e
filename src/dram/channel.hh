/**
 * @file
 * One DRAM channel: a transaction queue scheduled FR-FCFS (first-ready
 * row hits bypass older row misses, within a bounded window), the
 * shared data bus, the tRRD/tFAW activate-rate window, and lazy
 * refresh accounting.
 */

#ifndef FP_DRAM_CHANNEL_HH
#define FP_DRAM_CHANNEL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "dram/address_mapping.hh"
#include "dram/bank.hh"
#include "dram/dram_params.hh"
#include "obs/tracer.hh"
#include "util/event_queue.hh"
#include "util/stats.hh"

namespace fp::dram
{

/** A memory transaction as seen by a channel. */
struct Transaction
{
    std::uint64_t row = 0;
    unsigned bank = 0;
    bool isWrite = false;
    unsigned bursts = 1;
    Tick enqueued = 0;
    std::function<void(Tick)> onComplete;
};

class Channel
{
  public:
    Channel(unsigned id, const DramParams &params, EventQueue &eq);

    /** Queue a transaction; the channel schedules it when ready. */
    void enqueue(Transaction tx);

    std::size_t queueDepth() const { return queue_.size(); }
    bool idle() const { return !issuing_ && queue_.empty(); }

    // --- statistics ---------------------------------------------------
    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }
    std::uint64_t readBursts() const { return readBursts_.value(); }
    std::uint64_t writeBursts() const { return writeBursts_.value(); }
    const fp::Histogram &latency() const { return latency_; }
    fp::StatGroup &stats() { return stats_; }
    void resetStats();

    /** Attach the event tracer (per-command track, level `full`). */
    void setTracer(obs::Tracer *tracer);

  private:
    /** Try to issue the next transaction if the scheduler is free. */
    void kick();

    /** FR-FCFS pick: index into queue_ of the transaction to issue. */
    std::size_t pickNext() const;

    /** Apply lazy refresh: close rows across a tREFI boundary and
     *  return the earliest start time given any in-progress refresh. */
    Tick refreshConstraint(Tick now);

    unsigned id_;
    DramParams p_;
    EventQueue &eq_;
    obs::Tracer *trc_ = nullptr;

    std::vector<Bank> banks_;
    std::deque<Transaction> queue_;

    bool issuing_ = false;
    Tick dataBusFreeAt_ = 0;
    Tick lastRefreshEpoch_ = 0;

    /** Completion times of the last ACTs, for tRRD/tFAW. */
    Tick lastActAt_ = 0;
    std::deque<Tick> actWindow_;

    /**
     * Direction of the last data transfer, for bus turnaround. The
     * two switch directions cost differently (write->read pays tWTR,
     * read->write only the tRTRS bus gap), and the very first
     * transfer pays nothing at all.
     */
    enum class BusDir { none, read, write };
    BusDir lastDir_ = BusDir::none;

    fp::Counter rowHits_;
    fp::Counter rowMisses_;
    fp::Counter readBursts_;
    fp::Counter writeBursts_;
    fp::Histogram latency_;
    fp::StatGroup stats_;
};

} // namespace fp::dram

#endif // FP_DRAM_CHANNEL_HH
