/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-ordered queue of (tick, sequence, callback) entries.
 * Events scheduled for the same tick execute in scheduling order, which
 * makes the simulation fully deterministic for a given seed.
 *
 * The kernel is intentionally minimal: components capture what they
 * need in the callback. Cancellation is handled by generation counters
 * inside components rather than by removing queue entries (removal
 * from a binary heap is more expensive than letting a stale event fire
 * into a no-op).
 */

#ifndef FP_UTIL_EVENT_QUEUE_HH
#define FP_UTIL_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/types.hh"

namespace fp
{

/** The event callback type. */
using EventFn = std::function<void()>;

class EventQueue
{
  public:
    /**
     * Schedule @p fn to run at absolute time @p when.
     * @p when must not be in the past.
     */
    void schedule(Tick when, EventFn fn);

    /** Schedule @p fn to run @p delta ticks from now. */
    void scheduleIn(Tick delta, EventFn fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Stable pointer to the clock (for the debug-trace prefix). */
    const Tick *nowPtr() const { return &now_; }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    std::size_t size() const { return heap_.size(); }

    /**
     * Execute events until the queue drains or @p limit is reached
     * (events at exactly @p limit still run).
     * @return the number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /**
     * Execute events while @p pred() holds (checked between events)
     * and the queue is non-empty.
     * @return the number of events executed.
     */
    std::uint64_t runWhile(const std::function<bool()> &pred);

    /** Execute exactly one event if available. @return true if run. */
    bool step();

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventFn fn;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Pop the earliest entry, moving its callback out. */
    Entry pop();

    /** Binary min-heap on (when, seq) under Later; a total order, so
     *  events run in the same order as any other correct heap. */
    std::vector<Entry> heap_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/**
 * A cancellable, re-armable one-shot timer over the EventQueue,
 * implementing the generation-counter cancellation idiom the kernel
 * comment above prescribes: cancel()/re-arm() bump a generation, and
 * the already-queued event fires into a no-op when its generation is
 * stale. Queue entries are never removed.
 *
 * Semantics (pinned by tests/test_util.cc):
 *  - arm() on an armed timer replaces the pending callback (implicit
 *    cancel + re-arm), including re-arming for the same tick;
 *  - cancel() before the fire tick suppresses the callback entirely;
 *  - cancel() *at* the fire tick, from an event scheduled before the
 *    timer was armed, also suppresses it (same-tick FIFO: whichever
 *    of fire/cancel was scheduled first wins, deterministically);
 *  - the timer disarms itself just before the callback runs, so the
 *    callback may re-arm the same timer (backoff chains).
 *
 * State lives behind a shared_ptr so a Timer may be moved (e.g. held
 * in a container of pending requests) while queued closures keep a
 * safe handle; destroying the Timer cancels it.
 */
class Timer
{
  public:
    explicit Timer(EventQueue &eq)
        : st_(std::make_shared<State>(State{&eq, 0, false}))
    {
    }

    Timer(Timer &&) = default;
    Timer &operator=(Timer &&) = default;
    Timer(const Timer &) = delete;
    Timer &operator=(const Timer &) = delete;

    ~Timer()
    {
        if (st_)
            cancel();
    }

    /** Arm (or re-arm) to fire @p fn at absolute tick @p when. */
    void
    arm(Tick when, EventFn fn)
    {
        auto st = st_;
        const std::uint64_t gen = ++st->gen;
        st->armed = true;
        st->eq->schedule(when, [st, gen, fn = std::move(fn)] {
            if (st->gen != gen)
                return; // cancelled or re-armed since
            st->armed = false;
            fn();
        });
    }

    /** Arm (or re-arm) to fire @p fn @p delta ticks from now. */
    void
    armIn(Tick delta, EventFn fn)
    {
        arm(st_->eq->now() + delta, std::move(fn));
    }

    /** Suppress the pending callback, if any. Idempotent. */
    void
    cancel()
    {
        ++st_->gen;
        st_->armed = false;
    }

    bool armed() const { return st_->armed; }

  private:
    struct State
    {
        EventQueue *eq;
        std::uint64_t gen;
        bool armed;
    };

    std::shared_ptr<State> st_;
};

} // namespace fp

#endif // FP_UTIL_EVENT_QUEUE_HH
