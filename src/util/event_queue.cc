#include "util/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace fp
{

void
EventQueue::schedule(Tick when, EventFn fn)
{
    fp_assert(when >= now_,
              "scheduling event in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    heap_.push_back(Entry{when, nextSeq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Entry
EventQueue::pop()
{
    // Move out before running: the callback may schedule new events.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    return e;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t executed = 0;
    while (!heap_.empty() && heap_.front().when <= limit) {
        Entry e = pop();
        now_ = e.when;
        e.fn();
        ++executed;
    }
    if (now_ < limit && limit != maxTick)
        now_ = limit;
    return executed;
}

std::uint64_t
EventQueue::runWhile(const std::function<bool()> &pred)
{
    std::uint64_t executed = 0;
    while (!heap_.empty() && pred()) {
        Entry e = pop();
        now_ = e.when;
        e.fn();
        ++executed;
    }
    return executed;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    Entry e = pop();
    now_ = e.when;
    e.fn();
    return true;
}

} // namespace fp
