#include "workload/core_model.hh"

#include "util/logging.hh"

namespace fp::workload
{

CoreModel::CoreModel(const CoreParams &params,
                     const WorkloadProfile &profile,
                     BlockAddr region_base, std::uint64_t seed,
                     EventQueue &eq, MemorySink &sink)
    : params_(params),
      stream_(profile, region_base,
              Rng(seed ^ (0xc0de + params.coreId * 7919))),
      eq_(eq), sink_(sink),
      rng_(seed ^ (0x6a9 + params.coreId * 104729)),
      missLatency_(256, 100.0)
{
}

void
CoreModel::start()
{
    nextIssueAt_ = eq_.now();
    tryIssue();
}

void
CoreModel::scheduleTry(Tick when)
{
    if (tryScheduled_)
        return;
    tryScheduled_ = true;
    eq_.schedule(when, [this] {
        tryScheduled_ = false;
        tryIssue();
    });
}

void
CoreModel::tryIssue()
{
    while (true) {
        if (issued_ == params_.totalRequests)
            return; // responses will mark us done
        if (outstanding_ >= params_.maxOutstanding)
            return; // a response will re-trigger
        Tick now = eq_.now();
        if (now < nextIssueAt_) {
            scheduleTry(nextIssueAt_);
            return;
        }
        if (!sink_.canAccept()) {
            scheduleTry(now + params_.retryCycles *
                                  params_.cpuPeriodTicks);
            return;
        }

        MemRequest req = stream_.next();
        Tick issue_tick = now;
        // Book-keep BEFORE issuing: the sink may satisfy the request
        // synchronously (stash shortcut, store-to-load forwarding,
        // MAC data hit), re-entering onResponse inside access().
        ++issued_;
        ++outstanding_;
        std::uint64_t gap_cycles = rng_.geometric(
            stream_.profile().missIntervalAt(issued_));
        nextIssueAt_ = now + gap_cycles * params_.cpuPeriodTicks;

        bool ok = sink_.access(req, [this, issue_tick](Tick t) {
            onResponse(issue_tick);
            (void)t;
        });
        if (!ok) {
            --issued_;
            --outstanding_;
            nextIssueAt_ = now;
            scheduleTry(now + params_.retryCycles *
                                  params_.cpuPeriodTicks);
            return;
        }
    }
}

void
CoreModel::onResponse(Tick issue_tick)
{
    fp_assert(outstanding_ > 0, "core response underflow");
    --outstanding_;
    missLatency_.sample(fp::ticksToNs(eq_.now() - issue_tick));
    if (done()) {
        finishTick_ = eq_.now();
        return;
    }
    tryIssue();
}

} // namespace fp::workload
