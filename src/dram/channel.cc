#include "dram/channel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace fp::dram
{

Channel::Channel(unsigned id, const DramParams &params, EventQueue &eq)
    : id_(id), p_(params), eq_(eq),
      latency_(64, fp::ticksToNs(params.timing.cycles(8))),
      stats_("dram.ch" + std::to_string(id))
{
    banks_.reserve(p_.org.banksTotal());
    for (unsigned b = 0; b < p_.org.banksTotal(); ++b)
        banks_.emplace_back(p_.timing, p_.pagePolicy);

    stats_.regCounter("row_hits", rowHits_, "row buffer hits");
    stats_.regCounter("row_misses", rowMisses_, "row buffer misses");
    stats_.regCounter("read_bursts", readBursts_, "64B read bursts");
    stats_.regCounter("write_bursts", writeBursts_, "64B write bursts");
    stats_.regHistogram("latency_ns", latency_,
                        "transaction latency (ns)");
    stats_.regGauge(
        "queue_depth", [this] { return double(queue_.size()); },
        "transactions waiting in the channel queue");
    stats_.regGauge(
        "row_hit_rate",
        [this] {
            auto total = rowHits_.value() + rowMisses_.value();
            return total ? static_cast<double>(rowHits_.value()) /
                               static_cast<double>(total)
                         : 0.0;
        },
        "cumulative row-buffer hit rate");
}

void
Channel::setTracer(obs::Tracer *tracer)
{
    trc_ = tracer;
    if (trc_ && trc_->on(obs::TraceLevel::full)) {
        std::string name = "dram.ch" + std::to_string(id_);
        trc_->nameTrack(
            static_cast<obs::Track>(
                static_cast<unsigned>(obs::Track::dram0) + id_),
            name.c_str());
    }
}

void
Channel::enqueue(Transaction tx)
{
    fp_assert(tx.bank < banks_.size(), "enqueue: bad bank %u", tx.bank);
    tx.enqueued = eq_.now();
    queue_.push_back(std::move(tx));
    kick();
}

void
Channel::resetStats()
{
    rowHits_.reset();
    rowMisses_.reset();
    readBursts_.reset();
    writeBursts_.reset();
    latency_.reset();
}

std::size_t
Channel::pickNext() const
{
    // FR-FCFS within the scheduler window: first queued transaction
    // whose bank has its row open; otherwise the oldest.
    std::size_t window =
        std::min<std::size_t>(queue_.size(), p_.schedulerWindow);
    for (std::size_t i = 0; i < window; ++i) {
        const Transaction &tx = queue_[i];
        const Bank &bank = banks_[tx.bank];
        if (bank.rowOpen() && bank.openRow() == tx.row)
            return i;
    }
    return 0;
}

Tick
Channel::refreshConstraint(Tick now)
{
    const Tick refi = p_.timing.cycles(p_.timing.tREFI);
    const Tick rfc = p_.timing.cycles(p_.timing.tRFC);
    Tick epoch = now / refi;
    if (epoch != lastRefreshEpoch_) {
        // One or more refreshes elapsed since the channel was last
        // used; they closed every row.
        for (auto &bank : banks_)
            bank.closeRow();
        lastRefreshEpoch_ = epoch;
    }
    // Refreshes fire at epoch boundaries after the first interval;
    // the bus is blocked for tRFC after each one.
    if (epoch == 0)
        return now;
    Tick refresh_start = epoch * refi;
    if (now < refresh_start + rfc)
        return refresh_start + rfc;
    return now;
}

void
Channel::kick()
{
    if (issuing_ || queue_.empty())
        return;

    std::size_t pick = pickNext();
    Transaction tx = std::move(queue_[pick]);
    queue_.erase(queue_.begin() +
                 static_cast<std::ptrdiff_t>(pick));

    Tick now = eq_.now();
    Tick earliest = refreshConstraint(now);

    // Activate-rate constraints: tRRD since the previous ACT and at
    // most four ACTs per tFAW window (no constraint before the first
    // ACT ever issued).
    Tick act_allowed =
        actWindow_.empty()
            ? 0
            : lastActAt_ + p_.timing.cycles(p_.timing.tRRD);
    if (actWindow_.size() >= 4) {
        act_allowed = std::max(
            act_allowed,
            actWindow_.front() + p_.timing.cycles(p_.timing.tFAW));
    }

    Bank &bank = banks_[tx.bank];
    AccessPlan plan = bank.plan(tx.row, tx.isWrite, earliest,
                                act_allowed);

    // Bus turnaround on direction switch: write->read pays tWTR (the
    // write must reach the array before the bank can be read),
    // read->write only the tRTRS bus gap. The first transfer on an
    // idle channel pays nothing.
    Tick bus_free = dataBusFreeAt_;
    if (lastDir_ == BusDir::write && !tx.isWrite)
        bus_free += p_.timing.cycles(p_.timing.tWTR);
    else if (lastDir_ == BusDir::read && tx.isWrite)
        bus_free += p_.timing.readToWriteGap();

    Tick first_burst = std::max(plan.firstData, bus_free);
    Tick last_burst_end =
        first_burst + p_.timing.cycles(p_.timing.tBURST) * tx.bursts;

    bank.commit(plan, tx.row, tx.isWrite, tx.bursts);
    if (!plan.rowHit) {
        rowMisses_.inc();
        lastActAt_ = plan.actAt;
        actWindow_.push_back(plan.actAt);
        while (actWindow_.size() > 4)
            actWindow_.pop_front();
    } else {
        rowHits_.inc();
    }
    if (tx.isWrite)
        writeBursts_.inc(tx.bursts);
    else
        readBursts_.inc(tx.bursts);

    dataBusFreeAt_ = last_burst_end;
    lastDir_ = tx.isWrite ? BusDir::write : BusDir::read;
    issuing_ = true;

    if (trc_ && trc_->on(obs::TraceLevel::full)) {
        trc_->complete(
            static_cast<obs::Track>(
                static_cast<unsigned>(obs::Track::dram0) + id_),
            tx.isWrite ? "WR" : "RD", now, last_burst_end,
            {obs::TraceArg::num("bank", tx.bank),
             obs::TraceArg::num("row", tx.row),
             obs::TraceArg::flag("row_hit", plan.rowHit),
             obs::TraceArg::num("bursts", tx.bursts)});
    }

    Tick enqueued = tx.enqueued;
    eq_.schedule(last_burst_end, [this, enqueued,
                                  on_complete = std::move(tx.onComplete)] {
        latency_.sample(fp::ticksToNs(eq_.now() - enqueued));
        issuing_ = false;
        if (on_complete)
            on_complete(eq_.now());
        kick();
    });
}

} // namespace fp::dram
