#include "core/oram_controller.hh"

#include <algorithm>

#include "core/overlap.hh"
#include "obs/request_profiler.hh"
#include "util/logging.hh"

namespace fp::core
{

namespace
{

/** Gap between read and write phases (Figure 1(c) idle). */
constexpr Tick idleGapTicks = 10'000; // 10 ns

} // anonymous namespace

const ControllerParams &
OramController::checked(const ControllerParams &p)
{
    p.validate();
    return p;
}

OramController::OramController(const ControllerParams &params,
                               EventQueue &eq,
                               mem::MemoryBackend &backend)
    : params_(checked(params)), eq_(eq), mem_(backend),
      geo_(params.oram.geometry()),
      posMap_(geo_, params.oram.seed ^ 0xa11ce),
      stash_(geo_, params.oram.stashCapacity),
      store_(geo_, params.oram.z, params.oram.payloadBytes,
             params.oram.encrypt, params.oram.seed ^ 0xc1f3),
      layout_(geo_, params.bucketBytes(), mem_.rowBytes(),
              params.layout),
      rng_(params.oram.seed ^ 0xf0c4),
      ctx_{params_, eq_, mem_, geo_, posMap_, stash_, store_, layout_},
      wb_(ctx_), read_(ctx_), scheduler_(ctx_, wb_),
      admission_(ctx_, scheduler_),
      llcLatency_(256, 100.0), // 100 ns buckets
      stats_("oram_controller")
{
    if (params_.cachePolicy == CachePolicy::treetop) {
        treetop_ = std::make_unique<oram::TreetopCache>(
            geo_, params_.bucketBytes(), params_.cacheBudgetBytes);
    } else if (params_.cachePolicy == CachePolicy::mac) {
        MergingCacheParams mp;
        mp.m1 = macBottomLevel(geo_);
        mp.budgetBytes = params_.cacheBudgetBytes;
        mp.bucketBytes = params_.bucketBytes();
        mp.z = params_.oram.z;
        mac_ = std::make_unique<MergingAwareCache>(geo_, mp);
    }
    if (params_.enableIntegrity) {
        merkle_ = std::make_unique<oram::MerkleTree>(
            geo_, params_.oram.seed ^ 0x3ec71e);
    }
    if (params_.recursionDepth > 0 && params_.plbEntries > 0) {
        plb_ = std::make_unique<PosmapLookasideBuffer>(
            params_.recursionDepth, params_.recursionFanout,
            params_.plbEntries);
    }
    ctx_.treetop = treetop_.get();
    ctx_.mac = mac_.get();
    ctx_.merkle = merkle_.get();
    ctx_.plb = plb_.get();

    AdmissionStage::Hooks hooks;
    hooks.respond = [this](std::uint64_t id,
                           const std::vector<std::uint8_t> &data) {
        respond(id, data);
    };
    hooks.tryReplaceOrSwap = [this](const ActiveAccess &incoming) {
        return scheduler_.tryReplaceOrSwap(incoming, current_);
    };
    admission_.setHooks(std::move(hooks));

    stats_.regHistogram("llc_latency_ns", llcLatency_,
                        "LLC request completion latency");
    stats_.regAverage("read_path_len", read_.readLenStat(),
                      "tree levels fetched per access");
    stats_.regAverage("dram_buckets_read", read_.dramReadLenStat(),
                      "buckets fetched from DRAM per access");
    stats_.regAverage("dram_service_ns", dramService_,
                      "read+write phase duration per access");
    stats_.regCounter("real_accesses", realAccesses_,
                      "real ORAM accesses performed");
    stats_.regCounter("dummy_accesses", dummyAccesses_,
                      "dummy ORAM accesses performed");
    stats_.regCounter("dummy_replacements",
                      scheduler_.dummyReplacementsStat(),
                      "pending dummies replaced by real requests");
    stats_.regCounter("pending_swaps", scheduler_.pendingSwapsStat(),
                      "pending real requests swapped for better overlap");
    stats_.regCounter("stash_shortcuts",
                      admission_.stashShortcutsStat(),
                      "requests served directly from the stash");
    stats_.regCounter("onchip_bucket_reads",
                      read_.onChipBucketReadsStat(),
                      "bucket reads served by treetop/MAC");
    stats_.regCounter("mac_victim_writes", wb_.macVictimWritesStat(),
                      "MAC evictions written back to DRAM");
    stats_.regHistogram("fork_level", read_.forkLevelHist(),
                        "read-phase start level per access");
    stats_.regHistogram("overlap_level", scheduler_.overlapHist(),
                        "scheduled refill stop level per access");
    stats_.regCounter("merge_skipped_levels",
                      read_.mergeSkippedLevelsStat(),
                      "tree levels skipped by path merging");
    stats_.regGauge(
        "stash_depth", [this] { return double(stash_.size()); },
        "blocks resident in the stash");
    stats_.regGauge(
        "label_queue_real",
        [this] { return double(scheduler_.labelQueue().realCount()); },
        "real entries in the label queue");
    stats_.regGauge(
        "label_queue_total",
        [this] { return double(scheduler_.labelQueue().size()); },
        "total entries in the label queue");
    stats_.regGauge(
        "addr_queue_depth",
        [this] { return double(admission_.queue().size()); },
        "entries in the address queue");
}

void
OramController::setTracer(obs::Tracer *tracer)
{
    ctx_.trc = tracer;
    scheduler_.labelQueue().setTracer(tracer);
    stash_.setTracer(tracer);
    if (mac_)
        mac_->setTracer(tracer);
    if (tracer && tracer->on(obs::TraceLevel::access)) {
        tracer->nameTrack(obs::Track::controller, "controller");
        tracer->nameTrack(obs::Track::schedule, "scheduler");
        tracer->nameTrack(obs::Track::cache, "caches");
        tracer->nameTrack(obs::Track::revealed, "revealed");
        tracer->nameTrack(obs::Track::stash, "stash");
        tracer->nameTrack(obs::Track::queues, "queues");
        tracer->nameTrack(obs::Track::admission, "admission");
        tracer->instant(obs::Track::admission, "policy",
                        {obs::TraceArg::str(
                            "name", policyKindName(params_.policy))});
    }
}

void
OramController::setProfiler(obs::RequestProfiler *prof)
{
    ctx_.prof = prof;
    scheduler_.labelQueue().setProfiler(prof);
    stash_.setProfiler(prof);
}

bool
OramController::canAccept() const
{
    return !admission_.queue().full();
}

void
OramController::setRequestIdStream(std::uint64_t first,
                                   std::uint64_t stride)
{
    fp_assert(first != 0 && stride != 0,
              "setRequestIdStream: ids must be non-zero and advance");
    fp_assert(nextId_ == 1 && llc_.empty(),
              "setRequestIdStream: requests already issued");
    nextId_ = first;
    idStride_ = stride;
}

std::uint64_t
OramController::request(oram::Op op, BlockAddr addr,
                        std::vector<std::uint8_t> payload,
                        DataCallback cb)
{
    AddressQueue &aq = admission_.queue();
    if (aq.full())
        return 0;

    std::uint64_t id = nextId_;
    nextId_ += idStride_;
    AddressEntry entry;
    entry.id = id;
    entry.addr = addr;
    entry.op = op;
    entry.payload = std::move(payload);
    entry.arrival = eq_.now();

    auto result = aq.insert(std::move(entry));
    fp_assert(result.accepted, "address queue rejected with space");
    if (ctx_.prof)
        ctx_.prof->onArrival(id);
    if (result.cancelledId != 0) {
        // The superseded write is acknowledged immediately; the
        // younger write carries the live data from here on.
        respond(result.cancelledId, {});
    }
    if (result.forwarded) {
        // Write-before-Read forwarding: done without an ORAM access.
        llcLatency_.sample(0.0);
        if (ctx_.prof)
            ctx_.prof->onComplete(id);
        if (cb)
            cb(eq_.now(), result.forwardData);
        return id;
    }

    LlcRequest req;
    req.id = id;
    req.addr = addr;
    req.op = op;
    req.payload = aq.find(id)->payload;
    req.arrival = eq_.now();
    req.cb = std::move(cb);
    llc_.emplace(id, std::move(req));
    ++outstandingLlc_;

    pumpFrontend();
    maybeStartBackend();
    return id;
}

bool
OramController::realWorkPending() const
{
    return admission_.queue().issuableCount() > 0 ||
           scheduler_.realWork();
}

bool
OramController::shouldRunBackend() const
{
    // Background eviction (Ren et al.): an over-full stash keeps the
    // dummy stream running so refills drain blocks into the tree.
    bool stash_pressure = stash_.size() >= params_.oram.stashCapacity;
    // Periodic mode never parks: the nonstop access stream is the
    // whole point (Section 2.2's timing-channel seal).
    return params_.periodicIntervalTicks != 0 ||
           realWorkPending() || stash_pressure;
}

void
OramController::respond(std::uint64_t llc_id,
                        const std::vector<std::uint8_t> &data)
{
    auto it = llc_.find(llc_id);
    fp_assert(it != llc_.end(), "respond: unknown LLC id");
    LlcRequest req = std::move(it->second);
    llc_.erase(it);

    llcLatency_.sample(fp::ticksToNs(eq_.now() - req.arrival));
    if (ctx_.prof)
        ctx_.prof->onComplete(llc_id);
    fp_assert(outstandingLlc_ > 0, "respond: LLC underflow");
    --outstandingLlc_;
    if (req.cb)
        req.cb(eq_.now(), data);

    // Releasing the address-queue entry may unblock held writes and
    // complete piggybacked reads.
    for (std::uint64_t pid : admission_.queue().complete(llc_id, data))
        respond(pid, data);
}

void
OramController::pumpFrontend()
{
    admission_.pump(phase_ != Phase::idle);
}

void
OramController::maybeStartBackend()
{
    if (phase_ == Phase::writeParked) {
        // A real arrival resumes the lazily-parked dummy refill; its
        // write-phase selection will see the newcomer.
        if (shouldRunBackend()) {
            phase_ = Phase::idleGap;
            eq_.scheduleIn(idleGapTicks, [this] {
                if (phase_ == Phase::idleGap)
                    startWrite();
            });
        }
        return;
    }
    if (phase_ != Phase::idle)
        return;

    if (!current_) {
        // Pick a fresh access via the scheduling policy.
        if (params_.merging() && !shouldRunBackend())
            return; // never spin pure-dummy cycles while idle
        if (auto acc = scheduler_.selectFresh()) {
            current_ = *acc;
        } else if (params_.periodicIntervalTicks != 0) {
            // Non-merging periodic baseline: keep the stream alive
            // with a plain dummy access.
            ActiveAccess d;
            d.dummy = true;
            d.label = posMap_.randomLabel();
            current_ = d;
        } else {
            return;
        }
        // A cold pick never has retained levels beyond what the last
        // write left; the scheduler's retained prefix reflects that.
    }

    // A committed dummy's read runs eagerly even when idle (it is
    // off the critical path); its refill parks in onReadDone.
    phase_ = Phase::readWait;
    Tick when = eq_.now() + idleGapTicks;
    if (params_.periodicIntervalTicks != 0) {
        // Pace accesses onto the fixed data-independent grid.
        when = std::max(when, periodicNextStart_);
        periodicNextStart_ =
            when + params_.periodicIntervalTicks;
    }
    eq_.schedule(when, [this] {
        if (phase_ == Phase::readWait)
            startRead();
    });
}

void
OramController::startRead()
{
    fp_assert(current_.has_value(), "startRead without current");
    phase_ = Phase::reading;
    unsigned start_level =
        params_.merging() ? scheduler_.retainedLevels() : 0;
    read_.start(*current_, start_level, [this] { onReadDone(); });
}

void
OramController::onReadDone()
{
    ActiveAccess &acc = *current_;
    if (!acc.dummy) {
        if (acc.chainIndex < params_.recursionDepth) {
            // Position-map chain element: its "data" is the label of
            // the next chain element, which can now be issued.
            auto chain_it = llc_.find(acc.llcId);
            fp_assert(chain_it != llc_.end(),
                      "chain for retired LLC id");
            if (plb_)
                plb_->fill(chain_it->second.addr, acc.chainIndex);

            ActiveAccess next;
            next.dummy = false;
            next.llcId = acc.llcId;
            next.chainIndex = acc.chainIndex + 1;
            if (next.chainIndex == params_.recursionDepth) {
                next.addr = chain_it->second.addr;
                next.label = posMap_.lookupOrAssign(next.addr);
                next.newLeaf = posMap_.remap(next.addr);
            } else {
                next.label = posMap_.randomLabel();
            }
            if (!scheduler_.tryReplaceOrSwap(next, current_))
                scheduler_.enqueue(next);
        } else {
            // Data element: install the block and answer the LLC.
            auto it = llc_.find(acc.llcId);
            fp_assert(it != llc_.end(), "data access for retired id");
            LlcRequest &req = it->second;

            mem::Block *blk = stash_.find(acc.addr);
            if (!blk) {
                // First touch: materialise a zeroed block.
                stash_.insert(mem::Block(
                    acc.addr, acc.newLeaf,
                    std::vector<std::uint8_t>(
                        params_.oram.payloadBytes, 0)));
                blk = stash_.find(acc.addr);
            } else {
                blk->leaf = acc.newLeaf;
            }
            std::vector<std::uint8_t> data = blk->payload;
            if (req.op == oram::Op::write)
                blk->payload = req.payload;
            respond(acc.llcId, data);
        }
    }

    if (current_->dummy && !shouldRunBackend()) {
        // Lazy refill: hold the dummy's write phase until there is a
        // real request to merge it with (resumed by
        // maybeStartBackend on the next arrival).
        if (ctx_.traceOn())
            ctx_.trc->instant(
                obs::Track::controller, "park",
                {obs::TraceArg::num("label", current_->label)});
        phase_ = Phase::writeParked;
        return;
    }

    phase_ = Phase::idleGap;
    eq_.scheduleIn(idleGapTicks, [this] {
        if (phase_ == Phase::idleGap)
            startWrite();
    });
}

void
OramController::startWrite()
{
    fp_assert(current_.has_value(), "startWrite without current");
    phase_ = Phase::writing;
    unsigned stop_level = scheduler_.scheduleWriteback(*current_);
    wb_.start(*current_, stop_level, [this] { onWriteDone(); });
}

void
OramController::onWriteDone()
{
    phase_ = Phase::idle;

    dramService_.sample(
        fp::ticksToNs((read_.doneTick() - read_.startTick()) +
                      (eq_.now() - wb_.startTick())));
    if (current_->dummy)
        dummyAccesses_.inc();
    else
        realAccesses_.inc();
    if (ctx_.prof) {
        ctx_.prof->onAccessDone(read_.startLevel(), wb_.stopLevel(),
                                geo_.numLevels(), read_.dramBuckets(),
                                wb_.dramBuckets());
    }

    if (revealTraceEnabled_) {
        revealTrace_.push_back({current_->label, read_.startLevel(),
                                wb_.stopLevel(), current_->dummy,
                                read_.startTick()});
    }
    if (ctx_.traceOn()) {
        ctx_.trc->complete(
            obs::Track::controller, "refill", wb_.startTick(),
            eq_.now(),
            {obs::TraceArg::num("label", current_->label),
             obs::TraceArg::num("stop_level", wb_.stopLevel())});
        // The revealed track carries exactly what an adversary on
        // the memory bus sees: one slice per access, shaped by the
        // revealTrace() fields (tests/test_obs.cc checks agreement).
        ctx_.trc->complete(
            obs::Track::revealed, "access", read_.startTick(),
            eq_.now(),
            {obs::TraceArg::num("label", current_->label),
             obs::TraceArg::num("read_start", read_.startLevel()),
             obs::TraceArg::num("write_stop", wb_.stopLevel()),
             obs::TraceArg::flag("dummy", current_->dummy)});
    }

    stash_.recordOccupancy();
    scheduler_.noteAccessDone(current_->label, wb_.stopLevel());

    if (params_.merging()) {
        current_ = scheduler_.takePending();
    } else {
        current_.reset();
    }

    pumpFrontend();
    maybeStartBackend();
}

} // namespace fp::core
