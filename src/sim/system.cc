#include "sim/system.hh"

#include <algorithm>
#include <fstream>
#include <optional>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace fp::sim
{

/** Adapter: LLC misses into an ORAM front end, the controller or
 *  the shard dispatcher. A false return (address queue full, or the
 *  home shard's window full or its controller busy) is the
 *  retry-later signal. */
template <class Oram>
class System::OramSink : public workload::MemorySink
{
  public:
    explicit OramSink(Oram &oram) : oram_(oram) {}

    bool canAccept() const override { return oram_.canAccept(); }

    bool
    access(const workload::MemRequest &req,
           ResponseFn on_response) override
    {
        auto op = req.isWrite ? oram::Op::write : oram::Op::read;
        std::uint64_t id = oram_.request(
            op, req.addr, {},
            [cb = std::move(on_response)](
                Tick t, const std::vector<std::uint8_t> &) {
                cb(t);
            });
        return id != 0;
    }

  private:
    Oram &oram_;
};

/** Adapter: the insecure baseline, one burst per miss, straight at
 *  the memory backend. */
class System::InsecureSink : public workload::MemorySink
{
  public:
    InsecureSink(mem::MemoryBackend &backend,
                 std::uint64_t block_bytes,
                 std::size_t max_outstanding)
        : backend_(backend), blockBytes_(block_bytes),
          maxOutstanding_(max_outstanding)
    {
    }

    bool canAccept() const override
    {
        return outstanding_ < maxOutstanding_;
    }

    bool
    access(const workload::MemRequest &req,
           ResponseFn on_response) override
    {
        if (!canAccept())
            return false;
        ++outstanding_;
        mem::BackendRequest breq;
        breq.addr = req.addr * blockBytes_;
        breq.isWrite = req.isWrite;
        breq.bytes = backend_.burstBytes();
        breq.onComplete = [this, cb = std::move(on_response)](Tick t) {
            --outstanding_;
            cb(t);
        };
        backend_.access(std::move(breq));
        return true;
    }

  private:
    mem::MemoryBackend &backend_;
    std::uint64_t blockBytes_;
    std::size_t maxOutstanding_;
    std::size_t outstanding_ = 0;
};

System::System(const SimConfig &cfg,
               std::vector<workload::WorkloadProfile> profiles)
    : cfg_(cfg)
{
    fp_assert(profiles.size() == cfg.cores,
              "System: %zu profiles for %u cores", profiles.size(),
              cfg.cores);

    // Every StatGroup constructed below registers with this System's
    // registry, not a global one: the scope makes registry_ the
    // thread's current registry for the duration of construction.
    StatRegistry::Scope stat_scope(registry_);

    if (cfg_.obs.traceEnabled()) {
        tracer_ = std::make_unique<obs::Tracer>(
            cfg_.obs.traceOut, cfg_.obs.traceLevel, eq_.nowPtr());
    }
    if (cfg_.obs.statsEnabled()) {
        intervalStats_ = std::make_unique<obs::IntervalStats>(
            cfg_.obs.statsOut, cfg_.obs.statsIntervalTicks,
            registry_);
    }
    if (cfg_.insecure && cfg_.shards > 1)
        fp_fatal("--shards requires the ORAM path: the insecure "
                 "baseline has no controller to shard");

    // One memory stack per shard. A single stack (shards == 1) is the
    // classic unsharded system: no "s<N>." stat prefix, the root
    // tracer itself, and the configured fault seed as-is.
    const bool sharded = cfg_.shards > 1;
    stacks_.resize(cfg_.shards);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        StackParts &sp = stacks_[s];
        const std::string prefix = sharded ? strprintf("s%u.", s) : "";
        // Every StatGroup this shard's stack constructs gets the
        // "s<N>." name prefix (the dispatcher prefixes its controller
        // stacks the same way), keeping interval-stats keys unique.
        StatNameScope scope(prefix);

        sp.tracer = tracer_.get();
        if (tracer_ && sharded) {
            // Same trace file; tracks land at tid 32 * shard + base
            // with "s<N>."-prefixed names ("s1.controller", ...).
            sp.tracerView = tracer_->makeView(32 * s, prefix);
            sp.tracer = sp.tracerView.get();
        }
        // The profiler tracks ORAM pipeline milestones, so insecure
        // runs (no controller) have nothing for it to measure.
        if (cfg_.obs.profilingEnabled() && !cfg_.insecure) {
            sp.profiler = std::make_unique<obs::RequestProfiler>(
                eq_.nowPtr(), cfg_.controller.bucketBytes());
            if (sp.tracer)
                sp.profiler->setTracer(sp.tracer);
        }

        // Each shard owns a complete store with its own fault and
        // retry layers. Shards derive their fault seeds so they do
        // not replay one another's fault decisions in lockstep.
        SimConfig stack_cfg = cfg_;
        if (sharded) {
            stack_cfg.faults.seed = core::ShardedOram::shardSeed(
                cfg_.faults.seed ^ 0xf417ULL, s);
        }
        sp.mem = std::make_unique<BackendStack>(
            stack_cfg, eq_, sp.tracer, sp.profiler.get());
    }

    if (cfg_.insecure) {
        // The insecure baseline's MSHR-equivalent depth scales with
        // the core count (per-core maxOutstanding each): 64 at the
        // Table-1 default of 16 outstanding x 4 cores.
        sink_ = std::make_unique<InsecureSink>(
            stacks_[0].mem->top(), core::ControllerParams::blockPhysBytes,
            std::size_t{cfg_.maxOutstanding} * cfg_.cores);
    } else if (sharded) {
        std::vector<mem::MemoryBackend *> tops;
        for (const StackParts &sp : stacks_)
            tops.push_back(&sp.mem->top());
        core::ShardedOramParams sop;
        sop.shards = cfg_.shards;
        sop.shardWindow = cfg_.shardWindow;
        sharded_ = std::make_unique<core::ShardedOram>(
            sop, cfg_.controller, eq_, tops);
        sink_ = std::make_unique<OramSink<core::ShardedOram>>(*sharded_);
    } else {
        ctrl_ = std::make_unique<core::OramController>(
            cfg_.controller, eq_, stacks_[0].mem->top());
        sink_ = std::make_unique<OramSink<core::OramController>>(*ctrl_);
    }
    // Each controller reports to its own stack's tracer and profiler.
    for (unsigned s = 0; !cfg_.insecure && s < cfg_.shards; ++s) {
        if (stacks_[s].tracer)
            controllerOf(s).setTracer(stacks_[s].tracer);
        if (stacks_[s].profiler)
            controllerOf(s).setProfiler(stacks_[s].profiler.get());
    }

    // Disjoint per-core address regions (shared for PARSEC mode),
    // spaced by the largest working set.
    std::uint64_t spacing = 1;
    for (const auto &p : profiles)
        spacing = std::max(spacing, p.workingSetBlocks);
    spacing = roundUpPow2(spacing, std::uint64_t{1} << 12);

    for (unsigned c = 0; c < cfg_.cores; ++c) {
        workload::CoreParams cp;
        cp.coreId = c;
        cp.cpuPeriodTicks = cfg_.cpuPeriodTicks;
        cp.maxOutstanding = cfg_.maxOutstanding;
        cp.totalRequests = cfg_.requestsPerCore;
        BlockAddr base =
            cfg_.sharedAddressSpace ? 0 : spacing * 2 * c;
        cores_.push_back(std::make_unique<workload::CoreModel>(
            cp, profiles[c], base, cfg_.seed + c * 0x9111, eq_,
            *sink_));
    }
}

core::OramController &
System::controllerOf(unsigned s) const
{
    return sharded_ ? sharded_->shard(s) : *ctrl_;
}

bool
System::resilienceConfigured() const
{
    return std::any_of(stacks_.begin(), stacks_.end(),
                       [](const StackParts &sp) {
                           return sp.mem->injector() ||
                                  sp.mem->resilient();
                       });
}

bool
System::allDone() const
{
    return std::all_of(cores_.begin(), cores_.end(),
                       [](const auto &c) { return c->done(); });
}

RunResult
System::run(Tick limit)
{
    for (auto &core : cores_)
        core->start();

    if (intervalStats_) {
        // The sampling chain is passive (reads registered stats) and
        // ends itself once the cores finish, so it neither perturbs
        // results nor trips the deadlock assert below.
        intervalStats_->sample(eq_.now());
        intervalStats_->start(eq_, [this] { return !allDone(); });
    }

    bool hit_limit = false;
    bool failed = false;
    std::string failure_msg;
    const auto drive = [&] {
        while (!allDone()) {
            if (eq_.now() > limit) {
                // Truncate rather than abort: the partial run is
                // still a valid (if incomplete) measurement, and a
                // sweep wants an answer for this point, not a dead
                // process.
                hit_limit = true;
                break;
            }
            bool progressed = eq_.step();
            fp_assert(progressed || allDone(),
                      "deadlock: no events but cores unfinished");
        }
    };
    if (resilienceConfigured()) {
        // A run configured to be hostile is allowed to fail: the
        // resilience stack escalates an exhausted retry budget via
        // fp_panic, which the recoverable-failure scope converts to
        // a SimFailure captured in the result instead of an abort.
        ScopedRecoverableFailures recover;
        try {
            drive();
        } catch (const SimFailure &e) {
            failed = true;
            failure_msg = e.what();
        }
    } else {
        drive();
    }

    RunResult r;
    r.hitTickLimit = hit_limit;
    r.failed = failed;
    r.failureMessage = failure_msg;
    for (const auto &core : cores_) {
        r.executionTicks = std::max(r.executionTicks,
                                    core->finishTick());
        r.llcRequests += core->issued();
    }
    if (hit_limit || failed) {
        // Unfinished cores report finishTick() == 0; the truncation
        // (or failure) point is the honest execution time.
        r.executionTicks = std::max(r.executionTicks, eq_.now());
    }

    // Stage counters the profile's effectiveness block reports next
    // to dummyReplacements, pendingSwaps and stashShortcuts.
    std::uint64_t onchip_reads = 0, mac_data_hits = 0, victim_writes = 0;
    if (ctrl_ || sharded_) {
        // Aggregation over the controllers. Histograms and Averages
        // merge (so means weight shards by how many accesses each
        // served), counters sum, the stash peak is the worst shard's.
        // With one controller every merge and sum is exact.
        fp::Histogram latency = controllerOf(0).oramLatency();
        fp::Average read_len, dram_read_len, dram_service;
        std::vector<std::uint64_t> skips;
        for (unsigned s = 0; s < numStacks(); ++s) {
            core::OramController &sc = controllerOf(s);
            if (s > 0)
                latency.merge(sc.oramLatency());
            read_len.merge(sc.readPathLengthStat());
            dram_read_len.merge(sc.dramBucketsReadStat());
            dram_service.merge(sc.dramServiceStat());

            r.realAccesses += sc.realAccesses();
            r.dummyAccesses += sc.dummyAccessesRun();
            r.dummyReplacements += sc.dummyReplacements();
            r.pendingSwaps += sc.pendingSwaps();
            r.mergedLevelsSkipped += sc.mergedLevelsSkipped();
            r.stashShortcuts += sc.stashShortcuts();
            onchip_reads += sc.onChipBucketReads();
            mac_data_hits += sc.admission().macDataHits();
            victim_writes += sc.macVictimWrites();

            const auto &per_level = sc.mergeSkipsPerLevel();
            if (skips.size() < per_level.size())
                skips.resize(per_level.size(), 0);
            for (std::size_t l = 0; l < per_level.size(); ++l)
                skips[l] += per_level[l];

            r.stashPeak = std::max(r.stashPeak, sc.stash().peakSize());
            r.stashOverflows += sc.stash().overflowEvents();
            r.controllerEnergyNj += controllerEnergyNj(sc, eq_.now());
            if (auto *mac = sc.mac()) {
                r.cacheHits += mac->hits();
                r.cacheMisses += mac->misses();
            } else {
                r.cacheHits += sc.onChipBucketReads();
            }
        }
        r.avgLlcLatencyNs = latency.mean();
        r.avgReadPathLen = read_len.mean();
        r.avgDramBucketsRead = dram_read_len.mean();
        r.avgDramServiceNs = dram_service.mean();
        r.mergeSkipsPerLevel = std::move(skips);
    } else {
        // Insecure runs: "latency" is the cores' observed miss time.
        double sum = 0.0;
        std::uint64_t n = 0;
        for (const auto &core : cores_) {
            sum += core->missLatency().mean() *
                   static_cast<double>(core->missLatency().count());
            n += core->missLatency().count();
        }
        r.avgLlcLatencyNs = n ? sum / static_cast<double>(n) : 0.0;
    }

    if (sharded_) {
        r.shards = sharded_->numShards();
        r.shardWindow = cfg_.shardWindow;
        r.shardWindowRejects = sharded_->windowRejects();
        r.shardBusyRejects = sharded_->busyRejects();
        for (unsigned s = 0; s < r.shards; ++s) {
            const core::OramController &sc = sharded_->shard(s);
            r.shardDispatched.push_back(sharded_->dispatched(s));
            r.shardRealAccesses.push_back(sc.realAccesses());
            r.shardDummyAccesses.push_back(sc.dummyAccessesRun());
            r.shardAvgLlcLatencyNs.push_back(sc.oramLatency().mean());
        }
        r.reqStreamFingerprint = sharded_->reqStreamFingerprint();
    } else if (ctrl_) {
        r.reqStreamFingerprint = ctrl_->reqStreamFingerprint();
    }

    // Memory-side aggregation over the stacks. The base stores'
    // latency is a burst-weighted mean across shards; a single stack
    // reports its own mean as-is (the weighted form is not always
    // bit-equal to it in floating point).
    double weighted_ns = 0.0;
    std::uint64_t bursts = 0;
    r.backendKind = stacks_[0].mem->base().kind();
    for (const StackParts &sp : stacks_) {
        const BackendStack &st = *sp.mem;
        if (dram::DramSystem *dram = st.dram()) {
            r.rowHits += dram->rowHits();
            r.rowMisses += dram->rowMisses();
            r.dramEnergyNj += dram->energy(eq_.now()).total();
        }
        if (mem::FaultInjector *inj = st.injector()) {
            r.faultsEnabled = true;
            r.faultLossInjected += inj->lossInjected();
            r.faultErrorInjected += inj->errorInjected();
            r.faultSpikeInjected += inj->spikeInjected();
            r.faultOutageDropped += inj->outageDropped();
        }
        if (mem::ResilientBackend *res = st.resilient()) {
            r.retryEnabled = true;
            r.retryAttempts += res->retries();
            r.retryTimeouts += res->timeouts();
            r.retryDedupDropped += res->dedupDropped();
            r.retryExhausted += res->exhausted();
            r.retryMaxAttempts =
                std::max(r.retryMaxAttempts, res->maxAttempts());
        }
        const mem::BackendStats bs = st.base().statsSnapshot();
        r.backendReadBursts += bs.readBursts;
        r.backendWriteBursts += bs.writeBursts;
        r.backendBytesRead += bs.bytesRead;
        r.backendBytesWritten += bs.bytesWritten;
        const std::uint64_t n = bs.readBursts + bs.writeBursts;
        weighted_ns += bs.avgLatencyNs * static_cast<double>(n);
        bursts += n;
    }
    if (stacks_.size() == 1) {
        r.backendAvgLatencyNs =
            stacks_[0].mem->base().statsSnapshot().avgLatencyNs;
    } else if (bursts) {
        r.backendAvgLatencyNs = weighted_ns / static_cast<double>(bursts);
    }

    if (stacks_[0].profiler) {
        // A sharded run rolls its per-shard profilers up into one
        // report. The aggregate is scratch: a throwaway registry
        // keeps its StatGroup out of this System's registry (the
        // per-shard "s<N>.request_profiler" groups are the live ones).
        StatRegistry tmp;
        std::optional<obs::RequestProfiler> agg;
        const obs::RequestProfiler *prof = stacks_[0].profiler.get();
        if (stacks_.size() > 1) {
            StatRegistry::Scope tmp_scope(tmp);
            agg.emplace(eq_.nowPtr(), cfg_.controller.bucketBytes());
            for (const StackParts &sp : stacks_)
                agg->merge(*sp.profiler);
            prof = &*agg;
        }
        r.profiled = true;
        r.profiledRequests = prof->completed();
        r.profileStages = prof->stageSummaries();
        // The profiler counts the access shapes; each pipeline event
        // is counted once, by its stage, and summed above.
        obs::ProfileEffectiveness &eff = r.profileEffectiveness;
        eff = prof->effectiveness();
        eff.writebacksReplaced = r.dummyReplacements;
        eff.pendingSwaps = r.pendingSwaps;
        eff.stashShortcuts = r.stashShortcuts;
        eff.onChipBucketReads = onchip_reads;
        eff.macDataHits = mac_data_hits;
        eff.cacheVictimWrites = victim_writes;
        if (!cfg_.obs.profileOut.empty()) {
            std::ofstream out(cfg_.obs.profileOut);
            if (!out) {
                fp_fatal("cannot open --profile-out file '%s'",
                         cfg_.obs.profileOut.c_str());
            }
            out << prof->reportJson(eff) << '\n';
        }
    }

    if (intervalStats_) {
        // Flush the final partial interval (skipped when the run ends
        // exactly on a sample tick, which would emit a duplicate) and
        // seal the file.
        intervalStats_->finish(eq_.now());
    }
    if (tracer_)
        tracer_->finish();
    return r;
}

} // namespace fp::sim
