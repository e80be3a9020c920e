#include "traced.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/sharded_oram.hh"
#include "dram/dram_backend.hh"
#include "dram/dram_system.hh"
#include "mem/net_backend.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "workload/core_model.hh"

namespace fp::perf
{

namespace
{

/** Record one op's host time from request() to its response. */
void
recordOp(TraceResult &r, bool write, Clock::time_point issued)
{
    const double us = secondsSince(issued) * 1e6;
    if (write) {
        r.writeUsSum += us;
        ++r.writes;
    } else {
        r.readUsSum += us;
        ++r.reads;
    }
}

/**
 * The cores' memory sink, as sim::System builds it (OramSink /
 * ShardedSink), with request() inside a core.request span and each
 * request's host time to its response recorded per op kind.
 */
template <typename Target>
class TimedSink final : public workload::MemorySink
{
  public:
    TimedSink(Target &target, TraceResult &r) : target_(target), r_(r) {}

    bool canAccept() const override { return target_.canAccept(); }

    bool
    access(const workload::MemRequest &req,
           ResponseFn on_response) override
    {
        Span span(r_.spans, Layer::coreRequest);
        const bool write = req.isWrite;
        const std::uint64_t id = target_.request(
            write ? oram::Op::write : oram::Op::read, req.addr, {},
            [this, write, issued = span.start(),
             cb = std::move(on_response)](
                Tick t, const std::vector<std::uint8_t> &) {
                recordOp(r_, write, issued);
                cb(t);
            });
        r_.rejected += id == 0;
        return id != 0;
    }

  private:
    Target &target_;
    TraceResult &r_;
};

/** Simulated counters over every controller / store of the stack. */
void
collectCounters(TraceResult &r,
                const std::vector<core::OramController *> &ctrls,
                const std::vector<mem::MemoryBackend *> &bases,
                const std::vector<dram::DramSystem *> &drams)
{
    fp::Average dram_reads;
    for (core::OramController *c : ctrls) {
        r.accesses += c->totalAccesses();
        r.dummyAccesses += c->dummyAccessesRun();
        dram_reads.merge(c->dramBucketsReadStat());
        r.mergedLevelsSkipped += c->mergedLevelsSkipped();
        r.onchipBucketReads += c->onChipBucketReads();
        r.stashPeak = std::max<std::uint64_t>(r.stashPeak,
                                              c->stash().peakSize());
        r.materializedBuckets += c->store().materializedBuckets();
    }
    r.dramBucketsPerAccess = dram_reads.mean();

    double weighted_ns = 0.0;
    std::uint64_t bursts = 0;
    for (const mem::MemoryBackend *b : bases) {
        const mem::BackendStats bs = b->statsSnapshot();
        const std::uint64_t n = bs.readBursts + bs.writeBursts;
        weighted_ns += bs.avgLatencyNs * static_cast<double>(n);
        bursts += n;
    }
    r.memAvgLatencyNs =
        bursts ? weighted_ns / static_cast<double>(bursts) : 0.0;

    std::uint64_t hits = 0, misses = 0;
    for (const dram::DramSystem *d : drams) {
        hits += d->rowHits();
        misses += d->rowMisses();
    }
    r.rowHitRate = hits + misses ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0.0;
}

/** Mirrors sim::System's single and sharded wiring (no tracer, no
 *  profiler, no fault stack), one TimedBackend above each store. */
TraceResult
tracedSystem(const Workload &w, const Options &opt)
{
    const sim::SimConfig cfg = systemConfig(w, opt);
    const auto profiles = systemProfiles();
    const unsigned shards = std::max(cfg.shards, 1u);
    TraceResult r;

    const Clock::time_point t0 = Clock::now();
    EventQueue eq;
    std::vector<std::unique_ptr<dram::DramSystem>> drams;
    std::vector<std::unique_ptr<mem::MemoryBackend>> bases;
    std::vector<std::unique_ptr<TimedBackend>> timed;
    std::vector<mem::MemoryBackend *> tops;
    for (unsigned s = 0; s < shards; ++s) {
        if (cfg.backendKind == sim::BackendKind::dram) {
            drams.push_back(
                std::make_unique<dram::DramSystem>(cfg.dram, eq));
            bases.push_back(
                std::make_unique<dram::DramBackend>(*drams.back()));
        } else {
            bases.push_back(
                std::make_unique<mem::NetBackend>(cfg.net, eq));
        }
        timed.push_back(
            std::make_unique<TimedBackend>(*bases.back(), r.spans));
        tops.push_back(timed.back().get());
    }

    std::unique_ptr<core::OramController> ctrl;
    std::unique_ptr<core::ShardedOram> sharded;
    std::unique_ptr<workload::MemorySink> sink;
    std::vector<core::OramController *> ctrls;
    if (shards > 1) {
        core::ShardedOramParams sop;
        sop.shards = shards;
        sop.shardWindow = cfg.shardWindow;
        sharded = std::make_unique<core::ShardedOram>(
            sop, cfg.controller, eq, tops);
        sink = std::make_unique<TimedSink<core::ShardedOram>>(*sharded,
                                                              r);
        for (unsigned s = 0; s < shards; ++s)
            ctrls.push_back(&sharded->shard(s));
    } else {
        ctrl = std::make_unique<core::OramController>(cfg.controller, eq,
                                                      *tops[0]);
        sink = std::make_unique<TimedSink<core::OramController>>(*ctrl,
                                                                 r);
        ctrls.push_back(ctrl.get());
    }

    std::uint64_t spacing = 1;
    for (const auto &p : profiles)
        spacing = std::max(spacing, p.workingSetBlocks);
    spacing = roundUpPow2(spacing, std::uint64_t{1} << 12);
    std::vector<std::unique_ptr<workload::CoreModel>> cores;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        workload::CoreParams cp;
        cp.coreId = c;
        cp.cpuPeriodTicks = cfg.cpuPeriodTicks;
        cp.maxOutstanding = cfg.maxOutstanding;
        cp.totalRequests = cfg.requestsPerCore;
        const BlockAddr base = cfg.sharedAddressSpace ? 0 : spacing * 2 * c;
        cores.push_back(std::make_unique<workload::CoreModel>(
            cp, profiles[c], base, cfg.seed + c * 0x9111, eq, *sink));
    }
    r.setupS = secondsSince(t0);

    const auto all_done = [&cores] {
        return std::all_of(cores.begin(), cores.end(),
                           [](const auto &c) { return c->done(); });
    };
    r.spans.reset();
    {
        Span root(r.spans, Layer::run);
        for (auto &core : cores)
            core->start();
        while (!all_done()) {
            if (!eq.step()) {
                r.error = "deadlock: no events but cores unfinished";
                break;
            }
            ++r.events;
        }
    }

    Tick exec = 0;
    std::uint64_t llc = 0;
    for (const auto &core : cores) {
        exec = std::max(exec, core->finishTick());
        llc += core->issued();
    }
    r.attempted = std::uint64_t{cfg.cores} * cfg.requestsPerCore;
    if (r.error.empty() && llc != r.attempted)
        r.error = strprintf("%llu of %llu requests issued",
                            static_cast<unsigned long long>(llc),
                            static_cast<unsigned long long>(r.attempted));
    if (!r.error.empty())
        r.failed = r.attempted;

    // Same aggregation order as System::run, so the doubles match.
    fp::Histogram latency = ctrls[0]->oramLatency();
    fp::Average read_len;
    for (std::size_t s = 0; s < ctrls.size(); ++s) {
        if (s > 0)
            latency.merge(ctrls[s]->oramLatency());
        read_len.merge(ctrls[s]->readPathLengthStat());
    }
    std::uint64_t bytes = 0;
    std::vector<mem::MemoryBackend *> base_ptrs;
    for (const auto &b : bases) {
        const mem::BackendStats bs = b->statsSnapshot();
        bytes += bs.bytesRead + bs.bytesWritten;
        base_ptrs.push_back(b.get());
    }
    r.sim.simTimeMs = static_cast<double>(exec) /
                      static_cast<double>(ticksPerSimMs);
    r.sim.llcLatencyNs = latency.mean();
    r.sim.pathLen = read_len.mean();
    r.sim.memBytesPerReq =
        static_cast<double>(bytes) /
        static_cast<double>(std::max<std::uint64_t>(llc, 1));

    std::vector<dram::DramSystem *> dram_ptrs;
    for (const auto &d : drams)
        dram_ptrs.push_back(d.get());
    collectCounters(r, ctrls, base_ptrs, dram_ptrs);
    if (sharded)
        r.shardWindowRejects = sharded->windowRejects();
    return r;
}

/** Mirrors sim::SyncOram over the default DRAM part, with the
 *  bulk load and blocking read/write spelled out on the controller. */
TraceResult
tracedKv(const Workload &w, const Options &opt)
{
    const auto blocks = kvInitialBlocks(kvBlockCount(opt));
    const std::vector<KvOp> ops = kvOps(w, opt);
    TraceResult r;

    const Clock::time_point t0 = Clock::now();
    EventQueue eq;
    dram::DramSystem dram(sim::SimConfig::defaultDram(), eq);
    dram::DramBackend base(dram);
    TimedBackend timed(base, r.spans);
    core::OramController ctrl(kvParams(), eq, timed);

    // SyncOram::read / write: submit, then step until the answer. A
    // failed call can leave its callback, which refers to the call's locals,
    // queued, so callers stop at the first failure.
    const auto blocking = [&](oram::Op op, BlockAddr addr,
                              std::vector<std::uint8_t> payload,
                              std::vector<std::uint8_t> *out) {
        bool done = false;
        std::uint64_t id = 0;
        {
            Span span(r.spans, Layer::coreRequest);
            id = ctrl.request(op, addr, std::move(payload),
                              [&](Tick, const std::vector<std::uint8_t> &d) {
                                  if (out)
                                      *out = d;
                                  done = true;
                              });
        }
        if (id == 0) {
            ++r.rejected;
            return false;
        }
        while (!done) {
            if (!eq.step())
                return false;
            ++r.events;
        }
        return true;
    };

    // SyncOram::bulkLoad: plant each block in the deepest free bucket
    // of its path below the on-chip cache band, else a timed write.
    const mem::TreeGeometry &geo = ctrl.geometry();
    unsigned floor_level = 0;
    if (ctrl.mac())
        floor_level = ctrl.mac()->m2() + 1;
    if (ctrl.treetop())
        floor_level =
            std::max(floor_level, ctrl.treetop()->numCachedLevels());
    for (const auto &[addr, payload] : blocks) {
        const LeafLabel label = ctrl.positionMap().lookupOrAssign(addr);
        bool placed = false;
        for (unsigned level = geo.leafLevel() + 1;
             level-- > floor_level;) {
            const BucketIndex idx = geo.bucketAt(label, level);
            mem::Bucket bucket = ctrl.store().readBucket(idx);
            if (bucket.full())
                continue;
            bucket.add(mem::Block(addr, label, payload));
            ctrl.store().writeBucket(idx, bucket);
            if (ctrl.merkle())
                ctrl.merkle()->updateBucket(idx, bucket);
            placed = true;
            break;
        }
        if (!placed && !blocking(oram::Op::write, addr, payload, nullptr)) {
            r.error = "bulk-load write did not complete";
            r.failed = ops.size();
            break;
        }
    }
    r.setupS = secondsSince(t0);

    std::vector<std::uint64_t> mirror(blocks.size());
    for (BlockAddr a = 0; a < mirror.size(); ++a)
        mirror[a] = kvInitialTag(a);

    const KvSnapshot before = kvSnapshot(eq.now(), ctrl, base);
    r.spans.reset();
    r.events = 0;
    r.rejected = 0;
    {
        Span root(r.spans, Layer::run);
        std::vector<std::uint8_t> got;
        for (std::size_t i = 0; r.error.empty() && i < ops.size(); ++i) {
            const KvOp &op = ops[i];
            std::vector<std::uint8_t> value;
            if (op.write)
                value = kvPayload(op.tag);
            const Clock::time_point s = Clock::now();
            const bool ok = blocking(
                op.write ? oram::Op::write : oram::Op::read, op.key,
                std::move(value), op.write ? nullptr : &got);
            recordOp(r, op.write, s);
            if (!ok) {
                r.failed += ops.size() - i;
                r.error = "blocking op did not complete";
            } else if (op.write) {
                mirror[op.key] = op.tag;
            } else if (got != kvPayload(mirror[op.key])) {
                ++r.failed;
            }
        }
    }
    r.attempted = ops.size();
    if (r.failed && r.error.empty())
        r.error = strprintf("%llu reads disagreed with the mirror",
                            static_cast<unsigned long long>(r.failed));
    r.sim = kvDelta(before, kvSnapshot(eq.now(), ctrl, base), ops.size());
    collectCounters(r, {&ctrl}, {&base}, {&dram});
    return r;
}

} // namespace

TraceResult
runTraced(const Workload &w, const Options &opt)
{
    return w.kind == Kind::system ? tracedSystem(w, opt)
                                  : tracedKv(w, opt);
}

} // namespace fp::perf
