#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "sim/sync_oram.hh"
#include "sim/system.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/mixes.hh"

namespace fp::perf
{

namespace
{

const Workload workloads[] = {
    {"paper_forkpath", Kind::system, 80'000, 11, ticksPerSimMs,
     [](sim::SimConfig cfg) {
         return sim::withMergeMac(std::move(cfg), std::uint64_t{1} << 20,
                                  64);
     }},
    {"traditional_hier", Kind::system, 40'000, 11, ticksPerSimMs,
     [](sim::SimConfig cfg) {
         cfg = sim::withTraditional(std::move(cfg));
         cfg.controller.recursionDepth = 2;
         cfg.controller.plbEntries = 4096;
         return cfg;
     }},
    {"net_sharded", Kind::system, 60'000, 11, 200 * ticksPerSimMs,
     [](sim::SimConfig cfg) {
         cfg = sim::withMergeOnly(std::move(cfg), 64);
         cfg.backendKind = sim::BackendKind::net;
         cfg.shards = 4;
         return cfg;
     }},
    {"kv_secure", Kind::kv, 30'000, 3, 0, nullptr},
};

constexpr std::size_t kvPayloadBytes = 64;
constexpr std::uint64_t kvLoadedBlocks = std::uint64_t{1} << 18;
// Small chunks keep the chunk medians steady from run to run on a
// shared host; README.md gives the sweep these sizes came from.
constexpr std::size_t windowsPerChunk = 4;
constexpr std::size_t kvOpsPerChunk = 50;

/**
 * Passive sampler on a System's event queue: every window of
 * simulated time it records the requests completed in that window
 * and the host time they took. It reads only public counters and
 * reschedules itself only while other events are pending, so it
 * neither changes the simulation nor hides a deadlock from
 * System::run.
 */
class OpWindowProbe
{
  public:
    OpWindowProbe(sim::System &sys, Tick window, ChunkBuilder &out)
        : sys_(sys), window_(window), out_(out)
    {
    }

    void
    start()
    {
        last_ = Clock::now();
        sys_.eventQueue().scheduleIn(window_, [this] { fire(); });
    }

  private:
    void
    fire()
    {
        std::uint64_t done = 0;
        for (const auto &core : sys_.cores())
            done += core->missLatency().count();
        if (done > lastDone_) {
            const Clock::time_point now = Clock::now();
            out_.add(done - lastDone_,
                     std::chrono::duration<double>(now - last_).count());
            last_ = now;
            lastDone_ = done;
        }
        if (!sys_.eventQueue().empty())
            sys_.eventQueue().scheduleIn(window_, [this] { fire(); });
    }

    sim::System &sys_;
    Tick window_;
    ChunkBuilder &out_;
    Clock::time_point last_;
    std::uint64_t lastDone_ = 0;
};

RepResult
systemRep(const Workload &w, const Options &opt, bool sample_ops)
{
    const sim::SimConfig cfg = systemConfig(w, opt);
    const auto profiles = systemProfiles();
    RepResult r;
    r.ops = ChunkBuilder(windowsPerChunk);

    Clock::time_point t0 = Clock::now();
    auto sys = std::make_unique<sim::System>(cfg, profiles);
    r.setupS = secondsSince(t0);

    OpWindowProbe probe(*sys, w.opWindowTicks, r.ops);
    if (sample_ops)
        probe.start();
    t0 = Clock::now();
    const sim::RunResult rr = sys->run();
    r.runS = secondsSince(t0);
    sys.reset();
    if (r.ops.samplesUs.empty()) // no window closed: one whole-run sample
        r.ops.add(std::max<std::uint64_t>(rr.llcRequests, 1), r.runS);
    r.ops.finish();

    r.attempted = std::uint64_t{cfg.cores} * cfg.requestsPerCore;
    if (rr.failed || rr.hitTickLimit || rr.llcRequests != r.attempted) {
        r.failed = r.attempted;
        r.error = strprintf("System::run: failed=%d hit_tick_limit=%d "
                            "llc_requests=%llu of %llu (%s)",
                            rr.failed, rr.hitTickLimit,
                            static_cast<unsigned long long>(rr.llcRequests),
                            static_cast<unsigned long long>(r.attempted),
                            rr.failureMessage.c_str());
    }
    r.sim.simTimeMs = static_cast<double>(rr.executionTicks) /
                      static_cast<double>(ticksPerSimMs);
    r.sim.llcLatencyNs = rr.avgLlcLatencyNs;
    r.sim.pathLen = rr.avgReadPathLen;
    r.sim.memBytesPerReq =
        static_cast<double>(rr.backendBytesRead + rr.backendBytesWritten) /
        static_cast<double>(std::max<std::uint64_t>(rr.llcRequests, 1));
    return r;
}

std::unique_ptr<sim::SyncOram>
loadKv(const std::vector<std::pair<BlockAddr, std::vector<std::uint8_t>>>
           &blocks)
{
    auto oram = std::make_unique<sim::SyncOram>(kvParams());
    oram->bulkLoad(blocks);
    return oram;
}

RepResult
kvRep(const Workload &w, const Options &opt)
{
    const auto blocks = kvInitialBlocks(kvBlockCount(opt));
    const std::vector<KvOp> ops = kvOps(w, opt);
    RepResult r;
    r.ops = ChunkBuilder(kvOpsPerChunk);

    Clock::time_point t0 = Clock::now();
    auto oram = loadKv(blocks);
    r.setupS = secondsSince(t0);

    std::vector<std::uint64_t> mirror(blocks.size());
    for (BlockAddr a = 0; a < mirror.size(); ++a)
        mirror[a] = kvInitialTag(a);

    const KvSnapshot before =
        kvSnapshot(oram->now(), oram->controller(), oram->backend());
    t0 = Clock::now();
    for (const KvOp &op : ops) {
        if (op.write) {
            std::vector<std::uint8_t> value = kvPayload(op.tag);
            const Clock::time_point s = Clock::now();
            oram->write(op.key, std::move(value));
            r.ops.add(1, secondsSince(s));
            mirror[op.key] = op.tag;
        } else {
            const Clock::time_point s = Clock::now();
            const std::vector<std::uint8_t> got = oram->read(op.key);
            r.ops.add(1, secondsSince(s));
            if (got != kvPayload(mirror[op.key]))
                ++r.failed;
        }
    }
    r.runS = secondsSince(t0);
    r.ops.finish();

    r.attempted = ops.size();
    if (r.failed)
        r.error = strprintf("%llu reads disagreed with the mirror",
                            static_cast<unsigned long long>(r.failed));
    r.sim = kvDelta(before,
                    kvSnapshot(oram->now(), oram->controller(),
                               oram->backend()),
                    ops.size());
    return r;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::string
workloadNames()
{
    std::string out;
    for (const Workload &w : workloads) {
        if (!out.empty())
            out += ',';
        out += w.name;
    }
    return out;
}

void
ChunkBuilder::add(std::uint64_t ops, double seconds)
{
    const double us = seconds * 1e6 / static_cast<double>(ops);
    samplesUs.push_back(us);
    cur_.push_back(us);
    ops_ += ops;
    seconds_ += seconds;
    if (cur_.size() == perChunk_)
        close();
}

void
ChunkBuilder::finish()
{
    if (chunks.empty() && !cur_.empty())
        close();
}

void
ChunkBuilder::close()
{
    chunks.push_back(
        {ops_, seconds_, quantile(cur_, 0.50), quantile(cur_, 0.95)});
    cur_.clear();
    ops_ = 0;
    seconds_ = 0.0;
}

void
SimMetrics::write(JsonWriter &w) const
{
    w.field("sim_time_ms", simTimeMs)
        .field("sim_llc_latency_ns", llcLatencyNs)
        .field("path_len", pathLen)
        .field("mem_bytes_per_req", memBytesPerReq);
}

RepResult
runRep(const Workload &w, const Options &opt, bool sample_ops)
{
    return w.kind == Kind::system ? systemRep(w, opt, sample_ops)
                                  : kvRep(w, opt);
}

double
setupOnly(const Workload &w, const Options &opt)
{
    if (w.kind == Kind::system) {
        const sim::SimConfig cfg = systemConfig(w, opt);
        const auto profiles = systemProfiles();
        const Clock::time_point t0 = Clock::now();
        sim::System sys(cfg, profiles);
        return secondsSince(t0);
    }
    const auto blocks = kvInitialBlocks(kvBlockCount(opt));
    const Clock::time_point t0 = Clock::now();
    auto oram = loadKv(blocks);
    return secondsSince(t0);
}

sim::SimConfig
systemConfig(const Workload &w, const Options &opt)
{
    fp_assert(w.kind == Kind::system, "%s is not a System workload",
              w.name);
    sim::SimConfig cfg = w.configure(sim::SimConfig::paperDefault());
    cfg.requestsPerCore = std::max<std::uint64_t>(w.ops / opt.scale, 1);
    cfg.seed = opt.seed;
    return cfg;
}

std::vector<workload::WorkloadProfile>
systemProfiles()
{
    return workload::mixProfiles("Mix3");
}

core::ControllerParams
kvParams()
{
    auto p = core::ControllerParams::forkPath();
    p.oram.leafLevel = 20;
    p.oram.payloadBytes = kvPayloadBytes;
    p.oram.encrypt = true;
    p.enableIntegrity = true;
    p.labelQueueSize = 16;
    p.cachePolicy = core::CachePolicy::mac;
    p.cacheBudgetBytes = 64 << 10;
    return p;
}

std::uint64_t
kvBlockCount(const Options &opt)
{
    return std::max<std::uint64_t>(kvLoadedBlocks / opt.scale, 1);
}

std::uint64_t
kvInitialTag(BlockAddr addr)
{
    return splitmix64(addr ^ 0x6b76'5f73'6565'64ULL);
}

std::vector<std::uint8_t>
kvPayload(std::uint64_t tag)
{
    std::vector<std::uint8_t> out(kvPayloadBytes);
    for (std::size_t i = 0; i < kvPayloadBytes; i += 8) {
        const std::uint64_t word = splitmix64(tag + i);
        for (std::size_t b = 0; b < 8; ++b)
            out[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
    return out;
}

std::vector<std::pair<BlockAddr, std::vector<std::uint8_t>>>
kvInitialBlocks(std::uint64_t count)
{
    std::vector<std::pair<BlockAddr, std::vector<std::uint8_t>>> out;
    out.reserve(count);
    for (BlockAddr a = 0; a < count; ++a)
        out.emplace_back(a, kvPayload(kvInitialTag(a)));
    return out;
}

std::vector<KvOp>
kvOps(const Workload &w, const Options &opt)
{
    const std::uint64_t keys = kvBlockCount(opt);
    Rng rng(opt.seed ^ 0x6b76'6f70'73ULL);
    std::vector<KvOp> ops(std::max<std::uint64_t>(w.ops / opt.scale, 1));
    for (KvOp &op : ops) {
        op.key = rng.uniformInt(keys);
        op.write = rng.chance(0.5);
        op.tag = rng();
    }
    return ops;
}

KvSnapshot
kvSnapshot(Tick now, const core::OramController &ctrl,
           const mem::MemoryBackend &base)
{
    const mem::BackendStats bs = base.statsSnapshot();
    KvSnapshot s;
    s.now = now;
    s.latencyCount = ctrl.oramLatency().count();
    s.latencySumNs = ctrl.oramLatency().mean() *
                     static_cast<double>(s.latencyCount);
    s.pathSum = ctrl.readPathLengthStat().sum();
    s.pathCount = ctrl.readPathLengthStat().count();
    s.backendBytes = bs.bytesRead + bs.bytesWritten;
    return s;
}

SimMetrics
kvDelta(const KvSnapshot &before, const KvSnapshot &after,
        std::uint64_t ops)
{
    const auto per = [](double num, std::uint64_t den) {
        return den ? num / static_cast<double>(den) : 0.0;
    };
    SimMetrics m;
    m.simTimeMs = static_cast<double>(after.now - before.now) /
                  static_cast<double>(ticksPerSimMs);
    m.llcLatencyNs = per(after.latencySumNs - before.latencySumNs,
                         after.latencyCount - before.latencyCount);
    m.pathLen = per(after.pathSum - before.pathSum,
                    after.pathCount - before.pathCount);
    m.memBytesPerReq =
        per(static_cast<double>(after.backendBytes - before.backendBytes),
            ops);
    return m;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace fp::perf
