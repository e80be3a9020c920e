/**
 * @file
 * The four perf-benchmark workloads and their untraced runs.
 *
 * Three run the full-system harness (sim::System: four Mix3 cores,
 * 16 outstanding misses each, closed loop) with different memory
 * paths; the fourth is a blocking key-value client on sim::SyncOram.
 * `--seed` drives the core address streams (SimConfig::seed) and the
 * key-value op stream; the ORAM's own seed stays fixed.
 *
 * An untraced repetition goes only through the library's front doors
 * (System::run, SyncOram::read/write) and reports the host time of
 * its set-up and timed phase plus the simulated outcome, which is
 * deterministic and compared bit for bit across repetitions and
 * against the traced run.
 */

#ifndef FP_BENCH_PERF_WORKLOADS_HH
#define FP_BENCH_PERF_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/oram_controller.hh"
#include "sim/sim_config.hh"
#include "spans.hh"
#include "util/json.hh"
#include "workload/synthetic.hh"

namespace fp::perf
{

enum class Kind
{
    system, //!< sim::System over a Table 2 mix.
    kv,     //!< Blocking client on sim::SyncOram.
};

struct Workload
{
    const char *name;
    Kind kind;
    /** Requests per core (system) or blocking ops (kv) at scale 1. */
    std::uint64_t ops;
    /** Set-ups timed per run; the median is the reported setup_s. */
    unsigned setupSamples;
    /** System only: simulated ticks per host-latency window. */
    Tick opWindowTicks;
    /** System only: the controller / memory variant over paperDefault. */
    sim::SimConfig (*configure)(sim::SimConfig cfg);
};

/** Null when @p name is not a workload. */
const Workload *findWorkload(const std::string &name);

/** Comma-separated workload names, in benchmark order. */
std::string workloadNames();

/** Simulated ticks are picoseconds. */
constexpr Tick ticksPerSimMs = 1'000'000'000;

struct Options
{
    std::uint64_t seed = 1;
    /** Time budget of the repeated timed phase. */
    double seconds = 10.0;
    /** Divide every workload size by this (--quick uses 50). */
    std::uint64_t scale = 1;
};

/** The simulated outcome of one repetition; deterministic. */
struct SimMetrics
{
    double simTimeMs = 0.0;     //!< Simulated time of the timed phase.
    double llcLatencyNs = 0.0;  //!< Mean simulated LLC request latency.
    double pathLen = 0.0;       //!< Buckets per access (read path).
    double memBytesPerReq = 0.0; //!< Backend bytes moved per request.

    bool operator==(const SimMetrics &) const = default;
    void write(JsonWriter &w) const;
};

/** Host cost of a group of consecutive op-cost samples. */
struct Chunk
{
    std::uint64_t ops = 0;
    double seconds = 0.0;
    double p50Us = 0.0; //!< Median sample, microseconds per op.
    double p95Us = 0.0;
};

/**
 * Groups op-cost samples into chunks of a fixed sample count. A run's
 * throughput and latency percentiles are medians over chunks, so a
 * short host slowdown (a busy neighbour on a shared machine) moves a
 * few chunks rather than the result.
 */
class ChunkBuilder
{
  public:
    explicit ChunkBuilder(std::size_t samples_per_chunk)
        : perChunk_(samples_per_chunk)
    {
    }

    /** One sample: @p ops ops completed in @p seconds of host time. */
    void add(std::uint64_t ops, double seconds);
    /** Close a trailing partial chunk if no full chunk was formed. */
    void finish();

    std::vector<Chunk> chunks;
    /** Every sample, microseconds per op (for pooled tails). */
    std::vector<double> samplesUs;

  private:
    void close();

    std::size_t perChunk_;
    std::vector<double> cur_;
    std::uint64_t ops_ = 0;
    double seconds_ = 0.0;
};

/** One untraced repetition: set-up, then the timed phase. */
struct RepResult
{
    double setupS = 0.0;
    double runS = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    SimMetrics sim;
    /** Host cost samples of the timed phase (see runRep). */
    ChunkBuilder ops{0};
    std::string error; //!< Why the rep counts as failed, if it does.
};

/**
 * Run one repetition. For kv, a cost sample is one blocking op (50
 * per chunk); for system workloads, the requests completed in one
 * window of opWindowTicks simulated ticks (4 windows per chunk),
 * sampled by a passive event on the System's queue when
 * @p sample_ops is set.
 */
RepResult runRep(const Workload &w, const Options &opt, bool sample_ops);

/** Build and load the workload's stack, discard it; host seconds. */
double setupOnly(const Workload &w, const Options &opt);

// --- inputs, shared with the traced run ----------------------------------

sim::SimConfig systemConfig(const Workload &w, const Options &opt);
std::vector<workload::WorkloadProfile> systemProfiles();

core::ControllerParams kvParams();
std::uint64_t kvBlockCount(const Options &opt);
/** Tag of the value bulk-loaded at @p addr. */
std::uint64_t kvInitialTag(BlockAddr addr);
/** The 64-byte value a tag stands for. */
std::vector<std::uint8_t> kvPayload(std::uint64_t tag);
std::vector<std::pair<BlockAddr, std::vector<std::uint8_t>>>
kvInitialBlocks(std::uint64_t count);

struct KvOp
{
    BlockAddr key;
    bool write;
    std::uint64_t tag; //!< Value written (write ops).
};
/** The seeded op stream: uniform keys, half reads, half writes. */
std::vector<KvOp> kvOps(const Workload &w, const Options &opt);

/** Cumulative simulated counters of a kv store at one instant. */
struct KvSnapshot
{
    Tick now = 0;
    double latencySumNs = 0.0;
    std::uint64_t latencyCount = 0;
    double pathSum = 0.0;
    std::uint64_t pathCount = 0;
    std::uint64_t backendBytes = 0;
};
KvSnapshot kvSnapshot(Tick now, const core::OramController &ctrl,
                      const mem::MemoryBackend &base);
/** The simulated outcome of the @p ops ops between two snapshots. */
SimMetrics kvDelta(const KvSnapshot &before, const KvSnapshot &after,
                   std::uint64_t ops);

// --- helpers -------------------------------------------------------------

double secondsSince(Clock::time_point start);
/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);
/** getrusage peak resident set of this process, in MiB. */
double peakRssMb();

} // namespace fp::perf

#endif // FP_BENCH_PERF_WORKLOADS_HH
