/**
 * @file
 * Whole-experiment configuration bundling the processor, ORAM
 * controller, DRAM and workload-shape knobs. The defaults reproduce
 * the paper's Table 1 system.
 */

#ifndef FP_SIM_SIM_CONFIG_HH
#define FP_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/oram_controller.hh"
#include "dram/dram_params.hh"
#include "mem/fault_injector.hh"
#include "mem/net_backend.hh"
#include "mem/resilient_backend.hh"
#include "obs/tracer.hh"

namespace fp
{
class CliArgs;
} // namespace fp

namespace fp::sim
{

/**
 * Observability outputs. Both are off (empty paths) by default; when
 * off, no tracer/sampler object exists at all, so instrumented hot
 * paths only pay a null-pointer test.
 */
struct ObsConfig
{
    /** Chrome-trace JSON output path; empty disables tracing. */
    std::string traceOut;
    obs::TraceLevel traceLevel = obs::TraceLevel::access;
    /** Interval-stats JSON-lines path; empty disables sampling. */
    std::string statsOut;
    /** Snapshot period in ticks (100 us simulated by default). */
    Tick statsIntervalTicks = 100'000'000;
    /** Per-request lifecycle profiling (obs::RequestProfiler). */
    bool profileRequests = false;
    /** Full profile-report JSON path; implies profileRequests. */
    std::string profileOut;

    bool traceEnabled() const { return !traceOut.empty(); }
    bool statsEnabled() const { return !statsOut.empty(); }
    bool profilingEnabled() const
    {
        return profileRequests || !profileOut.empty();
    }
};

/** Which mem::MemoryBackend implementation serves the controller. */
enum class BackendKind
{
    dram, //!< The DDR3 timing model (the paper's configuration).
    net,  //!< mem::NetBackend: a remote/cloud store model.
};

/** Parse a backend name ("dram", "net"); unknown names are fatal
 *  with the list of valid ones. */
BackendKind parseBackendKind(const std::string &name);

/** The registry name of @p kind. */
const char *backendKindName(BackendKind kind);

/** Every registered backend name, in registry order. */
std::vector<std::string> backendKindNames();

struct SimConfig
{
    // --- processor (Table 1) ----------------------------------------------
    unsigned cores = 4;
    /**
     * Outstanding LLC misses per core (MSHR depth): 1 models an
     * in-order core, 16 the paper's 8-way out-of-order core (whose
     * miss queue must be deep enough to fill the 64-entry label
     * queue across 4 cores — see EXPERIMENTS.md calibration).
     */
    unsigned maxOutstanding = 16;
    Tick cpuPeriodTicks = 500; // 2 GHz

    /** LLC misses each core replays. */
    std::uint64_t requestsPerCore = 4000;

    // --- memory path -------------------------------------------------------
    core::ControllerParams controller;

    /**
     * The paper's DDR3-1600 x2-channel part: the single source of
     * truth for the default DRAM configuration (SyncOram and the
     * figure harnesses all start from it).
     */
    static dram::DramParams defaultDram();

    dram::DramParams dram = defaultDram();

    /** Backend implementation; `dram` is the paper's configuration. */
    BackendKind backendKind = BackendKind::dram;
    /** Remote-store model, used when backendKind == net. */
    mem::NetBackendParams net;

    /**
     * Fault model layered over the chosen backend; all-zero rates
     * (the default) mean no injector is built at all, so fault-free
     * runs carry zero extra machinery and stay byte-identical to
     * historical output.
     */
    mem::FaultParams faults;
    /**
     * Retry policy above the fault model. timeoutUs == 0 (default)
     * leaves the choice to sim::BackendStack: it picks a
     * backend-appropriate deadline when faults are enabled, and builds
     * no resilient layer otherwise. A non-zero value forces the layer
     * on, faults or not.
     */
    mem::RetryParams retry;

    /**
     * Run without ORAM: each miss is one 64 B DRAM access. Used for
     * the insecure baseline of Figure 14.
     */
    bool insecure = false;

    // --- sharding -----------------------------------------------------------
    /**
     * Number of independent ORAM shards behind the dispatcher
     * (core::ShardedOram). 1 (the default) builds the classic single
     * controller, byte-identical to historical output; > 1 partitions
     * the block space across that many complete ORAM stacks, each
     * with its own memory backend instance.
     */
    unsigned shards = 1;
    /** Per-shard inflight window of the dispatcher (shards > 1). */
    unsigned shardWindow = 16;

    // --- workload shape -----------------------------------------------------
    /** Threads share one address region (PARSEC style). */
    bool sharedAddressSpace = false;

    std::uint64_t seed = 1;

    // --- observability ------------------------------------------------------
    ObsConfig obs;

    /**
     * Table 1 defaults: 4-core 2 GHz OoO, 4 GB data ORAM (L=24,
     * Z=4, 64 B blocks), DDR3-1600 x2 channels, subtree layout.
     * The controller starts as traditional Path ORAM; experiment
     * code flips the Fork Path features per series.
     */
    static SimConfig paperDefault();
};

/**
 * Apply the shared observability flags to @p cfg:
 *
 *   --trace-out=PATH     write a Chrome-trace JSON file
 *   --trace-level=LVL    "access" (default) or "full"; also 0/1/2
 *   --stats-out=PATH     write interval-stats JSON lines
 *   --stats-interval=T   sampling period in ticks (1 tick = 1 ps)
 *   --profile-requests   per-request lifecycle profiling into the
 *                        RunResult's "profile" block
 *   --profile-out=PATH   full profile report JSON (histogram buckets
 *                        included); implies --profile-requests
 *
 * Unrecognised level names are fatal; absent flags leave defaults.
 */
void applyObsFlags(SimConfig &cfg, const CliArgs &args);

/**
 * Controller variants used across the figures. Each sets the policy,
 * enableDummyReplacing, labelQueueSize, cachePolicy (with
 * cacheBudgetBytes for a cache) and clears insecure; withInsecure
 * sets insecure alone. Every other field of @p cfg is kept.
 */
SimConfig withTraditional(SimConfig cfg);
SimConfig withMergeOnly(SimConfig cfg, unsigned queue_size = 64);
SimConfig withMergeMac(SimConfig cfg, std::uint64_t cache_bytes,
                       unsigned queue_size = 64);
SimConfig withMergeTreetop(SimConfig cfg, std::uint64_t cache_bytes,
                           unsigned queue_size = 64);
SimConfig withInsecure(SimConfig cfg);

} // namespace fp::sim

#endif // FP_SIM_SIM_CONFIG_HH
