#include "sim/sim_config.hh"

#include <algorithm>
#include <exception>
#include <string>

#include "util/cli.hh"
#include "util/logging.hh"

namespace fp::sim
{

dram::DramParams
SimConfig::defaultDram()
{
    return dram::DramParams::ddr3_1600(2);
}

SimConfig
SimConfig::paperDefault()
{
    SimConfig cfg;
    cfg.cores = 4;
    cfg.maxOutstanding = 16;
    cfg.cpuPeriodTicks = 500;

    cfg.controller = core::ControllerParams::traditional();
    cfg.controller.oram.leafLevel = 24; // 4 GB data / 64 B / 50% / Z=4
    cfg.controller.oram.z = 4;
    cfg.controller.oram.payloadBytes = 0; // timing runs carry no data
    cfg.controller.oram.stashCapacity = 200;

    cfg.dram = defaultDram();
    return cfg;
}

void
applyObsFlags(SimConfig &cfg, const CliArgs &args)
{
    cfg.obs.traceOut = args.getString("trace-out", cfg.obs.traceOut);
    cfg.obs.statsOut = args.getString("stats-out", cfg.obs.statsOut);
    cfg.obs.statsIntervalTicks = static_cast<Tick>(args.getInt(
        "stats-interval",
        static_cast<std::int64_t>(cfg.obs.statsIntervalTicks)));
    fp_assert(cfg.obs.statsIntervalTicks > 0,
              "--stats-interval must be positive");

    if (args.has("profile-requests"))
        cfg.obs.profileRequests = true;
    cfg.obs.profileOut =
        args.getString("profile-out", cfg.obs.profileOut);

    if (args.has("trace-level")) {
        std::string lvl = args.getString("trace-level", "access");
        if (lvl == "off" || lvl == "0")
            cfg.obs.traceLevel = obs::TraceLevel::off;
        else if (lvl == "access" || lvl == "1")
            cfg.obs.traceLevel = obs::TraceLevel::access;
        else if (lvl == "full" || lvl == "2")
            cfg.obs.traceLevel = obs::TraceLevel::full;
        else
            fp_fatal("unknown --trace-level '%s' (off|access|full)",
                     lvl.c_str());
    }
}

BackendKind
parseBackendKind(const std::string &name)
{
    if (name == "dram")
        return BackendKind::dram;
    if (name == "net")
        return BackendKind::net;
    fp_fatal("unknown backend '%s' (dram|net)", name.c_str());
}

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::dram:
        return "dram";
      case BackendKind::net:
        return "net";
    }
    fp_panic("unreachable backend kind");
}

std::vector<std::string>
backendKindNames()
{
    return {"dram", "net"};
}

void
applyBackendFlags(SimConfig &cfg, const CliArgs &args)
{
    if (args.has("backend")) {
        cfg.backendKind =
            parseBackendKind(args.getString("backend", "dram"));
    }
    cfg.net.oneWayLatencyUs =
        args.getDouble("net-latency-us", cfg.net.oneWayLatencyUs);
    cfg.net.linkGbps = args.getDouble("net-gbps", cfg.net.linkGbps);
    const std::int64_t window = args.getInt(
        "net-window", static_cast<std::int64_t>(cfg.net.window));
    if (window < 1)
        fp_fatal("--net-window must be at least 1 (got %lld)",
                 static_cast<long long>(window));
    cfg.net.window = static_cast<unsigned>(window);
    // User input: reject with a CLI error (exit 1), not an assert.
    cfg.net.validate();

    const std::int64_t shards = args.getInt(
        "shards", static_cast<std::int64_t>(cfg.shards));
    if (shards < 1)
        fp_fatal("--shards must be at least 1 (got %lld)",
                 static_cast<long long>(shards));
    cfg.shards = static_cast<unsigned>(shards);

    const std::int64_t shard_window = args.getInt(
        "shard-window", static_cast<std::int64_t>(cfg.shardWindow));
    if (shard_window < 1)
        fp_fatal("--shard-window must be at least 1 (got %lld)",
                 static_cast<long long>(shard_window));
    cfg.shardWindow = static_cast<unsigned>(shard_window);

    applyFaultFlags(cfg, args);
}

namespace
{

double
rateFlag(const CliArgs &args, const char *name, double dflt)
{
    const double v = args.getDouble(name, dflt);
    if (v < 0.0 || v > 1.0)
        fp_fatal("--%s must be a probability in [0,1] (got %g)", name,
                 v);
    return v;
}

} // namespace

void
applyFaultFlags(SimConfig &cfg, const CliArgs &args)
{
    cfg.faults.lossRate =
        rateFlag(args, "fault-loss-rate", cfg.faults.lossRate);
    cfg.faults.errorRate =
        rateFlag(args, "fault-error-rate", cfg.faults.errorRate);

    if (args.has("fault-spike-us")) {
        cfg.faults.spikeUs =
            args.getDouble("fault-spike-us", cfg.faults.spikeUs);
        if (cfg.faults.spikeUs < 0.0)
            fp_fatal("--fault-spike-us must be non-negative (got %g)",
                     cfg.faults.spikeUs);
        // Asking for a spike magnitude without a rate means "spike
        // some requests": default the rate on rather than silently
        // doing nothing.
        if (cfg.faults.spikeRate == 0.0 &&
            !args.has("fault-spike-rate")) {
            cfg.faults.spikeRate = 0.01;
        }
    }
    cfg.faults.spikeRate =
        rateFlag(args, "fault-spike-rate", cfg.faults.spikeRate);

    if (args.has("fault-outage")) {
        const std::string window =
            args.getString("fault-outage", "");
        const auto colon = window.find(':');
        std::size_t t0_end = 0, t1_end = 0;
        double t0 = -1.0, t1 = -1.0;
        if (colon != std::string::npos) {
            try {
                t0 = std::stod(window.substr(0, colon), &t0_end);
                t1 = std::stod(window.substr(colon + 1), &t1_end);
            } catch (const std::exception &) {
                t0_end = 0; // fall through to the error below
            }
        }
        if (colon == std::string::npos || t0_end != colon ||
            t1_end != window.size() - colon - 1 || t0 < 0.0 ||
            t1 <= t0) {
            fp_fatal("--fault-outage expects T0:T1 in microseconds "
                     "with 0 <= T0 < T1 (got '%s')",
                     window.c_str());
        }
        cfg.faults.outageStartUs = t0;
        cfg.faults.outageEndUs = t1;
    }

    cfg.faults.seed = static_cast<std::uint64_t>(args.getInt(
        "fault-seed", static_cast<std::int64_t>(cfg.faults.seed)));

    cfg.retry.timeoutUs =
        args.getDouble("retry-timeout-us", cfg.retry.timeoutUs);
    if (cfg.retry.timeoutUs < 0.0)
        fp_fatal("--retry-timeout-us must be non-negative (got %g)",
                 cfg.retry.timeoutUs);

    const std::int64_t max_retries = args.getInt(
        "retry-max", static_cast<std::int64_t>(cfg.retry.maxRetries));
    if (max_retries < 0)
        fp_fatal("--retry-max must be non-negative (got %lld)",
                 static_cast<long long>(max_retries));
    cfg.retry.maxRetries = static_cast<unsigned>(max_retries);

    if (args.has("retry-backoff")) {
        const std::string spec = args.getString("retry-backoff", "");
        const auto colon = spec.find(':');
        try {
            if (colon == std::string::npos) {
                cfg.retry.backoffBaseUs = std::stod(spec);
                cfg.retry.backoffCapUs = std::max(
                    cfg.retry.backoffCapUs, cfg.retry.backoffBaseUs);
            } else {
                cfg.retry.backoffBaseUs =
                    std::stod(spec.substr(0, colon));
                cfg.retry.backoffCapUs =
                    std::stod(spec.substr(colon + 1));
            }
        } catch (const std::exception &) {
            fp_fatal("--retry-backoff expects BASE or BASE:CAP in "
                     "microseconds (got '%s')",
                     spec.c_str());
        }
        if (cfg.retry.backoffBaseUs < 0.0 ||
            cfg.retry.backoffCapUs < cfg.retry.backoffBaseUs) {
            fp_fatal("--retry-backoff needs 0 <= BASE <= CAP "
                     "(got %g:%g)",
                     cfg.retry.backoffBaseUs, cfg.retry.backoffCapUs);
        }
    }
}

SimConfig
withPolicy(SimConfig cfg, core::PolicyKind kind)
{
    core::applyPolicyPreset(cfg.controller, kind);
    cfg.insecure = false;
    return cfg;
}

SimConfig
withPolicyName(SimConfig cfg, const std::string &name)
{
    return withPolicy(std::move(cfg), core::parsePolicyKind(name));
}

SimConfig
withTraditional(SimConfig cfg)
{
    auto oram = cfg.controller.oram;
    cfg.controller = core::ControllerParams::traditional();
    cfg.controller.oram = oram;
    cfg.insecure = false;
    return cfg;
}

SimConfig
withMergeOnly(SimConfig cfg, unsigned queue_size)
{
    auto oram = cfg.controller.oram;
    cfg.controller = core::ControllerParams::forkPath();
    cfg.controller.oram = oram;
    cfg.controller.labelQueueSize = queue_size;
    cfg.controller.cachePolicy = core::CachePolicy::none;
    cfg.insecure = false;
    return cfg;
}

SimConfig
withMergeMac(SimConfig cfg, std::uint64_t cache_bytes,
             unsigned queue_size)
{
    cfg = withMergeOnly(std::move(cfg), queue_size);
    cfg.controller.cachePolicy = core::CachePolicy::mac;
    cfg.controller.cacheBudgetBytes = cache_bytes;
    return cfg;
}

SimConfig
withMergeTreetop(SimConfig cfg, std::uint64_t cache_bytes,
                 unsigned queue_size)
{
    cfg = withMergeOnly(std::move(cfg), queue_size);
    cfg.controller.cachePolicy = core::CachePolicy::treetop;
    cfg.controller.cacheBudgetBytes = cache_bytes;
    return cfg;
}

SimConfig
withInsecure(SimConfig cfg)
{
    cfg.insecure = true;
    return cfg;
}

} // namespace fp::sim
