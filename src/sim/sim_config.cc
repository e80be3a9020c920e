#include "sim/sim_config.hh"

#include <string>
#include <utility>

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
    // Signed, so a negative interval is rejected rather than wrapped.
    const std::int64_t interval = args.getInt(
        "stats-interval",
        static_cast<std::int64_t>(cfg.obs.statsIntervalTicks));
    if (interval <= 0)
        fp_fatal("--stats-interval must be a positive tick count, "
                 "got %lld",
                 static_cast<long long>(interval));
    cfg.obs.statsIntervalTicks = static_cast<Tick>(interval);

    cfg.obs.profileRequests =
        args.getBool("profile-requests", cfg.obs.profileRequests);
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

SimConfig
withTraditional(SimConfig cfg)
{
    cfg.controller.policy = core::PolicyKind::traditional;
    cfg.controller.enableDummyReplacing = false;
    cfg.controller.labelQueueSize = 1;
    cfg.controller.cachePolicy = core::CachePolicy::none;
    cfg.insecure = false;
    return cfg;
}

SimConfig
withMergeOnly(SimConfig cfg, unsigned queue_size)
{
    cfg.controller.policy = core::PolicyKind::forkpath;
    cfg.controller.enableDummyReplacing = true;
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
