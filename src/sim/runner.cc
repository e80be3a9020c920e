#include "sim/runner.hh"

#include "sim/system.hh"
#include "util/logging.hh"
#include "workload/mixes.hh"
#include "workload/parsec_profiles.hh"

namespace fp::sim
{

RunResult
runProfiles(const SimConfig &cfg,
            const std::vector<workload::WorkloadProfile> &profiles)
{
    System system(cfg, profiles);
    return system.run();
}

RunResult
runMix(const SimConfig &cfg, const std::string &mix)
{
    auto profiles = workload::mixProfiles(mix);
    fp_assert(profiles.size() == cfg.cores,
              "mix %s has %zu members but config has %u cores",
              mix.c_str(), profiles.size(), cfg.cores);
    return runProfiles(cfg, profiles);
}

RunResult
runParsec(SimConfig cfg, const std::string &name)
{
    cfg.sharedAddressSpace = true;
    auto profiles = workload::parsecThreads(name, cfg.cores);
    return runProfiles(cfg, profiles);
}

} // namespace fp::sim
