/**
 * @file
 * Experiment-running helpers shared by the benchmark harnesses: run
 * a config against a named mix (or explicit profiles) and return the
 * RunResult. Keeps every bench binary to a thin table-printing layer.
 */

#ifndef FP_SIM_RUNNER_HH
#define FP_SIM_RUNNER_HH

#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/sim_config.hh"
#include "workload/synthetic.hh"

namespace fp::sim
{

/** Run one configuration with explicit per-core profiles. */
RunResult runProfiles(const SimConfig &cfg,
                      const std::vector<workload::WorkloadProfile>
                          &profiles);

/** Run one configuration against a Table 2 mix ("Mix1".."Mix10"). */
RunResult runMix(const SimConfig &cfg, const std::string &mix);

/** Run a PARSEC workload with cfg.cores threads (shared region). */
RunResult runParsec(SimConfig cfg, const std::string &name);

} // namespace fp::sim

#endif // FP_SIM_RUNNER_HH
