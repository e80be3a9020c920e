/**
 * @file
 * The scenario renderers behind the experiment-spec runtime: one
 * registered scenario per figure or study. The spec files under
 * experiments/ own every grid, preset list and default; the renderers
 * own only the figure-specific derivation and table layout. The ratio
 * figures (11-16, 18) share one routine in ratio_figures.cc.
 *
 * A scenario's stdout is the same at any --jobs (the SweepRunner
 * determinism contract plus ordered emission), and every committed
 * spec's stdout is pinned in experiments/golden/.
 */

#ifndef FP_BENCH_SCENARIOS_SCENARIOS_HH
#define FP_BENCH_SCENARIOS_SCENARIOS_HH

#include <string>

#include "sim/scenario.hh"
#include "sim/spec_parse.hh"

namespace fp::bench
{

/** Register every built-in scenario renderer (idempotent). */
void registerBuiltinScenarios();

/**
 * Resolve a spec by name to a file under the experiments directory:
 * the FP_EXPERIMENTS_DIR environment variable when set, else the
 * compile-time source-tree location. Fatal when the file is missing.
 */
std::string resolveSpecPath(const std::string &name);

/**
 * The `fp_bench` driver: the spec comes from the command line — a
 * path to a .json file or a bare spec name resolved via
 * resolveSpecPath. `fp_bench --list-experiments` enumerates the
 * committed specs with their descriptions.
 */
int benchMain(int argc, char **argv);

/** Narrow a spec's integer-list parameter (queue sizes, channel
 *  counts, ...) to the unsigned the sim API takes. */
inline std::vector<unsigned>
asUnsigned(const std::vector<std::uint64_t> &values)
{
    return std::vector<unsigned>(values.begin(), values.end());
}

// Per-figure registration hooks (called by registerBuiltinScenarios).
void registerFig10Scenario();
/** Figs. 11-16 and 18 (ratio_figures.cc). */
void registerRatioFigureScenarios();
void registerFig17Scenario();
void registerFig19Scenario();
void registerTable2Scenario();
void registerOverlapScenario();
void registerAblationScenario();
void registerReplacingScenario();
void registerFaultsScenario();
void registerShardsScenario();
void registerSmokeScenario();

} // namespace fp::bench

#endif // FP_BENCH_SCENARIOS_SCENARIOS_HH
