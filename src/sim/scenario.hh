/**
 * @file
 * The declarative experiment layer: a sim::ExperimentSpec describes a
 * named experiment — base SimConfig overrides, a parameter grid
 * (cross-product axes plus explicit point lists), scenario parameters,
 * output file and CI smoke flags — parsed from a JSON spec
 * file committed under experiments/ (see spec_parse.hh). A Scenario
 * is the registered rendering/wiring code a spec selects by name; the
 * `fp_bench` driver loads a spec, builds a ScenarioContext from it plus
 * the command line, and dispatches.
 *
 * Responsibilities are split so new experiments are data, not code:
 *
 *  - the spec owns every sweep grid, preset list and default (what the
 *    19 legacy bench binaries used to hard-code in flag-parsing);
 *  - the scenario owns the figure-specific derivation and table
 *    layout (normalisation against a baseline row, geomeans, analytic
 *    companion columns);
 *  - the generic "sweep" scenario (registered here) needs no code at
 *    all: it expands `grid` x `points` x mixes and emits the headline
 *    metrics, so a brand-new experiment is one committed JSON file.
 *
 * Every RunResult produced through a ScenarioContext is stamped with
 * the spec name and the FNV-1a hash of the spec file bytes, and the
 * stamp travels into the exported JSON (spec_name / spec_hash fields)
 * so plotted artifacts are traceable to the exact spec revision.
 */

#ifndef FP_SIM_SCENARIO_HH
#define FP_SIM_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/sweep.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace fp::sim
{

/**
 * Where a spec came from: file path, raw text (kept for line-number
 * computation in post-parse error messages) and the FNV-1a hash of
 * the text, which doubles as the provenance stamp.
 */
struct SpecSource
{
    std::string path = "<inline>";
    std::string text;
    std::uint64_t hash = 0;
};

/** FNV-1a 64-bit hash of @p text (the spec provenance hash). */
std::uint64_t specHash(const std::string &text);

/**
 * Fatal spec error pointing at @p node's line in the spec file:
 * "experiment spec PATH:LINE: MSG", or "PATH: MSG" for a source with
 * no text (a command-line value). Exits with status 1 (throws
 * SimFailure under ScopedRecoverableFailures, like every fp_fatal).
 */
[[noreturn]] void specFail(const SpecSource &src, const JsonValue &node,
                           const std::string &msg);

/** One `"key": value` configuration override from a spec. */
struct SpecOverride
{
    std::string key;
    JsonValue value;
};

/**
 * One named experiment point: a config-override set, optionally
 * pinned to a workload mix. Scenarios iterate these for their
 * preset/variant lists; the generic sweep scenario runs them as-is.
 */
struct SpecPoint
{
    std::string name;
    std::string mix; //!< Empty: the scenario decides (usually ctx.mixes).
    std::vector<SpecOverride> overrides;
};

/** One cross-product axis of the generic sweep grid. */
struct GridAxis
{
    std::string key;
    std::vector<JsonValue> values;
};

/**
 * A parsed experiment spec. Everything the legacy bench binaries
 * hard-coded lives here; see spec_parse.hh for the JSON schema and
 * docs/ARCHITECTURE.md ("Authoring experiments") for the authoring
 * guide.
 */
struct ExperimentSpec
{
    std::string name;        //!< Experiment name (provenance stamp).
    std::string scenario;    //!< Registered scenario to dispatch to.
    std::string description; //!< One-line summary (--list output).

    /** Default mix list; empty means every Table 2 mix. The --mixes
     *  flag overrides it at run time. */
    std::vector<std::string> defaultMixes;

    /** Base SimConfig overrides, applied to paperDefault() in order
     *  before any command-line flag. */
    std::vector<SpecOverride> base;

    /** Cross-product axes (generic sweep scenario). */
    std::vector<GridAxis> grid;

    /** Explicit point list (generic sweep + scenario preset lists). */
    std::vector<SpecPoint> points;

    /** Scenario-specific parameters (free-form JSON object). */
    JsonValue params;

    /** Default --out path for scenarios that write a JSON document. */
    std::string defaultOut;

    /** Extra flags the CI smoke lane appends when exercising this
     *  spec (tools/run_experiments.py). */
    std::vector<std::string> smokeArgs;
    /** Whether a smoke run emits a validatable Chrome trace (false
     *  for analytic scenarios that never build a System). */
    bool smokeTrace = true;

    SpecSource source;

    // --- typed params accessors -------------------------------------------
    // All fatal with the spec file/line on a missing required key or
    // a type mismatch, so scenarios never see half-valid parameters.

    std::uint64_t paramUint(const std::string &key) const;
    std::uint64_t paramUint(const std::string &key,
                            std::uint64_t def) const;
    double paramNum(const std::string &key, double def) const;
    std::string paramStr(const std::string &key,
                         const std::string &def) const;
    std::vector<std::uint64_t>
    paramUintList(const std::string &key) const;
    std::vector<double> paramNumList(const std::string &key) const;
    std::vector<std::string>
    paramStrList(const std::string &key) const;
};

/**
 * Apply an override set to @p cfg in order, then @p flags, command-line
 * values that join the set last unless it makes the insecure
 * baseline. Each key goes through the override table, the one parser
 * of configuration knobs, so spec keys and knob flags (which arrive as
 * text) share its handlers and ranges; see docs/ARCHITECTURE.md for
 * the key reference. Fatal with the spec file/line: unknown keys, type
 * mismatches, out-of-range values, a key that "variant" sets anew
 * placed before it, and cross-key conflicts over the whole set
 * (insecure + scheduler knobs, shards on the insecure baseline,
 * batch-size without the batched policy, enable-replacing without the
 * forkpath policy, cache-bytes without a cache). "fault-spike-us"
 * without "fault-spike-rate" defaults the rate to 0.01. @p where
 * anchors conflict messages to the override object's spec line.
 */
void applySpecOverrides(SimConfig &cfg,
                        const std::vector<SpecOverride> &ovs,
                        const SpecSource &src, const JsonValue &where,
                        const std::vector<SpecOverride> &flags = {});

/**
 * Expand the spec's explicit points and grid cross-product against
 * @p base, one SweepPoint per (config, mix) pair; a point pinned to a
 * mix runs on that mix alone. A point's keys, then a grid
 * combination's, then @p flags apply as one override set
 * (applySpecOverrides). With no @p mixes only pinned points come
 * back, but every set is still applied and checked, which is how
 * parsing validates a spec. Grid axes nest rightmost-fastest; point
 * names are "<mix>/<name>" when more than one mix is in play,
 * matching the legacy bench naming.
 */
std::vector<SweepPoint>
expandSpecPoints(const ExperimentSpec &spec, const SimConfig &base,
                 const std::vector<std::string> &mixes,
                 const std::vector<SpecOverride> &flags = {});

/**
 * Everything a scenario needs at run time: the spec, the command
 * line, the resolved base config and mix list, and sweep helpers
 * that reproduce the legacy fig_common semantics (the --policy flag
 * on every point, fatal failed points, csv-aware emission) plus
 * provenance stamping.
 */
class ScenarioContext
{
  public:
    ScenarioContext(const ExperimentSpec &spec, const CliArgs &args);

    const ExperimentSpec &spec;
    const CliArgs &args;

    /** paperDefault + spec base overrides + command-line flags. */
    SimConfig base;
    /** --mixes, else the spec's default list, else every mix. */
    std::vector<std::string> mixes;
    bool csv = false;
    SweepOptions sweepOpt;

    /** --policy / --batch-size as given. They join each spec
     *  point's override set, and run() applies them again to every
     *  non-insecure point after its series transform. */
    std::vector<SpecOverride> schedulerFlags;

    unsigned leafLevel() const
    {
        return base.controller.oram.leafLevel;
    }
    std::uint64_t requests() const { return base.requestsPerCore; }

    /** base + a spec point's overrides with schedulerFlags joined,
     *  as one conflict-checked set. */
    SimConfig pointConfig(const SpecPoint &point) const;

    /**
     * A scenario-local integer (a trial or sample count, a probe's
     * leaf level): --NAME when given, else the spec's params.NAME,
     * else @p def. Outside [@p lo, @p hi] it is fatal, naming the
     * flag or the spec line.
     */
    unsigned uintFlag(const std::string &name, unsigned def,
                      unsigned lo = 1, unsigned hi = ~0u) const;

    /**
     * Run every point through a SweepRunner configured by --jobs,
     * applying schedulerFlags (insecure points excepted), fatal on
     * any failed point, stamping provenance; results come back in
     * point order.
     */
    std::vector<RunResult> run(std::vector<SweepPoint> points) const;

    /** Like run() but failed points come back as error outcomes
     *  (bench_faults: degradation is the behaviour under test). */
    std::vector<SweepOutcome>
    runRaw(std::vector<SweepPoint> points) const;

    /** Run generic tasks on the same pool; fatal on failure. */
    void runTasks(std::vector<SweepTask> tasks) const;

    /** Stamp spec provenance onto a result (run()/runRaw() already
     *  do; exposed for scenarios that build results directly). */
    void stamp(RunResult &r) const;

    /** Print a table (CSV in --csv mode) followed by a blank line. */
    void emit(const TextTable &table) const;

    /** Figure header + the paper's takeaway (silent in --csv mode). */
    void banner(const std::string &figure,
                const std::string &paper_says) const;
};

using ScenarioFn = std::function<void(ScenarioContext &)>;

/** Register a scenario under @p name (last registration wins). */
void registerScenario(const std::string &name, ScenarioFn fn);

/** Every registered scenario name, sorted. */
std::vector<std::string> scenarioNames();

/**
 * Dispatch @p spec to its scenario with @p args; fatal when the
 * scenario is unknown. Returns the process exit status (0).
 */
int runSpec(const ExperimentSpec &spec, const CliArgs &args);

} // namespace fp::sim

#endif // FP_SIM_SCENARIO_HH
