/**
 * @file
 * Experiment-spec runtime tests: parse round-trips, grid expansion,
 * spec-hash stability, parse-time validation (malformed specs die
 * with a file:line diagnostic), provenance stamping into RunResult
 * JSON, byte-identical stdout across --jobs, knob flags setting what
 * the same spec keys set (and dying with the same messages), each
 * knob setting only the fields it names, --policy joining every
 * point's conflict checks, and every committed spec under
 * experiments/ parsing cleanly.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "core/controller_params.hh"
#include "sim/scenario.hh"
#include "sim/spec_parse.hh"
#include "util/cli.hh"
#include "util/logging.hh"

#ifndef FP_EXPERIMENTS_DIR
#define FP_EXPERIMENTS_DIR "experiments"
#endif

namespace fp::sim
{
namespace
{

/** CliArgs from a flag list (argv[0] implied). */
class Args
{
  public:
    explicit Args(std::vector<std::string> flags) : flags_(std::move(flags))
    {
        argv_.push_back(const_cast<char *>("test"));
        for (const auto &f : flags_)
            argv_.push_back(const_cast<char *>(f.c_str()));
    }

    CliArgs
    cli() const
    {
        return CliArgs(static_cast<int>(argv_.size()),
                       const_cast<char **>(argv_.data()));
    }

  private:
    std::vector<std::string> flags_;
    std::vector<char *> argv_;
};

constexpr char kSmallSpec[] = R"({
  "name": "unit",
  "scenario": "sweep",
  "mixes": ["Mix3"],
  "base": {"requests": 40, "leaf-level": 10, "variant": "merge",
           "queue": 8},
  "grid": {"queue": [1, 8]},
  "smoke": {"args": [], "trace": false}
})";

TEST(SpecParse, RoundTripBaseOverrides)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    EXPECT_EQ(spec.name, "unit");
    EXPECT_EQ(spec.scenario, "sweep");
    ASSERT_EQ(spec.defaultMixes.size(), 1u);
    EXPECT_EQ(spec.defaultMixes[0], "Mix3");
    ASSERT_EQ(spec.grid.size(), 1u);
    EXPECT_EQ(spec.grid[0].key, "queue");
    EXPECT_EQ(spec.grid[0].values.size(), 2u);
    EXPECT_FALSE(spec.smokeTrace);

    // Applying the base overrides reproduces the hand-built config.
    SimConfig cfg = SimConfig::paperDefault();
    applySpecOverrides(cfg, spec.base, spec.source, spec.params);
    SimConfig want = withMergeOnly(SimConfig::paperDefault(), 8);
    want.requestsPerCore = 40;
    want.controller.oram.leafLevel = 10;
    EXPECT_EQ(cfg.requestsPerCore, want.requestsPerCore);
    EXPECT_EQ(cfg.controller.oram.leafLevel,
              want.controller.oram.leafLevel);
    EXPECT_EQ(cfg.controller.labelQueueSize,
              want.controller.labelQueueSize);
    EXPECT_EQ(cfg.controller.policy, want.controller.policy);
    EXPECT_FALSE(cfg.insecure);
}

TEST(SpecParse, PointAndParamAccessors)
{
    auto spec = parseSpecText(R"({
      "name": "p",
      "points": [
        {"name": "a", "set": {"variant": "traditional"}},
        {"name": "b", "mix": "Mix1",
         "set": {"variant": "mac", "cache-bytes": 131072}}
      ],
      "params": {"queues": [1, 2], "alpha": 0.5, "tag": "x",
                 "names": ["u", "v"]}
    })");
    ASSERT_EQ(spec.points.size(), 2u);
    EXPECT_EQ(spec.points[1].mix, "Mix1");
    EXPECT_EQ(spec.paramUintList("queues"),
              (std::vector<std::uint64_t>{1, 2}));
    EXPECT_DOUBLE_EQ(spec.paramNum("alpha", 0.0), 0.5);
    EXPECT_EQ(spec.paramStr("tag", ""), "x");
    EXPECT_EQ(spec.paramStrList("names"),
              (std::vector<std::string>{"u", "v"}));
    EXPECT_EQ(spec.paramUint("absent", 7), 7u);
}

TEST(SpecParse, GridExpansionCounts)
{
    auto spec = parseSpecText(R"({
      "name": "grid",
      "points": [
        {"name": "a", "set": {"variant": "merge"}},
        {"name": "b", "set": {"variant": "traditional"}}
      ],
      "grid": {"queue": [1, 8, 64], "requests": [40, 80]}
    })");
    SimConfig base = SimConfig::paperDefault();
    base.controller.oram.leafLevel = 10;
    auto points =
        expandSpecPoints(spec, base, {"Mix1", "Mix3"});
    // 2 points x (3 queue x 2 requests) x 2 mixes.
    EXPECT_EQ(points.size(), 2u * 6u * 2u);

    // A pure-grid spec still expands (anonymous base point).
    auto nopoints = parseSpecText(
        R"({"name": "g", "grid": {"requests": [40, 80, 120]}})");
    EXPECT_EQ(expandSpecPoints(nopoints, base, {"Mix3"}).size(), 3u);
}

TEST(SpecParse, HashStableAndPathIndependent)
{
    const std::string text = kSmallSpec;
    EXPECT_EQ(specHash(text), specHash(text));
    auto a = parseSpecText(text, "a.json");
    auto b = parseSpecText(text, "b/c.json");
    EXPECT_EQ(a.source.hash, b.source.hash);
    EXPECT_EQ(a.source.hash, specHash(text));
    EXPECT_NE(specHash(text), specHash(text + " "));
    // FNV-1a 64 of the empty string is the offset basis.
    EXPECT_EQ(specHash(""), 14695981039346656037ULL);
}

TEST(SpecParseDeath, MalformedSpecsDieWithLocation)
{
    // Not JSON at all.
    EXPECT_DEATH(parseSpecText("{nope", "bad.json"), "bad.json");
    // Missing the required name.
    EXPECT_DEATH(parseSpecText(R"({"scenario": "sweep"})"),
                 "missing the required \"name\"");
    // Unknown top-level key.
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "gird": {}})"),
                 "gird");
    // Unknown override key, reported with its line.
    EXPECT_DEATH(parseSpecText("{\"name\": \"x\",\n"
                               " \"base\": {\"reqests\": 10}}",
                               "typo.json"),
                 "typo.json:2.*reqests");
    // Out-of-range grid value (validated at parse time).
    EXPECT_DEATH(parseSpecText(
                     R"({"name": "x", "grid": {"leaf-level": [3]}})"),
                 "leaf-level");
    // Conflicting overrides: a scheduler knob on the insecure
    // baseline.
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "points": [
                     {"name": "p",
                      "set": {"insecure": true, "queue": 8}}]})"),
                 "insecure");
    // cache-bytes without a cache to size.
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "base":
                     {"variant": "merge", "cache-bytes": 4096}})"),
                 "cache-bytes");
    // batch-size without the batched policy.
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "base":
                     {"variant": "merge", "batch-size": 4}})"),
                 "batch");
    // enable-replacing without the forkpath policy, the only one
    // that replaces dummies.
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "base":
                     {"policy": "batched", "enable-replacing": true}})"),
                 "\"enable-replacing\" requires the forkpath policy");
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "points": [
                     {"name": "p", "set": {"variant": "traditional",
                                           "enable-replacing": false}}]})"),
                 "\"enable-replacing\" requires the forkpath policy");
    // A key that "variant" sets anew, placed before it in one set
    // (a point's keys and its grid combination form one set).
    EXPECT_DEATH(parseSpecText("{\"name\": \"x\", \"points\": [\n"
                               " {\"name\": \"p\", \"set\":\n"
                               "  {\"queue\": 16, \"variant\": \"merge\"}}]}",
                               "order.json"),
                 "order.json:3: \"queue\" comes before \"variant\".*put "
                 "\"variant\" first");
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "points": [
                     {"name": "p",
                      "set": {"variant": "mac", "cache-bytes": 4096}}],
                     "grid": {"variant": ["mac", "treetop"]}})"),
                 "\"cache-bytes\" comes before \"variant\"");
    // "policy" sets the policy alone, so it is a scheduler knob on the
    // insecure baseline like any other.
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "base":
                     {"variant": "insecure", "policy": "batched"}})"),
                 "\"policy\" conflicts with the insecure baseline");
    EXPECT_DEATH(parseSpecText(R"({"name": "x", "base":
                     {"policy": "batched", "variant": "insecure"}})"),
                 "put \"variant\" first");
    // Unknown mix name.
    EXPECT_DEATH(parseSpecText(
                     R"({"name": "x", "mixes": ["Mix99"]})"),
                 "Mix99");
}

TEST(Scenario, ProvenanceStampedIntoJson)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    RunResult r;
    EXPECT_EQ(toJson(r).find("spec_name"), std::string::npos);
    r.specName = spec.name;
    r.specHash = spec.source.hash;
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"spec_name\":\"unit\""),
              std::string::npos);
    EXPECT_NE(json.find("\"spec_hash\""), std::string::npos);
}

TEST(Scenario, SweepStdoutByteIdenticalAcrossJobs)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    auto run = [&](const char *jobs) {
        Args args({std::string("--jobs=") + jobs});
        auto cli = args.cli();
        testing::internal::CaptureStdout();
        EXPECT_EQ(runSpec(spec, cli), 0);
        return testing::internal::GetCapturedStdout();
    };
    const std::string seq = run("1");
    const std::string par = run("4");
    EXPECT_FALSE(seq.empty());
    EXPECT_EQ(seq, par);
}

TEST(Scenario, ContextHonorsCliOverridesAndQuick)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    {
        Args args({"--requests=77", "--leaf-level=12"});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
        EXPECT_EQ(ctx.base.requestsPerCore, 77u);
        EXPECT_EQ(ctx.base.controller.oram.leafLevel, 12u);
    }
    {
        Args args({"--quick"});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
        EXPECT_EQ(ctx.base.requestsPerCore, 150u);
        EXPECT_EQ(ctx.base.controller.oram.leafLevel, 14u);
    }
    // --quick sets the run shape itself, so an explicit one is fatal
    // rather than silently overridden.
    const std::pair<const char *, const char *> shapes[] = {
        {"--requests=77", "--requests"},
        {"--leaf-level=12", "--leaf-level"}};
    for (const auto &[flag, name] : shapes) {
        Args args({"--quick", flag});
        auto cli = args.cli();
        EXPECT_EXIT(ScenarioContext(spec, cli),
                    testing::ExitedWithCode(1),
                    std::string("--quick conflicts with ") + name);
    }
    {
        Args args({"--mixes=Mix1,Mix2"});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
        EXPECT_EQ(ctx.mixes,
                  (std::vector<std::string>{"Mix1", "Mix2"}));
    }
}

TEST(ScenarioDeath, CliRunShapeFlagsAreRangeChecked)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    auto context = [&spec](const char *flag) {
        Args args({flag});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
    };
    // The override table's ranges: requests [1, 1e8], leaf-level
    // [4, 40]. Negative counts used to wrap to 2^64 - 5.
    EXPECT_EXIT(context("--requests=-5"), testing::ExitedWithCode(1),
                "requests");
    EXPECT_EXIT(context("--requests=0"), testing::ExitedWithCode(1),
                "requests.*out of range");
    EXPECT_EXIT(context("--leaf-level=60"), testing::ExitedWithCode(1),
                "leaf-level.*out of range \\[4, 40\\]");
    EXPECT_EXIT(context("--leaf-level=abc"), testing::ExitedWithCode(1),
                "--leaf-level expects an integer");
}

TEST(ScenarioDeath, ObsAndSweepFlagsAreRangeChecked)
{
    auto spec = parseSpecText(kSmallSpec, "unit.json");
    auto context = [&spec](const char *flag) {
        Args args({flag});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
    };
    // Each bad value exits 1 naming the flag: no abort, and no
    // negative value wrapped to a huge unsigned one.
    EXPECT_EXIT(context("--stats-interval=0"),
                testing::ExitedWithCode(1),
                "--stats-interval must be a positive tick count, got 0");
    EXPECT_EXIT(context("--stats-interval=-5"),
                testing::ExitedWithCode(1),
                "--stats-interval must be a positive tick count, got -5");
    EXPECT_EXIT(context("--jobs=-1"), testing::ExitedWithCode(1),
                "--jobs must be in \\[0, 4294967295\\].*got -1");
    EXPECT_EXIT(context("--jobs=4294967296"),
                testing::ExitedWithCode(1),
                "--jobs must be in .*got 4294967296");

    // Valid values pass through unchanged.
    Args args({"--stats-interval=1", "--jobs=3"});
    auto cli = args.cli();
    ScenarioContext ctx(spec, cli);
    EXPECT_EQ(ctx.base.obs.statsIntervalTicks, 1u);
    EXPECT_EQ(ctx.sweepOpt.jobs, 3u);
}

TEST(Scenario, ScenarioFlagPrefersFlagThenParamsThenDefault)
{
    auto spec = parseSpecText(
        R"({"name": "unit", "params": {"trials": 7}})", "unit.json");
    auto read = [&spec](const std::vector<std::string> &flags,
                        const char *name) {
        Args args(flags);
        auto cli = args.cli();
        return ScenarioContext(spec, cli).uintFlag(name, 3);
    };
    EXPECT_EQ(read({"--trials=9"}, "trials"), 9u);
    EXPECT_EQ(read({}, "trials"), 7u);
    EXPECT_EQ(read({}, "samples"), 3u);
}

TEST(ScenarioDeath, ScenarioFlagsAreRangeChecked)
{
    // Counts must be >= 1: zero used to print -nan columns or panic
    // in geomean, and a negative count wrapped to 2^32 - 1.
    auto spec = parseSpecText(R"({"name": "unit"})", "unit.json");
    auto read = [&spec](const char *flag, const char *name,
                        unsigned lo = 1, unsigned hi = ~0u) {
        Args args({flag});
        auto cli = args.cli();
        ScenarioContext(spec, cli).uintFlag(name, 3, lo, hi);
    };
    EXPECT_EXIT(read("--samples=0", "samples"),
                testing::ExitedWithCode(1),
                "command line: \"samples\": value 0 out of range "
                "\\[1, 4294967295\\]");
    EXPECT_EXIT(read("--trials=0", "trials"),
                testing::ExitedWithCode(1),
                "\"trials\": value 0 out of range");
    EXPECT_EXIT(read("--trials=-1", "trials"),
                testing::ExitedWithCode(1),
                "\"trials\": value -1 out of range");
    EXPECT_EXIT(read("--trials=4294967296", "trials"),
                testing::ExitedWithCode(1),
                "\"trials\": value 4294967296 out of range");
    EXPECT_EXIT(read("--trials=x", "trials"),
                testing::ExitedWithCode(1),
                "--trials expects an integer");

    // A params value is checked the same way, pointing at the spec.
    auto bad = parseSpecText(
        "{\"name\": \"unit\",\n \"params\": {\"leaf-level\": 2}}",
        "unit.json");
    Args none({});
    auto cli = none.cli();
    EXPECT_EXIT(ScenarioContext(bad, cli).uintFlag("leaf-level", 16, 4,
                                                   40),
                testing::ExitedWithCode(1),
                "unit.json:2: \"leaf-level\": value 2 out of range "
                "\\[4, 40\\]");
}

/** A one-point sweep spec whose base block is {variant: merge, @p set}. */
ExperimentSpec
specWithBase(const std::string &set)
{
    return parseSpecText(
        R"({"name": "unit", "mixes": ["Mix3"], "base": {"variant": "merge")" +
            (set.empty() ? "" : ", " + set) + "}}",
        "unit.json");
}

/** Every SimConfig field a knob flag can set, printed for comparison. */
std::string
knobFields(const SimConfig &c)
{
    std::ostringstream os;
    os.precision(17);
    os << c.requestsPerCore << ' ' << c.controller.oram.leafLevel << ' '
       << core::policyKindName(c.controller.policy) << ' '
       << c.controller.batchSize << ' ' << c.controller.labelQueueSize
       << ' ' << backendKindName(c.backendKind) << ' '
       << c.net.oneWayLatencyUs << ' ' << c.net.linkGbps << ' '
       << c.net.window << ' ' << c.shards << ' ' << c.shardWindow << ' '
       << c.faults.lossRate << ' ' << c.faults.errorRate << ' '
       << c.faults.spikeRate << ' ' << c.faults.spikeUs << ' '
       << c.faults.outageStartUs << ' ' << c.faults.outageEndUs << ' '
       << c.faults.seed << ' ' << c.retry.timeoutUs << ' '
       << c.retry.maxRetries << ' ' << c.retry.backoffBaseUs << ' '
       << c.retry.backoffCapUs << ' ' << c.insecure;
    return os.str();
}

TEST(Scenario, KnobFlagsMatchSpecKeys)
{
    // Each knob flag, as command-line text, must set exactly what the
    // same key does in a spec's base block.
    const struct
    {
        std::vector<std::string> flags;
        std::string set;
    } cases[] = {
        {{"--requests=77"}, R"("requests": 77)"},
        {{"--leaf-level=12"}, R"("leaf-level": 12)"},
        {{"--policy=traditional"}, R"("policy": "traditional")"},
        {{"--policy=batched", "--batch-size=4"},
         R"("policy": "batched", "batch-size": 4)"},
        {{"--backend=net"}, R"("backend": "net")"},
        {{"--net-latency-us=20"}, R"("net-latency-us": 20)"},
        {{"--net-gbps=5"}, R"("net-gbps": 5)"},
        {{"--net-window=4"}, R"("net-window": 4)"},
        {{"--shards=2"}, R"("shards": 2)"},
        {{"--shard-window=8"}, R"("shard-window": 8)"},
        {{"--fault-loss-rate=0.01"}, R"("fault-loss-rate": 0.01)"},
        {{"--fault-error-rate=0.02"}, R"("fault-error-rate": 0.02)"},
        {{"--fault-spike-us=500"}, R"("fault-spike-us": 500)"},
        {{"--fault-spike-rate=0.05"}, R"("fault-spike-rate": 0.05)"},
        {{"--fault-outage=100:200"}, R"("fault-outage": [100, 200])"},
        {{"--fault-seed=7"}, R"("fault-seed": 7)"},
        {{"--retry-timeout-us=50"}, R"("retry-timeout-us": 50)"},
        {{"--retry-max=3"}, R"("retry-max": 3)"},
        {{"--retry-backoff=5:50"}, R"("retry-backoff": [5, 50])"},
        // A lone BASE keeps the default 2000 us cap, or raises it.
        {{"--retry-backoff=5"}, R"("retry-backoff": [5, 2000])"},
        {{"--retry-backoff=5000"}, R"("retry-backoff": [5000, 5000])"},
    };
    const auto plain = specWithBase("");
    for (const auto &c : cases) {
        Args args(c.flags);
        auto cli = args.cli();
        const ScenarioContext from_flags(plain, cli);

        const auto spec = specWithBase(c.set);
        Args none({});
        auto no_cli = none.cli();
        const ScenarioContext from_spec(spec, no_cli);

        EXPECT_EQ(knobFields(from_flags.base), knobFields(from_spec.base))
            << c.set;
        EXPECT_NE(knobFields(from_flags.base),
                  knobFields(ScenarioContext(plain, no_cli).base))
            << c.set << " changed nothing";
    }
}

TEST(Scenario, SpikeMagnitudeDefaultsTheRate)
{
    auto rate = [](const std::string &set) {
        SimConfig cfg = SimConfig::paperDefault();
        const auto spec = specWithBase(set);
        applySpecOverrides(cfg, spec.base, spec.source, spec.params);
        return cfg.faults.spikeRate;
    };
    EXPECT_DOUBLE_EQ(rate(R"("fault-spike-us": 500)"), 0.01);
    EXPECT_DOUBLE_EQ(rate(""), 0.0);
    // An explicit rate wins, whichever key comes first.
    EXPECT_DOUBLE_EQ(
        rate(R"("fault-spike-us": 500, "fault-spike-rate": 0.05)"), 0.05);
    EXPECT_DOUBLE_EQ(
        rate(R"("fault-spike-rate": 0.05, "fault-spike-us": 500)"), 0.05);
    EXPECT_DOUBLE_EQ(
        rate(R"("fault-spike-rate": 0, "fault-spike-us": 500)"), 0.0);
}

TEST(Scenario, EnableReplacingAppliesUnderForkpath)
{
    // specWithBase starts from "variant": "merge", the forkpath preset.
    SimConfig cfg = SimConfig::paperDefault();
    const auto spec = specWithBase(R"("enable-replacing": false)");
    applySpecOverrides(cfg, spec.base, spec.source, spec.params);
    EXPECT_EQ(cfg.controller.policy, core::PolicyKind::forkpath);
    EXPECT_FALSE(cfg.controller.enableDummyReplacing);
    EXPECT_FALSE(cfg.controller.replacing());
}

TEST(ScenarioDeath, RejectedKnobFlagsUseTheTableMessage)
{
    const auto spec = specWithBase("");
    auto context = [&spec](const char *flag) {
        Args args({flag});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
    };
    const struct
    {
        const char *flag;
        const char *message;
    } cases[] = {
        {"--batch-size=4", "\"batch-size\" requires the batched policy"},
        {"--net-latency-us=2e9",
         "\"net-latency-us\": value 2e\\+09 out of range"},
        {"--fault-seed=-1", "\"fault-seed\": expected an integer"},
        {"--fault-loss-rate=1.5",
         "\"fault-loss-rate\": value 1.5 out of range \\[0, 1\\]"},
        {"--fault-outage=5:1",
         "\"fault-outage\": outage window needs 0 <= T0 < T1"},
        {"--retry-backoff=3:1",
         "\"retry-backoff\": backoff needs 0 <= BASE <= CAP"},
        {"--net-window=0", "\"net-window\": value 0 out of range"},
        {"--fault-outage=abc", "--fault-outage expects T0:T1"},
        {"--backend=disk", "\"backend\": unknown backend 'disk'"},
    };
    for (const auto &c : cases)
        EXPECT_EXIT(context(c.flag), testing::ExitedWithCode(1),
                    std::string("command line: ") + c.message)
            << c.flag;

    // A spec value must already carry its JSON type: only command-line
    // values may arrive as text.
    EXPECT_EXIT(specWithBase(R"("net-latency-us": "20")"),
                testing::ExitedWithCode(1),
                "\"net-latency-us\": expected a number");
    EXPECT_EXIT(specWithBase(R"("fault-outage": "100:200")"),
                testing::ExitedWithCode(1),
                "\"fault-outage\": expected a two-number array");
}

/**
 * The sweep scenario's CSV rows for @p spec under @p flags, keyed by
 * point name, each without its name cell.
 */
std::map<std::string, std::string>
sweepRows(const ExperimentSpec &spec, std::vector<std::string> flags)
{
    flags.insert(flags.end(), {"--csv", "--jobs=1"});
    Args args(flags);
    auto cli = args.cli();
    testing::internal::CaptureStdout();
    EXPECT_EQ(runSpec(spec, cli), 0);
    std::istringstream out(testing::internal::GetCapturedStdout());
    std::map<std::string, std::string> rows;
    std::string line;
    std::getline(out, line); // the header
    while (std::getline(out, line) && !line.empty()) {
        // A name with a comma in it is quoted.
        const bool quoted = line[0] == '"';
        const std::size_t end = quoted ? line.find('"', 1) + 1
                                       : line.find(',');
        rows[line.substr(quoted, end - 2 * quoted)] =
            line.substr(end + 1);
    }
    return rows;
}

/** Two merge points, with replacing off and on. */
constexpr char kReplacingSpec[] = R"({
  "name": "unit", "scenario": "sweep", "mixes": ["Mix1"],
  "base": {"requests": 80, "leaf-level": 18},
  "points": [
    {"name": "off", "set": {"variant": "merge", "enable-replacing": false}},
    {"name": "on", "set": {"variant": "merge", "enable-replacing": true}}]
})";

TEST(Scenario, PolicyFlagSetsOnlyThePolicy)
{
    // Under --policy, a queue grid over a merge and a MAC point keeps
    // each point's queue size and cache: four different rows.
    const auto spec = parseSpecText(R"({
      "name": "unit", "scenario": "sweep", "mixes": ["Mix3"],
      "base": {"requests": 40, "leaf-level": 10},
      "points": [{"name": "merge", "set": {"variant": "merge"}},
                 {"name": "mac", "set": {"variant": "mac"}}],
      "grid": {"queue": [16, 64]}
    })");
    const auto rows = sweepRows(spec, {"--policy=batched"});
    ASSERT_EQ(rows.size(), 4u);
    std::set<std::string> distinct;
    for (const auto &[name, row] : rows)
        distinct.insert(row);
    EXPECT_EQ(distinct.size(), 4u);

    Args args({"--policy=batched"});
    auto cli = args.cli();
    const ScenarioContext ctx(spec, cli);
    const SimConfig mac = ctx.pointConfig(spec.points[1]);
    EXPECT_EQ(mac.controller.policy, core::PolicyKind::batched);
    EXPECT_EQ(mac.controller.cachePolicy, core::CachePolicy::mac);

    // --policy=forkpath keeps a point's replacing switch.
    const auto replacing =
        sweepRows(parseSpecText(kReplacingSpec), {"--policy=forkpath"});
    ASSERT_EQ(replacing.size(), 2u);
    EXPECT_NE(replacing.at("off"), replacing.at("on"));
}

TEST(ScenarioDeath, PolicyFlagJoinsEachPointsConflictChecks)
{
    // A point's keys and the scheduler flags form one set, so a
    // conflict the flag creates is fatal, naming the key and the flag.
    auto run = [](const char *text, const char *flag) {
        const auto spec = parseSpecText(text);
        Args args({flag, "--csv", "--jobs=1"});
        auto cli = args.cli();
        runSpec(spec, cli);
    };
    EXPECT_EXIT(run(kReplacingSpec, "--policy=batched"),
                testing::ExitedWithCode(1),
                "\"enable-replacing\" requires the forkpath policy, not "
                "--policy=batched");
    EXPECT_EXIT(run(R"({
                  "name": "unit", "scenario": "sweep", "mixes": ["Mix3"],
                  "base": {"requests": 40, "leaf-level": 10},
                  "points": [
                    {"name": "b2",
                     "set": {"policy": "batched", "batch-size": 2}},
                    {"name": "b16",
                     "set": {"policy": "batched", "batch-size": 16}}]
                })",
                    "--policy=traditional"),
                testing::ExitedWithCode(1),
                "\"batch-size\" requires the batched policy, not "
                "--policy=traditional");
}

TEST(Scenario, ChannelsKeepThePagePolicy)
{
    for (const char *set : {R"("page-policy": "closed", "channels": 1)",
                            R"("channels": 1, "page-policy": "closed")"}) {
        SimConfig cfg = SimConfig::paperDefault();
        const auto spec = specWithBase(set);
        applySpecOverrides(cfg, spec.base, spec.source, spec.params);
        EXPECT_EQ(cfg.dram.org.channels, 1u) << set;
        EXPECT_EQ(cfg.dram.pagePolicy, dram::PagePolicy::closed) << set;
    }
}

TEST(Scenario, CommittedSpecsParseAndCoverScenarios)
{
    const std::string dir = FP_EXPERIMENTS_DIR;
    const char *names[] = {
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
        "fig16", "fig17", "fig18", "fig19", "table2", "overlap",
        "ablation", "replacing", "faults", "shards", "smoke",
        "sweep-example"};
    for (const char *name : names) {
        const std::string path = dir + "/" + name + ".json";
        std::ifstream probe(path);
        ASSERT_TRUE(probe.good()) << "missing committed spec " << path;
        auto spec = parseSpecFile(path);
        EXPECT_EQ(spec.name, name);
        EXPECT_FALSE(spec.description.empty()) << path;
    }
    // The gate spec pins its output name.
    auto smoke = parseSpecFile(dir + "/smoke.json");
    EXPECT_EQ(smoke.defaultOut, "BENCH_smoke.json");
    EXPECT_EQ(smoke.points.size(), 5u);
}

} // namespace
} // namespace fp::sim
