/**
 * @file
 * Experiment-spec runtime tests: parse round-trips, grid expansion,
 * spec-hash stability, parse-time validation (malformed specs die
 * with a file:line diagnostic), provenance stamping into RunResult
 * JSON, byte-identical stdout across --jobs, knob flags setting what
 * the same spec keys set (and dying with the same messages), and
 * every committed spec under experiments/ parsing cleanly.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/access_policy.hh"
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
        // --quick applies after the explicit run-shape flags.
        Args args({"--quick", "--requests=77", "--leaf-level=12"});
        auto cli = args.cli();
        ScenarioContext ctx(spec, cli);
        EXPECT_EQ(ctx.base.requestsPerCore, 150u);
        EXPECT_EQ(ctx.base.controller.oram.leafLevel, 14u);
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
    // The gate spec pins its output name and gated metrics.
    auto smoke = parseSpecFile(dir + "/smoke.json");
    EXPECT_EQ(smoke.defaultOut, "BENCH_smoke.json");
    EXPECT_EQ(smoke.gateMetrics.size(), 6u);
    EXPECT_EQ(smoke.points.size(), 5u);
}

} // namespace
} // namespace fp::sim
