/**
 * @file
 * Experiment-spec runtime tests: parse round-trips, grid expansion,
 * spec-hash stability, parse-time validation (malformed specs die
 * with a file:line diagnostic), provenance stamping into RunResult
 * JSON, byte-identical stdout across --jobs, and every committed
 * spec under experiments/ parsing cleanly.
 */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

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
