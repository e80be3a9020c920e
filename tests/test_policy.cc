/**
 * @file
 * Tests of the scheduling policy as ControllerParams owns it: registry
 * name parsing, the legacy factories, the sim::with* variants setting
 * only the scheduling fields, ControllerParams validation at
 * construction, the merging / replacing / admission predicates,
 * end-to-end batched runs (including determinism and the batching
 * hold actually firing), replacing only under forkpath, and the
 * --policy/--batch-size flag plumbing through sim::ScenarioContext.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/controller_params.hh"
#include "core/oram_controller.hh"
#include "mem/tree_store.hh"
#include "oram/path_oram.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/sim_config.hh"
#include "sim/spec_parse.hh"
#include "sim/system.hh"
#include "util/cli.hh"
#include "workload/mixes.hh"

namespace fp
{
namespace
{

// ---------------------------------------------------------------------------
// Registry.

TEST(PolicyRegistry, NamesRoundTripThroughParse)
{
    const auto names = core::policyKindNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "traditional");
    EXPECT_EQ(names[1], "forkpath");
    EXPECT_EQ(names[2], "batched");
    for (const auto &name : names) {
        core::PolicyKind kind = core::parsePolicyKind(name);
        EXPECT_STREQ(core::policyKindName(kind), name.c_str());
    }
}

TEST(PolicyRegistry, UnknownNameIsFatalWithTheValidList)
{
    EXPECT_DEATH(core::parsePolicyKind("zigzag"), "traditional");
}

TEST(PolicyRegistry, LegacyFactoriesKeepTheirValues)
{
    const auto trad = core::ControllerParams::traditional();
    EXPECT_EQ(trad.policy, core::PolicyKind::traditional);
    EXPECT_FALSE(trad.merging());
    EXPECT_FALSE(trad.enableDummyReplacing);
    EXPECT_EQ(trad.labelQueueSize, 1u);
    EXPECT_EQ(trad.cachePolicy, core::CachePolicy::none);

    const auto fork = core::ControllerParams::forkPath();
    EXPECT_EQ(fork.policy, core::PolicyKind::forkpath);
    EXPECT_TRUE(fork.merging());
    EXPECT_TRUE(fork.replacing());
    EXPECT_EQ(fork.labelQueueSize, 64u);
    EXPECT_EQ(fork.cachePolicy, core::CachePolicy::mac);
    EXPECT_EQ(fork.cacheBudgetBytes, std::uint64_t{1} << 20);
}

/** The ControllerParams fields no controller variant may touch. */
std::string
structuralFields(const core::ControllerParams &p)
{
    std::ostringstream os;
    os << p.oram.leafLevel << ' ' << p.recursionDepth << ' '
       << p.plbEntries << ' ' << p.enableIntegrity << ' '
       << p.periodicIntervalTicks << ' '
       << static_cast<int>(p.layout) << ' ' << p.batchSize << ' '
       << p.agingThreshold;
    return os.str();
}

TEST(PolicyVariants, SetOnlyTheSchedulingFields)
{
    sim::SimConfig cfg = sim::SimConfig::paperDefault();
    cfg.controller.oram.leafLevel = 11;
    cfg.controller.recursionDepth = 2;
    cfg.controller.plbEntries = 4096;
    cfg.controller.enableIntegrity = true;
    cfg.controller.periodicIntervalTicks = 1'300'000;
    cfg.controller.layout = dram::LayoutPolicy::linear;
    cfg.controller.batchSize = 3;
    cfg.controller.agingThreshold = 9;
    const std::string want = structuralFields(cfg.controller);

    const sim::SimConfig variants[] = {
        sim::withTraditional(cfg),
        sim::withMergeOnly(cfg, 16),
        sim::withMergeMac(cfg, 128 << 10, 32),
        sim::withMergeTreetop(cfg, 256 << 10, 8),
    };
    for (const sim::SimConfig &v : variants)
        EXPECT_EQ(structuralFields(v.controller), want);
    EXPECT_EQ(variants[2].controller.labelQueueSize, 32u);
    EXPECT_EQ(variants[2].controller.cacheBudgetBytes, 128u << 10);

    // The "variant" key goes through the same helpers, so it keeps
    // them too, even from a key that comes before it in the set.
    const sim::ExperimentSpec spec = sim::parseSpecText(R"({
      "name": "keep",
      "base": {"recursion-depth": 2, "plb-entries": 4096,
               "integrity": true, "periodic-interval-ticks": 1300000,
               "layout": "linear", "aging-threshold": 9,
               "leaf-level": 11, "variant": "mac"}
    })");
    sim::SimConfig from_spec = sim::SimConfig::paperDefault();
    from_spec.controller.batchSize = 3;
    sim::applySpecOverrides(from_spec, spec.base, spec.source,
                            spec.params);
    EXPECT_EQ(structuralFields(from_spec.controller), want);
    EXPECT_EQ(from_spec.controller.cachePolicy, core::CachePolicy::mac);
}

// ---------------------------------------------------------------------------
// Policy predicates.

TEST(PolicyPredicates, FlagsFollowTheParams)
{
    core::ControllerParams p = core::ControllerParams::traditional();
    EXPECT_STREQ(core::policyKindName(p.policy), "traditional");
    EXPECT_FALSE(p.merging());
    EXPECT_FALSE(p.replacing());
    // Only batched ever holds admission.
    EXPECT_TRUE(p.admits(0, true));
    // The replacing knob alone never turns replacing on.
    p.enableDummyReplacing = true;
    EXPECT_FALSE(p.replacing());

    p = core::ControllerParams::forkPath();
    EXPECT_STREQ(core::policyKindName(p.policy), "forkpath");
    EXPECT_TRUE(p.merging());
    EXPECT_TRUE(p.replacing());
    EXPECT_TRUE(p.admits(0, true));

    // The ablation knob disables replacing without leaving forkpath.
    p.enableDummyReplacing = false;
    EXPECT_EQ(p.policy, core::PolicyKind::forkpath);
    EXPECT_TRUE(p.merging());
    EXPECT_FALSE(p.replacing());
}

TEST(PolicyPredicates, BatchedHoldsUntilABatchWhileBusy)
{
    core::ControllerParams p;
    p.policy = core::PolicyKind::batched;
    p.enableDummyReplacing = false;
    p.batchSize = 4;
    EXPECT_STREQ(core::policyKindName(p.policy), "batched");
    EXPECT_TRUE(p.merging());
    EXPECT_FALSE(p.replacing());
    p.enableDummyReplacing = true;
    EXPECT_FALSE(p.replacing());
    // Idle pipeline: everything (including a partial batch) flushes.
    EXPECT_TRUE(p.admits(1, false));
    EXPECT_TRUE(p.admits(0, false));
    // Busy pipeline: hold below the batch, admit at or above it.
    EXPECT_FALSE(p.admits(0, true));
    EXPECT_FALSE(p.admits(3, true));
    EXPECT_TRUE(p.admits(4, true));
    EXPECT_TRUE(p.admits(5, true));
}

// ---------------------------------------------------------------------------
// ControllerParams validation (fatal at controller construction).

TEST(ControllerParamsValidate, RejectsDegenerateKnobs)
{
    {
        core::ControllerParams p = core::ControllerParams::forkPath();
        p.labelQueueSize = 0;
        EXPECT_DEATH(p.validate(), "labelQueueSize");
    }
    {
        core::ControllerParams p = core::ControllerParams::forkPath();
        p.recursionFanout = 0;
        EXPECT_DEATH(p.validate(), "recursionFanout");
    }
    {
        core::ControllerParams p;
        p.policy = core::PolicyKind::batched;
        p.batchSize = 0;
        EXPECT_DEATH(p.validate(), "batchSize");
    }
}

TEST(ControllerParamsValidate, RejectsZAboveInlineBucketBound)
{
    // Bucket slots are held inline, so every owner of a Z exits with
    // a diagnostic naming it rather than overrunning a bucket.
    core::ControllerParams p = core::ControllerParams::forkPath();
    p.oram.z = 9;
    EXPECT_EXIT(p.validate(), testing::ExitedWithCode(1), "oram.z=9");
    oram::OramParams op;
    op.leafLevel = 4;
    op.z = 9;
    EXPECT_EXIT(oram::PathOram{op}, testing::ExitedWithCode(1),
                "PathOram: Z=9");
    EXPECT_EXIT(mem::TreeStore(mem::TreeGeometry(4), 9, 0),
                testing::ExitedWithCode(1), "TreeStore: Z=9");
}

TEST(ControllerParamsValidate, AcceptsEveryRegisteredPolicy)
{
    for (const auto &name : core::policyKindNames()) {
        core::ControllerParams p;
        p.policy = core::parsePolicyKind(name);
        p.validate(); // must not abort
    }
}

// ---------------------------------------------------------------------------
// End-to-end batched runs.

sim::SimConfig
batchedConfig()
{
    sim::SimConfig cfg = sim::SimConfig::paperDefault();
    cfg.requestsPerCore = 80;
    cfg.controller.oram.leafLevel = 10;
    cfg = sim::withMergeMac(std::move(cfg), std::uint64_t{1} << 20);
    cfg.controller.policy = core::PolicyKind::batched;
    cfg.controller.batchSize = 4;
    return cfg;
}

TEST(BatchedPolicy, RunsEndToEndDeterministically)
{
    sim::RunResult a = sim::runMix(batchedConfig(), "Mix3");
    EXPECT_FALSE(a.hitTickLimit);
    EXPECT_EQ(a.llcRequests, 4u * 80u);
    EXPECT_GT(a.realAccesses, 0u);
    sim::RunResult b = sim::runMix(batchedConfig(), "Mix3");
    EXPECT_EQ(sim::toJson(a), sim::toJson(b));
}

TEST(BatchedPolicy, HoldFiresAndNothingStarves)
{
    sim::System sys(batchedConfig(), workload::mixProfiles("Mix3"));
    sim::RunResult r = sys.run();
    EXPECT_FALSE(r.hitTickLimit);
    EXPECT_EQ(r.llcRequests, 4u * 80u);

    core::OramController *ctrl = sys.controller();
    ASSERT_NE(ctrl, nullptr);
    EXPECT_EQ(ctrl->params().policy, core::PolicyKind::batched);
    // The hold actually gated pumps (4 cores x 16 MSHRs pile up well
    // past batchSize=4 while an access is in flight) — and despite
    // that, every request above completed.
    EXPECT_GT(ctrl->admission().heldPumps(), 0u);
}

TEST(ForkpathPolicy, ControllerReportsTheDefaultPolicy)
{
    sim::SimConfig cfg = sim::SimConfig::paperDefault();
    cfg.requestsPerCore = 20;
    cfg.controller.oram.leafLevel = 10;
    cfg = sim::withMergeOnly(std::move(cfg), 16);
    sim::System sys(cfg, workload::mixProfiles("Mix3"));
    ASSERT_NE(sys.controller(), nullptr);
    EXPECT_EQ(sys.controller()->params().policy,
              core::PolicyKind::forkpath);
    EXPECT_EQ(sys.controller()->admission().heldPumps(), 0u);
}

// ---------------------------------------------------------------------------
// Replacing end to end: the knob is on in both runs, but only the
// forkpath controller replaces dummies or swaps pending accesses.

TEST(PolicyReplacing, OnlyForkpathReplacesOnTheSameWorkload)
{
    auto run = [](core::PolicyKind kind) {
        sim::SimConfig cfg = sim::SimConfig::paperDefault();
        cfg.requestsPerCore = 80;
        // A deep tree keeps each refill long enough for late arrivals
        // to find the crossing bucket unissued (Cases 1 and 3).
        cfg.controller.oram.leafLevel = 18;
        cfg = sim::withMergeMac(std::move(cfg), std::uint64_t{1} << 20);
        cfg.controller.policy = kind;
        cfg.controller.enableDummyReplacing = true;
        // A small batch admits during refills often enough that a
        // batched controller would replace if the knob alone decided.
        cfg.controller.batchSize = 2;
        sim::System sys(cfg, workload::mixProfiles("Mix1"));
        sim::RunResult r = sys.run();
        EXPECT_FALSE(r.hitTickLimit);
        EXPECT_EQ(r.llcRequests, 4u * 80u);
        const core::OramController *ctrl = sys.controller();
        EXPECT_NE(ctrl, nullptr);
        return std::pair(ctrl ? ctrl->dummyReplacements() : 0,
                         ctrl ? ctrl->pendingSwaps() : 0);
    };
    const auto [batched_replaced, batched_swapped] =
        run(core::PolicyKind::batched);
    EXPECT_EQ(batched_replaced, 0u);
    EXPECT_EQ(batched_swapped, 0u);
    const auto [fork_replaced, fork_swapped] =
        run(core::PolicyKind::forkpath);
    EXPECT_GT(fork_replaced, 0u);
    EXPECT_GT(fork_swapped, 0u);
}

// ---------------------------------------------------------------------------
// Flag plumbing, through the ScenarioContext every fp_bench run builds.

TEST(PolicyFlags, CliSelectsPolicyAndBatchSize)
{
    const char *argv[] = {"bench", "--policy=batched",
                          "--batch-size=5"};
    CliArgs args(3, const_cast<char **>(argv));
    const sim::ExperimentSpec spec =
        sim::parseSpecText(R"({"name": "flags"})");
    sim::ScenarioContext ctx(spec, args);
    EXPECT_EQ(ctx.base.controller.policy, core::PolicyKind::batched);
    EXPECT_EQ(ctx.base.controller.batchSize, 5u);
    // The flag sets the policy alone: the base keeps its queue and
    // cache.
    EXPECT_EQ(ctx.base.controller.labelQueueSize, 1u);
    EXPECT_EQ(ctx.base.controller.cachePolicy, core::CachePolicy::none);
}

TEST(PolicyFlags, AbsentFlagsLeaveTheConfigUntouched)
{
    const char *argv[] = {"bench"};
    CliArgs args(1, const_cast<char **>(argv));
    const sim::ExperimentSpec spec =
        sim::parseSpecText(R"({"name": "flags"})");
    sim::ScenarioContext ctx(spec, args);
    const sim::SimConfig before = sim::SimConfig::paperDefault();
    EXPECT_EQ(ctx.base.controller.policy, before.controller.policy);
    EXPECT_EQ(ctx.base.controller.batchSize,
              before.controller.batchSize);
}

TEST(PolicyFlags, PolicyKeySetsThePolicyAlone)
{
    for (const auto &name : core::policyKindNames()) {
        const sim::ExperimentSpec spec = sim::parseSpecText(
            R"({"name": "key", "base": {"policy": ")" + name + "\"}}");
        sim::SimConfig cfg = sim::SimConfig::paperDefault();
        sim::applySpecOverrides(cfg, spec.base, spec.source,
                                spec.params);
        EXPECT_EQ(core::policyKindName(cfg.controller.policy), name);
        EXPECT_EQ(cfg.controller.labelQueueSize, 1u) << name;
        EXPECT_EQ(cfg.controller.cachePolicy, core::CachePolicy::none)
            << name;
        EXPECT_FALSE(cfg.controller.enableDummyReplacing) << name;
    }
}

} // anonymous namespace
} // namespace fp
