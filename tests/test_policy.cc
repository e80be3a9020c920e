/**
 * @file
 * Tests of the scheduling policy as ControllerParams owns it: registry
 * name parsing, the canonical presets behind the legacy factories,
 * ControllerParams validation at construction, the merging /
 * replacing / admission predicates, end-to-end batched runs (including
 * determinism and the batching hold actually firing), replacing only
 * under forkpath, and the --policy/--batch-size flag plumbing through
 * sim::ScenarioContext.
 */

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

TEST(PolicyRegistry, PresetsBackTheLegacyFactories)
{
    core::ControllerParams trad;
    core::applyPolicyPreset(trad, core::PolicyKind::traditional);
    const auto trad_factory = core::ControllerParams::traditional();
    EXPECT_EQ(trad.policy, core::PolicyKind::traditional);
    EXPECT_FALSE(trad.merging());
    EXPECT_EQ(trad.enableDummyReplacing,
              trad_factory.enableDummyReplacing);
    EXPECT_EQ(trad.labelQueueSize, trad_factory.labelQueueSize);
    EXPECT_EQ(trad.cachePolicy, trad_factory.cachePolicy);

    core::ControllerParams fork;
    core::applyPolicyPreset(fork, core::PolicyKind::forkpath);
    const auto fork_factory = core::ControllerParams::forkPath();
    EXPECT_EQ(fork.policy, core::PolicyKind::forkpath);
    EXPECT_TRUE(fork.merging());
    EXPECT_EQ(fork.enableDummyReplacing,
              fork_factory.enableDummyReplacing);
    EXPECT_EQ(fork.labelQueueSize, fork_factory.labelQueueSize);
    EXPECT_EQ(fork.cachePolicy, fork_factory.cachePolicy);

    // Presets leave the ORAM geometry and the other knobs alone.
    core::ControllerParams geo;
    geo.oram.leafLevel = 11;
    geo.agingThreshold = 9;
    core::applyPolicyPreset(geo, core::PolicyKind::batched);
    EXPECT_EQ(geo.policy, core::PolicyKind::batched);
    EXPECT_EQ(geo.oram.leafLevel, 11u);
    EXPECT_EQ(geo.agingThreshold, 9u);
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
    core::applyPolicyPreset(p, core::PolicyKind::batched);
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
        core::applyPolicyPreset(p, core::PolicyKind::batched);
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

TEST(ControllerParamsValidate, AcceptsEveryRegisteredPreset)
{
    for (const auto &name : core::policyKindNames()) {
        core::ControllerParams p;
        core::applyPolicyPreset(p, core::parsePolicyKind(name));
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
    cfg = sim::withPolicy(std::move(cfg), core::PolicyKind::batched);
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
        cfg = sim::withPolicy(std::move(cfg), kind);
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

TEST(PolicyFlags, WithPolicyNameMatchesTheFactories)
{
    sim::SimConfig base = sim::SimConfig::paperDefault();
    sim::SimConfig byname =
        sim::withPolicyName(base, "traditional");
    EXPECT_EQ(byname.controller.policy,
              core::PolicyKind::traditional);
    EXPECT_EQ(byname.controller.labelQueueSize,
              core::ControllerParams::traditional().labelQueueSize);

    byname = sim::withPolicyName(base, "forkpath");
    EXPECT_EQ(byname.controller.policy, core::PolicyKind::forkpath);
    EXPECT_EQ(byname.controller.cachePolicy,
              core::ControllerParams::forkPath().cachePolicy);
}

} // anonymous namespace
} // namespace fp
