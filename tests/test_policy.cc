/**
 * @file
 * Tests of the scheduling-policy seam (core::AccessPolicy): registry
 * name parsing, the canonical presets behind the legacy factories,
 * ControllerParams validation at construction, the policy objects'
 * admission/selection contracts, end-to-end batched runs (including
 * determinism and the batching hold actually firing), and the
 * --policy/--batch-size flag plumbing through sim::ScenarioContext.
 */

#include <gtest/gtest.h>

#include "core/access_policy.hh"
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
    const auto names = core::accessPolicyNames();
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

    // Presets leave the ORAM geometry and timing knobs alone.
    core::ControllerParams geo;
    geo.oram.leafLevel = 11;
    geo.writeWindow = 9;
    core::applyPolicyPreset(geo, core::PolicyKind::batched);
    EXPECT_EQ(geo.policy, core::PolicyKind::batched);
    EXPECT_EQ(geo.oram.leafLevel, 11u);
    EXPECT_EQ(geo.writeWindow, 9u);
}

// ---------------------------------------------------------------------------
// Policy objects.

TEST(PolicyObjects, FlagsFollowTheParams)
{
    auto pol = core::makeAccessPolicy(
        core::ControllerParams::traditional());
    EXPECT_EQ(pol->kind(), core::PolicyKind::traditional);
    EXPECT_STREQ(pol->name(), "traditional");
    EXPECT_FALSE(pol->merging());
    EXPECT_FALSE(pol->replacing());
    // The default admission gate never holds.
    EXPECT_TRUE(pol->admitFrontend(0, true));

    core::ControllerParams p = core::ControllerParams::forkPath();
    pol = core::makeAccessPolicy(p);
    EXPECT_EQ(pol->kind(), core::PolicyKind::forkpath);
    EXPECT_TRUE(pol->merging());
    EXPECT_TRUE(pol->replacing());
    EXPECT_TRUE(pol->admitFrontend(0, true));

    // The ablation knob disables replacing without leaving forkpath.
    p.enableDummyReplacing = false;
    pol = core::makeAccessPolicy(p);
    EXPECT_EQ(pol->kind(), core::PolicyKind::forkpath);
    EXPECT_FALSE(pol->replacing());
}

TEST(PolicyObjects, BatchedHoldsUntilABatchWhileBusy)
{
    core::ControllerParams p;
    core::applyPolicyPreset(p, core::PolicyKind::batched);
    p.batchSize = 4;
    auto pol = core::makeAccessPolicy(p);
    EXPECT_EQ(pol->kind(), core::PolicyKind::batched);
    EXPECT_TRUE(pol->merging());
    EXPECT_FALSE(pol->replacing());
    // Idle pipeline: everything (including a partial batch) flushes.
    EXPECT_TRUE(pol->admitFrontend(1, false));
    EXPECT_TRUE(pol->admitFrontend(0, false));
    // Busy pipeline: hold below the batch, admit at or above it.
    EXPECT_FALSE(pol->admitFrontend(0, true));
    EXPECT_FALSE(pol->admitFrontend(3, true));
    EXPECT_TRUE(pol->admitFrontend(4, true));
    EXPECT_TRUE(pol->admitFrontend(5, true));
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
        p.addressQueueSize = 0;
        EXPECT_DEATH(p.validate(), "addressQueueSize");
    }
    {
        core::ControllerParams p = core::ControllerParams::forkPath();
        p.recursionFanout = 0;
        EXPECT_DEATH(p.validate(), "recursionFanout");
    }
    {
        core::ControllerParams p = core::ControllerParams::forkPath();
        p.writeWindow = 0;
        EXPECT_DEATH(p.validate(), "writeWindow");
    }
    {
        core::ControllerParams p;
        core::applyPolicyPreset(p, core::PolicyKind::batched);
        p.batchSize = 0;
        EXPECT_DEATH(p.validate(), "batchSize");
    }
    {
        core::ControllerParams p = core::ControllerParams::forkPath();
        p.cachePolicy = core::CachePolicy::mac;
        p.macBucketsPerSet = 0;
        EXPECT_DEATH(p.validate(), "macBucketsPerSet");
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
    for (const auto &name : core::accessPolicyNames()) {
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
    EXPECT_EQ(ctrl->policy().kind(), core::PolicyKind::batched);
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
    EXPECT_EQ(sys.controller()->policy().kind(),
              core::PolicyKind::forkpath);
    EXPECT_EQ(sys.controller()->admission().heldPumps(), 0u);
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
