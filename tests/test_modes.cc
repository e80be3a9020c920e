/**
 * @file
 * Tests of the operating-mode options added around the core design:
 * periodic (nonstop-stream) operation, the closed-page DRAM policy,
 * and JSON result export.
 */

#include <gtest/gtest.h>

#include "core/oram_controller.hh"
#include "dram/dram_backend.hh"
#include "dram/dram_system.hh"
#include "sim/metrics.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace fp
{
namespace
{

// --- periodic (nonstop-stream) mode -----------------------------------------

core::ControllerParams
periodicParams(Tick interval)
{
    core::ControllerParams p;
    p.oram.leafLevel = 6;
    p.oram.payloadBytes = 8;
    p.oram.seed = 77;
    p.labelQueueSize = 8;
    p.periodicIntervalTicks = interval;
    return p;
}

TEST(PeriodicMode, StreamsWithoutRequests)
{
    EventQueue eq;
    dram::DramSystem dram(dram::DramParams::ddr3_1600(2), eq);
    dram::DramBackend mem(dram);
    core::OramController ctrl(periodicParams(1'000'000), eq, mem);
    // One request to prime the stream, then let it free-run.
    ctrl.request(oram::Op::write, 1, std::vector<std::uint8_t>(8, 1),
                 [](Tick, const auto &) {});
    eq.run(50'000'000); // 50 us
    // ~50 slots of 1 us: the dummy stream must keep firing.
    EXPECT_GT(ctrl.totalAccesses(), 30u);
    EXPECT_GT(ctrl.dummyAccessesRun(), 20u);
}

TEST(PeriodicMode, AccessesLandOnTheGrid)
{
    EventQueue eq;
    dram::DramSystem dram(dram::DramParams::ddr3_1600(2), eq);
    auto p = periodicParams(2'000'000);
    EventQueue *eqp = &eq;
    dram::DramBackend mem(dram);
    core::OramController ctrl(p, eq, mem);
    ctrl.setRevealTraceEnabled(true);
    ctrl.request(oram::Op::read, 1, {}, [](Tick, const auto &) {});
    eq.run(30'000'000);
    // Rate: at most one access per 2 us window (plus the primer).
    double windows = 30.0 / 2.0;
    EXPECT_LE(ctrl.totalAccesses(),
              static_cast<std::uint64_t>(windows) + 2);
    (void)eqp;
}

TEST(PeriodicMode, TimingChannelSealed)
{
    // The bus-visible access start times must land on the fixed
    // grid regardless of when real requests arrive: consecutive
    // starts are separated by at least the interval and show no
    // request-correlated jitter.
    const Tick interval = 1'500'000;
    EventQueue eq;
    dram::DramSystem dram(dram::DramParams::ddr3_1600(2), eq);
    dram::DramBackend mem(dram);
    core::OramController ctrl(periodicParams(interval), eq, mem);
    ctrl.setRevealTraceEnabled(true);

    Rng rng(3);
    // Bursty, data-dependent request arrivals.
    for (int burst = 0; burst < 5; ++burst) {
        eq.schedule(burst * 7'777'777 + 123'456, [&ctrl, &rng] {
            for (int k = 0; k < 3; ++k) {
                ctrl.request(oram::Op::read, rng.uniformInt(128),
                             {}, [](Tick, const auto &) {});
            }
        });
    }
    eq.run(60'000'000);

    const auto &trace = ctrl.revealTrace();
    ASSERT_GT(trace.size(), 10u);
    for (std::size_t i = 1; i < trace.size(); ++i) {
        Tick gap = trace[i].readStartTick -
                   trace[i - 1].readStartTick;
        EXPECT_GE(gap, interval) << "at access " << i;
        // Back-to-back grid slots when the system keeps up.
        EXPECT_LE(gap % interval, interval / 4)
            << "off-grid start at access " << i;
    }
}

TEST(PeriodicMode, RequestsStillComplete)
{
    EventQueue eq;
    dram::DramSystem dram(dram::DramParams::ddr3_1600(2), eq);
    dram::DramBackend mem(dram);
    core::OramController ctrl(periodicParams(1'500'000), eq, mem);
    std::vector<std::uint8_t> out;
    bool done = false;
    ctrl.request(oram::Op::write, 3, std::vector<std::uint8_t>(8, 9),
                 [](Tick, const auto &) {});
    ctrl.request(oram::Op::read, 3, {}, [&](Tick, const auto &d) {
        out = d;
        done = true;
    });
    eq.runWhile([&] { return !done; });
    ASSERT_TRUE(done);
    EXPECT_EQ(out, std::vector<std::uint8_t>(8, 9));
}

TEST(PeriodicMode, NonMergingBaselineStreamsToo)
{
    EventQueue eq;
    dram::DramSystem dram(dram::DramParams::ddr3_1600(2), eq);
    auto p = periodicParams(1'000'000);
    p.policy = core::PolicyKind::traditional;
    p.enableDummyReplacing = false;
    p.labelQueueSize = 1;
    dram::DramBackend mem(dram);
    core::OramController ctrl(p, eq, mem);
    ctrl.request(oram::Op::read, 1, {}, [](Tick, const auto &) {});
    eq.run(40'000'000);
    EXPECT_GT(ctrl.dummyAccessesRun(), 15u);
}

TEST(PeriodicMode, DemandModeStillDrains)
{
    EventQueue eq;
    dram::DramSystem dram(dram::DramParams::ddr3_1600(2), eq);
    dram::DramBackend mem(dram);
    core::OramController ctrl(periodicParams(0), eq, mem);
    ctrl.request(oram::Op::read, 1, {}, [](Tick, const auto &) {});
    eq.run();
    EXPECT_TRUE(eq.empty());
}

// --- closed-page policy ---------------------------------------------------

Tick
timedAccess(dram::DramSystem &dram, EventQueue &eq, Addr addr)
{
    Tick done = 0;
    Tick start = eq.now();
    dram::DramRequest req;
    req.addr = addr;
    req.bursts = 4;
    req.onComplete = [&](Tick t) { done = t; };
    dram.access(std::move(req));
    eq.run();
    return done - start;
}

TEST(ClosedPage, NoRowHits)
{
    EventQueue eq;
    auto params = dram::DramParams::ddr3_1600(1);
    params.pagePolicy = dram::PagePolicy::closed;
    dram::DramSystem dram(params, eq);
    timedAccess(dram, eq, 0);
    timedAccess(dram, eq, 64); // same row under open policy
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_EQ(dram.rowMisses(), 2u);
}

TEST(ClosedPage, SameRowSlowerThanOpenPolicy)
{
    EventQueue eq_open, eq_closed;
    auto open_params = dram::DramParams::ddr3_1600(1);
    auto closed_params = open_params;
    closed_params.pagePolicy = dram::PagePolicy::closed;
    dram::DramSystem open_dram(open_params, eq_open);
    dram::DramSystem closed_dram(closed_params, eq_closed);

    timedAccess(open_dram, eq_open, 0);
    Tick open_second = timedAccess(open_dram, eq_open, 64);
    timedAccess(closed_dram, eq_closed, 0);
    Tick closed_second = timedAccess(closed_dram, eq_closed, 64);
    EXPECT_GT(closed_second, open_second);
}

TEST(ClosedPage, ConflictNoSlowerThanOpenPolicy)
{
    // Closed page's win: a row conflict needs no demand precharge.
    EventQueue eq;
    auto params = dram::DramParams::ddr3_1600(1);
    params.pagePolicy = dram::PagePolicy::closed;
    dram::DramSystem dram(params, eq);
    timedAccess(dram, eq, 0);
    // Let the auto-precharge complete, then hit another row of the
    // same bank: only ACT+CAS remain (no demand precharge).
    eq.schedule(eq.now() + 200'000, [] {});
    eq.run();
    Tick t = timedAccess(dram, eq, 8192 * 8);
    auto &p = params.timing;
    EXPECT_EQ(t, p.cycles(p.tRCD + p.cl + 4 * p.tBURST));
}

// --- JSON -----------------------------------------------------------------

TEST(Json, ScalarsAndNesting)
{
    JsonWriter w;
    w.beginObject()
        .field("name", "fork\"path\n")
        .field("count", std::uint64_t{42})
        .field("ratio", 0.25)
        .field("ok", true)
        .key("inner")
        .beginObject()
        .field("x", std::int64_t{-1})
        .endObject()
        .key("list")
        .beginArray()
        .value(std::uint64_t{1})
        .value(std::uint64_t{2})
        .endArray()
        .key("nothing")
        .nullValue()
        .endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"fork\\\"path\\n\",\"count\":42,"
              "\"ratio\":0.25,\"ok\":true,\"inner\":{\"x\":-1},"
              "\"list\":[1,2],\"nothing\":null}");
}

TEST(Json, EscapesControlCharacters)
{
    EXPECT_EQ(JsonWriter::escape(std::string("\x01")), "\\u0001");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
}

TEST(Json, RunResultSerialises)
{
    sim::RunResult r;
    r.avgLlcLatencyNs = 123.5;
    r.realAccesses = 10;
    std::string j = sim::toJson(r);
    EXPECT_NE(j.find("\"avg_llc_latency_ns\":123.5"),
              std::string::npos);
    EXPECT_NE(j.find("\"real_accesses\":10"), std::string::npos);
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j.back(), '}');
}

} // anonymous namespace
} // namespace fp
