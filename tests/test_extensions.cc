/**
 * @file
 * Tests of the extensions beyond the paper's core contribution: the
 * PosMap Lookaside Buffer (Freecursive), background eviction (Ren et
 * al.), and trace capture/replay.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/oram_controller.hh"
#include "dram/dram_backend.hh"
#include "dram/dram_system.hh"
#include "core/plb.hh"
#include "util/random.hh"
#include "workload/trace_io.hh"

namespace fp
{
namespace
{

// --- PLB ----------------------------------------------------------------

TEST(Plb, ColdMissesStartAtChainHead)
{
    core::PosmapLookasideBuffer plb(3, 8, 64);
    EXPECT_EQ(plb.lookupChainStart(100), 0u);
    EXPECT_EQ(plb.misses(), 1u);
}

TEST(Plb, FullChainFillSkipsToData)
{
    core::PosmapLookasideBuffer plb(3, 8, 64);
    // Complete all posmap elements for address 100.
    plb.fill(100, 0);
    plb.fill(100, 1);
    plb.fill(100, 2);
    // All translations cached: only the data element must run.
    EXPECT_EQ(plb.lookupChainStart(100), 3u);
    EXPECT_EQ(plb.hits(), 1u);
}

TEST(Plb, PartialFillStartsMidChain)
{
    core::PosmapLookasideBuffer plb(3, 8, 64);
    plb.fill(100, 0); // outermost translation only
    EXPECT_EQ(plb.lookupChainStart(100), 1u);
}

TEST(Plb, SpatialLocalityAcrossFanoutGroup)
{
    core::PosmapLookasideBuffer plb(2, 8, 64);
    plb.fill(100, 0);
    plb.fill(100, 1);
    // Address 101 shares every translation group with 100
    // (101/8 == 100/8), so the whole chain is covered.
    EXPECT_EQ(plb.lookupChainStart(101), 2u);
    // Address in a different group at the last level but the same
    // outer group starts mid-chain.
    EXPECT_EQ(plb.lookupChainStart(100 + 8), 1u);
}

TEST(Plb, DataElementFillIsNoop)
{
    core::PosmapLookasideBuffer plb(2, 8, 4);
    plb.fill(100, 2); // data element produces no translation
    EXPECT_EQ(plb.size(), 0u);
}

TEST(Plb, LruEvicts)
{
    core::PosmapLookasideBuffer plb(1, 8, 2);
    plb.fill(0, 0);   // group 0
    plb.fill(64, 0);  // group 8
    plb.fill(128, 0); // group 16 -> evicts group 0
    EXPECT_EQ(plb.size(), 2u);
    EXPECT_EQ(plb.lookupChainStart(0), 0u);   // miss (evicted)
    EXPECT_EQ(plb.lookupChainStart(64), 1u);  // hit
}

TEST(Plb, ControllerChainShortening)
{
    // With a PLB, repeated accesses to the same region should run
    // fewer ORAM accesses per LLC miss than the full chain.
    auto run = [](std::size_t plb_entries) {
        core::ControllerParams p;
        p.oram.leafLevel = 6;
        p.oram.payloadBytes = 0;
        p.oram.seed = 31;
        p.labelQueueSize = 8;
        p.recursionDepth = 2;
        p.plbEntries = plb_entries;
        EventQueue eq;
        dram::DramSystem dram(dram::DramParams::ddr3_1600(2), eq);
        dram::DramBackend mem(dram);
        core::OramController ctrl(p, eq, mem);
        Rng rng(7);
        for (int i = 0; i < 300; ++i) {
            // A tight region: PLB groups overlap heavily.
            ctrl.request(oram::Op::read, rng.uniformInt(64), {},
                         [](Tick, const auto &) {});
            eq.run();
        }
        return ctrl.realAccesses();
    };
    auto without = run(0);
    auto with = run(256);
    EXPECT_LT(with, without);
    EXPECT_LT(with, without * 3 / 4);
}

// --- background eviction -------------------------------------------------

TEST(BackgroundEviction, DrainsOverfullStash)
{
    core::ControllerParams p;
    p.oram.leafLevel = 7;
    p.oram.payloadBytes = 0;
    p.oram.seed = 41;
    p.oram.stashCapacity = 30; // tiny soft capacity
    p.labelQueueSize = 8;
    p.backgroundEviction = true;
    EventQueue eq;
    dram::DramSystem dram(dram::DramParams::ddr3_1600(2), eq);
    dram::DramBackend mem(dram);
    core::OramController ctrl(p, eq, mem);
    Rng rng(13);
    for (int i = 0; i < 400; ++i) {
        ctrl.request(oram::Op::write, rng.uniformInt(300), {},
                     [](Tick, const auto &) {});
        eq.run();
    }
    // The run ends quiescent: pressure-driven dummies must have
    // brought the stash back under its soft capacity.
    EXPECT_LT(ctrl.stash().size(), 30u);
}

TEST(BackgroundEviction, DisabledLeavesStashAlone)
{
    core::ControllerParams p;
    p.oram.leafLevel = 7;
    p.oram.payloadBytes = 0;
    p.oram.seed = 41;
    p.oram.stashCapacity = 1; // pressure would always be on
    p.labelQueueSize = 8;
    p.backgroundEviction = false;
    EventQueue eq;
    dram::DramSystem dram(dram::DramParams::ddr3_1600(2), eq);
    dram::DramBackend mem(dram);
    core::OramController ctrl(p, eq, mem);
    ctrl.request(oram::Op::write, 1, {}, [](Tick, const auto &) {});
    eq.run();
    // Without background eviction the controller parks even though
    // the stash exceeds its (absurd) soft capacity; the event queue
    // must still drain rather than spin dummies forever.
    EXPECT_TRUE(eq.empty());
}

// --- trace I/O ------------------------------------------------------------

TEST(TraceIo, ParseBasics)
{
    std::istringstream in("# comment\n"
                          "r 10\n"
                          "w 0x20\n"
                          "\n"
                          "R 30 # trailing comment\n");
    auto trace = workload::readTrace(in);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_FALSE(trace[0].isWrite);
    EXPECT_EQ(trace[0].addr, 10u);
    EXPECT_TRUE(trace[1].isWrite);
    EXPECT_EQ(trace[1].addr, 0x20u);
    EXPECT_FALSE(trace[2].isWrite);
    EXPECT_EQ(trace[2].addr, 30u);
}

TEST(TraceIo, RoundTrip)
{
    std::vector<workload::MemRequest> trace;
    Rng rng(3);
    for (int i = 0; i < 200; ++i)
        trace.push_back({rng.uniformInt(1 << 20), rng.chance(0.5)});
    std::ostringstream out;
    workload::writeTrace(out, trace);
    std::istringstream in(out.str());
    auto back = workload::readTrace(in);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(back[i].addr, trace[i].addr);
        EXPECT_EQ(back[i].isWrite, trace[i].isWrite);
    }
}

TEST(TraceIo, FileRoundTrip)
{
    std::vector<workload::MemRequest> trace = {{1, false},
                                               {2, true},
                                               {3, false}};
    std::string path = "/tmp/fp_test_trace.txt";
    workload::saveTrace(path, trace);
    auto back = workload::loadTrace(path);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_TRUE(back[1].isWrite);
}

TEST(TraceIo, StreamCycles)
{
    workload::TraceStream stream({{5, false}, {6, true}});
    EXPECT_EQ(stream.next().addr, 5u);
    EXPECT_EQ(stream.next().addr, 6u);
    EXPECT_EQ(stream.next().addr, 5u); // wraps
}

} // anonymous namespace
} // namespace fp
