/**
 * @file
 * Observability subsystem tests: tracer output format and levels,
 * trace/stats determinism across identical runs, agreement between
 * the tracer's revealed track and OramController::revealTrace(), the
 * zero-perturbation guarantee (tracing cannot change results), and
 * the interval-stats JSON-lines shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/overlap.hh"
#include "obs/interval_stats.hh"
#include "obs/request_profiler.hh"
#include "obs/tracer.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "util/cli.hh"
#include "util/event_queue.hh"
#include "util/json.hh"
#include "workload/spec_profiles.hh"

namespace fp
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Temp file in the test's working directory, removed on scope exit. */
struct TempFile
{
    explicit TempFile(std::string p) : path(std::move(p)) {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

sim::SimConfig
obsConfig(std::uint64_t requests = 200)
{
    sim::SimConfig cfg = sim::SimConfig::paperDefault();
    cfg.cores = 2;
    cfg.requestsPerCore = requests;
    cfg.controller.oram.leafLevel = 12;
    cfg.seed = 7;
    return cfg;
}

std::vector<workload::WorkloadProfile>
profiles(unsigned cores)
{
    std::vector<workload::WorkloadProfile> out;
    for (unsigned i = 0; i < cores; ++i)
        out.push_back(workload::specProfile(i % 2 ? "mcf" : "lbm"));
    return out;
}

// --- tracer unit behaviour ----------------------------------------------

TEST(Tracer, OffLevelProducesValidEmptyTrace)
{
    TempFile f("obs_off.json");
    EventQueue eq;
    {
        obs::Tracer t(f.path, obs::TraceLevel::off, eq.nowPtr());
        EXPECT_FALSE(t.on(obs::TraceLevel::access));
        EXPECT_FALSE(t.on(obs::TraceLevel::full));
        t.instant(obs::Track::controller, "dropped");
        t.finish();
        EXPECT_EQ(t.eventsEmitted(), 0u);
    }
    JsonValue v = JsonValue::parse(readFile(f.path));
    EXPECT_EQ(v.at("traceEvents").size(), 0u);
}

TEST(Tracer, LevelsNest)
{
    TempFile f("obs_lvl.json");
    EventQueue eq;
    obs::Tracer t(f.path, obs::TraceLevel::access, eq.nowPtr());
    EXPECT_TRUE(t.on(obs::TraceLevel::off));
    EXPECT_TRUE(t.on(obs::TraceLevel::access));
    EXPECT_FALSE(t.on(obs::TraceLevel::full));
}

TEST(Tracer, EmitsWellFormedEvents)
{
    TempFile f("obs_events.json");
    EventQueue eq;
    obs::Tracer t(f.path, obs::TraceLevel::full, eq.nowPtr());
    t.nameTrack(obs::Track::controller, "controller");
    // 1 tick = 1 ps; the trace's ts unit is microseconds.
    t.complete(obs::Track::controller, "read", 1'500'000, 2'500'000,
               {obs::TraceArg::num("label", 9),
                obs::TraceArg::flag("dummy", false)});
    t.instant(obs::Track::schedule, "select_real",
              {obs::TraceArg::str("kind", "real")});
    t.counter(obs::Track::stash, "stash_occupancy", "blocks", 12.0);
    t.finish();
    EXPECT_EQ(t.eventsEmitted(), 4u); // metadata + X + i + C

    JsonValue v = JsonValue::parse(readFile(f.path));
    const auto &evs = v.at("traceEvents");
    ASSERT_EQ(evs.size(), 4u);

    const JsonValue &meta = evs.at(0);
    EXPECT_EQ(meta.at("ph").asString(), "M");
    EXPECT_EQ(meta.at("args").at("name").asString(), "controller");

    const JsonValue &x = evs.at(1);
    EXPECT_EQ(x.at("ph").asString(), "X");
    EXPECT_EQ(x.at("name").asString(), "read");
    EXPECT_DOUBLE_EQ(x.at("ts").asNumber(), 1.5);
    EXPECT_DOUBLE_EQ(x.at("dur").asNumber(), 1.0);
    EXPECT_EQ(x.at("args").at("label").asUint64(), 9u);
    EXPECT_FALSE(x.at("args").at("dummy").asBool());

    EXPECT_EQ(evs.at(2).at("ph").asString(), "i");
    const JsonValue &c = evs.at(3);
    EXPECT_EQ(c.at("ph").asString(), "C");
    EXPECT_DOUBLE_EQ(c.at("args").at("blocks").asNumber(), 12.0);
}

// --- determinism ---------------------------------------------------------

TEST(Obs, TraceAndStatsAreDeterministic)
{
    TempFile t1("obs_det1.json"), t2("obs_det2.json");
    TempFile s1("obs_det1.jsonl"), s2("obs_det2.jsonl");

    auto run = [&](const std::string &trace, const std::string &stats) {
        sim::SimConfig cfg = sim::withMergeMac(obsConfig(), 64 << 10, 16);
        cfg.obs.traceOut = trace;
        cfg.obs.traceLevel = obs::TraceLevel::full;
        cfg.obs.statsOut = stats;
        cfg.obs.statsIntervalTicks = 5'000'000; // 5 us
        return sim::runProfiles(cfg, profiles(cfg.cores));
    };
    auto r1 = run(t1.path, s1.path);
    auto r2 = run(t2.path, s2.path);

    EXPECT_EQ(r1.executionTicks, r2.executionTicks);
    // Same seed + same config => byte-identical observability output.
    EXPECT_EQ(readFile(t1.path), readFile(t2.path));
    EXPECT_EQ(readFile(s1.path), readFile(s2.path));
    EXPECT_GT(readFile(t1.path).size(), 2u);
}

// --- zero perturbation ---------------------------------------------------

TEST(Obs, TracingDoesNotChangeResults)
{
    sim::SimConfig plain = sim::withMergeMac(obsConfig(), 64 << 10, 16);
    auto base = sim::runProfiles(plain, profiles(plain.cores));

    TempFile t("obs_perturb.json"), s("obs_perturb.jsonl");
    sim::SimConfig traced = plain;
    traced.obs.traceOut = t.path;
    traced.obs.traceLevel = obs::TraceLevel::full;
    traced.obs.statsOut = s.path;
    traced.obs.statsIntervalTicks = 2'000'000;
    auto traced_r = sim::runProfiles(traced, profiles(traced.cores));

    EXPECT_EQ(base.executionTicks, traced_r.executionTicks);
    EXPECT_EQ(base.realAccesses, traced_r.realAccesses);
    EXPECT_EQ(base.dummyAccesses, traced_r.dummyAccesses);
    EXPECT_EQ(base.dummyReplacements, traced_r.dummyReplacements);
    EXPECT_EQ(base.pendingSwaps, traced_r.pendingSwaps);
    EXPECT_EQ(base.mergedLevelsSkipped, traced_r.mergedLevelsSkipped);
    EXPECT_EQ(base.rowHits, traced_r.rowHits);
    EXPECT_EQ(base.rowMisses, traced_r.rowMisses);
    EXPECT_DOUBLE_EQ(base.avgLlcLatencyNs, traced_r.avgLlcLatencyNs);
}

// --- revealed track ------------------------------------------------------

TEST(Obs, RevealedTrackMatchesRevealTrace)
{
    TempFile f("obs_reveal.json");
    sim::SimConfig cfg = sim::withMergeMac(obsConfig(120), 64 << 10, 16);
    cfg.obs.traceOut = f.path;
    cfg.obs.traceLevel = obs::TraceLevel::access;

    sim::System sys(cfg, profiles(cfg.cores));
    ASSERT_NE(sys.controller(), nullptr);
    sys.controller()->setRevealTraceEnabled(true);
    sys.run();
    const auto &reveal = sys.controller()->revealTrace();
    ASSERT_FALSE(reveal.empty());

    JsonValue v = JsonValue::parse(readFile(f.path));
    std::vector<const JsonValue *> track;
    for (const JsonValue &e : v.at("traceEvents").items()) {
        if (e.at("ph").asString() == "X" &&
            e.at("tid").asUint64() ==
                static_cast<unsigned>(obs::Track::revealed))
            track.push_back(&e);
    }

    ASSERT_EQ(track.size(), reveal.size());
    for (std::size_t i = 0; i < reveal.size(); ++i) {
        const JsonValue &args = track[i]->at("args");
        EXPECT_EQ(args.at("label").asUint64(), reveal[i].label);
        EXPECT_EQ(args.at("read_start").asUint64(),
                  reveal[i].readStartLevel);
        EXPECT_EQ(args.at("write_stop").asUint64(),
                  reveal[i].writeStopLevel);
        EXPECT_EQ(args.at("dummy").asBool(), reveal[i].dummy);
        // ts is the bus-visible read start, in microseconds.
        EXPECT_NEAR(track[i]->at("ts").asNumber(),
                    static_cast<double>(reveal[i].readStartTick) / 1e6,
                    1e-5);
    }
}

// --- interval stats ------------------------------------------------------

TEST(Obs, IntervalStatsLinesAreWellFormed)
{
    TempFile s("obs_lines.jsonl");
    sim::SimConfig cfg = sim::withMergeMac(obsConfig(), 64 << 10, 16);
    cfg.obs.statsOut = s.path;
    cfg.obs.statsIntervalTicks = 2'000'000; // 2 us
    auto result = sim::runProfiles(cfg, profiles(cfg.cores));

    std::ifstream in(s.path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::uint64_t prev_tick = 0;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        JsonValue v = JsonValue::parse(line);
        std::uint64_t tick = v.at("tick").asUint64();
        if (lines > 0) {
            EXPECT_GT(tick, prev_tick);
        }
        prev_tick = tick;
        // The quantities the paper's claims live in must be present.
        EXPECT_NE(v.find("oram_controller.stash_depth"), nullptr);
        EXPECT_NE(v.find("oram_controller.merge_skipped_levels"),
                  nullptr);
        EXPECT_NE(v.find("oram_controller.overlap_level"), nullptr);
        EXPECT_NE(v.find("dram.ch0.row_hit_rate"), nullptr);
        EXPECT_NE(v.find("dram.ch0.queue_depth"), nullptr);
        ++lines;
    }
    EXPECT_GE(lines, 3u);
    // The final sample is the end-of-run snapshot.
    EXPECT_EQ(prev_tick, std::uint64_t{result.executionTicks});

    // Counters on the last line agree with the RunResult.
    std::ifstream again(s.path);
    std::string last, l;
    while (std::getline(again, l))
        if (!l.empty())
            last = l;
    JsonValue v = JsonValue::parse(last);
    EXPECT_EQ(v.at("oram_controller.real_accesses").asUint64(),
              result.realAccesses);
    EXPECT_EQ(v.at("oram_controller.dummy_accesses").asUint64(),
              result.dummyAccesses);
}

// --- RunResult JSON round trip -------------------------------------------

TEST(Obs, RunResultJsonRoundTrips)
{
    sim::SimConfig cfg = sim::withMergeMac(obsConfig(120), 64 << 10, 16);
    auto r = sim::runProfiles(cfg, profiles(cfg.cores));

    JsonValue v = JsonValue::parse(sim::toJson(r));
    EXPECT_EQ(v.at("execution_ticks").asUint64(),
              std::uint64_t{r.executionTicks});
    EXPECT_EQ(v.at("real_accesses").asUint64(), r.realAccesses);
    EXPECT_EQ(v.at("dummy_accesses").asUint64(), r.dummyAccesses);
    EXPECT_EQ(v.at("pending_swaps").asUint64(), r.pendingSwaps);
    EXPECT_EQ(v.at("merged_levels_skipped").asUint64(),
              r.mergedLevelsSkipped);
    EXPECT_DOUBLE_EQ(v.at("cache_hit_rate").asNumber(),
                     r.cacheHitRate());
    EXPECT_DOUBLE_EQ(v.at("total_accesses").asNumber(),
                     r.totalAccesses());
    const JsonValue &per_level = v.at("merge_skips_per_level");
    ASSERT_EQ(per_level.size(), r.mergeSkipsPerLevel.size());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < per_level.size(); ++i) {
        EXPECT_EQ(per_level.at(i).asUint64(), r.mergeSkipsPerLevel[i]);
        sum += r.mergeSkipsPerLevel[i];
    }
    // Each skipped level contributes once to the aggregate counter.
    EXPECT_EQ(sum, r.mergedLevelsSkipped);
    EXPECT_GT(r.mergedLevelsSkipped, 0u);
}

// --- per-request profiler ------------------------------------------------

sim::SimConfig
profiledConfig(std::uint64_t requests = 150)
{
    sim::SimConfig cfg =
        sim::withMergeMac(obsConfig(requests), 64 << 10, 16);
    cfg.obs.profileRequests = true;
    return cfg;
}

TEST(Profiler, StagePartitionSumsToEndToEnd)
{
    sim::SimConfig cfg = profiledConfig();
    sim::System sys(cfg, profiles(cfg.cores));
    ASSERT_NE(sys.profiler(), nullptr);
    sys.profiler()->setKeepRecords(true);
    sys.run();

    const auto *prof = sys.profiler();
    const auto &recs = prof->records();
    ASSERT_FALSE(recs.empty());
    EXPECT_EQ(prof->openRequests(), 0u);
    EXPECT_EQ(prof->completed(), recs.size());
    // Every LLC response the controller measured was profiled.
    EXPECT_EQ(prof->completed(),
              sys.controller()->oramLatency().count());

    for (const auto &r : recs) {
        // Milestones are monotonic...
        EXPECT_LE(r.arrival, r.issue) << "request " << r.id;
        EXPECT_LE(r.issue, r.readStart) << "request " << r.id;
        EXPECT_LE(r.readStart, r.readDone) << "request " << r.id;
        EXPECT_LE(r.readDone, r.complete) << "request " << r.id;
        // ...so the stage partition telescopes to the end-to-end
        // latency exactly, for every request (including shortcut /
        // forwarded completions whose unset milestones backfill).
        Tick sum = (r.issue - r.arrival) + (r.readStart - r.issue) +
                   (r.readDone - r.readStart) +
                   (r.complete - r.readDone);
        EXPECT_EQ(sum, r.complete - r.arrival) << "request " << r.id;
    }

    // The same identity holds in aggregate over the histograms.
    const auto &total = prof->stageHistogram("total");
    EXPECT_EQ(total.count(), recs.size());
    double stage_means = prof->stageHistogram("addr_queue").mean() +
                         prof->stageHistogram("label_queue").mean() +
                         prof->stageHistogram("path_read").mean() +
                         prof->stageHistogram("completion").mean();
    EXPECT_NEAR(stage_means, total.mean(),
                1e-6 * std::max(1.0, total.mean()));

    // Summaries expose the interpolated tail quantiles in order.
    auto summaries = prof->stageSummaries();
    ASSERT_EQ(summaries.size(),
              obs::RequestProfiler::stageNames().size());
    for (const auto &s : summaries) {
        EXPECT_LE(s.p50Ns, s.p95Ns) << s.stage;
        EXPECT_LE(s.p95Ns, s.p99Ns) << s.stage;
        EXPECT_LE(s.p99Ns, s.p999Ns) << s.stage;
        EXPECT_LE(s.p999Ns, s.maxNs) << s.stage;
    }
}

TEST(Profiler, JsonProfileBlockIsGatedAndNonPerturbing)
{
    sim::SimConfig plain =
        sim::withMergeMac(obsConfig(120), 64 << 10, 16);
    auto base = sim::runProfiles(plain, profiles(plain.cores));
    std::string base_json = sim::toJson(base);
    EXPECT_EQ(base_json.find("\"profile\""), std::string::npos);
    EXPECT_FALSE(base.profiled);

    sim::SimConfig profiled = plain;
    profiled.obs.profileRequests = true;
    auto r = sim::runProfiles(profiled, profiles(profiled.cores));
    EXPECT_TRUE(r.profiled);
    EXPECT_GT(r.profiledRequests, 0u);

    // Profiling must not perturb the simulation itself.
    EXPECT_EQ(base.executionTicks, r.executionTicks);
    EXPECT_EQ(base.realAccesses, r.realAccesses);
    EXPECT_EQ(base.dummyAccesses, r.dummyAccesses);
    EXPECT_DOUBLE_EQ(base.avgLlcLatencyNs, r.avgLlcLatencyNs);

    JsonValue v = JsonValue::parse(sim::toJson(r));
    const JsonValue *prof = v.find("profile");
    ASSERT_NE(prof, nullptr);
    EXPECT_EQ(prof->at("completed_requests").asUint64(),
              r.profiledRequests);
    const JsonValue &stages = prof->at("stages");
    ASSERT_EQ(stages.size(),
              obs::RequestProfiler::stageNames().size());
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const JsonValue &s = stages.at(i);
        EXPECT_EQ(s.at("stage").asString(),
                  obs::RequestProfiler::stageNames()[i]);
        for (const char *key :
             {"count", "mean_ns", "p50_ns", "p95_ns", "p99_ns",
              "p999_ns", "max_ns"})
            EXPECT_NE(s.find(key), nullptr) << key;
    }
    const JsonValue &eff = prof->at("effectiveness");
    EXPECT_EQ(eff.at("total_accesses").asUint64(),
              r.realAccesses + r.dummyAccesses);
    EXPECT_EQ(eff.at("buckets_saved").asUint64(),
              r.profileEffectiveness.bucketsSaved());
}

TEST(Profiler, DeterministicAcrossSweepJobs)
{
    auto points = [&] {
        std::vector<sim::SweepPoint> pts;
        sim::SimConfig cfg = profiledConfig(100);
        pts.push_back(sim::pointFromProfiles("mac", cfg,
                                             profiles(cfg.cores)));
        sim::SimConfig merge = sim::withMergeOnly(obsConfig(100), 16);
        merge.obs.profileRequests = true;
        pts.push_back(sim::pointFromProfiles("merge", merge,
                                             profiles(merge.cores)));
        sim::SimConfig trad = sim::withTraditional(obsConfig(100));
        trad.obs.profileRequests = true;
        pts.push_back(sim::pointFromProfiles("trad", trad,
                                             profiles(trad.cores)));
        return pts;
    };

    sim::SweepOptions seq;
    seq.jobs = 1;
    sim::SweepOptions par;
    par.jobs = 3;
    auto a = sim::SweepRunner(seq).run(points());
    auto b = sim::SweepRunner(par).run(points());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].ok && b[i].ok) << a[i].name;
        // Byte-identical JSON including the full profile block: the
        // profiler inherits the sweep determinism contract.
        EXPECT_EQ(sim::toJson(a[i].result), sim::toJson(b[i].result))
            << a[i].name;
        EXPECT_GT(a[i].result.profiledRequests, 0u) << a[i].name;
    }
}

TEST(Profiler, EffectivenessMatchesIndependentCounts)
{
    sim::SimConfig cfg = profiledConfig(200);
    sim::System sys(cfg, profiles(cfg.cores));
    ASSERT_NE(sys.controller(), nullptr);
    sys.controller()->setRevealTraceEnabled(true);
    const sim::RunResult r = sys.run();

    const obs::ProfileEffectiveness &eff = r.profileEffectiveness;
    const auto &reveal = sys.controller()->revealTrace();
    ASSERT_FALSE(reveal.empty());

    // Recompute every shape-derived counter from the revealed trace,
    // which is populated by independent code at the same pipeline
    // point (finishWrite).
    std::uint64_t read_skipped = 0, write_elided = 0, merged = 0;
    for (const auto &a : reveal) {
        read_skipped += a.readStartLevel;
        write_elided += a.writeStopLevel;
        merged += a.readStartLevel > 0;
    }
    EXPECT_EQ(eff.totalAccesses, reveal.size());
    EXPECT_EQ(eff.readLevelsSkipped, read_skipped);
    EXPECT_EQ(eff.writeLevelsElided, write_elided);
    EXPECT_EQ(eff.mergedAccesses, merged);

    // The shape counts are the profiler's own.
    const obs::ProfileEffectiveness shape =
        sys.profiler()->effectiveness();
    EXPECT_EQ(eff.totalAccesses, shape.totalAccesses);
    EXPECT_EQ(eff.naivePathBuckets, shape.naivePathBuckets);
    EXPECT_EQ(eff.backendBuckets, shape.backendBuckets);

    // The six pipeline-event fields are the stage counters. The
    // config has a MAC, so the cache fields are exercised too.
    core::OramController &ctrl = *sys.controller();
    EXPECT_EQ(eff.writebacksReplaced, ctrl.dummyReplacements());
    EXPECT_EQ(eff.pendingSwaps, ctrl.pendingSwaps());
    EXPECT_EQ(eff.stashShortcuts, ctrl.stashShortcuts());
    EXPECT_EQ(eff.onChipBucketReads, ctrl.onChipBucketReads());
    EXPECT_EQ(eff.macDataHits, ctrl.admission().macDataHits());
    EXPECT_EQ(eff.cacheVictimWrites, ctrl.macVictimWrites());
    ASSERT_NE(ctrl.mac(), nullptr);
    EXPECT_GT(eff.onChipBucketReads, 0u);
    EXPECT_GT(eff.cacheVictimWrites, 0u);
    // Reads can outrun finished writes, never the other way round.
    EXPECT_LE(eff.readLevelsSkipped, ctrl.mergedLevelsSkipped());

    // The naive baseline is 2L buckets per access, by construction.
    const unsigned L = sys.controller()->geometry().numLevels();
    EXPECT_EQ(eff.naivePathBuckets,
              std::uint64_t{2} * L * eff.totalAccesses);
    EXPECT_GT(eff.bucketsSaved(), 0u);
    EXPECT_EQ(eff.bytesSaved(),
              eff.bucketsSaved() * eff.bucketBytes);
    EXPECT_EQ(eff.bucketBytes, cfg.controller.bucketBytes());

    // Loose analytic yardstick (paper Fig. 10 reasoning): a merged
    // access saves about twice the expected best overlap of a
    // q-entry label queue. Realized savings include cache hits and
    // dummy competition, so only order-of-magnitude agreement is
    // claimed.
    const double est = core::expectedMergeSavedBuckets(
        sys.controller()->geometry(),
        cfg.controller.labelQueueSize);
    const double saved_per_access =
        static_cast<double>(eff.bucketsSaved()) /
        static_cast<double>(eff.totalAccesses);
    EXPECT_GT(saved_per_access, est / 4.0);
    EXPECT_LT(saved_per_access, est * 4.0);
}

TEST(Profiler, TraceAsyncSpansPairUp)
{
    TempFile f("obs_prof_trace.json");
    sim::SimConfig cfg = profiledConfig(100);
    cfg.obs.traceOut = f.path;
    cfg.obs.traceLevel = obs::TraceLevel::full;
    sim::System sys(cfg, profiles(cfg.cores));
    sys.run();
    const std::uint64_t completed = sys.profiler()->completed();
    ASSERT_GT(completed, 0u);

    JsonValue v = JsonValue::parse(readFile(f.path));
    std::size_t begins = 0, ends = 0, instants = 0;
    for (const JsonValue &e : v.at("traceEvents").items()) {
        const std::string &ph = e.at("ph").asString();
        if (ph != "b" && ph != "n" && ph != "e")
            continue;
        EXPECT_EQ(e.at("cat").asString(), "request");
        EXPECT_NE(e.find("id"), nullptr);
        if (ph == "b") {
            ++begins;
            EXPECT_EQ(e.at("name").asString(), "request");
        } else if (ph == "e") {
            ++ends;
            EXPECT_EQ(e.at("name").asString(), "request");
        } else {
            ++instants;
            const std::string &n = e.at("name").asString();
            EXPECT_TRUE(n == "issue" || n == "read_start" ||
                        n == "read_done")
                << n;
        }
    }
    // One begin and one end per completed request, none dangling.
    EXPECT_EQ(begins, completed);
    EXPECT_EQ(ends, completed);
    EXPECT_GT(instants, 0u);
}

TEST(Profiler, ProfileOutWritesReport)
{
    TempFile f("obs_prof_report.json");
    sim::SimConfig cfg =
        sim::withMergeMac(obsConfig(100), 64 << 10, 16);
    cfg.obs.profileOut = f.path; // implies profiling
    ASSERT_TRUE(cfg.obs.profilingEnabled());
    auto r = sim::runProfiles(cfg, profiles(cfg.cores));
    ASSERT_TRUE(r.profiled);

    JsonValue v = JsonValue::parse(readFile(f.path));
    EXPECT_EQ(v.at("schema").asString(), "forkpath-profile-v1");
    EXPECT_EQ(v.at("completed_requests").asUint64(),
              r.profiledRequests);
    EXPECT_EQ(v.at("open_requests").asUint64(), 0u);
    // The report carries raw buckets for offline re-bucketing.
    const JsonValue &stages = v.at("stages");
    ASSERT_GT(stages.size(), 0u);
    EXPECT_NE(stages.at(0).find("buckets"), nullptr);
    EXPECT_NE(stages.at(0).find("bucket_width"), nullptr);
}

// --- observability flags --------------------------------------------------

/** cfg.obs.profileRequests after applyObsFlags on @p flags, starting
 *  from @p start. */
bool
profileRequestsAfter(std::vector<const char *> flags, bool start = false)
{
    flags.insert(flags.begin(), "prog");
    CliArgs args(static_cast<int>(flags.size()),
                 const_cast<char **>(flags.data()));
    sim::SimConfig cfg = obsConfig();
    cfg.obs.profileRequests = start;
    sim::applyObsFlags(cfg, args);
    return cfg.obs.profileRequests;
}

TEST(ObsFlags, ProfileRequestsIsABooleanFlag)
{
    EXPECT_FALSE(profileRequestsAfter({}));
    EXPECT_TRUE(profileRequestsAfter({}, true));
    EXPECT_TRUE(profileRequestsAfter({"--profile-requests"}));
    EXPECT_TRUE(profileRequestsAfter({"--profile-requests=yes"}));
    // An explicit false turns profiling off, not on.
    EXPECT_FALSE(profileRequestsAfter({"--profile-requests=false"}));
    EXPECT_FALSE(profileRequestsAfter({"--profile-requests=0"}, true));
}

TEST(ObsFlagsDeath, ProfileRequestsRejectsNonBooleans)
{
    EXPECT_EXIT(profileRequestsAfter({"--profile-requests=maybe"}),
                testing::ExitedWithCode(1),
                "--profile-requests expects a boolean");
}

// --- interval-stats end-of-run flush -------------------------------------

TEST(IntervalStats, FinishFlushesWithoutDuplicateTick)
{
    StatRegistry reg;
    {
        TempFile f("obs_finish_dup.jsonl");
        {
            obs::IntervalStats s(f.path, 1000, reg);
            s.sample(1000);
            // Run ends exactly on the sampled tick: finish must not
            // write a second line (ticks must strictly increase).
            s.finish(1000);
        }
        std::ifstream in(f.path);
        std::string line;
        std::size_t lines = 0;
        while (std::getline(in, line))
            lines += !line.empty();
        EXPECT_EQ(lines, 1u);
    }
    {
        TempFile f("obs_finish_tail.jsonl");
        {
            obs::IntervalStats s(f.path, 1000, reg);
            s.sample(1000);
            s.finish(1500); // partial final interval: flushed
        }
        std::ifstream in(f.path);
        std::string line;
        std::vector<std::uint64_t> ticks;
        while (std::getline(in, line))
            if (!line.empty())
                ticks.push_back(
                    JsonValue::parse(line).at("tick").asUint64());
        ASSERT_EQ(ticks.size(), 2u);
        EXPECT_EQ(ticks[0], 1000u);
        EXPECT_EQ(ticks[1], 1500u);
    }
}

} // anonymous namespace
} // namespace fp
