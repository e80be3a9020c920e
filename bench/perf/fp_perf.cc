/**
 * @file
 * fp_perf: the host-performance benchmark binary behind bench/perf/run.py.
 *
 *   fp_perf run <workload>   [--seed=N] [--seconds=S] [--scale=D]
 *   fp_perf trace <workload> [--seed=N] [--scale=D] [--trace-out=F]
 *
 * `run` times the workload untraced: setupSamples set-ups, then
 * repetitions of the fixed-size timed phase while another one fits in
 * --seconds (at least one). It prints one JSON object with the
 * end-to-end metrics and the simulated outcome, which every
 * repetition must reproduce exactly. Throughput and op latencies are
 * medians over chunks of the timed phase (workloads.hh); setup_s is
 * the median set-up.
 *
 * `trace` runs one untraced repetition, then the traced rebuild
 * (traced.hh), and prints the per-layer metrics. It fails unless the
 * two simulated outcomes are identical. --trace-out writes the first
 * 2^16 spans as Chrome-trace JSON.
 *
 * Exit status: 0 when every check passed, 3 when a check failed (the
 * JSON still prints), 2 on bad usage.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "traced.hh"
#include "util/cli.hh"
#include "workloads.hh"

using namespace fp;
using namespace fp::perf;

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: fp_perf run|trace <workload> [--seed=N] "
                 "[--seconds=S] [--scale=D] [--trace-out=FILE]\n"
                 "workloads: %s\n",
                 workloadNames().c_str());
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

void
header(JsonWriter &j, const char *mode, const Workload &w,
       const Options &opt)
{
    j.beginObject()
        .field("workload", w.name)
        .field("mode", mode)
        .field("seed", opt.seed)
        .field("scale", opt.scale);
}

void
verdict(JsonWriter &j, std::uint64_t attempted, std::uint64_t failed,
        const std::vector<std::string> &errors)
{
    j.field("correct", failed == 0 && errors.empty())
        .field("attempted", attempted)
        .field("failed", failed);
    j.key("errors").beginArray();
    for (const std::string &e : errors)
        j.value(e);
    j.endArray();
}

int
runUntraced(const Workload &w, const Options &opt)
{
    std::vector<double> setups;
    for (unsigned i = 1; i < w.setupSamples; ++i)
        setups.push_back(setupOnly(w, opt));

    std::vector<RepResult> reps;
    double measured = 0.0;
    do {
        reps.push_back(runRep(w, opt, true));
        setups.push_back(reps.back().setupS);
        measured += reps.back().runS;
    } while (measured + reps.back().runS <= opt.seconds);

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    std::vector<double> rates, p50s, p95s, run_s, op_us;
    for (const RepResult &r : reps) {
        attempted += r.attempted;
        failed += r.failed;
        if (!r.error.empty())
            errors.push_back(r.error);
        if (!(r.sim == reps.front().sim)) {
            failed += r.attempted - r.failed;
            errors.push_back("simulated outcome differs between "
                             "repetitions");
        }
        for (const Chunk &c : r.ops.chunks) {
            rates.push_back(static_cast<double>(c.ops) / c.seconds);
            p50s.push_back(c.p50Us);
            p95s.push_back(c.p95Us);
        }
        run_s.push_back(r.runS);
        op_us.insert(op_us.end(), r.ops.samplesUs.begin(),
                     r.ops.samplesUs.end());
    }

    JsonWriter j;
    header(j, "run", w, opt);
    verdict(j, attempted, failed, errors);
    j.key("metrics").beginObject()
        .field("req_per_s", median(rates))
        .field("setup_s", median(setups))
        .field("peak_rss_mb", peakRssMb())
        .field("op_p50_us", median(p50s))
        .field("op_p95_us", median(p95s))
        .field("op_p99_us", quantile(op_us, 0.99))
        .field("op_p999_us", quantile(op_us, 0.999))
        .field("op_samples", std::uint64_t{op_us.size()})
        .field("chunks", std::uint64_t{rates.size()});
    reps.front().sim.write(j);
    j.field("run_s", median(run_s))
        .field("reps", std::uint64_t{reps.size()})
        .field("setup_samples", std::uint64_t{setups.size()})
        .endObject()
        .endObject();
    std::cout << j.str() << std::endl;
    return failed == 0 && errors.empty() ? 0 : 3;
}

int
runTrace(const Workload &w, const Options &opt,
         const std::string &trace_out)
{
    const RepResult ref = runRep(w, opt, false);
    const TraceResult t = runTraced(w, opt);

    std::vector<std::string> errors;
    if (!ref.error.empty())
        errors.push_back("untraced: " + ref.error);
    if (!t.error.empty())
        errors.push_back("traced: " + t.error);
    if (!(t.sim == ref.sim))
        errors.push_back("traced simulated outcome differs from the "
                         "untraced run");
    if (!trace_out.empty() && !t.spans.writeChromeTrace(trace_out))
        errors.push_back("cannot write " + trace_out);

    const SpanRecorder::Totals &run = t.spans.totals(Layer::run);
    const double run_ns = static_cast<double>(run.totalNs);
    const auto per = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    JsonWriter j;
    header(j, "trace", w, opt);
    verdict(j, ref.attempted + t.attempted, ref.failed + t.failed,
            errors);
    j.key("metrics").beginObject();
    for (Layer l : {Layer::coreRequest, Layer::coreComplete,
                    Layer::memAccess}) {
        const SpanRecorder::Totals &s = t.spans.totals(l);
        const std::string name = layerName(l);
        j.field(name + ".calls", s.calls);
        if (l == Layer::coreRequest)
            j.field(name + ".rejected", t.rejected);
        j.field(name + ".self_ns", s.selfNs)
            .field(name + ".self_share",
                   per(static_cast<double>(s.selfNs), run_ns));
    }
    j.field("util.event_queue.events", t.events)
        .field("sim.other.self_ns_per_event",
               per(static_cast<double>(run.selfNs),
                   static_cast<double>(t.events)))
        .field("sim.other.self_share",
               per(static_cast<double>(run.selfNs), run_ns))
        .field("sim.read.mean_us",
               per(t.readUsSum, static_cast<double>(t.reads)))
        .field("sim.write.mean_us",
               per(t.writeUsSum, static_cast<double>(t.writes)))
        .field("sim.bulk_load_s", t.setupS)
        .field("core.accesses", t.accesses)
        .field("core.dummy_share",
               per(static_cast<double>(t.dummyAccesses),
                   static_cast<double>(t.accesses)))
        .field("core.dram_buckets_per_access", t.dramBucketsPerAccess)
        .field("core.merged_levels_skipped", t.mergedLevelsSkipped)
        .field("core.onchip_bucket_reads", t.onchipBucketReads)
        .field("core.stash_peak", t.stashPeak)
        .field("core.shard_window_rejects", t.shardWindowRejects)
        .field("mem.avg_latency_ns", t.memAvgLatencyNs)
        .field("dram.row_hit_rate", t.rowHitRate)
        .field("mem.tree_store.materialized_buckets",
               t.materializedBuckets)
        .field("bench.trace_overhead", per(run_ns / 1e9, ref.runS))
        .field("run_s_traced", run_ns / 1e9)
        .field("run_s_untraced", ref.runS)
        .endObject();
    j.key("sim_untraced").beginObject();
    ref.sim.write(j);
    j.endObject();
    j.key("sim_traced").beginObject();
    t.sim.write(j);
    j.endObject().endObject();
    std::cout << j.str() << std::endl;
    return errors.empty() && ref.failed + t.failed == 0 ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const auto &pos = args.positional();
    const Workload *w = pos.size() == 2 ? findWorkload(pos[1]) : nullptr;
    if (!w || (pos[0] != "run" && pos[0] != "trace")) {
        usage();
        return 2;
    }
    Options opt;
    opt.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    opt.seconds = args.getDouble("seconds", opt.seconds);
    const std::int64_t scale = args.getInt("scale", 1);
    if (scale < 1 || opt.seconds < 0.0) {
        usage();
        return 2;
    }
    opt.scale = static_cast<std::uint64_t>(scale);
    return pos[0] == "run"
               ? runUntraced(*w, opt)
               : runTrace(*w, opt, args.getString("trace-out", ""));
}
