/**
 * @file
 * Trace player: run one of the paper's Table 2 workload mixes (or a
 * PARSEC workload) through the full system — cores, ORAM controller,
 * DDR3 — under a chosen controller configuration, and print the run
 * metrics. This is the command-line face of the experiment harness
 * the figure benches are built on.
 *
 *   ./trace_player --mix=Mix3 --mode=fork --requests=2000
 *   ./trace_player --parsec=canneal --mode=traditional
 *   ./trace_player --mix=Mix4 --mode=mac --cache-kb=1024 --queue=64
 *   ./trace_player --trace=misses.txt --gap-cycles=500
 *
 * Trace files hold one request per line (`r <addr>` / `w <addr>`,
 * `#` comments); see src/workload/trace_io.hh.
 */

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>

#include "sim/backend_stack.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "workload/trace_io.hh"

int
main(int argc, char **argv)
{
    fp::CliArgs args(argc, argv);
    const std::string mix = args.getString("mix", "Mix3");
    const std::string parsec = args.getString("parsec", "");
    const std::string mode = args.getString("mode", "fork");
    const auto requests =
        static_cast<std::uint64_t>(args.getInt("requests", 2000));
    const auto queue =
        static_cast<unsigned>(args.getInt("queue", 64));
    const auto cache_kb =
        static_cast<std::uint64_t>(args.getInt("cache-kb", 1024));
    const auto leaf =
        static_cast<unsigned>(args.getInt("leaf-level", 18));

    fp::sim::SimConfig cfg = fp::sim::SimConfig::paperDefault();
    cfg.requestsPerCore = requests;
    cfg.controller.oram.leafLevel = leaf;

    if (mode == "traditional") {
        cfg = fp::sim::withTraditional(cfg);
    } else if (mode == "fork") {
        cfg = fp::sim::withMergeOnly(cfg, queue);
    } else if (mode == "mac") {
        cfg = fp::sim::withMergeMac(cfg, cache_kb << 10, queue);
    } else if (mode == "treetop") {
        cfg = fp::sim::withMergeTreetop(cfg, cache_kb << 10, queue);
    } else if (mode == "insecure") {
        if (args.has("trace"))
            fp_fatal("--trace requires an ORAM mode");
        cfg = fp::sim::withInsecure(cfg);
    } else {
        fp_fatal("unknown --mode=%s (traditional|fork|mac|treetop|"
                 "insecure)",
                 mode.c_str());
    }

    const std::string trace_path = args.getString("trace", "");
    fp::sim::RunResult r;
    if (!trace_path.empty()) {
        // Replay a recorded miss trace through one core-equivalent
        // issue engine with a fixed compute gap.
        auto trace = fp::workload::loadTrace(trace_path);
        const auto gap = static_cast<fp::Tick>(
            args.getInt("gap-cycles", 500) * 500);
        const auto mlp =
            static_cast<unsigned>(args.getInt("mlp", 16));
        std::printf("trace_player: %s (%zu requests), mode=%s, "
                    "queue=%u, L=%u\n\n",
                    trace_path.c_str(), trace.size(), mode.c_str(),
                    queue, leaf);

        fp::EventQueue eq;
        fp::sim::BackendStack mem(cfg, eq);
        fp::dram::DramSystem &dram = *mem.dram();
        fp::core::OramController ctrl(cfg.controller, eq, mem.top());
        std::size_t issued = 0, done = 0;
        unsigned outstanding = 0;
        fp::Average latency;
        std::function<void()> pump = [&] {
            while (issued < trace.size() && outstanding < mlp &&
                   ctrl.canAccept()) {
                const auto &req = trace[issued];
                fp::Tick t0 = eq.now();
                auto id = ctrl.request(
                    req.isWrite ? fp::oram::Op::write
                                : fp::oram::Op::read,
                    req.addr, {},
                    [&, t0](fp::Tick t, const auto &) {
                        ++done;
                        --outstanding;
                        latency.sample(fp::ticksToNs(t - t0));
                        eq.scheduleIn(0, pump);
                    });
                if (id == 0)
                    break;
                ++issued;
                ++outstanding;
                eq.scheduleIn(gap, pump);
                break; // pace one issue per gap
            }
        };
        pump();
        eq.run();
        fp_assert(done == trace.size(), "trace did not drain");

        r.llcRequests = trace.size();
        r.executionTicks = eq.now();
        r.avgLlcLatencyNs = latency.mean();
        r.avgReadPathLen = ctrl.avgReadPathLength();
        r.avgDramBucketsRead = ctrl.avgDramBucketsRead();
        r.realAccesses = ctrl.realAccesses();
        r.dummyAccesses = ctrl.dummyAccessesRun();
        r.dummyReplacements = ctrl.dummyReplacements();
        r.stashPeak = ctrl.stash().peakSize();
        r.stashOverflows = ctrl.stash().overflowEvents();
        r.rowHits = dram.rowHits();
        r.rowMisses = dram.rowMisses();
        r.dramEnergyNj = dram.energy(eq.now()).total();
        r.controllerEnergyNj =
            fp::sim::controllerEnergyNj(ctrl, eq.now());
        if (args.getBool("stats")) {
            ctrl.stats().print(std::cout);
            for (unsigned c = 0; c < dram.numChannels(); ++c)
                dram.channel(c).stats().print(std::cout);
            std::printf("\n");
        }
    } else {
        std::printf("trace_player: %s, mode=%s, queue=%u, L=%u, "
                    "%llu requests/core\n\n",
                    parsec.empty() ? mix.c_str() : parsec.c_str(),
                    mode.c_str(), queue, leaf,
                    static_cast<unsigned long long>(requests));
        r = parsec.empty() ? fp::sim::runMix(cfg, mix)
                           : fp::sim::runParsec(cfg, parsec);
    }

    if (args.getBool("json")) {
        std::printf("%s\n", fp::sim::toJson(r).c_str());
        return 0;
    }

    std::printf("execution time:       %.3f ms\n",
                fp::ticksToNs(r.executionTicks) / 1e6);
    std::printf("LLC requests:         %llu\n",
                static_cast<unsigned long long>(r.llcRequests));
    std::printf("avg ORAM latency:     %.1f ns\n",
                r.avgLlcLatencyNs);
    if (!cfg.insecure) {
        std::printf("avg fetched path:     %.2f buckets\n",
                    r.avgReadPathLen);
        std::printf("avg DRAM buckets:     %.2f per access\n",
                    r.avgDramBucketsRead);
        std::printf("ORAM accesses:        %llu real + %llu dummy\n",
                    static_cast<unsigned long long>(r.realAccesses),
                    static_cast<unsigned long long>(r.dummyAccesses));
        std::printf("dummy replacements:   %llu\n",
                    static_cast<unsigned long long>(
                        r.dummyReplacements));
        std::printf("stash peak:           %zu blocks "
                    "(overflows: %llu)\n",
                    r.stashPeak,
                    static_cast<unsigned long long>(
                        r.stashOverflows));
        std::printf("cache hits/misses:    %llu / %llu\n",
                    static_cast<unsigned long long>(r.cacheHits),
                    static_cast<unsigned long long>(r.cacheMisses));
    }
    std::printf("DRAM row hit rate:    %.1f %%\n",
                100.0 * r.rowHitRate());
    std::printf("energy:               %.3f mJ DRAM + %.3f mJ "
                "controller\n",
                r.dramEnergyNj / 1e6, r.controllerEnergyNj / 1e6);
    return 0;
}
