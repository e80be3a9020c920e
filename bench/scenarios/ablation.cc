/**
 * @file
 * Ablation renderer: the design-choice study DESIGN.md calls out,
 * beyond the paper's own figures — technique stack, dummy selection
 * policy, aging threshold, DRAM layout, recursion, page policy,
 * timing protection, integrity, and the scheduling-policy registry.
 * Knob values (queue size, MAC bytes, aging ladder, ...) live in
 * experiments/ablation.json.
 */

#include "core/controller_params.hh"
#include "scenarios/scenarios.hh"

namespace fp::bench
{

namespace
{

void
addRow(TextTable &table, const std::string &name,
       const sim::RunResult &r, double trad_latency)
{
    table.addRow(
        {name, TextTable::fmt(r.avgLlcLatencyNs, 0),
         TextTable::fmt(r.avgLlcLatencyNs / trad_latency, 3),
         TextTable::fmt(r.avgReadPathLen, 2),
         TextTable::fmt(static_cast<double>(r.dummyAccesses) /
                            static_cast<double>(r.realAccesses),
                        3),
         TextTable::fmt(r.totalEnergyNj() / 1e6, 1)});
}

} // namespace

void
registerAblationScenario()
{
    sim::registerScenario("ablation", [](sim::ScenarioContext &ctx) {
        const std::string mix = ctx.args.getString(
            "mix", ctx.spec.paramStr("mix", "Mix3"));
        const auto queue = static_cast<unsigned>(
            ctx.spec.paramUint("queue", 64));
        const auto mac_bytes =
            ctx.spec.paramUint("mac-bytes", 1 << 20);
        const std::vector<unsigned> aging = asUnsigned(
            ctx.spec.paramUintList("aging-thresholds"));
        const auto periodic_ticks =
            ctx.spec.paramUint("periodic-interval-ticks", 1'300'000);
        const auto recursion_depth = static_cast<unsigned>(
            ctx.spec.paramUint("recursion-depth", 2));
        const auto plb_entries = static_cast<unsigned>(
            ctx.spec.paramUint("plb-entries", 4096));

        ctx.banner(
            "Ablation: Fork Path technique stack and design knobs",
            "(beyond the paper's figures; see DESIGN.md section 4)");

        const auto &base = ctx.base;

        // Phase 1: declare every configuration (in emission order)
        // as a named sweep point; phase 2 runs them all (in parallel
        // under --jobs) and the tables consume the ordered results.
        std::vector<sim::SweepPoint> points;
        std::vector<std::string> names;
        auto add = [&](const std::string &name, sim::SimConfig cfg) {
            names.push_back(name);
            points.push_back(
                sim::pointFromMix(name, std::move(cfg), mix));
        };

        add("traditional", sim::withTraditional(base));
        add("+merging (q=1)", sim::withMergeOnly(base, 1));
        add("+scheduling (q=" + std::to_string(queue) + ")",
            sim::withMergeOnly(base, queue));
        {
            auto no_replace = sim::withMergeOnly(base, queue);
            no_replace.controller.enableDummyReplacing = false;
            add("q=" + std::to_string(queue) + ", no replacing",
                no_replace);
        }
        add("+MAC 1MB", sim::withMergeMac(
                            base, static_cast<unsigned>(mac_bytes),
                            queue));

        {
            auto compete = sim::withMergeOnly(base, queue);
            compete.controller.dummyPolicy =
                core::DummySelectPolicy::compete;
            add("compete (paper)", compete);
            auto real_first = sim::withMergeOnly(base, queue);
            real_first.controller.dummyPolicy =
                core::DummySelectPolicy::realFirst;
            add("realFirst (leaky)", real_first);
        }

        for (unsigned t : aging) {
            auto cfg = sim::withMergeOnly(base, queue);
            cfg.controller.agingThreshold = t;
            add(t >= (1u << 20) ? "T=inf" : "T=" + std::to_string(t),
                cfg);
        }

        add("subtree rows", sim::withMergeOnly(base, queue));
        {
            auto linear = sim::withMergeOnly(base, queue);
            linear.controller.layout = dram::LayoutPolicy::linear;
            add("linear (heap order)", linear);
        }

        add("flat on-chip posmap", sim::withMergeOnly(base, queue));
        {
            auto rec = sim::withMergeOnly(base, queue);
            rec.controller.recursionDepth = recursion_depth;
            add("2-level recursion", rec);
            auto plb = rec;
            plb.controller.plbEntries = plb_entries;
            add("2-level + 4K-entry PLB", plb);
        }

        add("open page (FR-FCFS)", sim::withMergeOnly(base, queue));
        {
            auto closed = sim::withMergeOnly(base, queue);
            closed.dram.pagePolicy = dram::PagePolicy::closed;
            add("closed page (auto-PRE)", closed);
        }

        add("demand-driven (paper eval)",
            sim::withMergeOnly(base, queue));
        {
            auto periodic = sim::withMergeOnly(base, queue);
            // One access slot per ~1.3 us: roughly the merged
            // service rate, so the stream adds little queueing when
            // busy but never stops when idle (Section 2.2's sealed
            // channel).
            periodic.controller.periodicIntervalTicks =
                periodic_ticks;
            add("periodic 1.3us slots", periodic);
        }

        add("integrity off", sim::withMergeOnly(base, queue));
        {
            auto on = sim::withMergeOnly(base, queue);
            on.controller.enableIntegrity = true;
            add("integrity on (hash-only cost)", on);
        }

        // The three registered scheduling policies: traditional, and
        // the paper's controller (queue 64, 1 MiB MAC) under forkpath
        // and under batched.
        add("policy: traditional", sim::withTraditional(base));
        {
            auto paper = sim::withMergeMac(base, 1 << 20, 64);
            add("policy: forkpath", paper);
            paper.controller.policy = core::PolicyKind::batched;
            add("policy: batched", paper);
        }

        auto results = ctx.run(std::move(points));
        const auto &trad = results[0];
        const std::string q_tag =
            "(q=" + std::to_string(queue) + ", " + mix + ")";
        // Each table takes the next `rows` configurations in
        // declaration order; the first also shows the baseline.
        const std::pair<std::string, std::size_t> tables[] = {
            {"technique stack (" + mix + ")", 4},
            {"dummy selection policy " + q_tag, 2},
            {"aging threshold " + q_tag, aging.size()},
            {"DRAM layout " + q_tag, 2},
            {"hierarchical position map " + q_tag, 3},
            {"DRAM page policy " + q_tag, 2},
            {"timing-channel protection " + q_tag, 2},
            {"Merkle integrity " + q_tag, 2},
            {"scheduling policy registry (" + mix + ")", 3}};
        std::size_t next = 1;
        for (const auto &[title, rows] : tables) {
            TextTable table(title);
            table.setHeader({"config", "latency_ns", "norm",
                             "path_len", "dummy/real", "energy_mJ"});
            if (next == 1)
                table.addRow(
                    {"traditional",
                     TextTable::fmt(trad.avgLlcLatencyNs, 0), "1.000",
                     TextTable::fmt(trad.avgReadPathLen, 2), "0.000",
                     TextTable::fmt(trad.totalEnergyNj() / 1e6, 1)});
            for (std::size_t i = 0; i < rows; ++i, ++next)
                addRow(table, names[next], results[next],
                       trad.avgLlcLatencyNs);
            ctx.emit(table);
        }
    });
}

} // namespace fp::bench
