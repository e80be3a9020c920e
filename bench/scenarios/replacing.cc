/**
 * @file
 * Replacing renderer: the dummy-label-replacing window (paper Section
 * 3.3 / Figure 5). Sweeps the arrival offset of a lone real request
 * relative to the previous access and reports, per offset band, the
 * fraction of arrivals that replaced the committed dummy and the
 * request's latency. Offsets, trial count, probe queue size and ORAM
 * seed live in experiments/replacing.json.
 *
 * Each offset band is one SweepRunner task (--jobs); every trial
 * seeds its own Rng(t * 31 + offset_ns), so rows — emitted in offset
 * order afterwards — are byte-identical at any job count. Honours
 * --backend=net to probe the window against the network store model.
 */

#include "core/controller_params.hh"
#include "core/oram_controller.hh"
#include "scenarios/scenarios.hh"
#include "sim/backend_stack.hh"
#include "util/random.hh"

namespace fp::bench
{

void
registerReplacingScenario()
{
    sim::registerScenario("replacing", [](sim::ScenarioContext &ctx) {
        const unsigned trials = ctx.uintFlag("trials", 200);
        // The override table's leaf-level range.
        const unsigned leaf = ctx.uintFlag("leaf-level", 16, 4, 40);

        ctx.banner("Dummy label replacing window (Section 3.3)",
                   "a real request arriving before the refill passes "
                   "the crossing bucket replaces the committed dummy "
                   "(Case 3); later arrivals cannot (Cases 1-2)");

        // The paper's Fork Path controller (merging + replacing),
        // shrunk to a probe-sized queue with no on-chip cache so
        // every replacement window is exercised against DRAM.
        core::ControllerParams params =
            core::ControllerParams::forkPath();
        params.oram.leafLevel = leaf;
        params.oram.payloadBytes = 0;
        params.oram.seed = ctx.spec.paramUint("oram-seed", 60221023);
        params.labelQueueSize = static_cast<unsigned>(
            ctx.spec.paramUint("label-queue", 8));
        params.cachePolicy = core::CachePolicy::none;

        // The probe talks to the bare store: the default DRAM part or
        // the configured net model, with no fault or retry layer.
        sim::SimConfig store;
        store.backendKind = ctx.base.backendKind;
        store.net = ctx.base.net;

        TextTable table("replacement probability vs arrival offset");
        table.setHeader({"offset_after_prev_done_ns", "replaced_frac",
                         "avg_latency_ns"});

        // Offset is measured from the completion of the priming
        // access's *read* phase: its write phase (the replacement
        // window) follows.
        const auto offset_list = ctx.spec.paramUintList("offsets");
        const std::vector<Tick> offsets(offset_list.begin(),
                                        offset_list.end());
        std::vector<std::vector<std::string>> rows(offsets.size());

        std::vector<sim::SweepTask> tasks;
        for (std::size_t band = 0; band < offsets.size(); ++band) {
            const Tick offset_ns = offsets[band];
            tasks.push_back(
                {"offset=" + std::to_string(offset_ns) + "ns",
                 [&rows, &params, &store, band, offset_ns, trials] {
                unsigned replaced = 0;
                double latency_sum = 0.0;
                for (unsigned t = 0; t < trials; ++t) {
                    EventQueue eq;
                    sim::BackendStack mem(store, eq);
                    auto p = params;
                    p.oram.seed += t * 7919;
                    core::OramController ctrl(p, eq, mem.top());
                    Rng rng(t * 31 + offset_ns);

                    // Prime: one access whose refill commits a
                    // dummy.
                    bool primed = false;
                    ctrl.request(oram::Op::read,
                                 rng.uniformInt(1 << 12), {},
                                 [&](Tick, const auto &) {
                                     primed = true;
                                 });
                    eq.runWhile([&] { return !primed; });

                    // Inject the probe at the offset.
                    std::uint64_t before = ctrl.dummyReplacements();
                    bool done = false;
                    Tick t0 = 0, t1 = 0;
                    eq.scheduleIn(offset_ns * 1000, [&] {
                        t0 = eq.now();
                        ctrl.request(oram::Op::read,
                                     4096 + rng.uniformInt(1 << 12),
                                     {},
                                     [&](Tick tt, const auto &) {
                                         t1 = tt;
                                         done = true;
                                     });
                    });
                    eq.runWhile([&] { return !done; });
                    replaced += ctrl.dummyReplacements() > before;
                    latency_sum += ticksToNs(t1 - t0);
                }
                rows[band] = {
                    TextTable::fmt(std::uint64_t{offset_ns}),
                    TextTable::fmt(
                        static_cast<double>(replaced) / trials, 3),
                    TextTable::fmt(latency_sum / trials, 0)};
            }});
        }
        ctx.runTasks(std::move(tasks));
        for (const auto &row : rows)
            table.addRow(row);
        ctx.emit(table);
    });
}

} // namespace fp::bench
