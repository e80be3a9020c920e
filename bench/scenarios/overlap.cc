/**
 * @file
 * Overlap renderer: analytic companion to Figure 10 — expected
 * best-of-queue path overlap, closed form vs Monte-Carlo, across the
 * spec's queue sizes and tree depths (experiments/overlap.json).
 *
 * Each tree depth is one SweepRunner task (--jobs); a task owns its
 * Rng(1234 + leaf) stream, so results — and the stdout emitted in
 * depth order afterwards — are byte-identical at any job count.
 */

#include <algorithm>

#include "core/overlap.hh"
#include "mem/tree_geometry.hh"
#include "scenarios/scenarios.hh"
#include "util/random.hh"

namespace fp::bench
{

void
registerOverlapScenario()
{
    sim::registerScenario("overlap", [](sim::ScenarioContext &ctx) {
        const unsigned trials = ctx.uintFlag("trials", 40000);

        ctx.banner("Overlap analysis (supports Figure 10)",
                   "expected fetched path ~= L+1 - E[best-of-Q "
                   "overlap], E grows ~1 level per queue doubling");

        const std::vector<unsigned> leaves =
            asUnsigned(ctx.spec.paramUintList("leaves"));
        const std::vector<unsigned> queues =
            asUnsigned(ctx.spec.paramUintList("queues"));

        std::vector<TextTable> tables;
        std::vector<sim::SweepTask> tasks;
        tables.reserve(leaves.size());
        for (unsigned leaf : leaves) {
            mem::TreeGeometry geo(leaf);
            tables.emplace_back("L = " + std::to_string(leaf) +
                                " (path length " +
                                std::to_string(geo.numLevels()) +
                                ")");
            TextTable &table = tables.back();
            tasks.push_back({"L=" + std::to_string(leaf),
                             [&table, &queues, leaf, trials] {
                mem::TreeGeometry geo(leaf);
                Rng rng(1234 + leaf);
                table.setHeader({"queue", "E[overlap] analytic",
                                 "E[overlap] monte-carlo",
                                 "expected fetched path"});
                for (unsigned q : queues) {
                    double analytic =
                        core::expectedBestOverlap(geo, q);
                    double sum = 0.0;
                    for (unsigned t = 0; t < trials; ++t) {
                        LeafLabel cur =
                            rng.uniformInt(geo.numLeaves());
                        unsigned best = 0;
                        for (unsigned i = 0; i < q; ++i) {
                            best = std::max(
                                best,
                                geo.overlap(
                                    cur,
                                    rng.uniformInt(
                                        geo.numLeaves())));
                        }
                        sum += best;
                    }
                    table.addRow({std::to_string(q),
                                  TextTable::fmt(analytic, 3),
                                  TextTable::fmt(sum / trials, 3),
                                  TextTable::fmt(
                                      geo.numLevels() - analytic,
                                      2)});
                }
            }});
        }
        ctx.runTasks(std::move(tasks));
        for (const auto &table : tables)
            ctx.emit(table);
    });
}

} // namespace fp::bench
