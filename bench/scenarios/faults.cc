/**
 * @file
 * Faults renderer: resilience sweep — Fork Path throughput and
 * latency vs. injected request-loss rate, on both the DRAM and the
 * network store, with the retry layer recovering every lost request.
 * The loss-rate ladder and backend list live in
 * experiments/faults.json; --fault-loss-rate adds that rate to the
 * row set.
 *
 * Failed points (e.g. a deliberately exhausted retry budget under
 * --retry-max=0) are reported as rows, not fatal: degrading into a
 * result record is the behaviour under test.
 */

#include <algorithm>

#include "scenarios/scenarios.hh"

namespace fp::bench
{

void
registerFaultsScenario()
{
    sim::registerScenario("faults", [](sim::ScenarioContext &ctx) {
        ctx.banner(
            "Resilience: throughput/latency vs request-loss rate",
            "not in the paper; fault-injection study of the "
            "retry/timeout/backoff layer (zero lost user requests "
            "expected at every point)");

        std::vector<double> lossRates =
            ctx.spec.paramNumList("loss-rates");
        if (ctx.base.faults.lossRate > 0.0 &&
            std::find(lossRates.begin(), lossRates.end(),
                      ctx.base.faults.lossRate) == lossRates.end()) {
            lossRates.push_back(ctx.base.faults.lossRate);
            std::sort(lossRates.begin(), lossRates.end());
        }
        std::vector<sim::BackendKind> kinds;
        for (const auto &name :
             ctx.spec.paramStrList("backends"))
            kinds.push_back(sim::parseBackendKind(name));

        auto cfg = sim::withMergeOnly(
            ctx.base,
            static_cast<unsigned>(ctx.spec.paramUint("queue", 64)));
        std::vector<sim::SweepPoint> points;
        for (sim::BackendKind kind : kinds) {
            const char *kind_name = sim::backendKindName(kind);
            for (double loss : lossRates) {
                auto c = cfg;
                c.backendKind = kind;
                c.faults = ctx.base.faults;
                c.faults.lossRate = loss;
                c.retry = ctx.base.retry;
                points.push_back(sim::pointFromMix(
                    std::string(kind_name) + " loss=" +
                        TextTable::fmt(loss, 3),
                    c, ctx.mixes[0]));
            }
        }

        // Run raw (not run()): a failed point must become a row,
        // because graceful degradation is the behaviour under test.
        auto outcomes = ctx.runRaw(std::move(points));

        TextTable table(
            "Resilience sweep (" + ctx.mixes[0] + ", L=" +
            std::to_string(ctx.leafLevel()) + ")");
        table.setHeader({"backend", "loss_rate", "exec_ms",
                         "latency_ns", "lost", "retries", "timeouts",
                         "dedup", "exhausted", "fingerprint",
                         "status"});

        std::size_t idx = 0;
        for (sim::BackendKind kind : kinds) {
            const char *kind_name = sim::backendKindName(kind);
            // Row 0 of each backend block is the fault-free
            // reference for the fingerprint comparison.
            const sim::SweepOutcome &base = outcomes[idx];
            for (double loss : lossRates) {
                const sim::SweepOutcome &out = outcomes[idx++];
                if (!out.ok) {
                    table.addRow({kind_name, TextTable::fmt(loss, 3),
                                  "-", "-", "-", "-", "-", "-", "-",
                                  "-", "error: " + out.error});
                    continue;
                }
                const sim::RunResult &r = out.result;
                const char *fp_match =
                    !base.ok ? "n/a"
                    : r.reqStreamFingerprint ==
                            base.result.reqStreamFingerprint
                        ? "match"
                        : "differs";
                table.addRow(
                    {kind_name, TextTable::fmt(loss, 3),
                     TextTable::fmt(
                         ticksToNs(r.executionTicks) / 1e6, 2),
                     TextTable::fmt(r.avgLlcLatencyNs, 1),
                     std::to_string(r.faultLossInjected),
                     std::to_string(r.retryAttempts),
                     std::to_string(r.retryTimeouts),
                     std::to_string(r.retryDedupDropped),
                     std::to_string(r.retryExhausted), fp_match,
                     r.failed ? "failed" : "ok"});
            }
        }
        ctx.emit(table);
    });
}

} // namespace fp::bench
