/**
 * @file
 * The ratio figures (Figs. 11-16 and 18): each divides one RunResult
 * metric of some series configs by the same metric of a baseline run
 * on the same mix, printing one row per mix plus a geomean row. One
 * routine renders them all; each registration states only what its
 * figure changes. Grids and point lists live in the matching
 * experiments/figNN.json.
 */

#include "dram/dram_params.hh"
#include "scenarios/scenarios.hh"

namespace fp::bench
{

namespace
{

using Metric = double (*)(const sim::RunResult &);

/** A run configuration with its point-name suffix. */
struct NamedConfig
{
    std::string name;
    sim::SimConfig cfg;
    std::size_t baseline = 0; //!< Series only: index into baselines.
};

/** What one ratio figure declares; everything else is shared. */
struct RatioFigure
{
    std::string title = {};
    Metric metric = nullptr;
    std::vector<NamedConfig> baselines = {};
    std::vector<NamedConfig> series = {}; //!< One printed column each.
    int digits = 3;
    bool invert = false; //!< Print baseline / series (a speedup).
    /** Non-empty: a column of baselines[0]'s metric / absDivisor. */
    std::string absHeader = {};
    double absDivisor = 1.0;
    int absDigits = 0;
};

/** Per-mix results: baselines[0]'s metric and each series' ratio. */
struct Ratios
{
    std::vector<double> baseline;            //!< [mix]
    std::vector<std::vector<double>> series; //!< [series][mix]

    std::vector<double> geomeans() const
    {
        std::vector<double> out;
        for (const auto &ratios : series)
            out.push_back(sim::geomean(ratios));
        return out;
    }
};

/** Run every baseline and series on each of ctx.mixes. */
Ratios
measure(const sim::ScenarioContext &ctx, const RatioFigure &fig)
{
    std::vector<sim::SweepPoint> points;
    for (const auto &mix : ctx.mixes) {
        for (const auto *list : {&fig.baselines, &fig.series}) {
            for (const auto &c : *list)
                points.push_back(
                    sim::pointFromMix(mix + "/" + c.name, c.cfg, mix));
        }
    }
    const auto results = ctx.run(std::move(points));
    const std::size_t nbase = fig.baselines.size();
    const std::size_t stride = nbase + fig.series.size();

    Ratios out;
    out.series.resize(fig.series.size());
    for (std::size_t m = 0; m < ctx.mixes.size(); ++m) {
        const sim::RunResult *row = &results[m * stride];
        out.baseline.push_back(fig.metric(row[0]));
        for (std::size_t i = 0; i < fig.series.size(); ++i) {
            const double base = fig.metric(row[fig.series[i].baseline]);
            const double value = fig.metric(row[nbase + i]);
            out.series[i].push_back(fig.invert ? base / value
                                               : value / base);
        }
    }
    return out;
}

/** Print @p fig per mix plus a geomean row; returns the geomeans. */
std::vector<double>
render(const sim::ScenarioContext &ctx, const RatioFigure &fig)
{
    const Ratios ratios = measure(ctx, fig);
    const bool abs = !fig.absHeader.empty();
    auto row = [&](const std::string &label, const std::string &base,
                   const std::vector<double> &values) {
        std::vector<std::string> cells = {label};
        if (abs)
            cells.push_back(base);
        for (double v : values)
            cells.push_back(TextTable::fmt(v, fig.digits));
        return cells;
    };

    TextTable table(fig.title);
    std::vector<std::string> header = row("mix", fig.absHeader, {});
    for (const auto &s : fig.series)
        header.push_back(s.name);
    table.setHeader(header);
    for (std::size_t m = 0; m < ctx.mixes.size(); ++m) {
        std::vector<double> values;
        for (const auto &series : ratios.series)
            values.push_back(series[m]);
        table.addRow(row(ctx.mixes[m],
                         TextTable::fmt(ratios.baseline[m] /
                                            fig.absDivisor,
                                        fig.absDigits),
                         values));
    }
    const std::vector<double> geo = ratios.geomeans();
    table.addRow(row("geomean", "-", geo));
    ctx.emit(table);
    return geo;
}

double
latency(const sim::RunResult &r)
{
    return r.avgLlcLatencyNs;
}

std::vector<NamedConfig>
traditional(const sim::SimConfig &cfg)
{
    return {{"traditional", sim::withTraditional(cfg)}};
}

/** One merge-only series per entry of the spec's `queues` list. */
std::vector<NamedConfig>
queueSeries(const sim::ScenarioContext &ctx)
{
    std::vector<NamedConfig> out;
    for (unsigned q : asUnsigned(ctx.spec.paramUintList("queues")))
        out.push_back({"q=" + std::to_string(q),
                       sim::withMergeOnly(ctx.base, q)});
    return out;
}

/** One series per spec point, over baselines[0]. */
std::vector<NamedConfig>
pointSeries(const sim::ScenarioContext &ctx)
{
    std::vector<NamedConfig> out;
    for (const auto &point : ctx.spec.points)
        out.push_back({point.name, ctx.pointConfig(point)});
    return out;
}

std::size_t
pointIndex(const sim::ScenarioContext &ctx, const std::string &name)
{
    const auto &points = ctx.spec.points;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].name == name)
            return i;
    }
    sim::specFail(ctx.spec.source, ctx.spec.params,
                  "headline comparison references unknown point \"" +
                      name + "\"");
}

/** Fig 14's summary: execution-time reduction of each spec
 *  `headline` point against its `headline-baselines` partner. */
void
emitHeadlines(const sim::ScenarioContext &ctx,
              const std::vector<double> &geo)
{
    const auto subjects = ctx.spec.paramStrList("headline");
    const auto baselines = ctx.spec.paramStrList("headline-baselines");
    if (subjects.size() != baselines.size())
        sim::specFail(ctx.spec.source, ctx.spec.params,
                      "params.headline and params.headline-baselines "
                      "must be the same length");

    TextTable summary("headline reductions in execution time");
    summary.setHeader({"comparison", "reduction"});
    for (std::size_t i = 0; i < subjects.size(); ++i) {
        const double subject = geo[pointIndex(ctx, subjects[i])];
        const double baseline = geo[pointIndex(ctx, baselines[i])];
        summary.addRow(
            {subjects[i] + " vs " + baselines[i],
             TextTable::fmt(100.0 * (1.0 - subject / baseline), 1) +
                 " %"});
    }
    ctx.emit(summary);
}

/** Fig 16's table: one row per core kind, the spec points' latency
 *  geomeans, each kind normalized to its own traditional run. */
void
emitCoreKinds(const sim::ScenarioContext &ctx)
{
    TextTable table("Fig 16 (latency / own traditional, geomean)");
    std::vector<std::string> header = {"core"};
    for (const auto &point : ctx.spec.points)
        header.push_back(point.name);
    table.setHeader(header);
    const std::pair<const char *, unsigned> kinds[] = {
        {"out-of-order", 16}, {"in-order", 1}};
    for (const auto &[kind, outstanding] : kinds) {
        auto cfg = ctx.base;
        cfg.maxOutstanding = outstanding;
        RatioFigure fig{.metric = latency,
                        .baselines = traditional(cfg),
                        .series = pointSeries(ctx)};
        for (auto &s : fig.series)
            s.cfg.maxOutstanding = outstanding;
        std::vector<std::string> row = {kind};
        for (double g : measure(ctx, fig).geomeans())
            row.push_back(TextTable::fmt(g, 3));
        table.addRow(row);
    }
    ctx.emit(table);

    // The paper's remark: a smaller queue helps in-order cores.
    TextTable q("in-order merge-only latency vs queue size");
    q.setHeader({"queue", "latency/traditional"});
    auto in_cfg = ctx.base;
    in_cfg.maxOutstanding = 1;
    const auto queues =
        asUnsigned(ctx.spec.paramUintList("inorder-queues"));
    RatioFigure fig{
        .metric = latency,
        .baselines = {{"in-order traditional",
                       sim::withTraditional(in_cfg)}}};
    for (unsigned qs : queues)
        fig.series.push_back({"in-order q=" + std::to_string(qs),
                              sim::withMergeOnly(in_cfg, qs)});
    const auto geo = measure(ctx, fig).geomeans();
    for (std::size_t i = 0; i < queues.size(); ++i)
        q.addRow({std::to_string(queues[i]), TextTable::fmt(geo[i], 3)});
    ctx.emit(q);
}

} // namespace

void
registerRatioFigureScenarios()
{
    sim::registerScenario("fig11", [](sim::ScenarioContext &ctx) {
        ctx.banner("Figure 11: normalized total ORAM request count",
                   "average ~1.05x at queue 64-128; worst mixes (low "
                   "intensity, e.g. Mix2) exceed 1.25x");
        render(ctx, {.title = "Fig 11 (total requests / traditional)",
                     .metric = [](const sim::RunResult &r) {
                         return r.totalAccesses();
                     },
                     .baselines = traditional(ctx.base),
                     .series = queueSeries(ctx)});
    });

    sim::registerScenario("fig12", [](sim::ScenarioContext &ctx) {
        ctx.banner(
            "Figure 12: normalized ORAM latency vs label queue size",
            "improves with queue size up to 64, degrades at 128; "
            "queue 64 is the sweet spot");
        render(ctx, {.title = "Fig 12 (ORAM latency / traditional)",
                     .metric = latency,
                     .baselines = traditional(ctx.base),
                     .series = queueSeries(ctx),
                     .absHeader = "traditional(ns)"});
    });

    sim::registerScenario("fig13", [](sim::ScenarioContext &ctx) {
        ctx.banner("Figure 13: ORAM latency with caching designs",
                   "MAC at ~1/4 capacity matches 1MB treetop; 1MB "
                   "MAC is best overall");
        render(ctx, {.title = "Fig 13 (ORAM latency / traditional)",
                     .metric = latency,
                     .baselines = traditional(ctx.base),
                     .series = pointSeries(ctx)});
    });

    sim::registerScenario("fig14", [](sim::ScenarioContext &ctx) {
        ctx.banner(
            "Figure 14: full-system slowdown vs insecure processor",
            "merge+1M MAC cuts execution time ~58% vs traditional "
            "ORAM, ~29% vs 1MB treetop");
        const auto geo = render(
            ctx, {.title = "Fig 14 (execution time / insecure)",
                  .metric = [](const sim::RunResult &r) {
                      return static_cast<double>(r.executionTicks);
                  },
                  .baselines = {{"insecure", sim::withInsecure(ctx.base)}},
                  .series = pointSeries(ctx),
                  .digits = 2});
        emitHeadlines(ctx, geo);
    });

    sim::registerScenario("fig15", [](sim::ScenarioContext &ctx) {
        ctx.banner("Figure 15: normalized ORAM memory-system energy",
                   "merge+1M MAC saves ~38% vs traditional and ~15% "
                   "vs 1MB treetop");
        render(ctx, {.title = "Fig 15 (energy / traditional)",
                     .metric = [](const sim::RunResult &r) {
                         return r.totalEnergyNj();
                     },
                     .baselines = traditional(ctx.base),
                     .series = pointSeries(ctx),
                     .absHeader = "trad_mJ",
                     .absDivisor = 1e6,
                     .absDigits = 2});
    });

    sim::registerScenario("fig16", [](sim::ScenarioContext &ctx) {
        ctx.banner("Figure 16: in-order vs out-of-order",
                   "in-order ORAM latency is significantly higher "
                   "(more dummy requests); smaller queues suit "
                   "in-order");
        emitCoreKinds(ctx);
    });

    sim::registerScenario("fig18", [](sim::ScenarioContext &ctx) {
        ctx.banner("Figure 18: ORAM latency speedup vs DRAM channels",
                   "speedup is largest at 1 channel and shrinks as "
                   "channels are added");
        RatioFigure fig{
            .title = "Fig 18 (traditional latency / fork latency)",
            .metric = latency,
            .digits = 2,
            .invert = true};
        for (unsigned ch : asUnsigned(ctx.spec.paramUintList("channels"))) {
            auto cfg = ctx.base;
            cfg.dram = dram::DramParams::ddr3_1600(ch);
            const std::string tag = std::to_string(ch) + "-channel";
            fig.series.push_back({tag, sim::withMergeMac(cfg, 1 << 20, 64),
                                  fig.baselines.size()});
            fig.baselines.push_back(
                {tag + " traditional", sim::withTraditional(cfg)});
        }
        render(ctx, fig);
    });
}

} // namespace fp::bench
