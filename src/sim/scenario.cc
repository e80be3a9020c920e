#include "sim/scenario.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "core/controller_params.hh"
#include "util/logging.hh"
#include "workload/mixes.hh"

namespace fp::sim
{

std::uint64_t
specHash(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

void
specFail(const SpecSource &src, const JsonValue &node,
         const std::string &msg)
{
    if (src.text.empty()) // a value from the command line
        fp_fatal("%s: %s", src.path.c_str(), msg.c_str());
    fp_fatal("experiment spec %s:%zu: %s", src.path.c_str(),
             jsonLineOf(src.text, node.sourceOffset()), msg.c_str());
}

// --- typed params accessors -----------------------------------------------

namespace
{

const JsonValue *
findParam(const ExperimentSpec &spec, const std::string &key)
{
    if (!spec.params.isObject())
        return nullptr;
    return spec.params.find(key);
}

[[noreturn]] void
paramFail(const ExperimentSpec &spec, const std::string &key,
          const std::string &what)
{
    const JsonValue *node = findParam(spec, key);
    specFail(spec.source, node ? *node : spec.params,
             "params." + key + ": " + what);
}

std::uint64_t
uintOf(const ExperimentSpec &spec, const std::string &key,
       const JsonValue &v)
{
    if (!v.isNumber() || v.asNumber() < 0.0 ||
        v.asNumber() != static_cast<double>(v.asUint64()))
        paramFail(spec, key, "expected a non-negative integer");
    return v.asUint64();
}

} // namespace

std::uint64_t
ExperimentSpec::paramUint(const std::string &key) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v)
        paramFail(*this, key, "required integer parameter is missing");
    return uintOf(*this, key, *v);
}

std::uint64_t
ExperimentSpec::paramUint(const std::string &key,
                          std::uint64_t def) const
{
    const JsonValue *v = findParam(*this, key);
    return v ? uintOf(*this, key, *v) : def;
}

double
ExperimentSpec::paramNum(const std::string &key, double def) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v)
        return def;
    if (!v->isNumber())
        paramFail(*this, key, "expected a number");
    return v->asNumber();
}

std::string
ExperimentSpec::paramStr(const std::string &key,
                         const std::string &def) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v)
        return def;
    if (!v->isString())
        paramFail(*this, key, "expected a string");
    return v->asString();
}

std::vector<std::uint64_t>
ExperimentSpec::paramUintList(const std::string &key) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v || !v->isArray() || v->size() == 0)
        paramFail(*this, key, "expected a non-empty integer array");
    std::vector<std::uint64_t> out;
    out.reserve(v->size());
    for (const JsonValue &item : v->items())
        out.push_back(uintOf(*this, key, item));
    return out;
}

std::vector<double>
ExperimentSpec::paramNumList(const std::string &key) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v || !v->isArray() || v->size() == 0)
        paramFail(*this, key, "expected a non-empty number array");
    std::vector<double> out;
    out.reserve(v->size());
    for (const JsonValue &item : v->items()) {
        if (!item.isNumber())
            paramFail(*this, key, "expected a non-empty number array");
        out.push_back(item.asNumber());
    }
    return out;
}

std::vector<std::string>
ExperimentSpec::paramStrList(const std::string &key) const
{
    const JsonValue *v = findParam(*this, key);
    if (!v || !v->isArray() || v->size() == 0)
        paramFail(*this, key, "expected a non-empty string array");
    std::vector<std::string> out;
    out.reserve(v->size());
    for (const JsonValue &item : v->items()) {
        if (!item.isString())
            paramFail(*this, key, "expected a non-empty string array");
        out.push_back(item.asString());
    }
    return out;
}

// --- the override key table -----------------------------------------------

namespace
{

const SpecSource commandLine{"command line", "", 0};

/** Command-line text that parses whole as a number, else nullopt. */
std::optional<double>
parseNumber(const std::string &text)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0')
        return std::nullopt;
    return v;
}

struct OvCtx
{
    SimConfig &cfg;
    const SpecOverride &ov;
    const SpecSource &src;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        specFail(src, ov.value, "\"" + ov.key + "\": " + what);
    }

    /** A command-line value arrives as text; a spec value must
     *  already carry its JSON type. */
    bool
    cliText() const
    {
        return src.text.empty() && ov.value.isString();
    }

    [[noreturn]] void
    failText(const std::string &expected) const
    {
        specFail(src, ov.value,
                 "--" + ov.key + " expects " + expected + " (got '" +
                     ov.value.asString() + "')");
    }

    /** The value as a number: a JSON number, or command-line text. */
    double
    number(const std::string &expected) const
    {
        if (ov.value.isNumber())
            return ov.value.asNumber();
        if (!cliText())
            fail("expected " + expected);
        const auto v = parseNumber(ov.value.asString());
        if (!v)
            failText(expected);
        return *v;
    }

    std::uint64_t
    uintIn(std::uint64_t lo, std::uint64_t hi) const
    {
        const double d = number("an integer");
        if (!(d >= 0.0 && d < 0x1p64) || d != std::floor(d))
            fail("expected an integer");
        const auto n = static_cast<std::uint64_t>(d);
        if (n < lo || n > hi)
            fail(strprintf("value %llu out of range [%llu, %llu]",
                           static_cast<unsigned long long>(n),
                           static_cast<unsigned long long>(lo),
                           static_cast<unsigned long long>(hi)));
        return n;
    }

    double
    numIn(double lo, double hi) const
    {
        const double v = number("a number");
        if (!(v >= lo && v <= hi))
            fail(strprintf("value %g out of range [%g, %g]", v, lo,
                           hi));
        return v;
    }

    bool
    boolean() const
    {
        if (!ov.value.isBool())
            fail("expected true or false");
        return ov.value.asBool();
    }

    std::string
    str() const
    {
        if (!ov.value.isString())
            fail("expected a string");
        return ov.value.asString();
    }

    /**
     * [lo, hi] for window-style values (outage window, backoff
     * range): a two-number array, or command-line text "LO:HI"
     * (@p form names it in errors). Text without a colon gives no hi.
     */
    std::pair<double, std::optional<double>>
    numPair(const std::string &form) const
    {
        const JsonValue &v = ov.value;
        if (cliText()) {
            const std::string &text = v.asString();
            const auto colon = text.find(':');
            const bool pair = colon != std::string::npos;
            const auto lo = parseNumber(text.substr(0, colon));
            const auto hi = pair ? parseNumber(text.substr(colon + 1))
                                 : std::nullopt;
            if (!lo || (pair && !hi))
                failText(form);
            return {*lo, hi};
        }
        if (!v.isArray() || v.size() != 2 ||
            !v.at(std::size_t{0}).isNumber() ||
            !v.at(std::size_t{1}).isNumber())
            fail("expected a two-number array [lo, hi]");
        return {v.at(std::size_t{0}).asNumber(),
                v.at(std::size_t{1}).asNumber()};
    }
};

using OvHandler = void (*)(const OvCtx &);

// Keep the key names aligned with the CLI flags (docs/ARCHITECTURE.md
// documents the table; tests/test_scenario.cc round-trips it against
// the sim::with* helpers).
const std::map<std::string, OvHandler> &
overrideTable()
{
    static const std::map<std::string, OvHandler> table = {
        // --- run shape ---------------------------------------------------
        {"requests",
         [](const OvCtx &c) {
             c.cfg.requestsPerCore = c.uintIn(1, 100'000'000);
         }},
        {"leaf-level",
         [](const OvCtx &c) {
             c.cfg.controller.oram.leafLevel =
                 static_cast<unsigned>(c.uintIn(4, 40));
         }},
        {"cores",
         [](const OvCtx &c) {
             c.cfg.cores = static_cast<unsigned>(c.uintIn(1, 1024));
         }},
        {"max-outstanding",
         [](const OvCtx &c) {
             c.cfg.maxOutstanding =
                 static_cast<unsigned>(c.uintIn(1, 1'000'000));
         }},
        {"cpu-period-ticks",
         [](const OvCtx &c) {
             c.cfg.cpuPeriodTicks =
                 static_cast<Tick>(c.uintIn(1, ~std::uint64_t{0}));
         }},
        {"seed",
         [](const OvCtx &c) {
             c.cfg.seed = c.uintIn(0, ~std::uint64_t{0});
         }},
        {"shared-address-space",
         [](const OvCtx &c) {
             c.cfg.sharedAddressSpace = c.boolean();
         }},

        // --- controller variant / scheduling -----------------------------
        {"variant",
         [](const OvCtx &c) {
             const std::string v = c.str();
             if (v == "traditional")
                 c.cfg = withTraditional(std::move(c.cfg));
             else if (v == "merge")
                 c.cfg = withMergeOnly(std::move(c.cfg));
             else if (v == "mac")
                 c.cfg = withMergeMac(std::move(c.cfg),
                                      std::uint64_t{1} << 20);
             else if (v == "treetop")
                 c.cfg = withMergeTreetop(std::move(c.cfg),
                                          std::uint64_t{1} << 20);
             else if (v == "insecure")
                 c.cfg = withInsecure(std::move(c.cfg));
             else
                 c.fail("unknown variant '" + v +
                        "' (traditional|merge|mac|treetop|insecure)");
         }},
        {"policy",
         [](const OvCtx &c) {
             // parsePolicyKind is fatal on unknown names but without
             // the spec location; check here for a better message.
             const std::string v = c.str();
             const auto names = core::policyKindNames();
             if (std::find(names.begin(), names.end(), v) ==
                 names.end())
                 c.fail("unknown policy '" + v + "'");
             c.cfg.controller.policy = core::parsePolicyKind(v);
         }},
        {"queue",
         [](const OvCtx &c) {
             c.cfg.controller.labelQueueSize =
                 static_cast<unsigned>(c.uintIn(1, 1'000'000));
         }},
        {"cache",
         [](const OvCtx &c) {
             const std::string v = c.str();
             if (v == "none")
                 c.cfg.controller.cachePolicy =
                     core::CachePolicy::none;
             else if (v == "mac")
                 c.cfg.controller.cachePolicy = core::CachePolicy::mac;
             else if (v == "treetop")
                 c.cfg.controller.cachePolicy =
                     core::CachePolicy::treetop;
             else
                 c.fail("unknown cache '" + v +
                        "' (none|mac|treetop)");
         }},
        {"cache-bytes",
         [](const OvCtx &c) {
             c.cfg.controller.cacheBudgetBytes =
                 c.uintIn(1, std::uint64_t{1} << 40);
         }},
        {"dummy-policy",
         [](const OvCtx &c) {
             const std::string v = c.str();
             if (v == "compete")
                 c.cfg.controller.dummyPolicy =
                     core::DummySelectPolicy::compete;
             else if (v == "realFirst")
                 c.cfg.controller.dummyPolicy =
                     core::DummySelectPolicy::realFirst;
             else
                 c.fail("unknown dummy-policy '" + v +
                        "' (compete|realFirst)");
         }},
        {"aging-threshold",
         [](const OvCtx &c) {
             c.cfg.controller.agingThreshold =
                 static_cast<unsigned>(c.uintIn(1, ~std::uint32_t{0}));
         }},
        {"enable-replacing",
         [](const OvCtx &c) {
             c.cfg.controller.enableDummyReplacing = c.boolean();
         }},
        {"batch-size",
         [](const OvCtx &c) {
             c.cfg.controller.batchSize =
                 static_cast<unsigned>(c.uintIn(1, 1'000'000));
         }},
        {"insecure",
         [](const OvCtx &c) { c.cfg.insecure = c.boolean(); }},

        // --- structure ---------------------------------------------------
        {"layout",
         [](const OvCtx &c) {
             const std::string v = c.str();
             if (v == "subtree")
                 c.cfg.controller.layout =
                     dram::LayoutPolicy::subtree;
             else if (v == "linear")
                 c.cfg.controller.layout = dram::LayoutPolicy::linear;
             else
                 c.fail("unknown layout '" + v +
                        "' (subtree|linear)");
         }},
        {"recursion-depth",
         [](const OvCtx &c) {
             c.cfg.controller.recursionDepth =
                 static_cast<unsigned>(c.uintIn(0, 8));
         }},
        {"recursion-fanout",
         [](const OvCtx &c) {
             c.cfg.controller.recursionFanout =
                 static_cast<unsigned>(c.uintIn(2, 1024));
         }},
        {"plb-entries",
         [](const OvCtx &c) {
             c.cfg.controller.plbEntries = static_cast<std::size_t>(
                 c.uintIn(0, std::uint64_t{1} << 32));
         }},
        {"periodic-interval-ticks",
         [](const OvCtx &c) {
             c.cfg.controller.periodicIntervalTicks =
                 static_cast<Tick>(c.uintIn(0, ~std::uint64_t{0}));
         }},
        {"integrity",
         [](const OvCtx &c) {
             c.cfg.controller.enableIntegrity = c.boolean();
         }},
        {"payload-bytes",
         [](const OvCtx &c) {
             c.cfg.controller.oram.payloadBytes =
                 static_cast<std::size_t>(c.uintIn(0, 1 << 20));
         }},
        {"stash-capacity",
         [](const OvCtx &c) {
             c.cfg.controller.oram.stashCapacity =
                 static_cast<std::size_t>(
                     c.uintIn(1, std::uint64_t{1} << 32));
         }},
        {"oram-seed",
         [](const OvCtx &c) {
             c.cfg.controller.oram.seed =
                 c.uintIn(0, ~std::uint64_t{0});
         }},

        // --- memory system -----------------------------------------------
        {"channels",
         [](const OvCtx &c) {
             c.cfg.dram.org.channels =
                 static_cast<unsigned>(c.uintIn(1, 8));
         }},
        {"page-policy",
         [](const OvCtx &c) {
             const std::string v = c.str();
             if (v == "open")
                 c.cfg.dram.pagePolicy = dram::PagePolicy::open;
             else if (v == "closed")
                 c.cfg.dram.pagePolicy = dram::PagePolicy::closed;
             else
                 c.fail("unknown page-policy '" + v +
                        "' (open|closed)");
         }},
        {"backend",
         [](const OvCtx &c) {
             const std::string v = c.str();
             const auto names = backendKindNames();
             if (std::find(names.begin(), names.end(), v) ==
                 names.end())
                 c.fail("unknown backend '" + v + "'");
             c.cfg.backendKind = parseBackendKind(v);
         }},
        {"net-latency-us",
         [](const OvCtx &c) {
             c.cfg.net.oneWayLatencyUs = c.numIn(0.0, 1e9);
         }},
        {"net-gbps",
         [](const OvCtx &c) {
             c.cfg.net.linkGbps = c.numIn(1e-3, 1e6);
         }},
        {"net-window",
         [](const OvCtx &c) {
             c.cfg.net.window =
                 static_cast<unsigned>(c.uintIn(1, 1'000'000));
         }},
        {"shards",
         [](const OvCtx &c) {
             c.cfg.shards = static_cast<unsigned>(c.uintIn(1, 1024));
         }},
        {"shard-window",
         [](const OvCtx &c) {
             c.cfg.shardWindow =
                 static_cast<unsigned>(c.uintIn(1, 1'000'000));
         }},

        // --- faults / retry ----------------------------------------------
        {"fault-loss-rate",
         [](const OvCtx &c) {
             c.cfg.faults.lossRate = c.numIn(0.0, 1.0);
         }},
        {"fault-error-rate",
         [](const OvCtx &c) {
             c.cfg.faults.errorRate = c.numIn(0.0, 1.0);
         }},
        {"fault-spike-rate",
         [](const OvCtx &c) {
             c.cfg.faults.spikeRate = c.numIn(0.0, 1.0);
         }},
        {"fault-spike-us",
         [](const OvCtx &c) {
             c.cfg.faults.spikeUs = c.numIn(0.0, 1e9);
         }},
        {"fault-outage",
         [](const OvCtx &c) {
             const auto [t0, t1] = c.numPair("T0:T1");
             if (!t1 || !(t0 >= 0.0 && *t1 > t0))
                 c.fail("outage window needs 0 <= T0 < T1");
             c.cfg.faults.outageStartUs = t0;
             c.cfg.faults.outageEndUs = *t1;
         }},
        {"fault-seed",
         [](const OvCtx &c) {
             c.cfg.faults.seed = c.uintIn(0, ~std::uint64_t{0});
         }},
        {"retry-timeout-us",
         [](const OvCtx &c) {
             c.cfg.retry.timeoutUs = c.numIn(0.0, 1e9);
         }},
        {"retry-max",
         [](const OvCtx &c) {
             c.cfg.retry.maxRetries =
                 static_cast<unsigned>(c.uintIn(0, 1'000'000));
         }},
        {"retry-backoff",
         [](const OvCtx &c) {
             // A lone command-line BASE raises the cap to at least it.
             const auto [base, cap] = c.numPair("BASE or BASE:CAP");
             const double hi =
                 cap.value_or(std::max(c.cfg.retry.backoffCapUs, base));
             if (!(base >= 0.0 && hi >= base))
                 c.fail("backoff needs 0 <= BASE <= CAP");
             c.cfg.retry.backoffBaseUs = base;
             c.cfg.retry.backoffCapUs = hi;
         }},
    };
    return table;
}

bool
keyPresent(const std::vector<SpecOverride> &ovs, const char *key)
{
    for (const SpecOverride &ov : ovs)
        if (ov.key == key)
            return true;
    return false;
}

void
applySpecOverride(SimConfig &cfg, const SpecOverride &ov,
                  const SpecSource &src)
{
    const auto &table = overrideTable();
    auto it = table.find(ov.key);
    if (it == table.end()) {
        std::string known;
        for (const auto &[name, fn] : table) {
            (void)fn;
            known += known.empty() ? name : ", " + name;
        }
        specFail(src, ov.value,
                 "unknown configuration key \"" + ov.key +
                     "\" (known keys: " + known + ")");
    }
    it->second(OvCtx{cfg, ov, src});
}

} // namespace

void
applySpecOverrides(SimConfig &cfg,
                   const std::vector<SpecOverride> &ovs,
                   const SpecSource &src, const JsonValue &where,
                   const std::vector<SpecOverride> &flags)
{
    // "variant" sets these fields anew: a value given before it in the
    // same set would be lost without a word.
    static const std::set<std::string> variant_fields = {
        "policy", "enable-replacing", "queue",
        "cache",  "cache-bytes",      "insecure"};
    bool variant_follows = false;
    for (auto ov = ovs.rbegin(); ov != ovs.rend(); ++ov) {
        if (ov->key == "variant")
            variant_follows = true;
        else if (variant_follows && variant_fields.count(ov->key))
            specFail(src, ov->value,
                     "\"" + ov->key +
                         "\" comes before \"variant\", which sets it "
                         "anew (put \"variant\" first)");
    }

    for (const SpecOverride &ov : ovs)
        applySpecOverride(cfg, ov, src);
    // The command-line flags join the set last. The insecure baseline
    // has no scheduler for them to set.
    const std::vector<SpecOverride> none;
    const auto &joined = cfg.insecure ? none : flags;
    for (const SpecOverride &ov : joined)
        applySpecOverride(cfg, ov, commandLine);
    auto present = [&](const char *key) {
        return keyPresent(ovs, key) || keyPresent(joined, key);
    };

    // A spike magnitude without a rate means "spike some requests":
    // default the rate on rather than silently doing nothing. A rate
    // in the same set wins, whichever order the two keys come in.
    if (present("fault-spike-us") && !present("fault-spike-rate") &&
        cfg.faults.spikeRate == 0.0)
        cfg.faults.spikeRate = 0.01;

    // Cross-key conflicts: catch configurations that would only
    // misbehave (or silently do nothing) deep inside a sweep.
    static const char *const scheduler_keys[] = {
        "policy",          "queue",      "cache",
        "cache-bytes",     "dummy-policy", "aging-threshold",
        "enable-replacing", "batch-size",
    };
    if (cfg.insecure) {
        for (const char *key : scheduler_keys) {
            if (present(key))
                specFail(src, where,
                         std::string("\"") + key +
                             "\" conflicts with the insecure "
                             "baseline (it has no ORAM scheduler)");
        }
        if (cfg.shards > 1)
            specFail(src, where,
                     "\"shards\" > 1 conflicts with the insecure "
                     "baseline (sharding dispatches over ORAM "
                     "controllers)");
    }
    // Name the flag when it chose the policy a conflict is about.
    const std::string policy_flag =
        keyPresent(joined, "policy")
            ? std::string(", not --policy=") +
                  core::policyKindName(cfg.controller.policy)
            : "";
    if (present("batch-size") &&
        cfg.controller.policy != core::PolicyKind::batched) {
        specFail(src, where,
                 "\"batch-size\" requires the batched policy" +
                     (policy_flag.empty()
                          ? std::string(" (add \"policy\": \"batched\")")
                          : policy_flag));
    }
    if (present("enable-replacing") &&
        cfg.controller.policy != core::PolicyKind::forkpath) {
        specFail(src, where,
                 "\"enable-replacing\" requires the forkpath policy" +
                     policy_flag + " (only forkpath replaces dummies)");
    }
    if (present("cache-bytes") &&
        cfg.controller.cachePolicy == core::CachePolicy::none) {
        specFail(src, where,
                 "\"cache-bytes\" has no effect without a cache "
                 "(use \"variant\": \"mac\"/\"treetop\" or "
                 "\"cache\": \"mac\"/\"treetop\")");
    }
}

// --- grid / point expansion ----------------------------------------------

std::vector<SweepPoint>
expandSpecPoints(const ExperimentSpec &spec, const SimConfig &base,
                 const std::vector<std::string> &mixes,
                 const std::vector<SpecOverride> &flags)
{
    // Explicit points; a spec with none gets a single anonymous point
    // so a pure-grid (or pure-mix) spec still expands.
    std::vector<SpecPoint> points = spec.points;
    if (points.empty())
        points.push_back(SpecPoint{"base", "", {}});

    // Grid combinations, axes nesting rightmost-fastest.
    std::vector<std::vector<SpecOverride>> combos{{}};
    for (const GridAxis &axis : spec.grid) {
        std::vector<std::vector<SpecOverride>> next;
        next.reserve(combos.size() * axis.values.size());
        for (const auto &combo : combos) {
            for (const JsonValue &v : axis.values) {
                auto extended = combo;
                extended.push_back(SpecOverride{axis.key, v});
                next.push_back(std::move(extended));
            }
        }
        combos = std::move(next);
    }

    auto comboName = [](const std::vector<SpecOverride> &combo) {
        std::string name;
        for (const SpecOverride &ov : combo) {
            std::string v;
            if (ov.value.isString()) {
                v = ov.value.asString();
            } else if (ov.value.isBool()) {
                v = ov.value.asBool() ? "on" : "off";
            } else if (ov.value.isNumber()) {
                std::ostringstream os;
                os << ov.value.asNumber();
                v = os.str();
            }
            name += (name.empty() ? "" : ",") + ov.key + "=" + v;
        }
        return name;
    };

    std::vector<SweepPoint> out;
    out.reserve(points.size() * combos.size() * mixes.size());
    for (const SpecPoint &point : points) {
        for (const auto &combo : combos) {
            std::vector<SpecOverride> set = point.overrides;
            set.insert(set.end(), combo.begin(), combo.end());
            SimConfig cfg = base;
            applySpecOverrides(cfg, set, spec.source, spec.params,
                               flags);

            std::string name = point.name;
            if (!combo.empty())
                name += (name.empty() ? "" : "/") + comboName(combo);

            if (!point.mix.empty()) {
                out.push_back(pointFromMix(name, cfg, point.mix));
                continue;
            }
            for (const std::string &mix : mixes) {
                const std::string full =
                    mixes.size() > 1 ? mix + "/" + name : name;
                out.push_back(pointFromMix(full, cfg, mix));
            }
        }
    }
    return out;
}

// --- ScenarioContext -------------------------------------------------------

namespace
{

// The configuration knobs the command line accepts, in the order they
// apply. Each is a key of the override table, so a flag gets the same
// handler, range and cross-key checks as the spec key.
const char *const knobFlags[] = {
    "requests",         "leaf-level",       "backend",
    "net-latency-us",   "net-gbps",         "net-window",
    "shards",           "shard-window",     "fault-loss-rate",
    "fault-error-rate", "fault-spike-us",   "fault-spike-rate",
    "fault-outage",     "fault-seed",       "retry-timeout-us",
    "retry-max",        "retry-backoff",    "policy",
    "batch-size",
};

} // namespace

ScenarioContext::ScenarioContext(const ExperimentSpec &spec_,
                                 const CliArgs &args_)
    : spec(spec_), args(args_)
{
    // Defaults (the spec's base block), then the knob flags, then
    // --quick: the historical bench option order, so spec runs stay
    // byte-identical to the binaries they replaced.
    base = SimConfig::paperDefault();
    applySpecOverrides(base, spec.base, spec.source, spec.params);

    std::vector<SpecOverride> knobs;
    for (const char *key : knobFlags) {
        if (args.has(key))
            knobs.push_back(
                {key, JsonValue::parse(
                          JsonWriter().value(args.getString(key)).str())});
    }
    applySpecOverrides(base, knobs, commandLine, spec.params);
    for (const SpecOverride &ov : knobs) {
        if (ov.key == "policy" || ov.key == "batch-size")
            schedulerFlags.push_back(ov);
    }
    if (args.getBool("quick")) {
        for (const char *flag : {"requests", "leaf-level"}) {
            if (args.has(flag))
                fp_fatal("--quick conflicts with --%s (--quick sets "
                         "--requests=150 and --leaf-level=14)",
                         flag);
        }
        base.requestsPerCore = 150;
        base.controller.oram.leafLevel = 14;
    }

    csv = args.getBool("csv");
    sweepOpt = sweepOptionsFromArgs(args);
    applyObsFlags(base, args);

    const std::string mix_flag = args.getString("mixes", "");
    if (!mix_flag.empty()) {
        std::stringstream ss(mix_flag);
        std::string item;
        while (std::getline(ss, item, ','))
            mixes.push_back(item);
    } else if (!spec.defaultMixes.empty()) {
        mixes = spec.defaultMixes;
    } else {
        mixes = workload::mixNames();
    }
}

SimConfig
ScenarioContext::pointConfig(const SpecPoint &point) const
{
    SimConfig cfg = base;
    applySpecOverrides(cfg, point.overrides, spec.source, spec.params,
                       schedulerFlags);
    return cfg;
}

unsigned
ScenarioContext::uintFlag(const std::string &name, unsigned def,
                          unsigned lo, unsigned hi) const
{
    // Signed, so a negative flag is out of range rather than wrapped.
    const bool flag = args.has(name);
    const long long v =
        flag ? args.getInt(name, def)
             : static_cast<long long>(spec.paramUint(name, def));
    if (v < lo || v > hi)
        specFail(flag ? commandLine : spec.source, spec.params,
                 strprintf("\"%s\": value %lld out of range [%u, %u]",
                           name.c_str(), v, lo, hi));
    return static_cast<unsigned>(v);
}

void
ScenarioContext::stamp(RunResult &r) const
{
    r.specName = spec.name;
    r.specHash = spec.source.hash;
}

std::vector<RunResult>
ScenarioContext::run(std::vector<SweepPoint> points) const
{
    auto outcomes = runRaw(std::move(points));
    std::vector<RunResult> results;
    results.reserve(outcomes.size());
    for (const SweepOutcome &out : outcomes) {
        if (!out.ok)
            fp_fatal("sweep point '%s' failed: %s", out.name.c_str(),
                     out.error.c_str());
        results.push_back(out.result);
    }
    return results;
}

std::vector<SweepOutcome>
ScenarioContext::runRaw(std::vector<SweepPoint> points) const
{
    // --policy/--batch-size reach every point after its series
    // transform (a sim::with* helper sets the policy anew). A spec
    // point took them into its own override set already. The insecure
    // baseline has no scheduler.
    for (SweepPoint &p : points) {
        if (!p.cfg.insecure)
            applySpecOverrides(p.cfg, schedulerFlags, commandLine,
                               spec.params);
    }
    SweepRunner runner(sweepOpt);
    auto outcomes = runner.run(std::move(points));
    for (SweepOutcome &out : outcomes) {
        if (out.ok)
            stamp(out.result);
    }
    return outcomes;
}

void
ScenarioContext::runTasks(std::vector<SweepTask> tasks) const
{
    SweepRunner runner(sweepOpt);
    auto outcomes = runner.runTasks(std::move(tasks));
    for (const TaskOutcome &out : outcomes) {
        if (!out.ok)
            fp_fatal("task '%s' failed: %s", out.name.c_str(),
                     out.error.c_str());
    }
}

void
ScenarioContext::emit(const TextTable &table) const
{
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n";
}

void
ScenarioContext::banner(const std::string &figure,
                        const std::string &paper_says) const
{
    if (csv)
        return; // keep CSV output machine-clean
    std::cout << "==================================================="
                 "=====\n"
              << figure << "\n"
              << "paper reports: " << paper_says << "\n"
              << "==================================================="
                 "=====\n\n";
}

// --- scenario registry -----------------------------------------------------

namespace
{

std::map<std::string, ScenarioFn> &
scenarioRegistry()
{
    static std::map<std::string, ScenarioFn> registry;
    return registry;
}

/**
 * The generic data-only scenario: expand points x grid x mixes, run,
 * and emit the headline metrics. A brand-new experiment that needs no
 * custom normalisation is one committed JSON file with
 * "scenario": "sweep".
 */
void
sweepScenario(ScenarioContext &ctx)
{
    ctx.banner("Experiment: " + ctx.spec.name,
               ctx.spec.description.empty() ? "(generic sweep)"
                                            : ctx.spec.description);
    auto points = expandSpecPoints(ctx.spec, ctx.base, ctx.mixes,
                                   ctx.schedulerFlags);
    std::vector<std::string> names;
    names.reserve(points.size());
    for (const SweepPoint &p : points)
        names.push_back(p.name);
    auto results = ctx.run(std::move(points));

    TextTable t(ctx.spec.name);
    t.setHeader({"point", "exec_ms", "avg_latency_ns", "path_len",
                 "buckets/access", "real", "dummy"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        t.addRow({names[i],
                  TextTable::fmt(static_cast<double>(
                                     r.executionTicks) /
                                 1e9),
                  TextTable::fmt(r.avgLlcLatencyNs),
                  TextTable::fmt(r.avgReadPathLen),
                  TextTable::fmt(r.avgDramBucketsRead),
                  TextTable::fmt(r.realAccesses),
                  TextTable::fmt(r.dummyAccesses)});
    }
    ctx.emit(t);
}

} // namespace

void
registerScenario(const std::string &name, ScenarioFn fn)
{
    scenarioRegistry()[name] = std::move(fn);
}

std::vector<std::string>
scenarioNames()
{
    std::vector<std::string> names;
    names.reserve(scenarioRegistry().size() + 1);
    names.push_back("sweep");
    for (const auto &[name, fn] : scenarioRegistry()) {
        (void)fn;
        if (name != "sweep")
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

int
runSpec(const ExperimentSpec &spec, const CliArgs &args)
{
    const auto &registry = scenarioRegistry();
    auto it = registry.find(spec.scenario);
    ScenarioFn fn;
    if (it != registry.end()) {
        fn = it->second;
    } else if (spec.scenario == "sweep") {
        fn = sweepScenario;
    } else {
        std::string known;
        for (const std::string &name : scenarioNames())
            known += known.empty() ? name : ", " + name;
        specFail(spec.source, spec.params,
                 "unknown scenario \"" + spec.scenario +
                     "\" (registered: " + known + ")");
    }
    ScenarioContext ctx(spec, args);
    fn(ctx);
    return 0;
}

} // namespace fp::sim
