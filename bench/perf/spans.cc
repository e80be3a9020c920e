#include "spans.hh"

#include <cstdio>
#include <utility>

#include "util/logging.hh"

namespace fp::perf
{

namespace
{

constexpr std::size_t notKept = ~std::size_t{0};

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

} // namespace

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::run:
        return "sim.run";
      case Layer::coreRequest:
        return "core.request";
      case Layer::coreComplete:
        return "core.complete";
      case Layer::memAccess:
        return "mem.access";
    }
    return "?";
}

SpanRecorder::SpanRecorder() : origin_(Clock::now())
{
    stack_.reserve(16);
    kept_.reserve(keep);
}

Clock::time_point
SpanRecorder::begin(Layer layer)
{
    const Clock::time_point now = Clock::now();
    std::size_t kept = notKept;
    if (kept_.size() < keep) {
        kept = kept_.size();
        kept_.push_back({layer, nsBetween(origin_, now), 0,
                         static_cast<unsigned>(stack_.size())});
    }
    stack_.push_back({layer, now, 0, kept});
    return now;
}

void
SpanRecorder::end()
{
    const Clock::time_point now = Clock::now();
    fp_assert(!stack_.empty(), "span end without begin");
    const Open open = stack_.back();
    stack_.pop_back();

    const std::uint64_t dur = nsBetween(open.start, now);
    Totals &t = totals_[static_cast<std::size_t>(open.layer)];
    ++t.calls;
    t.totalNs += dur;
    t.selfNs += dur > open.childNs ? dur - open.childNs : 0;
    if (!stack_.empty())
        stack_.back().childNs += dur;
    if (open.kept != notKept)
        kept_[open.kept].durNs = dur;
}

void
SpanRecorder::reset()
{
    fp_assert(stack_.empty(), "span reset with %zu open spans",
              stack_.size());
    kept_.clear();
    totals_ = {};
    origin_ = Clock::now();
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        const Kept &k = kept_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"perf\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"depth\":%u}}",
                     i ? "," : "", layerName(k.layer),
                     static_cast<double>(k.startNs) / 1e3,
                     static_cast<double>(k.durNs) / 1e3, k.depth);
    }
    std::fprintf(f, "\n],\"otherData\":{");
    for (std::size_t l = 0; l < numLayers; ++l) {
        const Totals &t = totals_[l];
        std::fprintf(f,
                     "%s\"%s\":{\"calls\":%llu,\"self_ns\":%llu,"
                     "\"total_ns\":%llu}",
                     l ? "," : "", layerName(static_cast<Layer>(l)),
                     static_cast<unsigned long long>(t.calls),
                     static_cast<unsigned long long>(t.selfNs),
                     static_cast<unsigned long long>(t.totalNs));
    }
    std::fprintf(f, ",\"spans_kept\":%zu}}\n", kept_.size());
    return std::fclose(f) == 0;
}

void
TimedBackend::access(mem::BackendRequest req)
{
    // Wrap first, so building the wrapper is not billed to mem.access.
    if (req.onComplete) {
        req.onComplete = [this, fn = std::move(req.onComplete)](Tick t) {
            Span span(rec_, Layer::coreComplete);
            fn(t);
        };
    }
    Span span(rec_, Layer::memAccess);
    inner_.access(std::move(req));
}

} // namespace fp::perf
