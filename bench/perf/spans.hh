/**
 * @file
 * Host-time spans for the traced benchmark run, recorded from outside
 * the library at its two public seams: the memory sink the cores (or
 * a blocking client) issue into, and the mem::MemoryBackend the ORAM
 * controller talks to.
 *
 * Layers (see bench/perf/README.md for the metric map):
 *
 *   sim.run        root: the whole timed phase of one workload
 *   core.request   OramController / ShardedOram request(): admission,
 *                  path scheduling, any backend access issued inline
 *   core.complete  a backend completion callback: read / writeback
 *                  engines (stash, tree store, MAC, Merkle tree)
 *   mem.access     MemoryBackend::access(): DRAM or net model enqueue
 *
 * Spans nest; a span's self time is its duration minus the time of
 * the spans it encloses, so the root's self time is everything no seam
 * covers (event kernel, DRAM internal events, controller timers, core
 * model). Totals are kept per layer for every span; the first
 * SpanRecorder::keep spans are also kept verbatim for a Chrome-trace
 * file.
 */

#ifndef FP_BENCH_PERF_SPANS_HH
#define FP_BENCH_PERF_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/backend.hh"

namespace fp::perf
{

using Clock = std::chrono::steady_clock;

enum class Layer : unsigned
{
    run,
    coreRequest,
    coreComplete,
    memAccess,
};
constexpr std::size_t numLayers = 4;

/** "sim.run", "core.request", "core.complete", "mem.access". */
const char *layerName(Layer layer);

class SpanRecorder
{
  public:
    struct Totals
    {
        std::uint64_t calls = 0;
        std::uint64_t selfNs = 0;
        std::uint64_t totalNs = 0;
    };

    /** Spans kept verbatim for the Chrome trace. */
    static constexpr std::size_t keep = std::size_t{1} << 16;

    SpanRecorder();

    /** Open a span; returns its start time. */
    Clock::time_point begin(Layer layer);
    /** Close the innermost open span. */
    void end();

    /** Forget everything recorded so far (no span may be open). */
    void reset();

    const Totals &totals(Layer layer) const
    {
        return totals_[static_cast<std::size_t>(layer)];
    }

    /** Write the kept spans as Chrome-trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Open
    {
        Layer layer;
        Clock::time_point start;
        std::uint64_t childNs;
        std::size_t kept; //!< Index into kept_; ~0 when not kept.
    };
    struct Kept
    {
        Layer layer;
        std::uint64_t startNs; //!< Since the recorder's origin.
        std::uint64_t durNs;
        unsigned depth;
    };

    Clock::time_point origin_;
    std::vector<Open> stack_;
    std::vector<Kept> kept_;
    std::array<Totals, numLayers> totals_{};
};

/** RAII span. */
class Span
{
  public:
    Span(SpanRecorder &rec, Layer layer)
        : rec_(rec), start_(rec.begin(layer))
    {
    }
    ~Span() { rec_.end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    Clock::time_point start() const { return start_; }

  private:
    SpanRecorder &rec_;
    Clock::time_point start_;
};

/**
 * Timing decorator over a memory backend: access() runs inside a
 * mem.access span and each completion callback inside a core.complete
 * span. Everything else forwards unchanged, so the controller above
 * behaves exactly as it would on the bare backend.
 */
class TimedBackend final : public mem::MemoryBackend
{
  public:
    TimedBackend(mem::MemoryBackend &inner, SpanRecorder &rec)
        : inner_(inner), rec_(rec)
    {
    }

    void access(mem::BackendRequest req) override;

    bool idle() const override { return inner_.idle(); }
    std::size_t queueDepth() const override
    {
        return inner_.queueDepth();
    }
    mem::BackendStats statsSnapshot() const override
    {
        return inner_.statsSnapshot();
    }
    void setTracer(obs::Tracer *tracer) override
    {
        inner_.setTracer(tracer);
    }
    void resetStats() override { inner_.resetStats(); }
    std::uint64_t burstBytes() const override
    {
        return inner_.burstBytes();
    }
    std::uint64_t rowBytes() const override { return inner_.rowBytes(); }
    const char *kind() const override { return inner_.kind(); }

  private:
    mem::MemoryBackend &inner_;
    SpanRecorder &rec_;
};

} // namespace fp::perf

#endif // FP_BENCH_PERF_SPANS_HH
