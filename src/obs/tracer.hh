/**
 * @file
 * Event tracer emitting Chrome trace-event / Perfetto-compatible JSON
 * (the "JSON object format": {"traceEvents": [...]}). Load the output
 * in https://ui.perfetto.dev or chrome://tracing.
 *
 * Components carry a `Tracer *` (null when tracing is off) and guard
 * every emission with `if (trc_ && trc_->on(level))` — one
 * well-predicted branch on the hot path, nothing else. Events are
 * appended to a bounded in-memory buffer that is flushed to the
 * output file whenever it fills, so memory stays flat regardless of
 * run length.
 *
 * Tracks: the whole simulator is one trace "process"; each component
 * stream is a named "thread" (track). Timestamps are the simulated
 * clock (1 tick = 1 ps) expressed in the trace format's microseconds,
 * so a run's trace depends only on seed + config — byte-identical
 * across repeated runs, which tests/test_obs.cc enforces.
 */

#ifndef FP_OBS_TRACER_HH
#define FP_OBS_TRACER_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "util/types.hh"

namespace fp::obs
{

/** How much to record; each level includes the ones below. */
enum class TraceLevel : unsigned
{
    off = 0,
    /** Controller phases, scheduling decisions, counter tracks. */
    access = 1,
    /** Plus per-channel DRAM command timing. */
    full = 2,
};

/** Fixed track ids (trace "threads"). */
enum class Track : unsigned
{
    controller = 1, //!< access phase slices (read/refill/park)
    schedule = 2,   //!< label-queue decisions, dummy replacement
    cache = 3,      //!< MAC / treetop / PLB / stash-shortcut hits
    revealed = 4,   //!< adversary-visible access shapes
    stash = 5,      //!< stash occupancy counter track
    queues = 6,     //!< label/address queue occupancy counters
    resilience = 7, //!< fault injections, retries, timeouts, dedups
    requests = 8,   //!< per-request lifecycle async spans (profiler)
    admission = 9,  //!< address-queue admission (policy, batching)
    /** Per-channel DRAM command tracks: dram0 + channel id. */
    dram0 = 16,
};

/** One typed key/value for an event's args object. */
struct TraceArg
{
    enum class Kind { u64, f64, str, boolean };

    const char *key;
    Kind kind;
    std::uint64_t u = 0;
    double d = 0.0;
    const char *s = nullptr;
    bool b = false;

    static TraceArg
    num(const char *key, std::uint64_t v)
    {
        TraceArg a{key, Kind::u64};
        a.u = v;
        return a;
    }
    static TraceArg
    real(const char *key, double v)
    {
        TraceArg a{key, Kind::f64};
        a.d = v;
        return a;
    }
    static TraceArg
    str(const char *key, const char *v)
    {
        TraceArg a{key, Kind::str};
        a.s = v;
        return a;
    }
    static TraceArg
    flag(const char *key, bool v)
    {
        TraceArg a{key, Kind::boolean};
        a.b = v;
        return a;
    }
};

class Tracer
{
  public:
    /**
     * @param path         Output file (created/truncated).
     * @param level        Recording level (off still opens the file
     *                     and produces an empty, valid trace).
     * @param now          The simulation clock (EventQueue::nowPtr()).
     * @param buffer_bytes Flush threshold for the staging buffer.
     */
    Tracer(const std::string &path, TraceLevel level, const Tick *now,
           std::size_t buffer_bytes = 256 * 1024);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** True iff events at @p lvl are recorded. */
    bool on(TraceLevel lvl) const { return level_ >= lvl; }

    TraceLevel level() const { return level_; }

    /** Name a track (emits a thread_name metadata event). */
    void nameTrack(Track track, const char *name);

    /** Duration slice [start, end] ("ph":"X"). */
    void complete(Track track, const char *name, Tick start, Tick end,
                  std::initializer_list<TraceArg> args = {});

    /** Zero-duration marker at the current tick ("ph":"i"). */
    void instant(Track track, const char *name,
                 std::initializer_list<TraceArg> args = {});

    /** Counter sample at the current tick ("ph":"C"). A track's
     *  series name is @p name; one value per call. */
    void counter(Track track, const char *name, const char *series,
                 double value);

    /**
     * Async (nestable) event at the current tick: ph "b" (begin),
     * "n" (instant) or "e" (end), correlated across emissions by
     * (@p cat, @p id). This is what lets one logical request be
     * followed across pipeline stages in the trace viewer even
     * though many requests are interleaved on one track.
     */
    void async(Track track, const char *name, const char *ph,
               const char *cat, std::uint64_t id,
               std::initializer_list<TraceArg> args = {});

    void
    asyncBegin(Track track, const char *name, const char *cat,
               std::uint64_t id,
               std::initializer_list<TraceArg> args = {})
    {
        async(track, name, "b", cat, id, args);
    }
    void
    asyncInstant(Track track, const char *name, const char *cat,
                 std::uint64_t id,
                 std::initializer_list<TraceArg> args = {})
    {
        async(track, name, "n", cat, id, args);
    }
    void
    asyncEnd(Track track, const char *name, const char *cat,
             std::uint64_t id,
             std::initializer_list<TraceArg> args = {})
    {
        async(track, name, "e", cat, id, args);
    }

    /** Flush buffered events and close the JSON document. Safe to
     *  call more than once; further events are dropped. On a view
     *  (makeView) this is a no-op: only the root closes the file. */
    void finish();

    std::uint64_t eventsEmitted() const
    {
        return out_ && out_ != this ? out_->events_ : events_;
    }

    /**
     * Create a view of this tracer for a replicated component stack
     * (e.g. one ORAM shard): events emitted through the view land in
     * the same trace file, but on tracks shifted by @p tid_offset, and
     * track names gain @p track_prefix ("s0." turns "controller" into
     * "s0.controller"). Views hold no file state — they must not
     * outlive the tracer they were made from — and chaining
     * makeView on a view composes offsets and prefixes.
     */
    std::unique_ptr<Tracer> makeView(unsigned tid_offset,
                                     std::string track_prefix);

  private:
    /** View constructor (see makeView). */
    Tracer(Tracer *out, unsigned tid_offset, std::string track_prefix);

    /** Track id after applying this view's offset. */
    Track shift(Track track) const
    {
        return static_cast<Track>(static_cast<unsigned>(track) +
                                  tidOffset_);
    }
    bool isView() const { return out_ != this; }

    void begin(Track track, const char *name, const char *ph);
    /** `,"args":{...}` for a non-empty @p args; nothing otherwise. */
    void appendArgs(std::initializer_list<TraceArg> args);
    void appendArg(const TraceArg &a);
    void end();
    void append(const char *s);
    void appendEscaped(const char *s);
    void appendTs(const char *key, Tick t);
    void maybeFlush();

    TraceLevel level_;
    const Tick *now_;
    std::FILE *file_ = nullptr;
    std::string buf_;
    std::size_t flushAt_ = 0;
    std::uint64_t events_ = 0;
    bool finished_ = false;
    /** The tracer owning the file/buffer; `this` on a root tracer. */
    Tracer *out_ = nullptr;
    unsigned tidOffset_ = 0;
    std::string trackPrefix_;
};

} // namespace fp::obs

#endif // FP_OBS_TRACER_HH
