#include "obs/tracer.hh"

#include <cinttypes>

#include "util/json.hh"
#include "util/logging.hh"

namespace fp::obs
{

Tracer::Tracer(const std::string &path, TraceLevel level,
               const Tick *now, std::size_t buffer_bytes)
    : level_(level), now_(now), flushAt_(buffer_bytes)
{
    out_ = this;
    fp_assert(now_ != nullptr, "Tracer: null clock");
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        fp_fatal("Tracer: cannot open '%s' for writing",
                 path.c_str());
    buf_.reserve(flushAt_ + 4096);
    append("{\"traceEvents\":[");
}

Tracer::Tracer(Tracer *out, unsigned tid_offset,
               std::string track_prefix)
    : level_(out->level_), now_(out->now_), out_(out),
      tidOffset_(tid_offset), trackPrefix_(std::move(track_prefix))
{
}

std::unique_ptr<Tracer>
Tracer::makeView(unsigned tid_offset, std::string track_prefix)
{
    // Chained views flatten onto the root so every emission is a
    // single forwarding hop.
    return std::unique_ptr<Tracer>(
        new Tracer(out_, tidOffset_ + tid_offset,
                   trackPrefix_ + std::move(track_prefix)));
}

Tracer::~Tracer()
{
    finish();
}

void
Tracer::append(const char *s)
{
    buf_ += s;
}

void
Tracer::appendEscaped(const char *s)
{
    buf_ += JsonWriter::escape(s);
}

void
Tracer::appendTs(const char *key, Tick t)
{
    // Trace timestamps are microseconds; 1 tick = 1 ps, so six
    // fractional digits preserve full tick resolution.
    char tmp[64];
    std::snprintf(tmp, sizeof(tmp), ",\"%s\":%" PRIu64 ".%06u", key,
                  t / 1'000'000,
                  static_cast<unsigned>(t % 1'000'000));
    buf_ += tmp;
}

void
Tracer::begin(Track track, const char *name, const char *ph)
{
    if (events_ > 0)
        buf_ += ',';
    ++events_;
    buf_ += "{\"name\":\"";
    appendEscaped(name);
    buf_ += "\",\"ph\":\"";
    buf_ += ph;
    buf_ += '"';
    appendTs("ts", *now_);
    char tmp[48];
    std::snprintf(tmp, sizeof(tmp), ",\"pid\":1,\"tid\":%u",
                  static_cast<unsigned>(track));
    buf_ += tmp;
}

void
Tracer::appendArgs(std::initializer_list<TraceArg> args)
{
    if (args.size() == 0)
        return;
    buf_ += ",\"args\":{";
    bool first = true;
    for (const TraceArg &a : args) {
        if (!first)
            buf_ += ',';
        first = false;
        appendArg(a);
    }
    buf_ += '}';
}

void
Tracer::appendArg(const TraceArg &a)
{
    buf_ += '"';
    appendEscaped(a.key);
    buf_ += "\":";
    char tmp[48];
    switch (a.kind) {
      case TraceArg::Kind::u64:
        std::snprintf(tmp, sizeof(tmp), "%" PRIu64, a.u);
        buf_ += tmp;
        break;
      case TraceArg::Kind::f64:
        std::snprintf(tmp, sizeof(tmp), "%.12g", a.d);
        buf_ += tmp;
        break;
      case TraceArg::Kind::str:
        buf_ += '"';
        appendEscaped(a.s);
        buf_ += '"';
        break;
      case TraceArg::Kind::boolean:
        buf_ += a.b ? "true" : "false";
        break;
    }
}

void
Tracer::end()
{
    buf_ += '}';
    maybeFlush();
}

void
Tracer::maybeFlush()
{
    if (buf_.size() < flushAt_)
        return;
    std::fwrite(buf_.data(), 1, buf_.size(), file_);
    buf_.clear();
}

void
Tracer::nameTrack(Track track, const char *name)
{
    if (isView()) {
        out_->nameTrack(shift(track), (trackPrefix_ + name).c_str());
        return;
    }
    if (finished_ || level_ == TraceLevel::off)
        return;
    begin(track, "thread_name", "M");
    appendArgs({TraceArg::str("name", name)});
    end();
}

void
Tracer::complete(Track track, const char *name, Tick start, Tick end_tick,
                 std::initializer_list<TraceArg> args)
{
    if (isView()) {
        out_->complete(shift(track), name, start, end_tick, args);
        return;
    }
    if (finished_ || level_ == TraceLevel::off)
        return;
    fp_assert(end_tick >= start, "Tracer: negative slice duration");
    if (events_ > 0)
        buf_ += ',';
    ++events_;
    buf_ += "{\"name\":\"";
    appendEscaped(name);
    buf_ += "\",\"ph\":\"X\"";
    appendTs("ts", start);
    appendTs("dur", end_tick - start);
    char tmp[48];
    std::snprintf(tmp, sizeof(tmp), ",\"pid\":1,\"tid\":%u",
                  static_cast<unsigned>(track));
    buf_ += tmp;
    appendArgs(args);
    end();
}

void
Tracer::instant(Track track, const char *name,
                std::initializer_list<TraceArg> args)
{
    if (isView()) {
        out_->instant(shift(track), name, args);
        return;
    }
    if (finished_ || level_ == TraceLevel::off)
        return;
    begin(track, name, "i");
    buf_ += ",\"s\":\"t\"";
    appendArgs(args);
    end();
}

void
Tracer::async(Track track, const char *name, const char *ph,
              const char *cat, std::uint64_t id,
              std::initializer_list<TraceArg> args)
{
    if (isView()) {
        out_->async(shift(track), name, ph, cat, id, args);
        return;
    }
    if (finished_ || level_ == TraceLevel::off)
        return;
    begin(track, name, ph);
    buf_ += ",\"cat\":\"";
    appendEscaped(cat);
    buf_ += '"';
    char tmp[48];
    std::snprintf(tmp, sizeof(tmp), ",\"id\":%" PRIu64, id);
    buf_ += tmp;
    appendArgs(args);
    end();
}

void
Tracer::counter(Track track, const char *name, const char *series,
                double value)
{
    if (isView()) {
        out_->counter(shift(track), name, series, value);
        return;
    }
    if (finished_ || level_ == TraceLevel::off)
        return;
    begin(track, name, "C");
    appendArgs({TraceArg::real(series, value)});
    end();
}

void
Tracer::finish()
{
    if (isView() || finished_)
        return;
    finished_ = true;
    buf_ += "],\"displayTimeUnit\":\"ns\"}\n";
    std::fwrite(buf_.data(), 1, buf_.size(), file_);
    buf_.clear();
    std::fclose(file_);
    file_ = nullptr;
}

} // namespace fp::obs
