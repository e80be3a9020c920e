#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace fp
{

namespace
{

thread_local bool recoverableFailures = false;

std::string
vstrprintf(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // anonymous namespace

ScopedRecoverableFailures::ScopedRecoverableFailures()
    : prev_(recoverableFailures)
{
    recoverableFailures = true;
}

ScopedRecoverableFailures::~ScopedRecoverableFailures()
{
    recoverableFailures = prev_;
}

bool
recoverableFailuresEnabled()
{
    return recoverableFailures;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::string full =
        strprintf("panic: %s (%s:%d)", msg.c_str(), file, line);
    if (recoverableFailures)
        throw SimFailure(full);
    std::fprintf(stderr, "%s\n", full.c_str());
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::string full =
        strprintf("fatal: %s (%s:%d)", msg.c_str(), file, line);
    if (recoverableFailures)
        throw SimFailure(full);
    std::fprintf(stderr, "%s\n", full.c_str());
    std::exit(1);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    return msg;
}

} // namespace fp
