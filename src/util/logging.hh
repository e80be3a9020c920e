/**
 * @file
 * Error and status reporting helpers, following the gem5 convention:
 *
 *  - panic():  an internal invariant was violated (a simulator bug);
 *              aborts so a core dump / debugger can inspect state.
 *  - fatal():  the user asked for something impossible (bad
 *              configuration); exits with status 1.
 *
 * All functions accept printf-style format strings.
 */

#ifndef FP_UTIL_LOGGING_HH
#define FP_UTIL_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace fp
{

/**
 * Thrown by panic()/fatal() instead of terminating the process while
 * a ScopedRecoverableFailures guard is live on the calling thread.
 * Carries the formatted message including the source location.
 */
class SimFailure : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII guard: while alive, fp_assert/fp_panic/fp_fatal on this thread
 * throw SimFailure instead of abort()/exit(1). Sweep workers install
 * one per point so a failing configuration produces an error record
 * instead of killing every other in-flight run. Guards nest; the
 * previous mode is restored on destruction.
 */
class ScopedRecoverableFailures
{
  public:
    ScopedRecoverableFailures();
    ~ScopedRecoverableFailures();
    ScopedRecoverableFailures(const ScopedRecoverableFailures &) =
        delete;
    ScopedRecoverableFailures &
    operator=(const ScopedRecoverableFailures &) = delete;

  private:
    bool prev_;
};

/** True iff failures on this thread currently throw SimFailure. */
bool recoverableFailuresEnabled();

/** Print "panic: ..." with source location and abort(). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Print "fatal: ..." and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace fp

#define fp_panic(...) ::fp::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fp_fatal(...) ::fp::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/**
 * Invariant check that stays on in release builds. Use for conditions
 * that indicate simulator bugs; the cost is negligible next to the
 * event loop.
 */
#define fp_assert(cond, ...)                                          \
    do {                                                              \
        if (!(cond)) {                                                \
            ::fp::panicImpl(__FILE__, __LINE__, __VA_ARGS__);         \
        }                                                             \
    } while (0)

#endif // FP_UTIL_LOGGING_HH
