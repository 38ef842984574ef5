/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic() flags simulator bugs (aborts); fatal() flags user/configuration
 * errors (throws so tests can observe them); warn()/inform() report status.
 */

#ifndef DYNASPAM_COMMON_LOGGING_HH
#define DYNASPAM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dynaspam
{

/** Exception thrown by fatal() for user-level configuration errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail
{

inline void
appendAll(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
appendAll(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    appendAll(os, rest...);
}

} // namespace detail

/**
 * Report a condition that indicates a simulator bug and abort.
 * @param args message fragments, streamed together
 */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    std::ostringstream os;
    detail::appendAll(os, args...);
    std::fprintf(stderr, "panic: %s\n", os.str().c_str());
    std::abort();
}

/**
 * Report a user-level error (bad configuration, invalid argument).
 * Throws FatalError so callers and tests can handle it.
 */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    std::ostringstream os;
    detail::appendAll(os, args...);
    throw FatalError(os.str());
}

/** Warn about suspicious-but-survivable behaviour. */
template <typename... Args>
void
warn(const Args &...args)
{
    std::ostringstream os;
    detail::appendAll(os, args...);
    std::fprintf(stderr, "warn: %s\n", os.str().c_str());
}

/** Informative status message. */
template <typename... Args>
void
inform(const Args &...args)
{
    std::ostringstream os;
    detail::appendAll(os, args...);
    std::fprintf(stdout, "info: %s\n", os.str().c_str());
    // Daemons report their bound ports here; a redirected stdout must
    // show the line now, not when the buffer fills.
    std::fflush(stdout);
}

} // namespace dynaspam

#endif // DYNASPAM_COMMON_LOGGING_HH
