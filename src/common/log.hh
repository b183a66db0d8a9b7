/**
 * @file
 * Error and status reporting in the gem5 tradition: panic() for
 * simulator bugs, fatal() for user errors, inform() for non-fatal
 * status messages.
 */

#ifndef SMTHILL_COMMON_LOG_HH
#define SMTHILL_COMMON_LOG_HH

#include <sstream>
#include <string>

namespace smthill
{

/**
 * Abort the process; call for conditions that indicate a bug in the
 * simulator itself (never the user's fault).
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Exit with an error code; call for conditions caused by invalid user
 * input or configuration.
 */
[[noreturn]] void fatal(const std::string &msg);

/** Print an informational message to stderr; simulation continues. */
void inform(const std::string &msg);

namespace detail
{

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    formatInto(os, rest...);
}

} // namespace detail

/** Build a message string by streaming all arguments. */
template <typename... Args>
std::string
msg(const Args &...args)
{
    std::ostringstream os;
    detail::formatInto(os, args...);
    return os.str();
}

} // namespace smthill

#endif // SMTHILL_COMMON_LOG_HH
