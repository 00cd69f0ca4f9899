/**
 * @file
 * Logging and error-reporting helpers for the simulator.
 *
 * Follows the gem5 convention: panic() for internal simulator bugs
 * (aborts), fatal() for user errors such as bad configuration (clean
 * exit), warn() for status messages that never stop the run.
 */

#ifndef SER_SIM_LOGGING_HH
#define SER_SIM_LOGGING_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

namespace ser
{

namespace logging_detail
{

/** Format a brace-free printf-lite message: each "{}" in fmt is
 * replaced by the next argument, streamed via operator<<. */
inline void
formatTo(std::ostream &os, std::string_view fmt)
{
    os << fmt;
}

template <typename T, typename... Rest>
void
formatTo(std::ostream &os, std::string_view fmt, const T &first,
         const Rest &...rest)
{
    auto pos = fmt.find("{}");
    if (pos == std::string_view::npos) {
        os << fmt;
        return;
    }
    os << fmt.substr(0, pos) << first;
    formatTo(os, fmt.substr(pos + 2), rest...);
}

template <typename... Args>
std::string
format(std::string_view fmt, const Args &...args)
{
    std::ostringstream os;
    formatTo(os, fmt, args...);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace logging_detail

} // namespace ser

/** Report an internal simulator bug and abort. */
#define SER_PANIC(...)                                                 \
    ::ser::logging_detail::panicImpl(                                  \
        __FILE__, __LINE__, ::ser::logging_detail::format(__VA_ARGS__))

/** Report an unrecoverable user/configuration error and exit(1). */
#define SER_FATAL(...)                                                 \
    ::ser::logging_detail::fatalImpl(                                  \
        __FILE__, __LINE__, ::ser::logging_detail::format(__VA_ARGS__))

/** Report a suspicious but survivable condition. */
#define SER_WARN(...)                                                  \
    ::ser::logging_detail::warnImpl(                                   \
        ::ser::logging_detail::format(__VA_ARGS__))

#endif // SER_SIM_LOGGING_HH
