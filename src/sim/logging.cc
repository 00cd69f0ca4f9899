#include "logging.hh"

#include <mutex>

namespace ser
{

namespace logging_detail
{

namespace
{

/** The process-wide stderr line lock. panic, fatal and warn hold
 * it for their whole message so concurrent SuiteRunner workers
 * never interleave characters. */
std::mutex &
stderrLock()
{
    static std::mutex lock;
    return lock;
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    // Hold the line lock so a panicking worker's report stays
    // contiguous.
    std::lock_guard<std::mutex> guard(stderrLock());
    std::cerr << "panic: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> guard(stderrLock());
        std::cerr << "fatal: " << msg << "\n  @ " << file << ":"
                  << line << std::endl;
    }
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> guard(stderrLock());
    std::cerr << "warn: " << msg << std::endl;
}

} // namespace logging_detail

} // namespace ser
