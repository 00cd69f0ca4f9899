#include "logging.hh"

#include "debug.hh"

namespace ser
{

namespace logging_detail
{

std::mutex &
stderrLock()
{
    static std::mutex lock;
    return lock;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    // Failures come with context: dump the tail of the debug trace
    // ring (populated by SER_DPRINTF under SER_DEBUG_FLAGS /
    // SER_DEBUG_RING) before aborting. Hold the line lock so a
    // panicking worker's report stays contiguous.
    std::lock_guard<std::mutex> guard(stderrLock());
    debug::dumpRingTail(std::cerr);
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
