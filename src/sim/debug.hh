/**
 * @file
 * gem5-style per-component debug trace flags.
 *
 * Components trace with SER_DPRINTF(Flag, "fmt {}", args...). A
 * message is formatted only when its flag is selected, so disabled
 * tracing costs one mask test per call site and the default output
 * of every binary is unchanged.
 *
 * Two selection masks exist:
 *  - the *print* mask sends messages to stderr as they happen
 *    (SER_DEBUG_FLAGS=Trigger,IQ, or --debug Trigger,IQ on any
 *    bench or example binary);
 *  - the *capture* mask records messages into a bounded ring buffer
 *    only (SER_DEBUG_RING=...), whose tail SER_PANIC dumps, so
 *    crashes come with recent context without per-cycle spam.
 * Printing implies capturing.
 *
 * Flag names are case-insensitive; "All" selects everything.
 */

#ifndef SER_SIM_DEBUG_HH
#define SER_SIM_DEBUG_HH

#include <atomic>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "logging.hh"

namespace ser
{
namespace debug
{

/** One flag per traceable component. */
enum class Flag : unsigned
{
    Pipeline,  ///< pipeline phases: run, squash, window, drain
    IQ,        ///< per-instruction queue events (verbose)
    Trigger,   ///< exposure trigger decisions and squashes
    Pi,        ///< pi-bit tracking machine transitions
    PET,       ///< PET-buffer lookups and coverage decisions
    Cache,     ///< cache-hierarchy accesses below the L0
    NumFlags
};

constexpr unsigned numFlags = static_cast<unsigned>(Flag::NumFlags);

const char *flagName(Flag flag);

/** Bitmasks of selected flags (exposed for the fast-path test).
 * Atomic so SuiteRunner workers can trace concurrently; the hot
 * path below uses relaxed loads, which cost the same mask test as
 * the plain globals did. */
extern std::atomic<unsigned> printMask;
extern std::atomic<unsigned> captureMask;

/** True when the flag is selected for printing or capture. */
inline bool
enabled(Flag flag)
{
    return ((printMask.load(std::memory_order_relaxed) |
             captureMask.load(std::memory_order_relaxed)) >>
            static_cast<unsigned>(flag)) & 1u;
}

/**
 * Parse a comma-separated flag list ("Trigger,IQ", "all", "") into a
 * bitmask; returns false (mask untouched) on an unknown name.
 */
bool parseFlags(const std::string &csv, unsigned *mask);

/** Select flags for printing (and capture); fatal on unknown names. */
void setFlags(const std::string &csv);

/** Select flags for ring capture only; fatal on unknown names. */
void setCaptureFlags(const std::string &csv);

/** Route one already-formatted message (print and/or capture).
 * Thread-safe: printing holds the process-wide stderr line lock and
 * the ring is mutex-protected, so concurrent workers never interleave
 * characters within a line or race on the ring slots. */
void record(Flag flag, const std::string &msg);

/** Resize (and clear) the ring buffer. */
void setRingCapacity(std::size_t entries);

/** Drop all captured messages. */
void clearRing();

/** Captured messages, oldest first. */
std::vector<std::string> ringContents();

/** Print the most recent captured messages, oldest first. */
void dumpRingTail(std::ostream &os, std::size_t max_entries = 64);

} // namespace debug
} // namespace ser

/** Trace a component event when its debug flag is selected. */
#define SER_DPRINTF(flag, ...)                                         \
    do {                                                               \
        if (::ser::debug::enabled(::ser::debug::Flag::flag)) {         \
            ::ser::debug::record(                                      \
                ::ser::debug::Flag::flag,                              \
                ::ser::logging_detail::format(__VA_ARGS__));           \
        }                                                              \
    } while (0)

#endif // SER_SIM_DEBUG_HH
