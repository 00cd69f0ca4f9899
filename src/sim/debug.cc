#include "debug.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>

#include "config.hh"

namespace ser
{
namespace debug
{

std::atomic<unsigned> printMask{0};
std::atomic<unsigned> captureMask{0};

namespace
{

/** Bounded message ring; writes wrap once full. Guarded by
 * ringLock: SuiteRunner workers record concurrently. */
struct Ring
{
    std::vector<std::string> slots;
    std::size_t next = 0;   ///< next slot to write
    std::size_t count = 0;  ///< live entries (<= slots.size())

    Ring() : slots(256) {}
} ring;

std::mutex ringLock;

std::string
lowercase(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Read SER_DEBUG_FLAGS / SER_DEBUG_RING once at program start. */
struct EnvInit
{
    EnvInit()
    {
        if (const char *flags = std::getenv("SER_DEBUG_FLAGS"))
            setFlags(flags);
        if (const char *capture = std::getenv("SER_DEBUG_RING"))
            setCaptureFlags(capture);
    }
} envInit;

} // namespace

const char *
flagName(Flag flag)
{
    switch (flag) {
      case Flag::Pipeline: return "Pipeline";
      case Flag::IQ: return "IQ";
      case Flag::Trigger: return "Trigger";
      case Flag::Pi: return "Pi";
      case Flag::PET: return "PET";
      case Flag::Cache: return "Cache";
      case Flag::NumFlags: break;
    }
    return "?";
}

bool
parseFlags(const std::string &csv, unsigned *mask)
{
    unsigned out = 0;
    for (const std::string &item : splitList(csv)) {
        std::string want = lowercase(item);
        if (want == "all" || want == "1") {
            out = (1u << numFlags) - 1;
            continue;
        }
        if (want == "none" || want == "0")
            continue;
        bool found = false;
        for (unsigned f = 0; f < numFlags; ++f) {
            if (lowercase(flagName(static_cast<Flag>(f))) == want) {
                out |= 1u << f;
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    *mask = out;
    return true;
}

void
setFlags(const std::string &csv)
{
    unsigned mask = 0;
    if (!parseFlags(csv, &mask))
        SER_FATAL("debug: unknown flag in '{}' (known: Pipeline, IQ, "
                  "Trigger, Pi, PET, Cache, All)", csv);
    printMask.store(mask, std::memory_order_relaxed);
}

void
setCaptureFlags(const std::string &csv)
{
    unsigned mask = 0;
    if (!parseFlags(csv, &mask))
        SER_FATAL("debug: unknown flag in '{}' (known: Pipeline, IQ, "
                  "Trigger, Pi, PET, Cache, All)", csv);
    captureMask.store(mask, std::memory_order_relaxed);
}

void
record(Flag flag, const std::string &msg)
{
    std::string line =
        std::string("[") + flagName(flag) + "] " + msg;
    unsigned bit = 1u << static_cast<unsigned>(flag);
    if (printMask.load(std::memory_order_relaxed) & bit) {
        // One lock per line: concurrent workers' messages interleave
        // by whole lines, never by characters.
        std::lock_guard<std::mutex> guard(
            logging_detail::stderrLock());
        std::cerr << line << "\n";
    }
    if ((printMask.load(std::memory_order_relaxed) |
         captureMask.load(std::memory_order_relaxed)) & bit) {
        std::lock_guard<std::mutex> guard(ringLock);
        ring.slots[ring.next] = std::move(line);
        ring.next = (ring.next + 1) % ring.slots.size();
        ring.count = std::min(ring.count + 1, ring.slots.size());
    }
}

void
setRingCapacity(std::size_t entries)
{
    if (entries == 0)
        entries = 1;
    std::lock_guard<std::mutex> guard(ringLock);
    ring.slots.assign(entries, {});
    ring.next = 0;
    ring.count = 0;
}

void
clearRing()
{
    std::lock_guard<std::mutex> guard(ringLock);
    for (auto &slot : ring.slots)
        slot.clear();
    ring.next = 0;
    ring.count = 0;
}

std::vector<std::string>
ringContents()
{
    std::lock_guard<std::mutex> guard(ringLock);
    std::vector<std::string> out;
    out.reserve(ring.count);
    std::size_t cap = ring.slots.size();
    std::size_t first = (ring.next + cap - ring.count) % cap;
    for (std::size_t i = 0; i < ring.count; ++i)
        out.push_back(ring.slots[(first + i) % cap]);
    return out;
}

void
dumpRingTail(std::ostream &os, std::size_t max_entries)
{
    std::vector<std::string> all = ringContents();
    if (all.empty())
        return;
    std::size_t start =
        all.size() > max_entries ? all.size() - max_entries : 0;
    os << "--- debug trace ring (last " << (all.size() - start)
       << " of " << all.size() << " captured) ---\n";
    for (std::size_t i = start; i < all.size(); ++i)
        os << all[i] << "\n";
    os << "--- end debug trace ring ---\n";
}

} // namespace debug
} // namespace ser
