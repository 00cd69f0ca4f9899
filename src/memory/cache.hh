/**
 * @file
 * A set-associative cache model with true-LRU replacement.
 *
 * Timing-only: the cache tracks tags, not data (the functional
 * executor owns the data). The pipeline asks the CacheHierarchy for
 * an access latency; individual Cache objects answer hit/miss and
 * maintain replacement state.
 */

#ifndef SER_MEMORY_CACHE_HH
#define SER_MEMORY_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace ser
{
namespace memory
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 8 * 1024;
    std::uint64_t lineBytes = 64;
    unsigned assoc = 4;
    unsigned hitLatency = 2;  ///< cycles, load-to-use at this level
};

/** One level of tag storage with LRU replacement. */
class Cache : public statistics::StatGroup
{
  public:
    Cache(const CacheParams &params,
          statistics::StatGroup *parent = nullptr);

    /**
     * Look up 'addr'; on a hit, refresh LRU state. Does not allocate
     * on a miss — call fill() for that (the hierarchy decides fill
     * policy). Returns true on hit.
     */
    bool access(std::uint64_t addr);

    /** Tag check with no side effects (no LRU update, no stats). */
    bool probe(std::uint64_t addr) const;

    /** Insert the line holding 'addr', evicting the LRU way. */
    void fill(std::uint64_t addr);

    /** Drop every line. */
    void invalidateAll();

    const CacheParams &params() const { return _params; }
    std::uint64_t numSets() const { return _numSets; }

    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(statHits.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(statMisses.value());
    }

  private:
    /** Deliberately trivial (no member initializers): line storage is
     * allocated uninitialized and a set's lines are first zeroed when
     * its _touched bit is set. A short run over a large cache (the
     * paper's 10MB L2) then never pays for the cold capacity. */
    struct Line
    {
        std::uint64_t tag;
        std::uint64_t lruStamp;
        bool valid;
    };

    std::uint64_t lineAddr(std::uint64_t addr) const
    {
        return addr / _params.lineBytes;
    }
    std::uint64_t setIndex(std::uint64_t addr) const
    {
        return lineAddr(addr) % _numSets;
    }
    std::uint64_t tagOf(std::uint64_t addr) const
    {
        return lineAddr(addr) / _numSets;
    }

    /** The set's lines, zero-initializing them on first touch. */
    Line *setLines(std::uint64_t set);

    bool touched(std::uint64_t set) const
    {
        return (_touched[set >> 6] >>
                (set & 63)) & 1;
    }

    CacheParams _params;
    std::uint64_t _numSets;
    /** numSets * assoc, set-major; garbage until touched. */
    std::unique_ptr<Line[]> _lines;
    /** One bit per set: its lines have been initialized since the
     * last invalidateAll(). An untouched set is all-invalid. */
    std::vector<std::uint64_t> _touched;
    std::uint64_t _stamp = 0;

    statistics::Scalar statHits;
    statistics::Scalar statMisses;
    statistics::Scalar statFills;
};

} // namespace memory
} // namespace ser

#endif // SER_MEMORY_CACHE_HH
