/**
 * @file
 * The three-level data-cache hierarchy of the paper's machine.
 *
 * Matches the evaluation platform of Section 5: an 8 KB L0 with
 * 2-cycle hit latency, a 256 KB L1 with 10-cycle hit latency, a 10 MB
 * L2 with 25-cycle hit latency, and main memory behind that. The
 * hierarchy is inclusive and fills all levels on the refill path.
 *
 * The returned HitLevel is what the paper's squash triggers key on:
 * an "L0 miss" trigger fires on any access served below the L0, and
 * an "L1 miss" trigger on any access served below the L1.
 */

#ifndef SER_MEMORY_HIERARCHY_HH
#define SER_MEMORY_HIERARCHY_HH

#include <memory>

#include "memory/cache.hh"
#include "sim/flat_hash.hh"
#include "sim/stats.hh"

namespace ser
{
namespace memory
{

/** Where an access was served from. */
enum class HitLevel : std::uint8_t
{
    L0,
    L1,
    L2,
    Memory,
};

/** The result of one hierarchy access. */
struct AccessResult
{
    HitLevel level;
    unsigned latency;    ///< total load-to-use latency in cycles
    bool secondary = false;  ///< hit an in-flight (MSHR) line
};

/** Parameters for the full hierarchy. */
struct HierarchyParams
{
    CacheParams l0{"l0", 8 * 1024, 64, 4, 2};
    CacheParams l1{"l1", 256 * 1024, 128, 8, 10};
    CacheParams l2{"l2", 10 * 1024 * 1024, 128, 16, 25};
    unsigned memLatency = 200;
};

/** L0 + L1 + L2 + memory. */
class CacheHierarchy : public statistics::StatGroup
{
  public:
    explicit CacheHierarchy(const HierarchyParams &params = {},
                            statistics::StatGroup *parent = nullptr);

    /**
     * Access 'addr' at time 'cycle' for a load or store: probes
     * down the hierarchy, fills every missing level, and reports
     * where the data was found plus the load-to-use latency.
     *
     * Fill timing is MSHR-like: a miss marks its L0 line in flight
     * until the data returns; accesses to an in-flight line before
     * that (including lines requested by prefetch) are secondary
     * misses that pay only the remaining latency.
     */
    AccessResult access(std::uint64_t addr, std::uint64_t cycle);

    /**
     * Prefetch at time 'cycle': starts the fill like a demand miss
     * (so the line is in flight and a demand access pays only the
     * remaining latency) but stalls nothing.
     */
    void prefetch(std::uint64_t addr, std::uint64_t cycle);

    /** Drop all cached state (between measurement regions). */
    void invalidateAll();

    const HierarchyParams &params() const { return _params; }
    const Cache &l0() const { return *_l0; }
    const Cache &l1() const { return *_l1; }
    const Cache &l2() const { return *_l2; }

  private:
    HitLevel lookupAndFill(std::uint64_t addr);
    unsigned levelLatency(HitLevel level) const;

    /** In-flight fills at L0-line granularity, in a flat
     * open-addressing table probed once per load. Stale entries are
     * dropped lazily (line indices never reach the ~0 sentinel). */
    struct Inflight
    {
        std::uint64_t ready;
        HitLevel level;  ///< where the fill is coming from
    };
    sim::FlatHashMap<Inflight> _inflight;
    std::uint64_t _inflightSweepCycle = 0;

    HierarchyParams _params;
    std::unique_ptr<Cache> _l0;
    std::unique_ptr<Cache> _l1;
    std::unique_ptr<Cache> _l2;

    statistics::Scalar statAccesses;
    statistics::Scalar statServedInflight;
    statistics::Scalar statServedL0;
    statistics::Scalar statServedL1;
    statistics::Scalar statServedL2;
    statistics::Scalar statServedMem;
    statistics::Scalar statPrefetches;
};

} // namespace memory
} // namespace ser

#endif // SER_MEMORY_HIERARCHY_HH
