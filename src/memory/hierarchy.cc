#include "hierarchy.hh"

namespace ser
{
namespace memory
{

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               statistics::StatGroup *parent)
    : StatGroup("dcache", parent), _params(params),
      _l0(std::make_unique<Cache>(params.l0, this)),
      _l1(std::make_unique<Cache>(params.l1, this)),
      _l2(std::make_unique<Cache>(params.l2, this)),
      statAccesses(this, "accesses", "demand accesses"),
      statServedInflight(this, "served_inflight",
                         "secondary misses on in-flight lines"),
      statServedL0(this, "served_l0", "demand accesses served by L0"),
      statServedL1(this, "served_l1", "demand accesses served by L1"),
      statServedL2(this, "served_l2", "demand accesses served by L2"),
      statServedMem(this, "served_mem",
                    "demand accesses served by memory"),
      statPrefetches(this, "prefetches", "prefetch requests")
{
}

HitLevel
CacheHierarchy::lookupAndFill(std::uint64_t addr)
{
    if (_l0->access(addr))
        return HitLevel::L0;
    if (_l1->access(addr)) {
        _l0->fill(addr);
        return HitLevel::L1;
    }
    if (_l2->access(addr)) {
        _l1->fill(addr);
        _l0->fill(addr);
        return HitLevel::L2;
    }
    _l2->fill(addr);
    _l1->fill(addr);
    _l0->fill(addr);
    return HitLevel::Memory;
}

unsigned
CacheHierarchy::levelLatency(HitLevel level) const
{
    switch (level) {
      case HitLevel::L0: return _params.l0.hitLatency;
      case HitLevel::L1: return _params.l1.hitLatency;
      case HitLevel::L2: return _params.l2.hitLatency;
      case HitLevel::Memory: return _params.memLatency;
    }
    return 0;
}

AccessResult
CacheHierarchy::access(std::uint64_t addr, std::uint64_t cycle)
{
    ++statAccesses;
    std::uint64_t line = addr / _params.l0.lineBytes;

    // Periodically drop completed fills so the map stays small.
    if (cycle >= _inflightSweepCycle) {
        _inflight.eraseIf([cycle](std::uint64_t, const Inflight &f) {
            return f.ready <= cycle;
        });
        _inflightSweepCycle = cycle + 4 * _params.memLatency;
    }

    if (const Inflight *f = _inflight.find(line)) {
        if (f->ready > cycle) {
            // Secondary miss: the line was already requested (by a
            // demand miss or a prefetch); wait out the remainder.
            // This is still a miss at the original level — squash
            // triggers see it as such.
            ++statServedInflight;
            unsigned remaining =
                static_cast<unsigned>(f->ready - cycle);
            lookupAndFill(addr);  // keep replacement state warm
            return {f->level,
                    std::max(remaining, _params.l0.hitLatency),
                    true};
        }
        _inflight.erase(line);
    }

    HitLevel level = lookupAndFill(addr);
    unsigned latency = levelLatency(level);
    switch (level) {
      case HitLevel::L0: ++statServedL0; break;
      case HitLevel::L1: ++statServedL1; break;
      case HitLevel::L2: ++statServedL2; break;
      case HitLevel::Memory: ++statServedMem; break;
    }
    if (level != HitLevel::L0)
        _inflight[line] = {cycle + latency, level};
    return {level, latency};
}

void
CacheHierarchy::prefetch(std::uint64_t addr, std::uint64_t cycle)
{
    ++statPrefetches;
    std::uint64_t line = addr / _params.l0.lineBytes;
    if (_inflight.contains(line))
        return;  // already on its way
    if (_l0->probe(addr))
        return;  // already resident
    HitLevel level = lookupAndFill(addr);
    if (level != HitLevel::L0)
        _inflight[line] = {cycle + levelLatency(level), level};
}

void
CacheHierarchy::invalidateAll()
{
    _l0->invalidateAll();
    _l1->invalidateAll();
    _l2->invalidateAll();
}

} // namespace memory
} // namespace ser
