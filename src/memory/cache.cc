#include "cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace ser
{
namespace memory
{

Cache::Cache(const CacheParams &params, statistics::StatGroup *parent)
    : StatGroup(params.name, parent), _params(params),
      statHits(this, "hits", "lookups that hit"),
      statMisses(this, "misses", "lookups that missed"),
      statFills(this, "fills", "lines inserted")
{
    if (_params.lineBytes == 0 ||
        !std::has_single_bit(_params.lineBytes))
        SER_FATAL("cache {}: line size {} not a power of two",
                  _params.name, _params.lineBytes);
    if (_params.assoc == 0)
        SER_FATAL("cache {}: zero associativity", _params.name);
    std::uint64_t lines = _params.sizeBytes / _params.lineBytes;
    if (lines == 0 || lines % _params.assoc != 0)
        SER_FATAL("cache {}: {} lines not divisible by assoc {}",
                  _params.name, lines, _params.assoc);
    // Set counts need not be powers of two (the paper's 10MB L2 is
    // not); setIndex uses modulo indexing.
    _numSets = lines / _params.assoc;
    // Uninitialized on purpose: setLines() zeroes a set on first
    // touch, so constructing (or checkpoint-forking a run with) a
    // large, mostly-cold cache costs O(touched sets), not O(size).
    _lines.reset(new Line[lines]);
    _touched.assign((_numSets + 63) / 64, 0);
}

Cache::Line *
Cache::setLines(std::uint64_t set)
{
    Line *base = &_lines[set * _params.assoc];
    std::uint64_t &word = _touched[set >> 6];
    std::uint64_t bit = std::uint64_t{1} << (set & 63);
    if (!(word & bit)) {
        word |= bit;
        for (unsigned w = 0; w < _params.assoc; ++w)
            base[w] = Line{0, 0, false};
    }
    return base;
}

bool
Cache::access(std::uint64_t addr)
{
    std::uint64_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    Line *base = setLines(set);
    for (unsigned w = 0; w < _params.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lruStamp = ++_stamp;
            ++statHits;
            return true;
        }
    }
    ++statMisses;
    return false;
}

bool
Cache::probe(std::uint64_t addr) const
{
    std::uint64_t set = setIndex(addr);
    if (!touched(set))
        return false;  // untouched set: all ways invalid
    std::uint64_t tag = tagOf(addr);
    const Line *base = &_lines[set * _params.assoc];
    for (unsigned w = 0; w < _params.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::fill(std::uint64_t addr)
{
    std::uint64_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    Line *base = setLines(set);
    Line *victim = &base[0];
    for (unsigned w = 0; w < _params.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lruStamp = ++_stamp;  // already present
            return;
        }
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lruStamp = ++_stamp;
    ++statFills;
}

void
Cache::invalidateAll()
{
    // Clearing the touched bitmap makes every set read as all-invalid
    // again; the stale line storage is re-zeroed on next touch.
    _touched.assign(_touched.size(), 0);
}

} // namespace memory
} // namespace ser
