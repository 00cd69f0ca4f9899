#include "predictor.hh"

#include <bit>

#include "sim/logging.hh"

namespace ser
{
namespace branch
{

GsharePredictor::GsharePredictor(std::size_t entries,
                                 unsigned history_bits,
                                 statistics::StatGroup *parent)
    : StatGroup("gshare", parent),
      statLookups(this, "lookups", "direction predictions made"),
      statCorrect(this, "correct", "predictions resolved correct"),
      statIncorrect(this, "incorrect", "predictions resolved wrong")
{
    if (entries == 0 || !std::has_single_bit(entries))
        SER_FATAL("gshare: table size {} not a power of two", entries);
    if (history_bits == 0 || history_bits > 63)
        SER_FATAL("gshare: bad history width {}", history_bits);
    _table.assign(entries, 1);  // weakly not-taken
    _historyMask = (1ULL << history_bits) - 1;
}

Lookup
GsharePredictor::predict(std::uint64_t pc)
{
    ++statLookups;
    Lookup lookup;
    lookup.ghr = _ghr;
    lookup.taken = _table[index(pc, _ghr)] >= 2;
    // Speculative history update; repaired on mispredict.
    _ghr = ((_ghr << 1) | (lookup.taken ? 1 : 0)) & _historyMask;
    return lookup;
}

void
GsharePredictor::update(std::uint64_t pc, bool taken,
                        const Lookup &lookup)
{
    // 2-bit saturating counter; >= 2 means predict taken.
    std::uint8_t &ctr = _table[index(pc, lookup.ghr)];
    if (taken)
        ctr = ctr < 3 ? ctr + 1 : 3;
    else
        ctr = ctr > 0 ? ctr - 1 : 0;
}

void
GsharePredictor::restoreHistory(const Lookup &lookup, bool taken)
{
    _ghr = ((lookup.ghr << 1) | (taken ? 1 : 0)) & _historyMask;
}

void
GsharePredictor::recordResolution(bool correct)
{
    if (correct)
        ++statCorrect;
    else
        ++statIncorrect;
}

double
GsharePredictor::accuracy() const
{
    double total = statCorrect.value() + statIncorrect.value();
    return total > 0.0 ? statCorrect.value() / total : 1.0;
}

} // namespace branch
} // namespace ser
