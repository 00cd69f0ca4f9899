/**
 * @file
 * The branch direction predictor.
 *
 * In TIA64 the only conditional branch is a predicated `br`, so the
 * direction predictor predicts whether the qualifying predicate will
 * be true. The pipeline uses one predictor, gshare: 2-bit counters
 * indexed by the branch's pc XOR the global history.
 *
 * Because many predictions are in flight between lookup and
 * resolution, predict() returns a Lookup token holding the global
 * history used for the lookup; the CPU carries the token with the
 * branch and hands it back to update(). Global history is updated
 * speculatively at predict time and repaired with restoreHistory()
 * when a misprediction squashes the younger speculative updates.
 */

#ifndef SER_BRANCH_PREDICTOR_HH
#define SER_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"

namespace ser
{
namespace branch
{

/** The outcome of one direction lookup, carried with the branch. */
struct Lookup
{
    bool taken = false;       ///< the prediction
    std::uint64_t ghr = 0;    ///< global history *before* this lookup
};

/** Global-history predictor: counters indexed by pc ^ ghr. */
class GsharePredictor : public statistics::StatGroup
{
  public:
    GsharePredictor(std::size_t entries, unsigned history_bits,
                    statistics::StatGroup *parent = nullptr);

    /**
     * Predict the direction of the branch at instruction index 'pc',
     * speculatively updating the global history.
     */
    Lookup predict(std::uint64_t pc);

    /** Train with the resolved outcome of a prior lookup. */
    void update(std::uint64_t pc, bool taken, const Lookup &lookup);

    /**
     * Repair speculative history after a misprediction: the history
     * becomes the branch's pre-lookup history extended with its
     * actual direction.
     */
    void restoreHistory(const Lookup &lookup, bool taken);

    /**
     * Rewind speculative history to just *before* a lookup — used
     * when the branch itself is squashed un-issued and will be
     * re-fetched and re-predicted.
     */
    void rewindHistory(const Lookup &lookup) { _ghr = lookup.ghr; }

    std::uint64_t currentHistory() const { return _ghr; }

    /** Count the resolution of a prediction (for stats). */
    void recordResolution(bool correct);

    double accuracy() const;
    std::uint64_t mispredicts() const
    {
        return static_cast<std::uint64_t>(statIncorrect.value());
    }

  private:
    std::size_t index(std::uint64_t pc, std::uint64_t ghr) const
    {
        return (pc ^ ghr) & (_table.size() - 1);
    }
    std::vector<std::uint8_t> _table;
    std::uint64_t _ghr = 0;
    std::uint64_t _historyMask = 0;

    statistics::Scalar statLookups;
    statistics::Scalar statCorrect;
    statistics::Scalar statIncorrect;
};

} // namespace branch
} // namespace ser

#endif // SER_BRANCH_PREDICTOR_HH
