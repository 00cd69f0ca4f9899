/**
 * @file
 * Trigger/action policies for exposure reduction (paper Section 3.1).
 *
 * A trigger is an event that presages a long stall — here, a demand
 * load being serviced below a given cache level. An action reduces
 * the exposure of valid state to strikes — here, squashing every
 * not-yet-issued instruction-queue entry (refetched later), and/or
 * throttling fetch until the miss returns.
 *
 * The paper evaluates "squash on L0 load misses" and "squash on L1
 * load misses"; both are instances of MissTriggerPolicy.
 */

#ifndef SER_CORE_TRIGGER_HH
#define SER_CORE_TRIGGER_HH

#include <memory>
#include <string>

#include "cpu/hooks.hh"
#include "sim/stats.hh"

namespace ser
{
namespace core
{

/** Which miss level arms the trigger. */
enum class TriggerLevel : std::uint8_t
{
    None,    ///< never trigger (the baseline)
    L0Miss,  ///< any load serviced below the L0
    L1Miss,  ///< any load serviced below the L1
    L2Miss,  ///< any load serviced by main memory
};

/** What to do when the trigger fires. */
enum class TriggerAction : std::uint8_t
{
    Squash,         ///< flush not-yet-issued queue entries
    Throttle,       ///< stall fetch until the fill returns
    SquashThrottle, ///< both
};

/** Squash and/or throttle when a load misses past the given level. */
class MissTriggerPolicy : public cpu::ExposurePolicy,
                          public statistics::StatGroup
{
  public:
    MissTriggerPolicy(TriggerLevel level, TriggerAction action,
                      statistics::StatGroup *parent = nullptr);

    cpu::ExposureDecision
    onLoadServiced(memory::HitLevel level, std::uint64_t detect_cycle,
                   std::uint64_t fill_cycle) override;

    TriggerLevel level() const { return _level; }
    TriggerAction action() const { return _action; }

  private:
    bool fires(memory::HitLevel served) const;

    TriggerLevel _level;
    TriggerAction _action;

    statistics::Scalar statFired;
    statistics::Scalar statIgnored;
};

/** Factory from config strings ("none", "l0", "l1", "l2") and
 * ("squash", "throttle", "both"). */
std::unique_ptr<MissTriggerPolicy>
makeTriggerPolicy(const std::string &level, const std::string &action,
                  statistics::StatGroup *parent = nullptr);

} // namespace core
} // namespace ser

#endif // SER_CORE_TRIGGER_HH
