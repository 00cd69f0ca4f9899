#include "trigger.hh"

#include "sim/logging.hh"

namespace ser
{
namespace core
{

MissTriggerPolicy::MissTriggerPolicy(TriggerLevel level,
                                     TriggerAction action,
                                     statistics::StatGroup *parent)
    : StatGroup("trigger", parent), _level(level), _action(action),
      statFired(this, "fired", "trigger activations"),
      statIgnored(this, "ignored", "loads below the trigger level")
{
}

bool
MissTriggerPolicy::fires(memory::HitLevel served) const
{
    using memory::HitLevel;
    switch (_level) {
      case TriggerLevel::None:
        return false;
      case TriggerLevel::L0Miss:
        return served != HitLevel::L0;
      case TriggerLevel::L1Miss:
        return served == HitLevel::L2 || served == HitLevel::Memory;
      case TriggerLevel::L2Miss:
        return served == HitLevel::Memory;
    }
    return false;
}

cpu::ExposureDecision
MissTriggerPolicy::onLoadServiced(memory::HitLevel level,
                                  std::uint64_t detect_cycle,
                                  std::uint64_t fill_cycle)
{
    cpu::ExposureDecision d;
    // No point acting on a miss whose data is already (about to be)
    // back — e.g. a secondary miss caught late in its fill.
    if (!fires(level) || fill_cycle <= detect_cycle) {
        ++statIgnored;
        return d;
    }
    ++statFired;
    if (_action == TriggerAction::Squash ||
        _action == TriggerAction::SquashThrottle)
        d.squash = true;
    if (_action == TriggerAction::Throttle ||
        _action == TriggerAction::SquashThrottle)
        d.throttleUntilCycle = fill_cycle;
    return d;
}

std::unique_ptr<MissTriggerPolicy>
makeTriggerPolicy(const std::string &level, const std::string &action,
                  statistics::StatGroup *parent)
{
    TriggerLevel lvl;
    if (level == "none")
        lvl = TriggerLevel::None;
    else if (level == "l0")
        lvl = TriggerLevel::L0Miss;
    else if (level == "l1")
        lvl = TriggerLevel::L1Miss;
    else if (level == "l2")
        lvl = TriggerLevel::L2Miss;
    else
        SER_FATAL("unknown trigger level '{}'", level);

    TriggerAction act;
    if (action == "squash")
        act = TriggerAction::Squash;
    else if (action == "throttle")
        act = TriggerAction::Throttle;
    else if (action == "both")
        act = TriggerAction::SquashThrottle;
    else
        SER_FATAL("unknown trigger action '{}'", action);

    return std::make_unique<MissTriggerPolicy>(lvl, act, parent);
}

} // namespace core
} // namespace ser
