/**
 * @file
 * Fault labelling under pi-bit tracking (faults x core bridge).
 *
 * A parity-protected queue that defers via the pi machinery no
 * longer signals at detection: the deferred error is re-labelled by
 * replaying the pi propagation. False DUEs whose deferral proves
 * them harmless become benign (outcome 3); everything the machinery
 * still signals remains a DUE. This is the operational version of
 * the Figure 2 coverage numbers, applied to the sites a campaign
 * sampled: one more label on the same verdicts.
 */

#ifndef SER_CORE_TRACKED_INJECTION_HH
#define SER_CORE_TRACKED_INJECTION_HH

#include "core/pi_machine.hh"
#include "faults/campaign_engine.hh"

namespace ser
{
namespace core
{

/**
 * The outcome of an IQ site on a parity-protected queue that defers
 * detected errors at the machine's tracking level instead of
 * signalling them: the parity label, then the pi replay. The record
 * must have been classified against 'trace'.
 */
faults::Outcome labelTracked(const faults::SiteRecord &record,
                             const cpu::SimTrace &trace,
                             const PiMachine &machine);

} // namespace core
} // namespace ser

#endif // SER_CORE_TRACKED_INJECTION_HH
