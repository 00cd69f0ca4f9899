/**
 * @file
 * Graceful-shutdown metrics flush: make an interrupted sweep leave a
 * final --metrics-out snapshot behind.
 *
 * Before this, the exposition file was written only by the atexit
 * handler and every 64 sweep runs — a Ctrl-C (SIGINT) or a job
 * scheduler's SIGTERM killed the process with up to an epoch of
 * telemetry lost, because terminating signals never unwind through
 * atexit.
 *
 * Signal-handler rules make the obvious fix (call writeSnapshot()
 * from a handler) undefined: the registry takes mutexes and
 * allocates. Instead, installShutdownFlush() *blocks* SIGINT/SIGTERM
 * in the calling thread — BenchOptions::parse runs before any worker
 * thread spawns, so every later thread inherits the mask —
 * and parks a dedicated watcher thread in sigwait(2). The watcher
 * runs in a normal thread context, so it can safely take the
 * registry's locks, write the snapshot with the usual temp+rename
 * discipline, and then re-raise the signal with default disposition
 * so the process still dies with the correct wait status
 * (e.g. 128+15 for SIGTERM).
 */

#ifndef SER_HARNESS_SHUTDOWN_HH
#define SER_HARNESS_SHUTDOWN_HH

namespace ser
{
namespace harness
{

/** Arm the SIGINT/SIGTERM metrics flush (idempotent; called by
 * BenchOptions::parse when --metrics-out is armed). Must be called
 * from the main thread before worker threads are spawned so the
 * signal mask is inherited process-wide. */
void installShutdownFlush();

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_SHUTDOWN_HH
