/**
 * @file
 * Parameters of the in-order pipeline model.
 *
 * Defaults follow the paper's Section 5 machine: an Itanium(R)2-like
 * in-order IA64 processor with a 25-cycle pipeline, 6-wide issue, a
 * 64-entry instruction queue, and the 8KB/256KB/10MB cache hierarchy.
 * The 25 pipeline stages are modelled as: frontEndDepth cycles from
 * fetch to instruction-queue insert, the queue itself, then issue,
 * execution (per-class latencies) and in-order commit.
 */

#ifndef SER_CPU_PARAMS_HH
#define SER_CPU_PARAMS_HH

#include <atomic>
#include <cstdint>

#include "isa/isa.hh"
#include "memory/hierarchy.hh"

namespace ser
{
namespace cpu
{

namespace detail
{
/** Backing store for the process-wide cycle-skip default; see
 * setDefaultCycleSkip(). */
inline std::atomic<bool> cycle_skip_default{true};
} // namespace detail

/** Process-wide default for PipelineParams::cycleSkip. The benches
 * construct their ExperimentConfigs with default PipelineParams, so
 * the --no-cycle-skip escape hatch flips this before any config is
 * built (mirroring how --no-run-cache disables the process-wide run
 * cache). */
inline bool
defaultCycleSkip()
{
    return detail::cycle_skip_default.load(std::memory_order_relaxed);
}

inline void
setDefaultCycleSkip(bool on)
{
    detail::cycle_skip_default.store(on, std::memory_order_relaxed);
}

/** All knobs of the pipeline model. */
struct PipelineParams
{
    unsigned fetchWidth = 6;
    unsigned enqueueWidth = 6;
    unsigned issueWidth = 6;
    unsigned iqEntries = 64;

    /** Cycles from fetch to instruction-queue insert. */
    unsigned frontEndDepth = 18;

    /** Cycles an entry stays occupied after issue (replay window);
     * this residency is the paper's Ex-ACE state. */
    unsigned evictDelay = 4;

    /** Cycles from branch issue to misprediction detection. */
    unsigned branchResolveDelay = 2;

    /** Extra cycles before fetch restarts after a redirect. */
    unsigned redirectDelay = 1;

    /** Fetch bubble after a predicted-taken branch (front ends lose
     * cycles redirecting even on correct predictions). */
    unsigned takenBranchBubble = 2;

    /** Gshare direction predictor: table entries, history bits. */
    std::size_t predictorEntries = 16384;
    unsigned historyBits = 12;
    std::size_t btbEntries = 4096;
    std::size_t rasEntries = 32;

    memory::HierarchyParams hierarchy;

    // Execution latencies per functional-unit class (cycles).
    unsigned latIntAlu = 1;
    unsigned latIntMul = 4;
    unsigned latIntDiv = 16;
    unsigned latFpAdd = 4;
    unsigned latFpMul = 4;
    unsigned latFpDiv = 16;
    unsigned latFpCvt = 4;

    /** Stop fetching new (oracle) instructions after this many. */
    std::uint64_t maxInsts = 1'000'000;

    /** Hard safety bound on simulated cycles (0 = derived). */
    std::uint64_t maxCycles = 0;

    /** Event-driven idle-cycle fast-forward in run(): when a tick
     * provably cannot change state until a known future cycle, jump
     * there in one step (accounting the skipped span exactly). Every
     * simulated result is byte-identical either way — this is purely
     * a simulator-speed knob, with --no-cycle-skip as the escape
     * hatch. */
    bool cycleSkip = defaultCycleSkip();

    /** Execution latency for an op class. */
    unsigned latencyFor(isa::OpClass oc) const;
};

} // namespace cpu
} // namespace ser

#endif // SER_CPU_PARAMS_HH
