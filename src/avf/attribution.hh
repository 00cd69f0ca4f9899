/**
 * @file
 * Per-PC AVF attribution (observability layer).
 *
 * The run-level AvfResult says *how vulnerable* the instruction queue
 * is; this fold says *which static instructions* are responsible.
 * It re-walks the incarnation records through the exact same
 * classification routine computeAvf() uses (avf::classifyIncarnation)
 * and charges every bit-cycle class to the incarnation's static PC,
 * so the per-PC ACE totals sum *exactly* to AvfResult::ace — no
 * approximation, no rounding drift.
 *
 * On top of the per-PC totals it derives:
 *  - an ACE-share ranking ("AVF hotspots": which handful of static
 *    instructions contribute most of the queue's SDC AVF);
 *  - residency-lifetime histograms (whole residency, pre-read and
 *    post-read phases) summarized as count/mean/p50/p90/p99, using
 *    statistics::Distribution's interpolated percentiles.
 *
 * Results are plain value types (unlike Distribution, which is
 * pinned to its StatGroup) so the harness can move them into run
 * artifacts and serialize them into the JSON manifest.
 */

#ifndef SER_AVF_ATTRIBUTION_HH
#define SER_AVF_ATTRIBUTION_HH

#include <cstdint>
#include <vector>

#include "avf/avf.hh"
#include "avf/deadness.hh"
#include "cpu/trace.hh"

namespace ser
{
namespace avf
{

/** Count/mean/percentile summary of one residency histogram. */
struct HistogramSummary
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/** Bit-cycle totals charged to one static instruction. */
struct PcAttribution
{
    std::uint32_t staticIdx = 0;

    std::uint64_t incarnations = 0;  ///< queue residencies
    std::uint64_t committedIncs = 0; ///< residencies that committed
    std::uint64_t residencyCycles = 0;  ///< clipped entry-cycles

    // Bit-cycles, same classes as AvfResult.
    std::uint64_t ace = 0;
    std::uint64_t aceRefined = 0;
    std::uint64_t unAceRead = 0;
    std::uint64_t exAce = 0;
    std::uint64_t squashedUnread = 0;
};

/** Per-PC AVF attribution for one run. */
struct AttributionResult
{
    /** One entry per static PC with at least one residency, sorted
     * by ACE bit-cycles descending (ties by static index, so the
     * order is deterministic). */
    std::vector<PcAttribution> pcs;

    // Run totals (each the exact sum of the per-PC columns, and
    // totalAce == AvfResult::ace for the same trace).
    std::uint64_t totalAce = 0;
    std::uint64_t totalUnAceRead = 0;
    std::uint64_t totalExAce = 0;
    std::uint64_t totalSquashedUnread = 0;
    std::uint64_t totalResidencyCycles = 0;
    std::uint64_t totalIncarnations = 0;

    /** Residency-lifetime histograms, in cycles per incarnation. */
    HistogramSummary lifetime;  ///< enqueue -> evict
    HistogramSummary preRead;   ///< enqueue -> issue (issued only)
    HistogramSummary postRead;  ///< issue -> evict (Ex-ACE phase)

    /** This PC's share of the run's ACE bit-cycles, in [0, 1]. */
    double aceShare(const PcAttribution &pc) const
    {
        return totalAce ? static_cast<double>(pc.ace) /
                              static_cast<double>(totalAce)
                        : 0.0;
    }
};

/** Fold a run's trace + deadness labels into per-PC attribution. */
AttributionResult attributeAvf(const cpu::SimTrace &trace,
                               const DeadnessResult &deadness);

} // namespace avf
} // namespace ser

#endif // SER_AVF_ATTRIBUTION_HH
