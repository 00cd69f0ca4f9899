#include "attribution.hh"

#include <algorithm>

#include "isa/encoding.hh"
#include "sim/stats.hh"

namespace ser
{
namespace avf
{

namespace
{

// Residency histograms: cycle-resolution buckets up to 512 cycles;
// longer residencies land in the overflow bin (their percentiles pin
// to the range maximum, which the summary documents by construction).
constexpr double histMax = 512.0;
constexpr double histBucket = 4.0;

HistogramSummary
summarize(const statistics::Distribution &d)
{
    HistogramSummary s;
    s.count = d.count();
    s.mean = d.value();
    s.p50 = d.percentile(50);
    s.p90 = d.percentile(90);
    s.p99 = d.percentile(99);
    return s;
}

} // namespace

AttributionResult
attributeAvf(const cpu::SimTrace &trace,
             const DeadnessResult &deadness)
{
    constexpr std::uint64_t payloadBits =
        isa::encoding::payloadBits;

    AttributionResult r;

    statistics::Distribution lifetime(nullptr, "lifetime",
                                      "residency cycles", 0.0,
                                      histMax, histBucket);
    statistics::Distribution pre_read(nullptr, "pre_read",
                                      "enqueue-to-issue cycles", 0.0,
                                      histMax, histBucket);
    statistics::Distribution post_read(nullptr, "post_read",
                                       "issue-to-evict cycles", 0.0,
                                       histMax, histBucket);

    // staticIdx -> slot in r.pcs. staticIdx is a dense program
    // index, so a direct-index table replaces the std::map this used
    // to rebuild per call; r.pcs keeps first-encounter order until
    // the ACE sort below, exactly as before.
    constexpr std::uint32_t noSlot = ~0u;
    std::vector<std::uint32_t> slot(trace.program->size(), noSlot);

    const StaticClassTable table =
        buildStaticClassTable(*trace.program);
    for (const auto &inc : trace.incarnations) {
        IncarnationClass c =
            classifyIncarnation(trace, deadness, inc, table);
        const std::uint64_t pre = c.preCycles();
        const std::uint64_t post = c.postCycles();
        const std::uint64_t resident = c.residentCycles();
        if (!resident)
            continue;  // outside the measurement window

        if (slot[inc.staticIdx] == noSlot) {
            slot[inc.staticIdx] =
                static_cast<std::uint32_t>(r.pcs.size());
            r.pcs.emplace_back();
            r.pcs.back().staticIdx = inc.staticIdx;
        }
        PcAttribution &pc = r.pcs[slot[inc.staticIdx]];

        ++pc.incarnations;
        if (inc.flags & cpu::incCommitted)
            ++pc.committedIncs;
        pc.residencyCycles += resident;
        lifetime.sample(static_cast<double>(resident));

        if (!c.issued) {
            pc.squashedUnread += pre * payloadBits;
            continue;
        }

        pre_read.sample(static_cast<double>(pre));
        post_read.sample(static_cast<double>(post));
        pc.exAce += post * payloadBits;
        pc.ace += pre * c.aceRate;
        pc.aceRefined += pre * c.aceRefinedRate;
        pc.unAceRead += pre * c.unAceReadRate;
    }

    for (const PcAttribution &pc : r.pcs) {
        r.totalAce += pc.ace;
        r.totalUnAceRead += pc.unAceRead;
        r.totalExAce += pc.exAce;
        r.totalSquashedUnread += pc.squashedUnread;
        r.totalResidencyCycles += pc.residencyCycles;
        r.totalIncarnations += pc.incarnations;
    }

    std::sort(r.pcs.begin(), r.pcs.end(),
              [](const PcAttribution &a, const PcAttribution &b) {
                  if (a.ace != b.ace)
                      return a.ace > b.ace;
                  return a.staticIdx < b.staticIdx;
              });

    r.lifetime = summarize(lifetime);
    r.preRead = summarize(pre_read);
    r.postRead = summarize(post_read);
    return r;
}

} // namespace avf
} // namespace ser
