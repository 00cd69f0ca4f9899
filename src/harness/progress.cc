#include "progress.hh"

#include <cinttypes>
#include <cstdio>
#include <mutex>

#include "harness/run_cache.hh"
#include "sim/logging.hh"

namespace ser
{
namespace harness
{

namespace
{

constexpr std::int64_t kRedrawIntervalNs = 100'000'000;  // 10 Hz

std::string
formatEta(double seconds)
{
    if (seconds < 0 || seconds > 86400 * 9)
        return "?";
    std::uint64_t s = static_cast<std::uint64_t>(seconds + 0.5);
    char buf[32];
    if (s >= 3600)
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "h%02" PRIu64 "m",
                      static_cast<std::uint64_t>(s / 3600),
                      static_cast<std::uint64_t>(s / 60 % 60));
    else if (s >= 60)
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "m%02" PRIu64 "s",
                      static_cast<std::uint64_t>(s / 60),
                      static_cast<std::uint64_t>(s % 60));
    else
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "s",
                      static_cast<std::uint64_t>(s));
    return buf;
}

} // namespace

Progress &
Progress::instance()
{
    static Progress *progress = new Progress;
    return *progress;
}

void
Progress::beginSweep(std::size_t total, std::string label)
{
    _total.store(total);
    _done.store(0);
    _lastDrawNs.store(0);
    _ciHalfWidthPpb.store(kNoCi);
    _ciTargetPpb.store(0);
    {
        std::lock_guard<std::mutex> guard(_metaLock);
        _start = std::chrono::steady_clock::now();
        _label = std::move(label);
    }
    if (enabled())
        draw(false);
}

void
Progress::maybeDraw()
{
    if (!enabled())
        return;
    // Claim the redraw with a CAS on the last-draw stamp: a burst of
    // completions costs one redraw, and losers skip straight back to
    // work.
    std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    std::int64_t last = _lastDrawNs.load();
    if (now_ns - last < kRedrawIntervalNs ||
        !_lastDrawNs.compare_exchange_strong(last, now_ns))
        return;
    draw(false);
}

void
Progress::runCompleted()
{
    _done.fetch_add(1);
    maybeDraw();
}

void
Progress::campaignTick(double ci_half_width, double ci_target)
{
    auto to_ppb = [](double v) {
        if (v < 0)
            v = 0;
        if (v > 1)
            v = 1;
        return static_cast<std::uint64_t>(v * 1e9);
    };
    _ciHalfWidthPpb.store(to_ppb(ci_half_width));
    _ciTargetPpb.store(to_ppb(ci_target));
    maybeDraw();
}

void
Progress::endSweep()
{
    if (!enabled() || _total.load() == 0)
        return;
    draw(true);
}

void
Progress::draw(bool final)
{
    std::uint64_t done = _done.load();
    std::uint64_t total = _total.load();
    std::string prefix;
    double elapsed;
    {
        std::lock_guard<std::mutex> guard(_metaLock);
        elapsed = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - _start).count();
        if (!_label.empty())
            prefix = "[" + _label + "] ";
    }
    double rate = elapsed > 0 ? done / elapsed : 0.0;
    double eta = rate > 0 ? (total - done) / rate : -1.0;

    RunCache &cache = RunCache::instance();
    RunCache::Counters sim = cache.simCounters();
    RunCache::Counters dead = cache.deadnessCounters();
    RunCache::Counters avf = cache.avfCounters();
    std::uint64_t hits = sim.hits + dead.hits + avf.hits;
    std::uint64_t lookups =
        hits + sim.misses + dead.misses + avf.misses;

    // Campaign distance-to-stop: worst tracked CI half-width from
    // the most recent folded batch vs the --ci-target it must fall
    // below (arrow omitted when no target is set).
    char ci_seg[48] = "";
    std::uint64_t half_width_ppb = _ciHalfWidthPpb.load();
    if (half_width_ppb != kNoCi) {
        double half_width =
            static_cast<double>(half_width_ppb) * 1e-9;
        double target =
            static_cast<double>(_ciTargetPpb.load()) * 1e-9;
        if (target > 0)
            std::snprintf(ci_seg, sizeof(ci_seg),
                          " | ci %.2f%%>%.2f%%", 100.0 * half_width,
                          100.0 * target);
        else
            std::snprintf(ci_seg, sizeof(ci_seg), " | ci %.2f%%",
                          100.0 * half_width);
    }

    std::string eta_str = final ? "-" : formatEta(eta);
    char line[320];
    int n = std::snprintf(
        line, sizeof(line),
        "\r%s%" PRIu64 "/%" PRIu64 " runs %3.0f%% | %.1f runs/s"
        " | cache %3.0f%% hit%s | eta %s",
        prefix.c_str(),
        done, total, total ? 100.0 * done / total : 0.0, rate,
        lookups ? 100.0 * hits / lookups : 0.0, ci_seg,
        eta_str.c_str());
    if (n < 0)
        return;

    std::lock_guard<std::mutex> guard(
        logging_detail::stderrLock());
    std::fputs(line, stderr);
    // Pad out any longer previous paint, then either park the
    // cursor at the line start (live) or release the line (final).
    std::fputs("        ", stderr);
    if (final)
        std::fputc('\n', stderr);
    std::fflush(stderr);
}

} // namespace harness
} // namespace ser
