/**
 * @file
 * The live sweep progress reporter (--progress): one updating
 * stderr line while a SuiteRunner sweep executes —
 *
 *     [table1_squashing] 42/78 runs 54% | 12.3 runs/s | cache 85% hit | eta 3s
 *
 * Design constraints:
 *
 *  - stderr only, never stdout: the determinism fixtures
 *    byte-compare captured stdout, and a human watching a sweep
 *    usually redirects stdout to a file anyway;
 *  - every redraw holds the process-wide stderr line lock
 *    (sim/logging.hh), the same lock warn()/SER_DPRINTF hold per
 *    line, so a progress redraw never interleaves characters with a
 *    concurrent worker's diagnostics — and a warn line simply
 *    overwrites the progress line, which the next redraw repaints;
 *  - redraws are throttled (default 10 Hz) and claimed with a
 *    compare-exchange, so many workers finishing at once cost one
 *    redraw, not one each.
 *
 * The reporter is a process-wide singleton armed by BenchOptions
 * (--progress); SuiteRunner drives it, so every suite bench gets
 * the line without per-main wiring. table2, which fans out with a
 * bare parallelFor, drives it directly.
 */

#ifndef SER_HARNESS_PROGRESS_HH
#define SER_HARNESS_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace ser
{
namespace harness
{

/** Live progress over a fixed number of runs; see file comment.
 * Callers drive it unconditionally: recording the sweep state costs
 * a few atomics per run, and only drawing is gated on --progress. */
class Progress
{
  public:
    static Progress &instance();

    /** Arm (--progress). Disabled reporters record state but never
     * paint. */
    void setEnabled(bool on) { _enabled.store(on); }
    bool enabled() const { return _enabled.load(); }

    /** Start a sweep of `total` runs. `label` prefixes the line
     * (conventionally the bench name). Resets the clock and the
     * campaign CI state. */
    void beginSweep(std::size_t total, std::string label = "");

    /** One run finished; redraws the line (throttled). */
    void runCompleted();

    /** Sweep done: paint the final state and release the line. */
    void endSweep();

    /** One campaign batch folded: remember the worst tracked CI
     * half-width (and the --ci-target it races toward) so the line
     * shows distance-to-stop, and redraw (throttled). Campaigns on
     * concurrent workers race benignly here — the line shows the
     * most recent batch, which is all a live ticker promises. */
    void campaignTick(double ci_half_width, double ci_target);

  private:
    Progress() = default;

    void draw(bool final);
    void maybeDraw();

    std::atomic<bool> _enabled{false};
    std::atomic<std::uint64_t> _total{0};
    std::atomic<std::uint64_t> _done{0};
    std::atomic<std::int64_t> _lastDrawNs{0};
    /** Campaign CI state in parts per billion; ~0 = no campaign has
     * ticked this sweep. Integer atomics keep the hot path lock-free. */
    static constexpr std::uint64_t kNoCi = ~0ull;
    std::atomic<std::uint64_t> _ciHalfWidthPpb{kNoCi};
    std::atomic<std::uint64_t> _ciTargetPpb{0};
    /** Guards _start/_label, which beginSweep() writes and draw()
     * reads on whichever worker thread claims the redraw. */
    std::mutex _metaLock;
    std::chrono::steady_clock::time_point _start;
    std::string _label;
};

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_PROGRESS_HH
