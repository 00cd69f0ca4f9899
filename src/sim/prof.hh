/**
 * @file
 * Self-profiling primitives: hierarchical scoped timers and
 * lock-free per-thread counters (the gem5-stats-flavoured telemetry
 * layer under harness::MetricsRegistry).
 *
 * Two instruments, both compiled in permanently and switched at
 * runtime (prof::setEnabled, flipped on by --metrics-out):
 *
 *  - prof::Counter — a named monotonic counter. Writes go to a
 *    per-thread slot (a relaxed atomic the owning thread alone
 *    stores to), so concurrent SuiteRunner workers never contend;
 *    snapshot() merges the per-thread slots by simple summation,
 *    which is order-independent for integers, so the merged value
 *    is identical for any worker count or schedule.
 *
 *  - prof::ScopedTimer (SER_PROF_SCOPE) — an RAII wall-clock timer,
 *    and the only one in the simulator. Timers nest: each thread
 *    keeps a path of the scopes it has open, and a scope's sample is
 *    accumulated under the full hierarchical path
 *    ("run/pipeline/tick_loop"), so the profile reads like a call
 *    tree. Call *counts* per path are deterministic; elapsed seconds
 *    are wall-clock observations and are masked by the metrics
 *    determinism checker. A timer may also be given a prof::Phases
 *    sink: it then times even with profiling off and appends its
 *    (name, seconds) pair to the sink, which is how a run manifest's
 *    timings_seconds and the scope profile read one clock.
 *
 * Disabled cost: one relaxed atomic load and a branch per
 * instrument site (the counter fast path), and the same per
 * sink-less scope — the budget DESIGN.md §10 sets is < 2% on
 * BM_TimingPipeline, enforced by the perf_regression_gate ctest.
 *
 * Naming convention: dotted lowercase ("deadness.commits_scanned").
 * Names under "speed." are *simulator-speed observations* — values
 * that legitimately differ across --no-cycle-skip or machine load
 * (tick counts, skipped cycles) — and are value-masked, like
 * wall-clock seconds, when metrics snapshots are byte-compared.
 */

#ifndef SER_SIM_PROF_HH
#define SER_SIM_PROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ser
{
namespace prof
{

namespace detail
{
extern std::atomic<bool> enabledFlag;
} // namespace detail

/** Master switch. Off by default; BenchOptions flips it on when
 * --metrics-out asks for telemetry. */
void setEnabled(bool on);

inline bool
enabled()
{
    return detail::enabledFlag.load(std::memory_order_relaxed);
}

/** Hard cap on distinct counters (per-thread buffers are fixed-size
 * so writes never reallocate under a reader). Interning beyond it is
 * a simulator bug. */
constexpr std::size_t maxCounters = 256;

/**
 * A named monotonic counter. Cheap to construct (one interning
 * lookup); intended as a function-local static at the instrument
 * site:
 *
 *     static prof::Counter ticks("speed.pipeline.ticks",
 *                                "tick-loop iterations");
 *     ticks.add(n);
 *
 * add() is a no-op while profiling is disabled, but the name is
 * interned at construction either way, so every counter the binary
 * can emit appears (possibly as 0) in every snapshot — snapshots
 * stay structurally identical across runs that exercise different
 * paths at different times.
 */
class Counter
{
  public:
    explicit Counter(std::string_view name,
                     std::string_view desc = "");

    void add(std::uint64_t v);
    void operator+=(std::uint64_t v) { add(v); }
    void operator++() { add(1); }

    std::size_t id() const { return _id; }

  private:
    std::size_t _id;
};

/** (phase name, seconds) pairs in the order their timers closed:
 * one run's phase timings (the manifest's timings_seconds). */
using Phases = std::vector<std::pair<std::string, double>>;

/**
 * RAII hierarchical timer; prefer the SER_PROF_SCOPE macro. While
 * profiling is enabled the scope's name is appended to the calling
 * thread's open-scope path and one {calls, seconds} sample is
 * accumulated under the full path at destruction. With a sink, the
 * timer runs whether or not profiling is enabled and appends
 * (name, seconds) to the sink at destruction — the same seconds the
 * scope tree receives. `name` must outlive the timer (a literal).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(std::string_view name,
                         Phases *sink = nullptr);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    std::string_view _name;
    Phases *_sink;
    bool _inTree;
    std::size_t _parentLen = 0;
    std::chrono::steady_clock::time_point _start;
};

struct CounterSample
{
    std::string name;
    std::string desc;
    std::uint64_t value = 0;
};

struct ScopeSample
{
    std::string path;
    std::uint64_t calls = 0;
    double seconds = 0.0;
};

/** Every interned counter and every scope path seen so far, sorted
 * by name/path (so emission order never depends on interning order,
 * which can vary with worker scheduling). */
struct Snapshot
{
    std::vector<CounterSample> counters;
    std::vector<ScopeSample> scopes;
};

/**
 * Merge the retired-thread totals with every live thread's buffer
 * (relaxed loads — each slot has a single writer) and the scope
 * accumulator. Safe to call from any thread at any time; a sample
 * racing the snapshot lands in this snapshot or the next, never
 * torn.
 */
Snapshot snapshot();

/** Zero every counter and drop every scope sample (tests). Interned
 * counter names survive — they are the schema, not the data. */
void reset();

} // namespace prof
} // namespace ser

#define SER_PROF_CONCAT_(a, b) a##b
#define SER_PROF_CONCAT(a, b) SER_PROF_CONCAT_(a, b)

/** Time the enclosing scope under the hierarchical path `name`:
 * SER_PROF_SCOPE("avf") or, to also append the phase to a
 * prof::Phases sink, SER_PROF_SCOPE("avf", &phases). */
#define SER_PROF_SCOPE(...)                                            \
    ::ser::prof::ScopedTimer SER_PROF_CONCAT(_ser_prof_scope_,         \
                                             __LINE__)(__VA_ARGS__)

#endif // SER_SIM_PROF_HH
