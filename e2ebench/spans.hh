/**
 * @file
 * In-memory span recording for the benchmark's traced pass.
 *
 * Every op (one design point of one surrogate, one campaign, or one
 * setup build) owns an OpSpans recorder: a root span covering the
 * whole op and one child span per call into a simulator layer. A
 * recorder is touched only by the thread running its op, so ops on
 * different workers never share state. Spans stay in memory and are
 * written out once, at the end, as a Chrome trace (one track per op)
 * that loads in ui.perfetto.dev.
 *
 * Per-layer numbers are self times: a span's duration minus the part
 * its direct children cover.
 */

#ifndef E2EBENCH_SPANS_HH
#define E2EBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** One timed interval of one op. */
struct Span
{
    const char *name = "";     ///< static string: "op", "cpu.run", ...
    std::int64_t startNs = 0;  ///< since the recorder's epoch
    std::int64_t endNs = 0;
    int parent = -1;           ///< index in the op's spans; -1 = root
    std::uint64_t op = 0;
};

/** The spans of one op, in the order they were opened. */
class OpSpans
{
  public:
    OpSpans(std::uint64_t op, Clock::time_point epoch)
        : _op(op), _epoch(epoch)
    {}

    /** Open a span under the innermost open one; returns its index. */
    int open(const char *name);

    /** Close the span opened as 'index' (must be the innermost). */
    void close(int index);

    const std::vector<Span> &spans() const { return _spans; }
    std::uint64_t op() const { return _op; }

  private:
    std::int64_t now() const;

    std::uint64_t _op;
    Clock::time_point _epoch;
    std::vector<Span> _spans;
    int _current = -1;
};

/** Opens a span for the enclosing scope; a null recorder records
 * nothing (the untraced path). */
class Scope
{
  public:
    Scope(OpSpans *rec, const char *name)
        : _rec(rec), _index(rec ? rec->open(name) : -1)
    {}
    ~Scope()
    {
        if (_rec)
            _rec->close(_index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    OpSpans *_rec;
    int _index;
};

/** Self seconds per span name within one op. */
std::map<std::string, double> selfSeconds(const OpSpans &op);

/** Self seconds per span name, summed over every op. */
std::map<std::string, double>
selfSeconds(const std::vector<OpSpans> &ops);

/** Smallest share of a root span covered by its direct children,
 * over every op (1 when there are no ops). */
double minChildCoverage(const std::vector<OpSpans> &ops);

/** Total number of spans recorded. */
std::uint64_t spanCount(const std::vector<OpSpans> &ops);

/** Write every op's spans as one Chrome trace document, one track
 * (tid) per op, timestamps in microseconds. Returns false on an I/O
 * failure. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const std::vector<OpSpans> *> &
                          groups);

} // namespace e2e

#endif // E2EBENCH_SPANS_HH
