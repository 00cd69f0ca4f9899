#include "spans.hh"

#include <algorithm>
#include <fstream>

#include "sim/trace_event.hh"

namespace e2e
{

std::int64_t
OpSpans::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - _epoch)
        .count();
}

int
OpSpans::open(const char *name)
{
    Span span;
    span.name = name;
    span.startNs = now();
    span.parent = _current;
    span.op = _op;
    _spans.push_back(span);
    _current = static_cast<int>(_spans.size()) - 1;
    return _current;
}

void
OpSpans::close(int index)
{
    _spans[index].endNs = now();
    _current = _spans[index].parent;
}

namespace
{

/** Nanoseconds of each span covered by its direct children. */
std::vector<std::int64_t>
childNs(const OpSpans &ops)
{
    const std::vector<Span> &spans = ops.spans();
    std::vector<std::int64_t> covered(spans.size(), 0);
    for (const Span &span : spans)
        if (span.parent >= 0)
            covered[span.parent] += span.endNs - span.startNs;
    return covered;
}

void
emit(ser::trace::TraceWriter &tw, const std::vector<Span> &spans,
     std::size_t index, std::uint32_t tid)
{
    const Span &span = spans[index];
    tw.begin(tid, span.name,
             static_cast<std::uint64_t>(span.startNs / 1000),
             {{"op", span.op}});
    for (std::size_t i = index + 1; i < spans.size(); ++i)
        if (spans[i].parent == static_cast<int>(index))
            emit(tw, spans, i, tid);
    tw.end(tid, static_cast<std::uint64_t>(span.endNs / 1000));
}

} // namespace

std::map<std::string, double>
selfSeconds(const OpSpans &op)
{
    std::map<std::string, double> self;
    std::vector<std::int64_t> covered = childNs(op);
    for (std::size_t i = 0; i < op.spans().size(); ++i) {
        const Span &span = op.spans()[i];
        self[span.name] += static_cast<double>(span.endNs - span.startNs -
                                               covered[i]) *
                           1e-9;
    }
    return self;
}

std::map<std::string, double>
selfSeconds(const std::vector<OpSpans> &ops)
{
    std::map<std::string, double> self;
    for (const OpSpans &op : ops)
        for (const auto &[name, seconds] : selfSeconds(op))
            self[name] += seconds;
    return self;
}

double
minChildCoverage(const std::vector<OpSpans> &ops)
{
    double lowest = 1.0;
    for (const OpSpans &op : ops) {
        std::vector<std::int64_t> covered = childNs(op);
        for (std::size_t i = 0; i < op.spans().size(); ++i) {
            const Span &span = op.spans()[i];
            std::int64_t duration = span.endNs - span.startNs;
            if (span.parent < 0 && duration > 0)
                lowest = std::min(
                    lowest, static_cast<double>(covered[i]) /
                                static_cast<double>(duration));
        }
    }
    return lowest;
}

std::uint64_t
spanCount(const std::vector<OpSpans> &ops)
{
    std::uint64_t count = 0;
    for (const OpSpans &op : ops)
        count += op.spans().size();
    return count;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const std::vector<OpSpans> *> &groups)
{
    std::vector<std::string> fragments;
    std::uint32_t pid = 1;
    for (const std::vector<OpSpans> *group : groups) {
        ser::trace::TraceWriter tw(pid++);
        for (const OpSpans &op : *group) {
            auto tid = static_cast<std::uint32_t>(op.op());
            for (std::size_t i = 0; i < op.spans().size(); ++i)
                if (op.spans()[i].parent < 0)
                    emit(tw, op.spans(), i, tid);
        }
        fragments.push_back(tw.str());
    }
    std::ofstream os(path);
    ser::trace::writeChromeTrace(os, fragments);
    return static_cast<bool>(os);
}

} // namespace e2e
