/**
 * @file
 * Standalone validator for Chrome trace-event files written by
 * --trace-events, used by the trace_events_validate ctest case (and
 * handy interactively):
 *
 *     check_trace_events TRACE.json [MIN_SQUASH_INSTANTS
 *                        [INSTANT,INSTANT,...]]
 *
 * Verifies the invariants the writer promises:
 *
 *  - the document parses with the in-tree JSON parser and carries a
 *    traceEvents array;
 *  - every event has a name, a phase, pid/tid, and (except metadata)
 *    a timestamp;
 *  - per (pid, tid) track, B/E pairs match — never an E without an
 *    open slice, never a slice left open — and timestamps never move
 *    backwards;
 *  - counter events sit on the dedicated counters track (tid 0);
 *  - at least MIN_SQUASH_INSTANTS (default 1) squash instants
 *    (trigger_squash or mispredict_squash) are present, so a trace
 *    from a squashing run demonstrably captures the squash bursts;
 *  - each instant named in the optional comma list (trigger_fire,
 *    pet_evict, ...) occurs at least once.
 *
 * Exits 0 when the trace is valid, 1 with a message otherwise.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hh"

using ser::json::JsonValue;

namespace
{

int failures = 0;

void
fail(const std::string &what)
{
    std::cerr << "check_trace_events: " << what << "\n";
    ++failures;
}

struct TrackState
{
    std::uint64_t openSlices = 0;
    double lastTs = 0.0;
    bool sawTs = false;
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc > 4) {
        std::cerr << "usage: check_trace_events TRACE.json "
                     "[MIN_SQUASH_INSTANTS [INSTANT,INSTANT,...]]\n";
        return 2;
    }
    std::uint64_t min_squashes =
        argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 1;
    std::vector<std::string> required;
    if (argc == 4) {
        std::istringstream names(argv[3]);
        for (std::string n; std::getline(names, n, ',');)
            if (!n.empty())
                required.push_back(n);
    }

    std::ifstream in(argv[1], std::ios::binary);
    if (!in) {
        fail(std::string("cannot open '") + argv[1] + "'");
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    JsonValue doc;
    std::string err;
    if (!ser::json::parseJson(buf.str(), &doc, &err)) {
        fail("trace does not parse: " + err);
        return 1;
    }
    if (!doc.isObject()) {
        fail("trace root is not an object");
        return 1;
    }
    const JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        fail("no traceEvents array");
        return 1;
    }

    std::map<std::pair<double, double>, TrackState> tracks;
    std::uint64_t squash_instants = 0;
    std::map<std::string, std::uint64_t> instants;
    std::uint64_t begins = 0, ends = 0, counters = 0;

    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &e = events->array[i];
        const std::string where =
            "traceEvents[" + std::to_string(i) + "]";
        if (!e.isObject()) {
            fail(where + ": not an object");
            continue;
        }
        const JsonValue *name = e.find("name");
        const JsonValue *ph = e.find("ph");
        const JsonValue *pid = e.find("pid");
        const JsonValue *tid = e.find("tid");
        if (!name || !name->isString() || !ph || !ph->isString() ||
            !pid || !pid->isNumber() || !tid || !tid->isNumber()) {
            fail(where + ": missing name/ph/pid/tid");
            continue;
        }
        if (ph->string == "M")
            continue;  // metadata carries no timestamp

        const JsonValue *ts = e.find("ts");
        if (!ts || !ts->isNumber()) {
            fail(where + ": '" + ph->string + "' event without ts");
            continue;
        }
        TrackState &track =
            tracks[{pid->number, tid->number}];
        if (track.sawTs && ts->number < track.lastTs)
            fail(where + ": ts moves backwards on pid " +
                 std::to_string(pid->number) + " tid " +
                 std::to_string(tid->number));
        track.lastTs = ts->number;
        track.sawTs = true;

        if (ph->string == "B") {
            ++track.openSlices;
            ++begins;
        } else if (ph->string == "E") {
            if (track.openSlices == 0)
                fail(where + ": E with no open slice");
            else
                --track.openSlices;
            ++ends;
        } else if (ph->string == "C") {
            ++counters;
            if (tid->number != 0.0)
                fail(where + ": counter off the counters track");
        } else if (ph->string == "i") {
            ++instants[name->string];
            if (name->string == "trigger_squash" ||
                name->string == "mispredict_squash")
                ++squash_instants;
        } else {
            fail(where + ": unknown phase '" + ph->string + "'");
        }
    }

    for (const auto &track : tracks) {
        if (track.second.openSlices)
            fail("pid " + std::to_string(track.first.first) +
                 " tid " + std::to_string(track.first.second) +
                 ": " + std::to_string(track.second.openSlices) +
                 " slice(s) left open");
    }
    if (begins != ends)
        fail(std::to_string(begins) + " B events vs " +
             std::to_string(ends) + " E events");
    if (begins == 0)
        fail("no duration events at all");
    if (squash_instants < min_squashes)
        fail("only " + std::to_string(squash_instants) +
             " squash instant(s), expected at least " +
             std::to_string(min_squashes));
    for (const std::string &n : required)
        if (!instants.count(n))
            fail("no '" + n + "' instant");

    if (failures) {
        std::cerr << "check_trace_events: " << failures
                  << " problem(s) in '" << argv[1] << "'\n";
        return 1;
    }
    std::cout << "check_trace_events: '" << argv[1] << "' ok ("
              << events->array.size() << " events, " << begins
              << " slices, " << squash_instants
              << " squash instants, " << counters << " counter "
              << "samples)";
    for (const std::string &n : required)
        std::cout << " " << n << "=" << instants[n];
    std::cout << "\n";
    return 0;
}
