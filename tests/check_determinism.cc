/**
 * @file
 * Standalone determinism checker for the parallel suite runner, used
 * by the determinism_validate ctest case (and handy interactively):
 *
 *     check_determinism A.json B.json [A.extra B.extra]...
 *
 * Asserts that two manifests produced by the same bench invocation at
 * different --jobs values (or across --no-cycle-skip / --no-run-cache
 * settings) are identical except for wall-clock phase
 * timings and run-cache outcomes: the documents must match member for
 * member once every value inside a "timings_seconds" or "run_cache"
 * object is masked (the phase *keys*
 * must still match exactly — parallel runs must record the same
 * phases, just not the same durations). Any number of further file pairs (captured
 * stdout, --trace-events output, interval .jsonl series) must each
 * be byte-identical.
 *
 * Exits 0 when the artifacts agree, 1 with a message otherwise.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "manifest_mask.hh"
#include "sim/json.hh"

using ser::json::JsonValue;
using ser::tests::jsonEqual;
using ser::tests::maskTimings;

namespace
{

bool
load(const char *path, JsonValue *out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "check_determinism: cannot open '" << path
                  << "'\n";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string err;
    if (!ser::json::parseJson(buf.str(), out, &err)) {
        std::cerr << "check_determinism: '" << path
                  << "' does not parse: " << err << "\n";
        return false;
    }
    return true;
}

bool
slurp(const char *path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "check_determinism: cannot open '" << path
                  << "'\n";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3 || argc % 2 == 0) {
        std::cerr << "usage: check_determinism A.json B.json "
                     "[A.extra B.extra]...\n";
        return 2;
    }

    JsonValue a, b;
    if (!load(argv[1], &a) || !load(argv[2], &b))
        return 1;
    maskTimings(a);
    maskTimings(b);
    std::string where;
    if (!jsonEqual(a, b, "manifest", &where)) {
        std::cerr << "check_determinism: '" << argv[1] << "' and '"
                  << argv[2]
                  << "' differ beyond wall-clock timings at "
                  << where << "\n";
        return 1;
    }

    // Any further pairs (stdout captures, --trace-events output)
    // must be byte-identical.
    for (int i = 3; i + 1 < argc; i += 2) {
        std::string out_a, out_b;
        if (!slurp(argv[i], &out_a) || !slurp(argv[i + 1], &out_b))
            return 1;
        if (out_a != out_b) {
            std::cerr << "check_determinism: captures '" << argv[i]
                      << "' and '" << argv[i + 1]
                      << "' are not byte-identical\n";
            return 1;
        }
    }

    std::cout << "check_determinism: artifacts agree\n";
    return 0;
}
