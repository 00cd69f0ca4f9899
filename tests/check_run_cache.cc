/**
 * @file
 * Standalone checker for the run-cache manifest counters, used by the
 * run_cache_counts ctest case:
 *
 *     check_run_cache manifest.json runs_per_benchmark
 *
 * Asserts that a cache-enabled sweep manifest proves the memoization
 * worked: for every benchmark, every cache section (sim, deadness,
 * avf, and campaign for runs with a campaign block) records exactly
 * one "miss" and runs_per_benchmark - 1 "hit"s — i.e. each benchmark
 * was simulated, analyzed and sampled exactly once no matter how many
 * sweep points (or protections) rode on it.
 *
 * Exits 0 when the counts hold, 1 with a message otherwise.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "sim/json.hh"

using ser::json::JsonValue;

namespace
{

const JsonValue *
member(const JsonValue &obj, const std::string &name)
{
    if (!obj.isObject())
        return nullptr;
    for (const auto &m : obj.object)
        if (m.first == name)
            return &m.second;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: check_run_cache manifest.json "
                     "runs_per_benchmark\n";
        return 2;
    }
    const unsigned long per_bench = std::strtoul(argv[2], nullptr, 10);

    std::ifstream in(argv[1]);
    if (!in) {
        std::cerr << "check_run_cache: cannot open '" << argv[1]
                  << "'\n";
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonValue manifest;
    std::string err;
    if (!ser::json::parseJson(buf.str(), &manifest, &err)) {
        std::cerr << "check_run_cache: '" << argv[1]
                  << "' does not parse: " << err << "\n";
        return 1;
    }

    const JsonValue *runs = member(manifest, "runs");
    if (!runs || !runs->isArray() || runs->array.empty()) {
        std::cerr << "check_run_cache: no runs in '" << argv[1]
                  << "'\n";
        return 1;
    }

    // benchmark -> section -> {misses, hits}
    const char *sections[] = {"sim", "deadness", "avf", "campaign"};
    std::map<std::string, std::map<std::string,
                                   std::pair<unsigned, unsigned>>>
        counts;
    for (const JsonValue &run : runs->array) {
        const JsonValue *bench = member(run, "benchmark");
        const JsonValue *rc = member(run, "run_cache");
        if (!bench || !bench->isString() || !rc) {
            std::cerr << "check_run_cache: run without benchmark / "
                         "run_cache members\n";
            return 1;
        }
        for (const char *section : sections) {
            if (std::string(section) == "campaign" &&
                !member(run, "campaign"))
                continue;
            const JsonValue *outcome = member(*rc, section);
            if (!outcome || !outcome->isString()) {
                std::cerr << "check_run_cache: run_cache." << section
                          << " missing\n";
                return 1;
            }
            auto &c = counts[bench->string][section];
            if (outcome->string == "miss")
                ++c.first;
            else if (outcome->string == "hit")
                ++c.second;
            else {
                std::cerr << "check_run_cache: " << bench->string
                          << " run_cache." << section << " is '"
                          << outcome->string
                          << "' (cache disabled or bypassed?)\n";
                return 1;
            }
        }
    }

    // Every run reported sim, deadness and avf (or we returned
    // above); campaign is here only for benchmarks that sampled.
    bool ok = true;
    for (const auto &bench : counts) {
        for (const auto &[section, count] : bench.second) {
            const auto [misses, hits] = count;
            if (misses != 1 || hits != per_bench - 1) {
                std::cerr << "check_run_cache: " << bench.first
                          << " " << section << ": " << misses
                          << " misses + " << hits
                          << " hits, want 1 + " << (per_bench - 1)
                          << "\n";
                ok = false;
            }
        }
    }
    if (!ok)
        return 1;

    std::cout << "check_run_cache: every benchmark's cache sections "
                 "computed exactly once ("
              << counts.size() << " benchmarks x " << per_bench
              << " sweep points)\n";
    return 0;
}
