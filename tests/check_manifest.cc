/**
 * @file
 * Standalone validator for run-manifest JSON files, used by the
 * manifest_validate and output_* ctest cases (and handy
 * interactively: `check_manifest out.json [MIN_RUNS]`). Verifies the
 * schema the bench and example binaries emit via
 * harness::BenchOutput:
 *
 *  - the manifest holds at least MIN_RUNS runs (default 0);
 *  - the document parses and carries schema_version 1;
 *  - every run has the config, seed, per-phase timings, AVF block
 *    and stats tree the manifest promises; every timing is >= 0,
 *    and a run with a campaign or attribution block has that phase
 *    timed;
 *  - when an intervals file is advertised, every JSONL line parses,
 *    the epochs chain (each epoch starts where the previous ended)
 *    and, per run, the per-epoch committed counts sum exactly to the
 *    run's committed_insts — the invariant that makes the time
 *    series trustworthy.
 *
 * Exits 0 when the manifest is valid, 1 with a message otherwise.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.hh"

using ser::json::JsonValue;

namespace
{

int failures = 0;

void
fail(const std::string &what)
{
    std::cerr << "check_manifest: " << what << "\n";
    ++failures;
}

/** Fetch a member of the given kind, reporting a failure if absent. */
const JsonValue *
need(const JsonValue &obj, const std::string &name,
     JsonValue::Kind kind, const std::string &where)
{
    const JsonValue *v = obj.find(name);
    if (!v) {
        fail(where + ": missing member '" + name + "'");
        return nullptr;
    }
    if (v->kind != kind) {
        fail(where + ": member '" + name + "' has the wrong type");
        return nullptr;
    }
    return v;
}

bool
checkRun(const JsonValue &run, std::size_t index,
         std::string *benchmark, std::uint64_t *committed,
         std::uint64_t *epochs)
{
    std::ostringstream tag;
    tag << "runs[" << index << "]";
    const std::string where = tag.str();

    const JsonValue *bench =
        need(run, "benchmark", JsonValue::Kind::String, where);
    if (bench)
        *benchmark = bench->string;
    need(run, "seed", JsonValue::Kind::Number, where);
    need(run, "ipc", JsonValue::Kind::Number, where);
    need(run, "window_cycles", JsonValue::Kind::Number, where);

    const JsonValue *committed_v =
        need(run, "committed_insts", JsonValue::Kind::Number, where);
    if (committed_v)
        *committed = static_cast<std::uint64_t>(committed_v->number);

    const JsonValue *config =
        need(run, "config", JsonValue::Kind::Object, where);
    if (config) {
        need(*config, "dynamic_target", JsonValue::Kind::Number,
             where + ".config");
        need(*config, "warmup_insts", JsonValue::Kind::Number,
             where + ".config");
        need(*config, "trigger_level", JsonValue::Kind::String,
             where + ".config");
        need(*config, "interval_cycles", JsonValue::Kind::Number,
             where + ".config");
    }

    const JsonValue *timings =
        need(run, "timings_seconds", JsonValue::Kind::Object, where);
    if (timings) {
        const JsonValue *total =
            need(*timings, "total", JsonValue::Kind::Number,
                 where + ".timings_seconds");
        if (total && total->number <= 0.0)
            fail(where + ": total phase time is not positive");
        for (const auto &[phase, value] : timings->object)
            if (!value.isNumber() || value.number < 0.0)
                fail(where + ".timings_seconds." + phase +
                     " is not a number >= 0");
        if (!timings->find("pipeline"))
            fail(where + ": no 'pipeline' phase timing");
        // A block the run carries only when its phase ran must come
        // with that phase's timing.
        for (const char *phase : {"campaign", "attribution"})
            if (run.find(phase) && !timings->find(phase))
                fail(where + ": '" + phase + "' block but no '" +
                     phase + "' phase timing");
    }

    const JsonValue *avf =
        need(run, "avf", JsonValue::Kind::Object, where);
    if (avf) {
        for (const char *k : {"sdc_avf", "true_due_avf",
                              "false_due_avf", "idle_fraction"}) {
            const JsonValue *v = need(*avf, k,
                                      JsonValue::Kind::Number,
                                      where + ".avf");
            if (v && (v->number < 0.0 || v->number > 1.0))
                fail(where + ".avf." + k + " outside [0, 1]");
        }
    }

    const JsonValue *stats = run.find("stats");
    if (!stats)
        fail(where + ": missing member 'stats'");
    else if (!stats->isObject() && !stats->isNull())
        fail(where + ": 'stats' is neither an object nor null");

    const JsonValue *intervals =
        need(run, "intervals", JsonValue::Kind::Object, where);
    if (intervals) {
        const JsonValue *n =
            need(*intervals, "epochs", JsonValue::Kind::Number,
                 where + ".intervals");
        if (n)
            *epochs = static_cast<std::uint64_t>(n->number);
    }
    return failures == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2 && argc != 3) {
        std::cerr << "usage: check_manifest MANIFEST.json [MIN_RUNS]\n";
        return 2;
    }
    const std::size_t min_runs =
        argc == 3 ? std::stoul(argv[2]) : std::size_t{0};

    std::ifstream in(argv[1]);
    if (!in) {
        fail(std::string("cannot open '") + argv[1] + "'");
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    JsonValue doc;
    std::string err;
    if (!ser::json::parseJson(buf.str(), &doc, &err)) {
        fail("manifest does not parse: " + err);
        return 1;
    }
    if (!doc.isObject()) {
        fail("manifest root is not an object");
        return 1;
    }

    const JsonValue *version =
        need(doc, "schema_version", JsonValue::Kind::Number,
             "manifest");
    if (version && version->number != 1.0)
        fail("unknown schema_version");
    need(doc, "args", JsonValue::Kind::Object, "manifest");
    need(doc, "tables", JsonValue::Kind::Object, "manifest");

    const JsonValue *runs =
        need(doc, "runs", JsonValue::Kind::Array, "manifest");

    std::vector<std::string> run_benchmarks;
    std::vector<std::uint64_t> run_committed;
    std::vector<std::uint64_t> run_epochs;
    if (runs) {
        for (std::size_t i = 0; i < runs->array.size(); ++i) {
            std::string benchmark;
            std::uint64_t committed = 0, epochs = 0;
            checkRun(runs->array[i], i, &benchmark, &committed,
                     &epochs);
            run_benchmarks.push_back(benchmark);
            run_committed.push_back(committed);
            run_epochs.push_back(epochs);
        }
    }

    if (run_benchmarks.size() < min_runs)
        fail("manifest has " + std::to_string(run_benchmarks.size()) +
             " runs, want at least " + std::to_string(min_runs));

    const JsonValue *intervals_file = doc.find("intervals_file");
    if (intervals_file) {
        if (!intervals_file->isString()) {
            fail("'intervals_file' is not a string");
            return 1;
        }
        // The manifest names its JSONL sibling by bare file name;
        // resolve it relative to the manifest's own directory so the
        // checker works from any cwd.
        std::string jl_path = intervals_file->string;
        std::string manifest(argv[1]);
        std::size_t slash = manifest.find_last_of('/');
        if (slash != std::string::npos && jl_path.find('/') == std::string::npos)
            jl_path = manifest.substr(0, slash + 1) + jl_path;
        std::ifstream jl(jl_path);
        if (!jl) {
            fail("cannot open intervals file '" + jl_path + "'");
            return 1;
        }

        // Lines are appended in run order: the first epochs[0] lines
        // belong to runs[0], and so on. Walk them run by run and
        // check the chaining and committed-sum invariants.
        std::string line;
        std::size_t run = 0, epoch_in_run = 0;
        std::uint64_t committed_sum = 0, prev_end = 0;
        std::size_t total_lines = 0;
        while (run < run_epochs.size() && run_epochs[run] == 0)
            ++run;
        while (std::getline(jl, line)) {
            ++total_lines;
            if (line.find('\n') != std::string::npos ||
                line.empty()) {
                fail("intervals line " +
                     std::to_string(total_lines) + " is empty");
                continue;
            }
            JsonValue epoch;
            if (!ser::json::parseJson(line, &epoch, &err)) {
                fail("intervals line " +
                     std::to_string(total_lines) +
                     " does not parse: " + err);
                continue;
            }
            if (run >= run_epochs.size()) {
                fail("more interval lines than the runs advertise");
                break;
            }
            const std::string where =
                "intervals line " + std::to_string(total_lines);
            const JsonValue *bench =
                need(epoch, "benchmark", JsonValue::Kind::String,
                     where);
            if (bench && bench->string != run_benchmarks[run])
                fail(where + ": benchmark '" + bench->string +
                     "' does not match run '" +
                     run_benchmarks[run] + "'");
            const JsonValue *idx = need(
                epoch, "epoch", JsonValue::Kind::Number, where);
            if (idx && static_cast<std::size_t>(idx->number) !=
                           epoch_in_run)
                fail(where + ": epoch index out of sequence");
            const JsonValue *start = need(
                epoch, "start_cycle", JsonValue::Kind::Number,
                where);
            const JsonValue *end = need(
                epoch, "end_cycle", JsonValue::Kind::Number, where);
            if (start && end) {
                if (end->number <= start->number)
                    fail(where + ": empty or inverted epoch");
                if (epoch_in_run > 0 && start->number != prev_end)
                    fail(where + ": epoch does not start where the "
                                 "previous one ended");
                prev_end = end->number;
            }
            const JsonValue *committed = need(
                epoch, "committed", JsonValue::Kind::Number, where);
            if (committed)
                committed_sum +=
                    static_cast<std::uint64_t>(committed->number);

            ++epoch_in_run;
            if (epoch_in_run == run_epochs[run]) {
                if (committed_sum != run_committed[run])
                    fail("run '" + run_benchmarks[run] +
                         "': per-epoch committed sum " +
                         std::to_string(committed_sum) +
                         " != committed_insts " +
                         std::to_string(run_committed[run]));
                ++run;
                while (run < run_epochs.size() &&
                       run_epochs[run] == 0)
                    ++run;
                epoch_in_run = 0;
                committed_sum = 0;
            }
        }
        std::uint64_t expected_lines = 0;
        for (std::uint64_t n : run_epochs)
            expected_lines += n;
        if (total_lines != expected_lines)
            fail("intervals file has " +
                 std::to_string(total_lines) + " lines, runs " +
                 "advertise " + std::to_string(expected_lines));
        if (expected_lines == 0)
            fail("intervals file advertised but no run has epochs");
    }

    if (failures) {
        std::cerr << "check_manifest: " << failures
                  << " problem(s) in '" << argv[1] << "'\n";
        return 1;
    }
    std::cout << "check_manifest: '" << argv[1] << "' ok ("
              << run_benchmarks.size() << " runs)\n";
    return 0;
}
