/**
 * @file
 * The output path of every bench and example main: tables on stdout,
 * and the artifacts the options ask for.
 *
 * A manifest (--json PATH) captures everything needed to interpret
 * (and re-run) an experiment: the binary's arguments, each run's
 * configuration and generator seed, per-phase wall-clock timings,
 * the full statistics tree, the derived AVF/false-DUE metrics, and
 * every printed table. When interval sampling is on, the per-epoch
 * time series (IPC, queue occupancy, squash counts, and the
 * per-epoch ACE-cycle fold) is written as a sibling JSONL file —
 * '<manifest>.intervals.jsonl' — one JSON object per epoch per run.
 *
 * Layout:
 *
 *   {
 *     "schema_version": 1,
 *     "args": { "key": "value", ... },
 *     "tables": { "name": {"headers": [...], "rows": [[...]]} },
 *     "runs": [ { benchmark, seed, config, ipc, timings_seconds,
 *                 avf, false_due, stats, intervals }, ... ],
 *     "run_cache": { ... },
 *     "intervals_file": "out.intervals.jsonl"   // when sampling
 *   }
 */

#ifndef SER_HARNESS_MANIFEST_HH
#define SER_HARNESS_MANIFEST_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_options.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"

namespace ser
{
namespace harness
{

/**
 * The --topn hotspot table of one run: its top-N static PCs by ACE
 * bit-cycles, in AttributionResult::pcs order, with rank, PC, static
 * index, every PcAttribution bit-cycle and residency count, the ACE
 * share and its running sum, and the disassembly.
 */
Table hotspotTable(const RunArtifacts &run, std::size_t topn);

/**
 * The one output object of a bench or example main, built from its
 * parsed options (which it reads until finish(), so they must
 * outlive it):
 *
 *   harness::BenchOutput out(opts);
 *   for (...) runner.submit(program, out.stamp(cfg));
 *   auto runs = runner.run();
 *   out.print("name", table);
 *   out.finish(runs);
 */
class BenchOutput
{
  public:
    explicit BenchOutput(const BenchOptions &opts) : _opts(opts) {}

    /**
     * Apply the options to a config about to run: the --intervals
     * grid, a fresh trace pid under --trace-events (one per stamp,
     * so merged traces keep runs on separate process rows), the
     * --topn attribution and root-cause depth, and the campaign's
     * --jobs and --ci-target.
     */
    ExperimentConfig &stamp(ExperimentConfig &config);

    /** Print 'table' to stdout, as CSV under --csv, and record it as
     * tables.<name> in the manifest. */
    void print(const std::string &name, const Table &table);

    /**
     * The last step of a main, given every run in submission order:
     * write the merged --trace-events file, print each run's --topn
     * hotspotTable (not recorded in the manifest's tables: its
     * per-run attribution block holds the same rows), write the
     * --convergence-out series and the --json manifest. Then warn on
     * stderr about every key=value the main never read, and about
     * --trace-events / --topn when no run went through the
     * experiment harness.
     */
    void finish(const std::vector<RunArtifacts> &runs = {});

  private:
    void writeManifest(const std::vector<RunArtifacts> &runs) const;

    const BenchOptions &_opts;
    std::uint32_t _nextPid = 1;
    std::vector<std::pair<std::string, Table>> _tables;  ///< printed
};

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_MANIFEST_HH
