#include "manifest.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "avf/attribution.hh"
#include "core/tracking.hh"
#include "harness/build_info.hh"
#include "harness/disk_cache.hh"
#include "harness/run_cache.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/prof.hh"
#include "sim/trace_event.hh"

namespace ser
{
namespace harness
{

namespace
{

/** Emit one run, with the config it ran, as a JSON object. */
void
writeRunManifest(json::JsonWriter &jw, const RunArtifacts &run)
{
    const ExperimentConfig &config = run.config;
    jw.beginObject();
    jw.kv("benchmark", run.benchmark);
    jw.kv("seed", run.seed);

    // Which exact binary produced this run. Compile-time constants
    // (harness/build_info.hh), so determinism-fixture variants built
    // from the same tree emit identical bytes here.
    {
        const BuildInfo &build = buildInfo();
        jw.key("build_info");
        jw.beginObject();
        jw.kv("git", build.git);
        jw.kv("compiler", build.compiler);
        jw.kv("build_type", build.buildType);
        jw.kv("sanitize", build.sanitize);
        jw.endObject();
    }

    jw.key("config");
    jw.beginObject();
    jw.kv("dynamic_target", config.dynamicTarget);
    jw.kv("warmup_insts", config.warmupInsts);
    jw.kv("trigger_level", config.triggerLevel);
    jw.kv("trigger_action", config.triggerAction);
    jw.kv("pet_size", config.petSize);
    jw.kv("interval_cycles", config.intervalCycles);
    jw.kv("iq_entries", config.pipeline.iqEntries);
    jw.kv("fetch_width", config.pipeline.fetchWidth);
    jw.kv("issue_width", config.pipeline.issueWidth);
    jw.endObject();

    jw.kv("ipc", run.ipc);
    jw.kv("committed_insts", run.trace->committedInsts);
    jw.kv("window_cycles", run.avf->windowCycles);

    // Allocation observability: most in-flight instruction ids ever
    // live (deterministic — a pure function of the simulation).
    jw.kv("pool_high_water", run.poolHighWater);

    // Which sections the memoized run cache answered. These values
    // legitimately differ between cache-enabled and --no-run-cache
    // runs (and, under --jobs, with worker scheduling), so the
    // determinism checker masks them like wall-clock timings.
    jw.key("run_cache");
    jw.beginObject();
    jw.kv("sim", cacheOutcomeName(run.cacheSim));
    jw.kv("deadness", cacheOutcomeName(run.cacheDeadness));
    jw.kv("avf", cacheOutcomeName(run.cacheAvf));
    jw.kv("campaign", cacheOutcomeName(run.cacheCampaign));
    jw.endObject();

    jw.key("timings_seconds");
    jw.beginObject();
    double total = 0.0;
    for (const auto &[phase, seconds] : run.timings) {
        jw.kv(phase, seconds);
        total += seconds;
    }
    jw.kv("total", total);
    jw.endObject();

    const avf::AvfResult &avf = *run.avf;
    jw.key("avf");
    jw.beginObject();
    jw.kv("sdc_avf", avf.sdcAvf());
    jw.kv("sdc_avf_refined", avf.sdcAvfRefined());
    jw.kv("true_due_avf", avf.trueDueAvf());
    jw.kv("false_due_avf", avf.falseDueAvf());
    jw.kv("due_avf", avf.dueAvf());
    jw.kv("idle_fraction", avf.idleFraction());
    jw.kv("ex_ace_fraction", avf.exAceFraction());
    jw.key("un_ace_read");
    jw.beginObject();
    for (int i = 0; i < avf::numUnAceSources; ++i)
        jw.kv(avf::unAceSourceName(
                  static_cast<avf::UnAceSource>(i)),
              avf.unAceRead[i]);
    jw.endObject();
    jw.endObject();

    jw.key("false_due");
    jw.beginObject();
    jw.kv("base_false_due_avf", run.falseDue.baseFalseDueAvf);
    jw.kv("true_due_avf", run.falseDue.trueDueAvf);
    jw.key("residual_false_due");
    jw.beginObject();
    for (int i = 0; i < core::numTrackingLevels; ++i)
        jw.kv(core::trackingLevelName(
                  static_cast<core::TrackingLevel>(i)),
              run.falseDue.residualFalseDue[i]);
    jw.endObject();
    jw.endObject();

    if (config.attributionTopN) {
        const avf::AttributionResult &attr = run.attribution;
        auto histogram = [&](const char *key,
                             const avf::HistogramSummary &h) {
            jw.key(key);
            jw.beginObject();
            jw.kv("count", h.count);
            jw.kv("mean", h.mean);
            jw.kv("p50", h.p50);
            jw.kv("p90", h.p90);
            jw.kv("p99", h.p99);
            jw.endObject();
        };
        jw.key("attribution");
        jw.beginObject();
        jw.kv("static_pcs",
              static_cast<std::uint64_t>(attr.pcs.size()));
        jw.kv("total_ace", attr.totalAce);
        jw.kv("total_un_ace_read", attr.totalUnAceRead);
        jw.kv("total_ex_ace", attr.totalExAce);
        jw.kv("total_squashed_unread", attr.totalSquashedUnread);
        jw.kv("total_incarnations", attr.totalIncarnations);
        jw.kv("total_residency_cycles", attr.totalResidencyCycles);
        histogram("lifetime", attr.lifetime);
        histogram("pre_read", attr.preRead);
        histogram("post_read", attr.postRead);
        jw.key("hotspots");
        jw.beginArray();
        std::size_t n = std::min<std::size_t>(config.attributionTopN,
                                              attr.pcs.size());
        for (std::size_t i = 0; i < n; ++i) {
            const avf::PcAttribution &pc = attr.pcs[i];
            jw.beginObject();
            jw.kv("static_idx", pc.staticIdx);
            jw.kv("pc", isa::Program::indexToAddr(pc.staticIdx));
            jw.kv("disasm",
                  run.program->inst(pc.staticIdx).toString());
            jw.kv("ace", pc.ace);
            jw.kv("ace_share", attr.aceShare(pc));
            jw.kv("un_ace_read", pc.unAceRead);
            jw.kv("ex_ace", pc.exAce);
            jw.kv("squashed_unread", pc.squashedUnread);
            jw.kv("incarnations", pc.incarnations);
            jw.kv("committed", pc.committedIncs);
            jw.kv("residency_cycles", pc.residencyCycles);
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
    }

    if (run.campaign) {
        const faults::CampaignOutcome &c = *run.campaign;
        jw.key("campaign");
        jw.beginObject();
        jw.kv("samples_requested", c.samplesRequested);
        jw.kv("samples_run", c.samplesRun);
        jw.kv("seed", c.seed);
        jw.kv("protection", faults::protectionName(c.protection));
        jw.kv("payload_only", c.payloadOnly);
        jw.kv("ci_target", c.ciTarget);
        jw.kv("batch_samples", c.batchSamples);
        jw.kv("early_stopped", c.earlyStopped);
        jw.kv("ci_half_width", c.ciHalfWidth);
        jw.kv("golden_steps", c.goldenSteps);
        jw.kv("checkpoints", c.checkpoints);
        jw.kv("reruns", c.reruns);
        jw.kv("rerun_steps", c.rerunSteps);
        jw.kv("mean_rerun_fraction", c.meanRerunFraction());
        jw.key("structures");
        jw.beginArray();
        for (const faults::StructureCampaign &s : c.structures) {
            jw.beginObject();
            jw.kv("structure", faults::structureName(s.structure));
            jw.kv("weight_bits", s.weight);
            jw.kv("samples", s.tally.samples);
            jw.key("outcomes");
            jw.beginObject();
            for (int o = 0; o < faults::numOutcomes; ++o)
                jw.kv(faults::outcomeName(
                          static_cast<faults::Outcome>(o)),
                      s.tally.counts[o]);
            jw.endObject();
            jw.kv("sdc_rate", s.sdcRate());
            jw.kv("sdc_ci_lo", s.sdcCi.lo);
            jw.kv("sdc_ci_hi", s.sdcCi.hi);
            jw.kv("analytical_sdc", s.analyticalSdc);
            jw.kv("analytical_sdc_lower", s.analyticalSdcLower);
            jw.kv("sdc_covered", s.sdcCovered);
            jw.kv("due_rate", s.dueRate());
            jw.kv("due_ci_lo", s.dueCi.lo);
            jw.kv("due_ci_hi", s.dueCi.hi);
            jw.kv("analytical_due", s.analyticalDue);
            jw.kv("analytical_due_lower", s.analyticalDueLower);
            jw.kv("due_covered", s.dueCovered);
            jw.endObject();
        }
        jw.endArray();
        if (!c.rootCauses.empty()) {
            jw.key("root_causes");
            jw.beginArray();
            for (const faults::RootCause &rc : c.rootCauses) {
                jw.beginObject();
                jw.kv("static_idx", rc.staticIdx);
                jw.kv("pc",
                      isa::Program::indexToAddr(rc.staticIdx));
                jw.kv("disasm",
                      run.program->inst(rc.staticIdx).toString());
                jw.kv("sdc_injections", rc.sdcInjections);
                jw.kv("measured_share", rc.measuredShare);
                jw.kv("analytical_ace_share",
                      rc.analyticalAceShare);
                jw.endObject();
            }
            jw.endArray();
        }
        jw.endObject();
    }

    jw.key("stats");
    if (run.statsJson.empty())
        jw.nullValue();
    else
        jw.rawValue(run.statsJson);

    jw.key("intervals");
    jw.beginObject();
    jw.kv("interval_cycles", config.intervalCycles);
    jw.kv("epochs", static_cast<std::uint64_t>(
                        run.intervals.size()));
    jw.endObject();

    jw.endObject();
}

/** One compact JSONL line per epoch of 'run': the sampler's
 * counters merged (by index — the grids share size and anchor) with
 * the post-hoc per-epoch ACE fold. */
void
writeIntervalLines(std::ostream &os, const RunArtifacts &run)
{
    for (std::size_t i = 0; i < run.intervals.size(); ++i) {
        json::JsonWriter jw(os, 0);
        const cpu::IntervalSample &s = run.intervals[i];
        jw.beginObject();
        jw.kv("benchmark", run.benchmark);
        jw.kv("epoch", static_cast<std::uint64_t>(i));
        jw.kv("start_cycle", s.startCycle);
        jw.kv("end_cycle", s.endCycle);
        jw.kv("cycles", s.cycles());
        jw.kv("committed", s.committed);
        jw.kv("ipc", s.ipc());
        jw.kv("fetched", s.fetched);
        jw.kv("mispredicts", s.mispredicts);
        jw.kv("trigger_squashes", s.triggerSquashes);
        jw.kv("trigger_squashed_insts", s.triggerSquashedInsts);
        jw.kv("iq_valid_entry_cycles", s.iqValidEntryCycles);
        jw.kv("iq_waiting_entry_cycles", s.iqWaitingEntryCycles);
        jw.kv("avg_iq_occupancy", s.avgIqOccupancy());
        if (i < run.avf->epochs.size()) {
            const avf::EpochAce &e = run.avf->epochs[i];
            jw.kv("occupied_bit_cycles", e.occupied);
            jw.kv("ace_bit_cycles", e.ace);
            jw.kv("un_ace_read_bit_cycles", e.unAceRead);
        }
        jw.endObject();
        os << "\n";
    }
}

/** The sibling JSONL path of a manifest path. */
std::string
intervalsPath(const std::string &json_path)
{
    std::string stem = json_path;
    const std::string ext = ".json";
    if (stem.size() > ext.size() &&
        stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0)
        stem.resize(stem.size() - ext.size());
    return stem + ".intervals.jsonl";
}

/**
 * Write the per-batch campaign convergence time-series of every run
 * that carried a campaign as JSONL at 'path': one object per (run,
 * batch) in submission order — deterministic, because
 * CampaignOutcome::convergence is itself a campaign result (see
 * faults::ConvergencePoint). An empty series still truncates the
 * file, so a stale one never survives.
 */
void
writeConvergenceJsonl(const std::string &path,
                      const std::vector<RunArtifacts> &runs)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        SER_FATAL("convergence: cannot open '{}' for writing", path);
    for (const RunArtifacts &run : runs) {
        if (!run.campaign)
            continue;
        const faults::CampaignOutcome &campaign = *run.campaign;
        for (const faults::ConvergencePoint &point :
             campaign.convergence) {
            json::JsonWriter jw(os, 0);
            jw.beginObject();
            jw.kv("benchmark", run.benchmark);
            jw.kv("protection",
                  faults::protectionName(campaign.protection));
            jw.kv("seed", campaign.seed);
            jw.kv("batch", point.batch);
            jw.kv("samples", point.samples);
            jw.kv("worst_ci_half_width", point.worstHalfWidth);
            jw.key("structures");
            jw.beginArray();
            for (const auto &s : point.structures) {
                jw.beginObject();
                jw.kv("structure", faults::structureName(s.structure));
                jw.kv("samples", s.samples);
                jw.kv("sdc_rate", s.sdcRate);
                jw.kv("sdc_ci_half_width", s.sdcHalfWidth);
                jw.kv("due_rate", s.dueRate);
                jw.kv("due_ci_half_width", s.dueHalfWidth);
                jw.endObject();
            }
            jw.endArray();
            jw.endObject();
            os << "\n";
        }
    }
    if (!os)
        SER_FATAL("convergence: write to '{}' failed", path);
}

/** Merge the per-run trace fragments, in submission order (which
 * is deterministic under --jobs), into one Chrome trace document. */
void
writeTraceEventsFile(const std::string &path,
                     const std::vector<RunArtifacts> &runs)
{
    SER_PROF_SCOPE("trace_write");
    std::vector<const std::string *> fragments;
    fragments.reserve(runs.size());
    for (const RunArtifacts &run : runs)
        fragments.push_back(&run.traceEvents);
    std::ofstream os(path, std::ios::binary);
    if (!os)
        SER_FATAL("trace: cannot open '{}' for writing", path);
    trace::writeChromeTrace(os, fragments);
    if (!os)
        SER_FATAL("trace: write to '{}' failed", path);
}

} // namespace

Table
hotspotTable(const RunArtifacts &run, std::size_t topn)
{
    const avf::AttributionResult &attr = run.attribution;
    Table table({"rank", "pc", "static_idx", "ace_bit_cycles",
                 "ace_share", "cum_ace_share", "un_ace_read", "ex_ace",
                 "squashed_unread", "incarnations", "committed",
                 "residency_cycles", "disassembly"});
    const std::size_t n = std::min(topn, attr.pcs.size());
    double cum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const avf::PcAttribution &pc = attr.pcs[i];
        const double share = attr.aceShare(pc);
        cum += share;
        std::ostringstream addr;
        addr << "0x" << std::hex
             << isa::Program::indexToAddr(pc.staticIdx);
        table.addRow({std::to_string(i + 1), addr.str(),
                      std::to_string(pc.staticIdx),
                      std::to_string(pc.ace), Table::fmt(share, 4),
                      Table::fmt(cum, 4), std::to_string(pc.unAceRead),
                      std::to_string(pc.exAce),
                      std::to_string(pc.squashedUnread),
                      std::to_string(pc.incarnations),
                      std::to_string(pc.committedIncs),
                      std::to_string(pc.residencyCycles),
                      run.program->inst(pc.staticIdx).toString()});
    }
    return table;
}

ExperimentConfig &
BenchOutput::stamp(ExperimentConfig &config)
{
    config.intervalCycles = _opts.intervalCycles;
    config.traceEventsPid =
        _opts.traceEventsPath.empty() ? 0 : _nextPid++;
    config.attributionTopN = _opts.topn;
    config.campaign.rootCauseTopN = _opts.topn;
    config.campaign.ciTarget = _opts.ciTarget;
    config.campaign.jobs = _opts.jobs;
    return config;
}

void
BenchOutput::print(const std::string &name, const Table &table)
{
    if (_opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    _tables.emplace_back(name, table);
}

void
BenchOutput::finish(const std::vector<RunArtifacts> &runs)
{
    std::ostream &os = std::cout;
    if (!runs.empty() && !_opts.traceEventsPath.empty()) {
        writeTraceEventsFile(_opts.traceEventsPath, runs);
        os << "\ntrace events written to " << _opts.traceEventsPath
           << " (" << runs.size() << " runs)\n";
    }
    if (_opts.topn) {
        for (const RunArtifacts &run : runs) {
            printHeading(os, "AVF hotspots: " + run.benchmark);
            const Table table = hotspotTable(run, _opts.topn);
            if (_opts.csv) {
                table.printCsv(os);
                continue;
            }
            const avf::AttributionResult &attr = run.attribution;
            os << "top " << table.rows().size() << " of "
               << attr.pcs.size() << " PCs by ACE bit-cycles; run ACE "
               << "total " << attr.totalAce << "\n";
            table.print(os);
            os << "residency lifetime (cycles): p50 " << attr.lifetime.p50
               << "  p90 " << attr.lifetime.p90 << "  p99 "
               << attr.lifetime.p99 << "  over " << attr.lifetime.count
               << " residencies\n";
        }
    }
    if (!_opts.convergenceOutPath.empty()) {
        writeConvergenceJsonl(_opts.convergenceOutPath, runs);
        os << "\nconvergence series written to "
           << _opts.convergenceOutPath << "\n";
    }
    if (!_opts.jsonPath.empty())
        writeManifest(runs);

    for (const std::string &key : _opts.config.unread())
        SER_WARN("ignored '{}=': this binary has no such parameter",
                 key);
    if (runs.empty() && !_opts.traceEventsPath.empty())
        SER_WARN("--trace-events is not supported by this binary (it "
                 "runs outside the experiment harness); no trace "
                 "was written");
    if (runs.empty() && _opts.topn)
        SER_WARN("--topn is not supported by this binary (it runs "
                 "outside the experiment harness); no hotspot table "
                 "was printed");
}

void
BenchOutput::writeManifest(const std::vector<RunArtifacts> &runs) const
{
    SER_PROF_SCOPE("manifest_write");
    const std::string &path = _opts.jsonPath;
    std::ofstream os(path);
    if (!os)
        SER_FATAL("manifest: cannot open '{}' for writing", path);
    const bool sampled =
        std::any_of(runs.begin(), runs.end(),
                    [](const RunArtifacts &r) {
                        return !r.intervals.empty();
                    });

    json::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("schema_version", 1);
    jw.key("args");
    jw.beginObject();
    for (const auto &[key, value] : _opts.config.items())
        jw.kv(key, value);
    jw.endObject();
    jw.key("tables");
    jw.beginObject();
    for (const auto &[name, table] : _tables) {
        jw.key(name);
        jw.beginObject();
        jw.key("headers");
        jw.beginArray();
        for (const auto &header : table.headers())
            jw.value(header);
        jw.endArray();
        jw.key("rows");
        jw.beginArray();
        for (const auto &row : table.rows()) {
            jw.beginArray();
            for (const auto &cell : row)
                jw.value(cell);
            jw.endArray();
        }
        jw.endArray();
        jw.endObject();
    }
    jw.endObject();
    jw.key("runs");
    jw.beginArray();
    for (const RunArtifacts &run : runs)
        writeRunManifest(jw, run);
    jw.endArray();
    // Process-wide run-cache totals at manifest-write time (every
    // run above has completed by now). Values inside a "run_cache"
    // object are masked by the determinism checker, like the per-run
    // outcome blocks; the counts themselves are schedule-independent
    // anyway (one miss per distinct key).
    {
        RunCache &cache = RunCache::instance();
        jw.key("run_cache");
        jw.beginObject();
        jw.kv("enabled", cache.enabled());
        jw.kv("disk_enabled", DiskCache::instance().enabled());
        auto section = [&jw](const char *name,
                             const RunCache::Counters &c) {
            jw.key(name);
            jw.beginObject();
            jw.kv("hits", c.hits);
            jw.kv("disk_hits", c.diskHits);
            jw.kv("misses", c.misses);
            jw.kv("bytes", c.bytes);
            jw.kv("disk_bytes_read", c.diskBytesRead);
            jw.kv("disk_bytes_written", c.diskBytesWritten);
            jw.kv("disk_corrupt", c.diskCorrupt);
            jw.endObject();
        };
        section("sim", cache.simCounters());
        section("deadness", cache.deadnessCounters());
        section("avf", cache.avfCounters());
        section("campaign", cache.campaignCounters());
        jw.endObject();
    }
    if (sampled)
        jw.kv("intervals_file", intervalsPath(path));
    jw.endObject();
    os << "\n";
    if (!os)
        SER_FATAL("manifest: write to '{}' failed", path);

    if (!sampled)
        return;
    std::ofstream jl(intervalsPath(path));
    if (!jl)
        SER_FATAL("manifest: cannot open '{}' for writing",
                  intervalsPath(path));
    for (const RunArtifacts &run : runs)
        writeIntervalLines(jl, run);
}

} // namespace harness
} // namespace ser
