#include "metrics.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "harness/build_info.hh"
#include "harness/run_cache.hh"
#include "sim/logging.hh"
#include "sim/prof.hh"

namespace ser
{
namespace harness
{

namespace
{

/** Prometheus metric/label-name alphabet: [a-zA-Z0-9_:]; anything
 * else (the prof layer's dots) becomes '_'. */
std::string
sanitize(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/** Label values get the exposition-format escapes. */
std::string
escapeLabelValue(std::string_view v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        if (c == '\\' || c == '"')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

std::string
renderLabels(std::string_view key, std::string_view value)
{
    if (key.empty())
        return "";
    return "{" + sanitize(key) + "=\"" +
           escapeLabelValue(value) + "\"}";
}

/** Render a multi-label block; the caller passes the pairs in the
 * (sorted) order they should appear. */
std::string
renderLabelSet(
    const std::vector<std::pair<const char *, const char *>> &labels)
{
    std::string out = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i)
            out += ",";
        out += sanitize(labels[i].first) + "=\"" +
               escapeLabelValue(labels[i].second) + "\"";
    }
    out += "}";
    return out;
}

/** Shortest-round-trip formatting for gauge/seconds values, so the
 * exposition bytes are a pure function of the double. */
std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double parsed = 0.0;
    for (int precision = 1; precision <= 16; ++precision) {
        char probe[64];
        std::snprintf(probe, sizeof(probe), "%.*g", precision, v);
        std::sscanf(probe, "%lf", &parsed);
        if (parsed == v)
            return probe;
    }
    return buf;
}

} // namespace

std::string
promCounterName(const std::string &prof_name)
{
    const std::string speed_prefix = "speed.";
    if (prof_name.rfind(speed_prefix, 0) == 0)
        return "ser_speed_" +
               sanitize(prof_name.substr(speed_prefix.size())) +
               "_total";
    return "ser_prof_" + sanitize(prof_name) + "_total";
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry *registry = new MetricsRegistry;
    return *registry;
}

void
MetricsRegistry::setOutputPath(std::string path)
{
    std::lock_guard<std::mutex> guard(_lock);
    _outputPath = std::move(path);
}

std::string
MetricsRegistry::outputPath() const
{
    std::lock_guard<std::mutex> guard(_lock);
    return _outputPath;
}

MetricsRegistry::Series &
MetricsRegistry::upsertRendered(std::string_view name, Kind kind,
                                std::string_view help,
                                std::string rendered_labels)
{
    // _lock is held by the caller.
    Family &family = _families[sanitize(name)];
    if (family.series.empty()) {
        family.kind = kind;
        family.help = help;
    }
    return family.series[std::move(rendered_labels)];
}

MetricsRegistry::Series &
MetricsRegistry::upsert(std::string_view name, Kind kind,
                        std::string_view help,
                        std::string_view label_key,
                        std::string_view label_value)
{
    return upsertRendered(name, kind, help,
                          renderLabels(label_key, label_value));
}

void
MetricsRegistry::add(std::string_view name, std::uint64_t v,
                     std::string_view help,
                     std::string_view label_key,
                     std::string_view label_value)
{
    std::lock_guard<std::mutex> guard(_lock);
    upsert(name, Kind::Counter, help, label_key, label_value)
        .uvalue += v;
}

void
MetricsRegistry::addSeconds(std::string_view name, double v,
                            std::string_view help,
                            std::string_view label_key,
                            std::string_view label_value)
{
    std::lock_guard<std::mutex> guard(_lock);
    upsert(name, Kind::Seconds, help, label_key, label_value)
        .dvalue += v;
}

void
MetricsRegistry::setGauge(std::string_view name, double v,
                          std::string_view help,
                          std::string_view label_key,
                          std::string_view label_value)
{
    std::lock_guard<std::mutex> guard(_lock);
    upsert(name, Kind::Gauge, help, label_key, label_value)
        .dvalue = v;
}

void
MetricsRegistry::maxGauge(std::string_view name, std::uint64_t v,
                          std::string_view help,
                          std::string_view label_key,
                          std::string_view label_value)
{
    std::lock_guard<std::mutex> guard(_lock);
    Series &series =
        upsert(name, Kind::Gauge, help, label_key, label_value);
    if (static_cast<double>(v) > series.dvalue)
        series.dvalue = static_cast<double>(v);
}

void
MetricsRegistry::writePrometheus(std::ostream &os) const
{
    std::lock_guard<std::mutex> guard(_lock);
    for (const auto &entry : _families) {
        const Family &family = entry.second;
        if (!family.help.empty())
            os << "# HELP " << entry.first << " " << family.help
               << "\n";
        os << "# TYPE " << entry.first << " "
           << (family.kind == Kind::Gauge ? "gauge" : "counter")
           << "\n";
        for (const auto &series : family.series) {
            os << entry.first << series.first << " ";
            if (family.kind == Kind::Counter)
                os << series.second.uvalue;
            else
                os << formatDouble(series.second.dvalue);
            os << "\n";
        }
    }
}

void
MetricsRegistry::collectProcessMetrics()
{
    // Run-cache sections: their counters are already process totals,
    // so import them as absolute values (idempotent across repeated
    // snapshots).
    RunCache &cache = RunCache::instance();
    struct SectionStats
    {
        const char *name;
        RunCache::Counters counters;
    } sections[] = {
        {"sim", cache.simCounters()},
        {"deadness", cache.deadnessCounters()},
        {"avf", cache.avfCounters()},
        {"campaign", cache.campaignCounters()},
    };
    std::lock_guard<std::mutex> guard(_lock);

    // Build provenance in labels, value pinned to 1 — the
    // node-exporter `*_build_info` idiom. Compile-time constants, so
    // identical across every determinism-fixture variant.
    const BuildInfo &build = buildInfo();
    upsertRendered("ser_build_info", Kind::Gauge,
                   "Build metadata (value is always 1).",
                   renderLabelSet({{"build_type", build.buildType},
                                   {"compiler", build.compiler},
                                   {"git", build.git},
                                   {"sanitize", build.sanitize}}))
        .dvalue = 1.0;

    for (const SectionStats &s : sections) {
        upsert("ser_run_cache_hits_total", Kind::Counter,
               "Run-cache lookups answered from the in-process "
               "map.", "section", s.name).uvalue = s.counters.hits;
        upsert("ser_run_cache_disk_hits_total", Kind::Counter,
               "Run-cache lookups answered from the persistent "
               "disk tier.", "section",
               s.name).uvalue = s.counters.diskHits;
        upsert("ser_run_cache_misses_total", Kind::Counter,
               "Run-cache lookups that computed.", "section",
               s.name).uvalue = s.counters.misses;
        upsert("ser_run_cache_bytes", Kind::Gauge,
               "Approximate bytes retained per cache section.",
               "section", s.name).dvalue =
            static_cast<double>(s.counters.bytes);
        upsert("ser_run_cache_disk_read_bytes_total", Kind::Counter,
               "Blob payload bytes deserialized on disk hits.",
               "section", s.name).uvalue = s.counters.diskBytesRead;
        upsert("ser_run_cache_disk_written_bytes_total",
               Kind::Counter,
               "Blob bytes published to the disk tier.", "section",
               s.name).uvalue = s.counters.diskBytesWritten;
        upsert("ser_run_cache_disk_corrupt_total", Kind::Counter,
               "Blobs rejected by integrity checks and "
               "quarantined.", "section",
               s.name).uvalue = s.counters.diskCorrupt;
    }

    // The prof layer: counters (already name-sorted) and the
    // hierarchical scope profile.
    prof::Snapshot snap = prof::snapshot();
    for (const prof::CounterSample &c : snap.counters)
        upsert(promCounterName(c.name), Kind::Counter, c.desc, "",
               "").uvalue = c.value;
    for (const prof::ScopeSample &s : snap.scopes) {
        upsert("ser_prof_scope_calls_total", Kind::Counter,
               "Times each profiled scope was entered.", "scope",
               s.path).uvalue = s.calls;
        upsert("ser_prof_scope_seconds_total", Kind::Seconds,
               "Wall-clock seconds spent in each profiled scope.",
               "scope", s.path).dvalue = s.seconds;
    }
}

bool
MetricsRegistry::writeSnapshot()
{
    std::string path = outputPath();
    if (path.empty())
        return false;

    // Write-to-temp + rename: a concurrent reader (tail -f, a
    // scraper) always sees a complete exposition document. Callers
    // overlap (sweep epochs on any worker, the signal watcher, the
    // atexit flush) and share the temp file, so one writes at a
    // time. A failure is reported after the lock is released:
    // SER_FATAL exits, and the atexit flush takes the lock again.
    std::string tmp = path + ".tmp";
    bool written = false, renamed = false;
    {
        std::lock_guard<std::mutex> guard(_snapshotLock);
        collectProcessMetrics();
        std::ofstream os(tmp, std::ios::binary);
        writePrometheus(os);
        os.close();
        written = static_cast<bool>(os);
        renamed = written &&
                  std::rename(tmp.c_str(), path.c_str()) == 0;
    }
    if (!written)
        SER_FATAL("metrics: cannot write '{}'", tmp);
    if (!renamed)
        SER_FATAL("metrics: cannot rename '{}' to '{}'", tmp, path);
    return true;
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> guard(_lock);
    _families.clear();
}

} // namespace harness
} // namespace ser
