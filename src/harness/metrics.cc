#include "metrics.hh"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string_view>
#include <thread>

#include "sim/logging.hh"

namespace ser
{
namespace harness
{

namespace
{

/** Prometheus metric-name alphabet: [a-zA-Z0-9_:]; anything else
 * (the prof layer's dots) becomes '_'. */
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

/** `key="value"` with the exposition-format escapes. */
std::string
label(std::string_view key, std::string_view value)
{
    std::string out(key);
    out += "=\"";
    for (char c : value) {
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        if (c == '\\' || c == '"')
            out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

/** Shortest-round-trip formatting for seconds, so the exposition
 * bytes are a pure function of the double. */
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

/** The armed --metrics-out path and the lock one snapshot write
 * holds. Leaked: the atexit flush must not outlive it. */
struct MetricsOut
{
    std::mutex lock;
    std::string path;  ///< empty = not armed
};

MetricsOut &
metricsOut()
{
    static MetricsOut *out = new MetricsOut;
    return *out;
}

void
watchSignals(sigset_t set)
{
    int sig = 0;
    if (sigwait(&set, &sig) != 0)
        return;
    writeMetricsSnapshot();
    // Die by the intercepted signal so the parent observes the
    // conventional wait status: default disposition, unblocked here.
    std::signal(sig, SIG_DFL);
    sigset_t unblock;
    sigemptyset(&unblock);
    sigaddset(&unblock, sig);
    pthread_sigmask(SIG_UNBLOCK, &unblock, nullptr);
    raise(sig);
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

Telemetry
currentTelemetry()
{
    RunCache &cache = RunCache::instance();
    return {prof::snapshot(),
            {{"sim", cache.simCounters()},
             {"deadness", cache.deadnessCounters()},
             {"avf", cache.avfCounters()},
             {"campaign", cache.campaignCounters()}},
            buildInfo()};
}

void
writeExposition(std::ostream &os, const Telemetry &telemetry)
{
    struct Family
    {
        const char *type = "counter";
        std::string help;
        /** Label block ("" or `{k="v",...}`) -> printed value; map
         * order is the sorted series order. */
        std::map<std::string, std::string> series;
    };
    std::map<std::string, Family> families;
    auto add = [&](const std::string &name, const char *type,
                   std::string_view help, const std::string &labels,
                   std::string value) {
        Family &family = families[name];
        family.type = type;
        family.help = help;
        family.series[labels] = std::move(value);
    };

    // Build provenance in labels, value pinned to 1: the
    // node-exporter `*_build_info` idiom.
    const BuildInfo &build = telemetry.build;
    add("ser_build_info", "gauge", "Build metadata (value is always 1).",
        "{" + label("build_type", build.buildType) + "," +
            label("compiler", build.compiler) + "," +
            label("git", build.git) + "," +
            label("sanitize", build.sanitize) + "}",
        "1");

    for (const auto &[section, c] : telemetry.cacheSections) {
        const std::string s = "{" + label("section", section) + "}";
        add("ser_run_cache_hits_total", "counter",
            "Run-cache lookups answered from the in-process map.", s,
            std::to_string(c.hits));
        add("ser_run_cache_disk_hits_total", "counter",
            "Run-cache lookups answered from the persistent disk "
            "tier.", s, std::to_string(c.diskHits));
        add("ser_run_cache_misses_total", "counter",
            "Run-cache lookups that computed.", s,
            std::to_string(c.misses));
        add("ser_run_cache_bytes", "gauge",
            "Approximate bytes retained per cache section.", s,
            std::to_string(c.bytes));
        add("ser_run_cache_disk_read_bytes_total", "counter",
            "Blob payload bytes deserialized on disk hits.", s,
            std::to_string(c.diskBytesRead));
        add("ser_run_cache_disk_written_bytes_total", "counter",
            "Blob bytes published to the disk tier.", s,
            std::to_string(c.diskBytesWritten));
        add("ser_run_cache_disk_corrupt_total", "counter",
            "Blobs rejected by integrity checks and quarantined.", s,
            std::to_string(c.diskCorrupt));
    }

    for (const prof::CounterSample &c : telemetry.prof.counters)
        add(promCounterName(c.name), "counter", c.desc, "",
            std::to_string(c.value));
    for (const prof::ScopeSample &s : telemetry.prof.scopes) {
        const std::string scope = "{" + label("scope", s.path) + "}";
        add("ser_prof_scope_calls_total", "counter",
            "Times each profiled scope was entered.", scope,
            std::to_string(s.calls));
        add("ser_prof_scope_seconds_total", "counter",
            "Wall-clock seconds spent in each profiled scope.", scope,
            formatDouble(s.seconds));
    }

    for (const auto &[name, family] : families) {
        if (!family.help.empty())
            os << "# HELP " << name << " " << family.help << "\n";
        os << "# TYPE " << name << " " << family.type << "\n";
        for (const auto &[labels, value] : family.series)
            os << name << labels << " " << value << "\n";
    }
}

void
armMetricsOut(const std::string &path)
{
    static std::once_flag once;
    std::call_once(once, [&] {
        {
            MetricsOut &out = metricsOut();
            std::lock_guard<std::mutex> guard(out.lock);
            out.path = path;
        }
        prof::setEnabled(true);
        std::atexit([] { writeMetricsSnapshot(); });
        // Only the watcher ever receives these signals: every thread
        // spawned after this inherits the blocked mask. It waits for
        // the life of the process, so nothing joins it.
        sigset_t set;
        sigemptyset(&set);
        sigaddset(&set, SIGINT);
        sigaddset(&set, SIGTERM);
        if (pthread_sigmask(SIG_BLOCK, &set, nullptr) == 0)
            std::thread(watchSignals, set).detach();
    });
}

bool
writeMetricsSnapshot()
{
    // Callers overlap (the signal watcher, the atexit flush) and
    // share the temp file, so one writes at a time. A failure
    // disarms before it is reported after the lock is released:
    // SER_FATAL exits, and the atexit flush must then find nothing
    // to write.
    MetricsOut &out = metricsOut();
    std::string path, tmp;
    bool written = false, renamed = false;
    {
        std::lock_guard<std::mutex> guard(out.lock);
        if (out.path.empty())
            return false;
        path = out.path;
        tmp = path + ".tmp";
        std::ofstream os(tmp, std::ios::binary);
        writeExposition(os, currentTelemetry());
        os.close();
        written = static_cast<bool>(os);
        renamed = written &&
                  std::rename(tmp.c_str(), path.c_str()) == 0;
        if (!renamed)
            out.path.clear();
    }
    if (!written)
        SER_FATAL("metrics: cannot write '{}'", tmp);
    if (!renamed)
        SER_FATAL("metrics: cannot rename '{}' to '{}'", tmp, path);
    return true;
}

} // namespace harness
} // namespace ser
