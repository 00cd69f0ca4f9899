#include "sweep_service.hh"

#include <sys/stat.h>

#include <cstdlib>
#include <exception>
#include <sstream>
#include <vector>

#include "harness/disk_cache.hh"
#include "harness/manifest.hh"
#include "sim/json.hh"
#include "workloads/profile.hh"
#include "workloads/suite.hh"

namespace ser
{
namespace harness
{

namespace
{

constexpr const char *kJsonType = "application/json; charset=utf-8";

} // namespace

std::string
SweepService::ticketJson(const Ticket &t)
{
    std::ostringstream os;
    json::JsonWriter jw(os, 0);
    jw.beginObject();
    jw.kv("id", t.id);
    jw.kv("benchmark", t.benchmark);
    jw.kv("state", t.state);
    jw.kv("warm", t.warm);
    jw.key("result");
    if (t.result.empty())
        jw.nullValue();
    else
        jw.rawValue(t.result);
    jw.endObject();
    return os.str();
}

SweepService::SweepService(unsigned workers)
    : _pool(workers ? workers : 1)
{
}

SweepService::~SweepService() = default;

void
SweepService::mountOn(TelemetryServer &server)
{
    {
        std::lock_guard<std::mutex> guard(_lock);
        _server = &server;
    }
    server.setRequestHandler(
        [this](std::string_view method, std::string_view path,
               const std::string &body) {
            return handle(method, path, body);
        });
}

TelemetryServer::Response
SweepService::handle(std::string_view method, std::string_view path,
                     const std::string &body)
{
    if (path != "/sweep" && path.rfind("/sweep/", 0) != 0)
        return {0, "", ""};  // not ours: let the server route it
    if (method == "POST" && path == "/sweep")
        return postSweep(body);
    if (method == "GET" && path == "/sweep")
        return indexJson();
    if (method == "GET") {
        std::string id_text(path.substr(std::string("/sweep/").size()));
        char *end = nullptr;
        unsigned long long id =
            std::strtoull(id_text.c_str(), &end, 10);
        if (id_text.empty() || !end || *end != '\0')
            return errorResponse(400, "bad ticket id '" + id_text +
                                          "'");
        return getTicket(id);
    }
    return {0, "", ""};  // wrong method: server answers 405
}

TelemetryServer::Response
SweepService::postSweep(const std::string &body)
{
    SweepSpec spec;
    std::string err;
    if (!parseSpec(body, &spec, &err))
        return errorResponse(400, err);

    std::shared_ptr<const isa::Program> prog =
        program(spec.benchmark, spec.config.dynamicTarget);
    const std::string answer_key = specKey(spec, *prog);

    // Fastest tier: this exact spec was already answered by this
    // process — replay the stored manifest (one map lookup; the
    // TelemetryServer publish lock never nests back into _lock, so
    // publishing under it is safe).
    {
        std::lock_guard<std::mutex> guard(_lock);
        auto it = _answers.find(answer_key);
        if (it != _answers.end()) {
            auto ticket = std::make_shared<Ticket>();
            ticket->benchmark = spec.benchmark;
            ticket->warm = true;
            ticket->state = "done";
            ticket->id = _nextId++;
            ticket->result = it->second.manifest;
            _tickets.emplace(ticket->id, ticket);
            ++_warmAnswers;
            if (_server)
                _server->publishRun(ticket->id, ticket->benchmark,
                                    it->second.ipc, ticket->result);
            return {200, kJsonType, ticketJson(*ticket)};
        }
    }

    const bool warm = isWarm(spec, *prog);

    auto ticket = std::make_shared<Ticket>();
    ticket->benchmark = spec.benchmark;
    ticket->warm = warm;
    {
        std::lock_guard<std::mutex> guard(_lock);
        ticket->id = _nextId++;
        _tickets.emplace(ticket->id, ticket);
    }

    if (warm) {
        // Every section answers from the run cache (memory or disk
        // tier), so this completes inline without simulating.
        double ipc = 0.0;
        std::string manifest =
            runManifest(spec, std::move(prog), &ipc);
        TelemetryServer *server;
        {
            std::lock_guard<std::mutex> guard(_lock);
            ticket->result = std::move(manifest);
            ticket->state = "done";
            ++_warmAnswers;
            _answers.emplace(answer_key,
                             Answer{ticket->result, ipc});
            server = _server;
        }
        if (server)
            server->publishRun(ticket->id, ticket->benchmark, ipc,
                               ticket->result);
        std::lock_guard<std::mutex> guard(_lock);
        return {200, kJsonType, ticketJson(*ticket)};
    }

    // Cold: schedule on the pool; the client polls GET /sweep/<id>.
    _pool.submit([this, ticket, spec, prog, answer_key] {
        {
            std::lock_guard<std::mutex> guard(_lock);
            ticket->state = "running";
        }
        std::string manifest;
        double ipc = 0.0;
        bool ok = true;
        try {
            manifest = runManifest(spec, prog, &ipc);
        } catch (const std::exception &) {
            ok = false;
        }
        TelemetryServer *server;
        {
            std::lock_guard<std::mutex> guard(_lock);
            ticket->result = std::move(manifest);
            ticket->state = ok ? "done" : "failed";
            if (ok) {
                ++_coldAnswers;
                _answers.emplace(answer_key,
                                 Answer{ticket->result, ipc});
            }
            server = _server;
        }
        if (ok && server)
            server->publishRun(ticket->id, ticket->benchmark, ipc,
                               ticket->result);
    });
    std::lock_guard<std::mutex> guard(_lock);
    return {202, kJsonType, ticketJson(*ticket)};
}

TelemetryServer::Response
SweepService::getTicket(std::uint64_t id)
{
    std::lock_guard<std::mutex> guard(_lock);
    auto it = _tickets.find(id);
    if (it == _tickets.end())
        return errorResponse(404, "no such ticket");
    return {200, kJsonType, ticketJson(*it->second)};
}

TelemetryServer::Response
SweepService::indexJson()
{
    std::lock_guard<std::mutex> guard(_lock);
    std::ostringstream os;
    json::JsonWriter jw(os, 0);
    jw.beginObject();
    jw.key("tickets");
    jw.beginArray();
    for (const auto &entry : _tickets) {
        const Ticket &t = *entry.second;
        jw.beginObject();
        jw.kv("id", t.id);
        jw.kv("benchmark", t.benchmark);
        jw.kv("state", t.state);
        jw.kv("warm", t.warm);
        jw.endObject();
    }
    jw.endArray();
    jw.kv("warm_answers", _warmAnswers);
    jw.kv("cold_answers", _coldAnswers);
    jw.endObject();
    return {200, kJsonType, os.str()};
}

bool
SweepService::parseSpec(const std::string &body, SweepSpec *spec,
                        std::string *err)
{
    json::JsonValue doc;
    std::string parse_err;
    if (!json::parseJson(body, &doc, &parse_err)) {
        *err = "bad JSON: " + parse_err;
        return false;
    }
    if (!doc.isObject()) {
        *err = "request body must be a JSON object";
        return false;
    }

    // Reject unknown fields so client typos surface as errors, not
    // silently-defaulted sweeps.
    static const char *const known[] = {
        "benchmark", "insts",         "warmup",
        "pet_size",  "trigger_level", "trigger_action",
    };
    for (const auto &member : doc.object) {
        bool ok = false;
        for (const char *name : known)
            ok = ok || member.first == name;
        if (!ok) {
            *err = "unknown field '" + member.first + "'";
            return false;
        }
    }

    const json::JsonValue *bench = doc.find("benchmark");
    if (!bench || !bench->isString()) {
        *err = "missing required string field 'benchmark'";
        return false;
    }
    spec->benchmark = bench->string;
    bool valid_name = false;
    for (const std::string &name : workloads::suiteNames())
        valid_name = valid_name || name == spec->benchmark;
    if (!valid_name) {
        *err = "unknown benchmark '" + spec->benchmark + "'";
        return false;
    }

    auto count = [&](const char *name, std::uint64_t *out,
                     bool positive) {
        const json::JsonValue *v = doc.find(name);
        if (!v)
            return true;
        double n = v->number;
        if (!v->isNumber() || n < 0 || n != static_cast<double>(
                                                static_cast<std::uint64_t>(n))) {
            *err = std::string("field '") + name +
                   "' must be a non-negative integer";
            return false;
        }
        if (positive && n == 0) {
            *err = std::string("field '") + name +
                   "' must be positive";
            return false;
        }
        *out = static_cast<std::uint64_t>(n);
        return true;
    };
    std::uint64_t pet = spec->config.petSize;
    if (!count("insts", &spec->config.dynamicTarget, true) ||
        !count("warmup", &spec->config.warmupInsts, false) ||
        !count("pet_size", &pet, true))
        return false;
    spec->config.petSize = static_cast<std::uint32_t>(pet);

    auto choice = [&](const char *name, std::string *out,
                      std::initializer_list<const char *> allowed) {
        const json::JsonValue *v = doc.find(name);
        if (!v)
            return true;
        if (v->isString()) {
            for (const char *a : allowed) {
                if (v->string == a) {
                    *out = v->string;
                    return true;
                }
            }
        }
        std::string values;
        for (const char *a : allowed)
            values += std::string(values.empty() ? "" : "|") + a;
        *err = std::string("field '") + name + "' must be one of " +
               values;
        return false;
    };
    return choice("trigger_level", &spec->config.triggerLevel,
                  {"none", "l0", "l1", "l2"}) &&
           choice("trigger_action", &spec->config.triggerAction,
                  {"squash", "throttle", "both"});
}

std::shared_ptr<const isa::Program>
SweepService::program(const std::string &benchmark,
                      std::uint64_t insts)
{
    {
        std::lock_guard<std::mutex> guard(_lock);
        auto it = _programs.find({benchmark, insts});
        if (it != _programs.end())
            return it->second;
    }
    // Built outside the lock (generation is pure); a racing build of
    // the same point is wasted work, not a correctness problem —
    // first insert wins.
    auto built = std::make_shared<const isa::Program>(
        workloads::buildBenchmark(benchmark, insts));
    std::lock_guard<std::mutex> guard(_lock);
    return _programs.emplace(std::make_pair(benchmark, insts), built)
        .first->second;
}

std::string
SweepService::specKey(const SweepSpec &spec,
                      const isa::Program &program)
{
    // The sim key already folds in the program content, warmup,
    // trigger policy and interval grid; the PET size is the one
    // exposed knob that only matters after commit.
    cpu::PipelineParams params = spec.config.pipeline;
    if (params.maxInsts < spec.config.dynamicTarget * 2)
        params.maxInsts = spec.config.dynamicTarget * 2;
    return RunCache::simKey(program, spec.config, params) +
           "|pet=" + std::to_string(spec.config.petSize);
}

bool
SweepService::isWarm(const SweepSpec &spec,
                     const isa::Program &program)
{
    RunCache &cache = RunCache::instance();
    if (!cache.enabled())
        return false;
    // The effective params must match what runProgram hands the
    // pipeline, or the probe key would never match the cache key.
    cpu::PipelineParams params = spec.config.pipeline;
    if (params.maxInsts < spec.config.dynamicTarget * 2)
        params.maxInsts = spec.config.dynamicTarget * 2;
    std::string key =
        RunCache::simKey(program, spec.config, params);
    if (cache.hasSim(key))
        return true;
    DiskCache &disk = DiskCache::instance();
    if (!disk.enabled())
        return false;
    // A stat(2) probe only: if the blob turns out stale or corrupt,
    // the inline run degrades to computing — slower, still correct.
    struct stat st;
    return ::stat(disk.blobPath("sim", key).c_str(), &st) == 0 &&
           S_ISREG(st.st_mode);
}

std::string
SweepService::runManifest(const SweepSpec &spec,
                          std::shared_ptr<const isa::Program> program,
                          double *ipc)
{
    RunArtifacts run = runProgram(std::move(program), spec.config,
                                  spec.benchmark);
    if (ipc)
        *ipc = run.ipc;
    std::ostringstream os;
    json::JsonWriter jw(os);
    writeRunManifest(jw, run, spec.config);
    return os.str();
}

TelemetryServer::Response
SweepService::errorResponse(int status, const std::string &message)
{
    std::ostringstream os;
    json::JsonWriter jw(os, 0);
    jw.beginObject();
    jw.kv("error", message);
    jw.endObject();
    return {status, kJsonType, os.str()};
}

std::uint64_t
SweepService::warmAnswers() const
{
    std::lock_guard<std::mutex> guard(_lock);
    return _warmAnswers;
}

std::uint64_t
SweepService::coldAnswers() const
{
    std::lock_guard<std::mutex> guard(_lock);
    return _coldAnswers;
}

} // namespace harness
} // namespace ser
