/**
 * @file
 * The sweep daemon's request API, mounted on the TelemetryServer
 * poll loop (telemetry_server.hh setRequestHandler): a long-lived
 * process that answers repeat sweep queries from the RunCache —
 * including its persistent disk tier — without re-simulating.
 *
 * Endpoints (JSON request and response bodies):
 *
 *   POST /sweep       submit one sweep point:
 *                       { "benchmark": "mcf",        (required)
 *                         "insts": 200000,           (dynamicTarget)
 *                         "warmup": 10000,
 *                         "pet_size": 512,
 *                         "trigger_level": "none|l0|l1|l2",
 *                         "trigger_action": "squash|throttle|both" }
 *                     Warm (the sim key is already resolved in the
 *                     in-process map or present in the --cache-dir
 *                     blob store): answered inline, HTTP 200, with
 *                     the full run manifest under "result".
 *                     Cold: HTTP 202 with a ticket; the run is
 *                     scheduled on the worker pool (sim/parallel.hh
 *                     WorkerPool) and the client polls the ticket.
 *   GET /sweep/<id>   one ticket:
 *                       { "id": N, "state": "pending|running|done",
 *                         "benchmark": ..., "warm": bool,
 *                         "result": {manifest}|null }
 *   GET /sweep        index of every ticket issued plus the
 *                     warm/cold answer counters.
 *
 * Determinism: a warm answer and a cold answer for the same spec
 * carry byte-identical manifests (modulo the timings_seconds and
 * run_cache observability blocks, exactly the fields the
 * determinism fixtures mask), because the manifest is a pure
 * function of the artifacts and the RunCache guarantees
 * byte-identical artifacts cold or warm (tests/check_daemon.cc).
 *
 * Built surrogate programs are memoized by (benchmark, insts), so
 * repeat queries skip even the workload build; the warm probe costs
 * one map lookup plus at most one stat(2).
 *
 * Thread-safety: handle() runs on the server poll thread; cold runs
 * execute on pool workers. All shared state is guarded by one
 * mutex; tickets are append-only so GET /sweep/<id> never races a
 * completing run.
 */

#ifndef SER_HARNESS_SWEEP_SERVICE_HH
#define SER_HARNESS_SWEEP_SERVICE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "harness/experiment.hh"
#include "harness/telemetry_server.hh"
#include "isa/program.hh"
#include "sim/parallel.hh"

namespace ser
{
namespace harness
{

/** See file comment. */
class SweepService
{
  public:
    /** 'workers' cold-run threads (>= 1). */
    explicit SweepService(unsigned workers);

    /** Joins the pool: every accepted cold run finishes first. */
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /** Install this service as the server's request handler. The
     * service must outlive the server's poll thread (in the daemon
     * both live until process exit). */
    void mountOn(TelemetryServer &server);

    /**
     * The request entry point (also what the unit tests drive
     * directly, socket-free). Claims POST /sweep and GET /sweep[/N];
     * returns status 0 for any other request so the server falls
     * back to its built-in routes / 404.
     */
    TelemetryServer::Response handle(std::string_view method,
                                     std::string_view path,
                                     const std::string &body);

    /** Warm/cold accounting (also served by GET /sweep). */
    std::uint64_t warmAnswers() const;
    std::uint64_t coldAnswers() const;

  private:
    struct Ticket
    {
        std::uint64_t id = 0;
        std::string benchmark;
        bool warm = false;
        /** "pending" -> "running" -> "done" (or "failed"). */
        std::string state = "pending";
        /** Serialized run-manifest JSON object (empty until done). */
        std::string result;
    };

    /** A parsed, validated POST /sweep spec. */
    struct SweepSpec
    {
        std::string benchmark;
        ExperimentConfig config;
    };

    TelemetryServer::Response postSweep(const std::string &body);
    TelemetryServer::Response getTicket(std::uint64_t id);
    TelemetryServer::Response indexJson();

    /** Serialize one ticket (caller holds _lock or owns the only
     * reference). */
    static std::string ticketJson(const Ticket &ticket);

    /** Parse and validate a request body; on failure returns false
     * and fills 'err'. */
    static bool parseSpec(const std::string &body, SweepSpec *spec,
                          std::string *err);

    /** Memoized surrogate build; the program memoizes its own
     * content hash, which every request's keys need. */
    std::shared_ptr<const isa::Program>
    program(const std::string &benchmark, std::uint64_t insts);

    /** The full-spec response key: the sim key plus every
     * post-commit knob the manifest depends on. Two specs with equal
     * keys produce byte-identical manifests, so the daemon replays
     * the first answer. */
    static std::string specKey(const SweepSpec &spec,
                               const isa::Program &program);

    /** True when the spec's sim key would hit the in-process map or
     * the disk tier — i.e. POST can answer inline without
     * simulating. */
    static bool isWarm(const SweepSpec &spec,
                       const isa::Program &program);

    /** Run the spec (on whichever thread) and serialize its
     * manifest; fills *ipc for the /runs publish hook. */
    static std::string
    runManifest(const SweepSpec &spec,
                std::shared_ptr<const isa::Program> program,
                double *ipc);

    static TelemetryServer::Response errorResponse(int status,
                                                   const std::string
                                                       &message);

    mutable std::mutex _lock;
    /** Set by mountOn(); completed runs are republished to its
     * /runs ring (ticket id as the run index). */
    TelemetryServer *_server = nullptr;
    std::map<std::uint64_t, std::shared_ptr<Ticket>> _tickets;
    std::uint64_t _nextId = 1;
    std::uint64_t _warmAnswers = 0;
    std::uint64_t _coldAnswers = 0;
    std::map<std::pair<std::string, std::uint64_t>,
             std::shared_ptr<const isa::Program>>
        _programs;

    /** Completed answers by specKey(): a repeat POST of an
     * already-answered spec replays the stored manifest in
     * microseconds — one map lookup, no simulation, no analysis
     * replay, no re-serialization. */
    struct Answer
    {
        std::string manifest;
        double ipc = 0.0;
    };
    std::map<std::string, Answer> _answers;

    /** Declared last: the destructor drains jobs that touch the
     * members above. */
    WorkerPool _pool;
};

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_SWEEP_SERVICE_HH
