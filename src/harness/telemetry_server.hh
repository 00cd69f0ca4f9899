/**
 * @file
 * The embedded live-telemetry HTTP server (--serve PORT): continuous
 * queryable introspection of a running sweep.
 *
 * Endpoints (all GET, HTTP/1.1, Connection: close per request):
 *
 *   /healthz        liveness probe ("ok")
 *   /metrics        live Prometheus exposition, rendered on demand
 *                   from MetricsRegistry::renderExposition() — a
 *                   scraper pulls instead of waiting for the
 *                   exit/epoch file snapshot
 *   /status         JSON sweep state: done/total, runs/s, ETA, cache
 *                   hit rate — the same numbers the --progress line
 *                   paints, via Progress::snapshot()
 *   /runs           JSON index of completed runs (benchmark, ipc)
 *   /runs/<index>   the full JSON manifest of one completed run
 *   /campaign       per-structure live Wilson-CI convergence: the
 *                   most recent ConvergencePoints published by
 *                   running campaigns (bounded ring)
 *
 * Retention: /runs keeps the most recent runsRingCapacity manifests
 * (FIFO by submission index); older ones are evicted and counted in
 * /status (runs_published / runs_retained / runs_evicted), so a
 * million-run sweep holds a bounded window instead of every
 * manifest.
 *
 * Implementation: dependency-free POSIX sockets, bound to 127.0.0.1
 * only, one poll(2)-driven thread owned by the server, a bounded
 * connection table, an 8 KiB request-head cap (a connection whose
 * head outgrows it is closed without an answer), 405 on any method
 * but GET, 400 on malformed request lines, 404 on unknown paths.
 *
 * Determinism contract: the server only ever *reads* snapshots taken
 * under the owning components' existing locks (MetricsRegistry's
 * mutex, Progress's atomics, this class's own publish mutex). It
 * never writes into simulation state, never touches stdout, and the
 * publish hooks (publishRun / publishCampaignPoint) copy data that
 * the determinism fixtures already prove byte-identical — so running
 * with --serve on vs off cannot perturb manifests, stdout, or
 * campaign results (tests/telemetry_* fixtures assert exactly this).
 *
 * Like every singleton the atexit machinery may observe, instance()
 * is a leaked heap object (DESIGN.md §10); tests construct private
 * instances on ephemeral ports instead.
 */

#ifndef SER_HARNESS_TELEMETRY_SERVER_HH
#define SER_HARNESS_TELEMETRY_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "faults/campaign_engine.hh"

namespace ser
{
namespace harness
{

/** See file comment. All public methods are thread-safe. */
class TelemetryServer
{
  public:
    TelemetryServer() = default;
    ~TelemetryServer();
    TelemetryServer(const TelemetryServer &) = delete;
    TelemetryServer &operator=(const TelemetryServer &) = delete;

    /** The process-wide server --serve arms (leaked, see file
     * comment). */
    static TelemetryServer &instance();

    /** Most ConvergencePoints the /campaign ring retains. */
    static constexpr std::size_t campaignRingCapacity = 4096;
    /** Most published runs /runs retains (FIFO by submission
     * index); older manifests evict and are counted in /status. */
    static constexpr std::size_t runsRingCapacity = 256;
    /** Request-head cap: a connection that buffers more without a
     * complete head is closed without an answer. */
    static constexpr std::size_t maxHeaderBytes = 8192;
    /** Concurrent-connection bound (excess connects wait in the
     * listen backlog). */
    static constexpr std::size_t maxConnections = 16;

    /**
     * Bind 127.0.0.1:port, start the poll thread. port 0 binds an
     * ephemeral port (tests); port() reports the bound one. Fatal on
     * bind failure (a user-visible --serve configuration error).
     */
    void start(std::uint16_t port);

    /** Join the poll thread and close every socket. Idempotent. */
    void stop();

    bool running() const { return _running.load(); }
    std::uint16_t port() const { return _port; }

    /** Publish one completed run for /runs. `index` is the sweep
     * submission index; `manifest` is the serialized run-manifest
     * JSON (may be empty for runs outside the experiment harness —
     * /runs/<index> then serves the summary fields only). */
    void publishRun(std::size_t index, const std::string &benchmark,
                    double ipc, std::string manifest);

    /** Publish one campaign convergence point for /campaign (called
     * from the CampaignEngine onConvergence hook, miss path only —
     * mirroring the ser_campaign_* metrics convention). */
    void publishCampaignPoint(const std::string &benchmark,
                              const std::string &protection,
                              const faults::ConvergencePoint &point);

    /** One response, socket-free — what the poll loop sends and what
     * the unit tests drive directly. */
    struct Response
    {
        int status = 200;
        std::string contentType = "text/plain; charset=utf-8";
        std::string body;
    };

    Response handle(std::string_view method,
                    std::string_view target) const;

    /**
     * Parse one buffered request head. Returns 1 and fills
     * method/target once a complete, well-formed head is present; 0
     * when more bytes are needed; -1 when malformed (the caller
     * answers 400). Exposed for the unit tests.
     */
    static int parseRequest(const std::string &buffer,
                            std::string *method,
                            std::string *target);

  private:
    struct Connection
    {
        int fd = -1;
        std::string buffer;
    };

    struct PublishedRun
    {
        std::string benchmark;
        double ipc = 0.0;
        std::string manifest;
    };

    struct CampaignSample
    {
        std::uint64_t seq = 0;  ///< monotonic publish counter
        std::string benchmark;
        std::string protection;
        faults::ConvergencePoint point;
    };

    void loop();
    static void sendResponse(int fd, const Response &response);

    std::string statusJson() const;
    std::string runsIndexJson() const;
    std::string campaignJson() const;

    std::atomic<bool> _running{false};
    std::atomic<bool> _stopRequested{false};
    std::uint16_t _port = 0;
    int _listenFd = -1;
    int _wakePipe[2] = {-1, -1};
    std::thread _thread;
    std::chrono::steady_clock::time_point _started;

    mutable std::mutex _publishLock;
    std::map<std::size_t, PublishedRun> _runs;
    std::uint64_t _runsPublished = 0;
    std::uint64_t _runsEvicted = 0;
    std::deque<CampaignSample> _campaignRing;
    std::uint64_t _campaignSeq = 0;
    std::uint64_t _campaignDropped = 0;
};

} // namespace harness
} // namespace ser

#endif // SER_HARNESS_TELEMETRY_SERVER_HH
