#include "telemetry_server.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "harness/build_info.hh"
#include "harness/metrics.hh"
#include "harness/progress.hh"
#include "harness/run_cache.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace ser
{
namespace harness
{

namespace
{

constexpr int kPollTimeoutMs = 200;

const char *
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      default:  return "Error";
    }
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** Write the whole response even past a full socket buffer: short
 * poll(POLLOUT) waits between partial sends, give up (peer gone or
 * wedged) after a bounded total. MSG_NOSIGNAL keeps a disappearing
 * scraper from killing the process with SIGPIPE. */
void
writeAll(int fd, const char *data, std::size_t len)
{
    int spins = 0;
    while (len > 0 && spins < 100) {
        ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n > 0) {
            data += n;
            len -= static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                      errno == EINTR)) {
            struct pollfd pfd = {fd, POLLOUT, 0};
            ::poll(&pfd, 1, 100);
            ++spins;
            continue;
        }
        return;  // peer closed or hard error: drop the rest
    }
}

} // namespace

TelemetryServer &
TelemetryServer::instance()
{
    // Leaked like every singleton the atexit snapshot machinery may
    // observe (DESIGN.md §10).
    static TelemetryServer *server = new TelemetryServer;
    return *server;
}

TelemetryServer::~TelemetryServer()
{
    stop();
}

void
TelemetryServer::start(std::uint16_t port)
{
    if (_running.load())
        SER_FATAL("telemetry: server already running on port {}",
                  _port);

    _listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_listenFd < 0)
        SER_FATAL("telemetry: socket() failed: {}",
                  std::strerror(errno));
    int one = 1;
    ::setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        SER_FATAL("telemetry: cannot bind 127.0.0.1:{}: {}", port,
                  std::strerror(errno));
    if (::listen(_listenFd, 32) != 0)
        SER_FATAL("telemetry: listen() failed: {}",
                  std::strerror(errno));

    socklen_t addr_len = sizeof(addr);
    if (::getsockname(_listenFd,
                      reinterpret_cast<sockaddr *>(&addr),
                      &addr_len) != 0)
        SER_FATAL("telemetry: getsockname() failed: {}",
                  std::strerror(errno));
    _port = ntohs(addr.sin_port);

    if (::pipe(_wakePipe) != 0)
        SER_FATAL("telemetry: pipe() failed: {}",
                  std::strerror(errno));
    setNonBlocking(_listenFd);
    setNonBlocking(_wakePipe[0]);

    _started = std::chrono::steady_clock::now();
    _stopRequested.store(false);
    _running.store(true);
    _thread = std::thread([this] { loop(); });
}

void
TelemetryServer::stop()
{
    if (!_running.exchange(false))
        return;
    _stopRequested.store(true);
    // Wake the poll loop so the join never waits a full timeout.
    char byte = 'x';
    ssize_t ignored = ::write(_wakePipe[1], &byte, 1);
    (void)ignored;
    if (_thread.joinable())
        _thread.join();
    ::close(_listenFd);
    ::close(_wakePipe[0]);
    ::close(_wakePipe[1]);
    _listenFd = -1;
    _wakePipe[0] = _wakePipe[1] = -1;
}

void
TelemetryServer::loop()
{
    std::vector<Connection> conns;
    while (!_stopRequested.load()) {
        const bool accepting = conns.size() < maxConnections;
        const std::size_t polled = conns.size();
        std::vector<pollfd> fds;
        fds.push_back({_wakePipe[0], POLLIN, 0});
        if (accepting)
            fds.push_back({_listenFd, POLLIN, 0});
        for (const Connection &conn : conns)
            fds.push_back({conn.fd, POLLIN, 0});

        if (::poll(fds.data(), fds.size(), kPollTimeoutMs) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }

        const std::size_t base = accepting ? 2 : 1;

        // Existing connections first: compacting in place keeps
        // fds[base + c] aligned with conns[c] for the polled prefix.
        std::size_t alive = 0;
        for (std::size_t c = 0; c < polled; ++c) {
            Connection &conn = conns[c];
            bool close_it = false;
            if (fds[base + c].revents & (POLLIN | POLLHUP | POLLERR)) {
                char buf[4096];
                ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
                if (n > 0) {
                    conn.buffer.append(buf,
                                       static_cast<std::size_t>(n));
                    std::string method, target;
                    int parsed =
                        parseRequest(conn.buffer, &method, &target);
                    if (parsed != 0) {
                        Response response =
                            parsed < 0
                                ? Response{400,
                                           "text/plain; charset=utf-8",
                                           "bad request\n"}
                                : handle(method, target);
                        sendResponse(conn.fd, response);
                        close_it = true;
                    } else if (conn.buffer.size() > maxHeaderBytes) {
                        // Oversized head: drop silently.
                        close_it = true;
                    }
                } else if (n == 0 ||
                           (errno != EAGAIN && errno != EWOULDBLOCK &&
                            errno != EINTR)) {
                    close_it = true;
                }
            }
            if (close_it) {
                ::close(conn.fd);
            } else {
                // Guard the self-move when nothing before this
                // connection closed: moving a string onto itself
                // may clear it, losing the buffered partial
                // request.
                if (alive != c)
                    conns[alive] = std::move(conn);
                ++alive;
            }
        }
        conns.resize(alive);

        if (accepting && (fds[1].revents & POLLIN)) {
            int fd = ::accept(_listenFd, nullptr, nullptr);
            if (fd >= 0) {
                setNonBlocking(fd);
                Connection conn;
                conn.fd = fd;
                conns.push_back(std::move(conn));
            }
        }
    }
    for (Connection &conn : conns)
        ::close(conn.fd);
}

void
TelemetryServer::sendResponse(int fd, const Response &response)
{
    std::ostringstream head;
    head << "HTTP/1.1 " << response.status << " "
         << statusText(response.status) << "\r\n"
         << "Content-Type: " << response.contentType << "\r\n"
         << "Content-Length: " << response.body.size() << "\r\n"
         << "Connection: close\r\n\r\n";
    std::string header = head.str();
    writeAll(fd, header.data(), header.size());
    writeAll(fd, response.body.data(), response.body.size());
}

int
TelemetryServer::parseRequest(const std::string &buffer,
                              std::string *method,
                              std::string *target)
{
    // The head is complete once the header terminator arrives.
    if (buffer.find("\r\n\r\n") == std::string::npos &&
        buffer.find("\n\n") == std::string::npos)
        return 0;

    std::string line = buffer.substr(0, buffer.find('\n'));
    if (!line.empty() && line.back() == '\r')
        line.pop_back();

    // METHOD SP TARGET SP HTTP/x.y — exactly three fields.
    std::istringstream fields(line);
    std::string m, t, version, extra;
    if (!(fields >> m >> t >> version) || (fields >> extra))
        return -1;
    if (version.rfind("HTTP/", 0) != 0 || t.empty() || t[0] != '/')
        return -1;

    *method = std::move(m);
    *target = std::move(t);
    return 1;
}

TelemetryServer::Response
TelemetryServer::handle(std::string_view method,
                        std::string_view target) const
{
    if (method != "GET")
        return {405, "text/plain; charset=utf-8",
                "method not allowed\n"};

    // Drop any query string: /status?pretty == /status.
    std::size_t query = target.find('?');
    std::string path(target.substr(
        0, query == std::string_view::npos ? target.size() : query));

    if (path == "/healthz")
        return {200, "text/plain; charset=utf-8", "ok\n"};
    if (path == "/metrics")
        return {200, "text/plain; version=0.0.4; charset=utf-8",
                MetricsRegistry::instance().renderExposition()};
    if (path == "/status")
        return {200, "application/json; charset=utf-8",
                statusJson()};
    if (path == "/runs")
        return {200, "application/json; charset=utf-8",
                runsIndexJson()};
    if (path == "/campaign")
        return {200, "application/json; charset=utf-8",
                campaignJson()};
    if (path.rfind("/runs/", 0) == 0) {
        std::string tail = path.substr(6);
        char *end = nullptr;
        unsigned long long index =
            std::strtoull(tail.c_str(), &end, 10);
        if (tail.empty() || !end || *end != '\0')
            return {404, "text/plain; charset=utf-8",
                    "no such run\n"};
        std::lock_guard<std::mutex> guard(_publishLock);
        auto it = _runs.find(static_cast<std::size_t>(index));
        if (it == _runs.end())
            return {404, "text/plain; charset=utf-8",
                    "no such run\n"};
        if (!it->second.manifest.empty()) {
            std::string manifest = it->second.manifest;
            if (manifest.back() != '\n')
                manifest += '\n';
            return {200, "application/json; charset=utf-8",
                    std::move(manifest)};
        }
        // Runs outside the experiment harness have no manifest;
        // serve the summary fields.
        std::ostringstream os;
        {
            json::JsonWriter jw(os);
            jw.beginObject();
            jw.kv("benchmark", it->second.benchmark);
            jw.kv("ipc", it->second.ipc);
            jw.endObject();
        }
        return {200, "application/json; charset=utf-8",
                os.str() + "\n"};
    }
    return {404, "text/plain; charset=utf-8", "not found\n"};
}

std::string
TelemetryServer::statusJson() const
{
    Progress::Snapshot snap = Progress::instance().snapshot();

    RunCache &cache = RunCache::instance();
    RunCache::Counters sim = cache.simCounters();
    RunCache::Counters dead = cache.deadnessCounters();
    RunCache::Counters avf = cache.avfCounters();
    std::uint64_t hits = sim.hits + dead.hits + avf.hits;
    std::uint64_t diskHits =
        sim.diskHits + dead.diskHits + avf.diskHits;
    std::uint64_t lookups = hits + diskHits + sim.misses +
                            dead.misses + avf.misses;

    std::uint64_t published, retained, evicted;
    {
        std::lock_guard<std::mutex> guard(_publishLock);
        published = _runsPublished;
        retained = _runs.size();
        evicted = _runsEvicted;
    }

    double uptime = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - _started).count();

    std::ostringstream os;
    {
        json::JsonWriter jw(os);
        jw.beginObject();
        jw.kv("active", snap.active);
        jw.kv("label", snap.label);
        jw.kv("done", snap.done);
        jw.kv("total", snap.total);
        jw.kv("percent", snap.total
                             ? 100.0 * static_cast<double>(snap.done) /
                                   static_cast<double>(snap.total)
                             : 0.0);
        jw.kv("runs_per_sec", snap.runsPerSec);
        jw.key("eta_seconds");
        if (snap.etaSeconds >= 0)
            jw.value(snap.etaSeconds);
        else
            jw.nullValue();
        jw.key("cache");
        jw.beginObject();
        jw.kv("hits", hits);
        jw.kv("disk_hits", diskHits);
        jw.kv("lookups", lookups);
        jw.kv("hit_rate",
              lookups ? static_cast<double>(hits + diskHits) /
                            static_cast<double>(lookups)
                      : 0.0);
        jw.endObject();
        jw.key("campaign");
        if (snap.campaignActive) {
            jw.beginObject();
            jw.kv("ci_half_width", snap.campaignHalfWidth);
            jw.kv("ci_target", snap.campaignTarget);
            jw.endObject();
        } else {
            jw.nullValue();
        }
        jw.kv("runs_published", published);
        jw.kv("runs_retained", retained);
        jw.kv("runs_evicted", evicted);
        jw.kv("uptime_seconds", uptime);
        jw.endObject();
    }
    return os.str() + "\n";
}

std::string
TelemetryServer::runsIndexJson() const
{
    std::ostringstream os;
    {
        json::JsonWriter jw(os);
        std::lock_guard<std::mutex> guard(_publishLock);
        jw.beginObject();
        jw.kv("count", static_cast<std::uint64_t>(_runs.size()));
        jw.kv("published", _runsPublished);
        jw.kv("evicted", _runsEvicted);
        jw.key("runs");
        jw.beginArray();
        for (const auto &entry : _runs) {
            jw.beginObject();
            jw.kv("index",
                  static_cast<std::uint64_t>(entry.first));
            jw.kv("benchmark", entry.second.benchmark);
            jw.kv("ipc", entry.second.ipc);
            jw.kv("manifest",
                  "/runs/" + std::to_string(entry.first));
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
    }
    return os.str() + "\n";
}

std::string
TelemetryServer::campaignJson() const
{
    std::ostringstream os;
    {
        json::JsonWriter jw(os);
        std::lock_guard<std::mutex> guard(_publishLock);
        jw.beginObject();
        jw.kv("dropped", _campaignDropped);
        jw.key("points");
        jw.beginArray();
        for (const CampaignSample &sample : _campaignRing) {
            jw.beginObject();
            jw.kv("seq", sample.seq);
            jw.kv("benchmark", sample.benchmark);
            jw.kv("protection", sample.protection);
            jw.kv("batch", sample.point.batch);
            jw.kv("samples", sample.point.samples);
            jw.kv("worst_ci_half_width",
                  sample.point.worstHalfWidth);
            jw.key("structures");
            jw.beginArray();
            for (const auto &s : sample.point.structures) {
                jw.beginObject();
                jw.kv("structure",
                      faults::structureName(s.structure));
                jw.kv("samples", s.samples);
                jw.kv("sdc_rate", s.sdcRate);
                jw.kv("sdc_ci_half_width", s.sdcHalfWidth);
                jw.kv("due_rate", s.dueRate);
                jw.kv("due_ci_half_width", s.dueHalfWidth);
                jw.endObject();
            }
            jw.endArray();
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
    }
    return os.str() + "\n";
}

void
TelemetryServer::publishRun(std::size_t index,
                            const std::string &benchmark, double ipc,
                            std::string manifest)
{
    if (!_running.load())
        return;
    std::lock_guard<std::mutex> guard(_publishLock);
    bool fresh = _runs.find(index) == _runs.end();
    PublishedRun &run = _runs[index];
    run.benchmark = benchmark;
    run.ipc = ipc;
    run.manifest = std::move(manifest);
    if (!fresh)
        return;
    ++_runsPublished;
    // Bounded retention: evict the oldest submission index (the map
    // is ordered by it) so an arbitrarily long sweep keeps a fixed
    // window of full manifests instead of all of them.
    while (_runs.size() > runsRingCapacity) {
        _runs.erase(_runs.begin());
        ++_runsEvicted;
    }
}

void
TelemetryServer::publishCampaignPoint(
    const std::string &benchmark, const std::string &protection,
    const faults::ConvergencePoint &point)
{
    if (!_running.load())
        return;
    std::lock_guard<std::mutex> guard(_publishLock);
    if (_campaignRing.size() >= campaignRingCapacity) {
        _campaignRing.pop_front();
        ++_campaignDropped;
    }
    CampaignSample sample;
    sample.seq = _campaignSeq++;
    sample.benchmark = benchmark;
    sample.protection = protection;
    sample.point = point;
    _campaignRing.push_back(std::move(sample));
}

} // namespace harness
} // namespace ser
