#include "cluster/coordinator.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/stats.hh"
#include "runner/report.hh"
#include "serve/spec.hh"

namespace dynaspam::cluster
{

namespace
{

/** epoll_wait tick: timers (pings, deadlines, backoffs) run per tick. */
constexpr int kEpollTickMs = 100;

/** Batch-reassignment backoff saturates here (see retryBackoffDelayMs). */
constexpr std::uint64_t kRetryBackoffCapMs = 60'000;

/**
 * A client that buffers more than this many bytes while a request is
 * pending (so the parser is paused) is flooding us: drop it.
 */
constexpr std::size_t kBusyClientBufferFactor = 4;

/** Self-pipe write end for the SIGTERM/SIGINT drain handler. */
std::atomic<int> gCoordinatorWakeFd{-1};

extern "C" void
coordinatorSignalHandler(int)
{
    int fd = gCoordinatorWakeFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
    }
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string
requestLabels(const std::string &endpoint, int status)
{
    std::ostringstream os;
    os << "endpoint=\"" << endpoint << "\",status=\"" << status << "\"";
    return os.str();
}

std::string
workerLabel(int slot)
{
    std::ostringstream os;
    os << "worker=\"" << slot << "\"";
    return os.str();
}

/**
 * Drain a non-blocking fd into @p buf.
 * @return 1 more may come, 0 peer closed, -1 error
 */
int
drainFd(int fd, std::string &buf)
{
    char chunk[16384];
    while (true) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            buf.append(chunk, std::size_t(n));
            continue;
        }
        if (n == 0)
            return 0;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return 1;
        return -1;
    }
}

/**
 * Flush @p out to a non-blocking fd.
 * @return false when the peer vanished
 */
bool
flushBuffer(int fd, std::string &out)
{
    while (!out.empty()) {
        ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            out.erase(0, std::size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;    // caller arms EPOLLOUT
        return false;
    }
    return true;
}

/** A sweep report over spliced entries, as `dynaspam sweep` writes it. */
std::string
reportBody(const std::string &name, std::vector<json::Value> entries,
           std::size_t hits)
{
    StatRegistry registry = runner::sweepRequestStats(entries.size(), hits);
    std::ostringstream os;
    runner::sweepReportJson(name, std::move(entries), &registry)
        .write(os, 2);
    os << "\n";
    return os.str();
}

/** Each job's content hash, computed once per request. */
std::vector<std::uint64_t>
hashesOf(const std::vector<runner::Job> &jobs)
{
    std::vector<std::uint64_t> hashes;
    hashes.reserve(jobs.size());
    for (const runner::Job &job : jobs)
        hashes.push_back(job.hash());
    return hashes;
}

/** The 16-hex-digit form of a job hash (Job::hashHex). */
std::string
hexOf(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

serve::HttpResponse
jsonResponse(int status, json::Object body)
{
    serve::HttpResponse resp;
    resp.status = status;
    resp.body = json::Value(std::move(body)).dump(2);
    resp.body += '\n';
    return resp;
}

} // namespace

Coordinator::Coordinator(CoordinatorOptions options_)
    : options(std::move(options_))
{
    if (options.workerSlots == 0)
        fatal("coordinator: --workers must be >= 1");
    slotFd.assign(options.workerSlots, -1);

    metrics_.declareCounter("dynaspam_http_requests_total",
                            "HTTP requests by endpoint and status code.");
    metrics_.declareCounter("dynaspam_http_connections_total",
                            "Accepted client TCP connections.");
    metrics_.declareGauge("dynaspam_queue_depth",
                          "Jobs admitted but not yet handed to a worker.");
    metrics_.declareGauge("dynaspam_jobs_inflight",
                          "Jobs in batches workers are executing.");
    metrics_.declareCounter("dynaspam_jobs_executed_total",
                            "Simulations the workers completed.");
    metrics_.declareCounter("dynaspam_jobs_cancelled_total",
                            "Queued jobs cancelled because every request "
                            "waiting on them failed.");
    metrics_.declareCounter("dynaspam_cache_hits_total",
                            "Jobs answered from a worker shard cache.");
    metrics_.declareCounter("dynaspam_cache_misses_total",
                            "Jobs answered without a cache hit.");
    metrics_.declareGauge("dynaspam_cache_hit_ratio",
                          "Lifetime cache hits / lookups (0 when none).");
    metrics_.declareHistogram(
        "dynaspam_sim_kips",
        "Simulation speed per executed job, in kilo-instructions "
        "committed per host second.",
        {250, 500, 1000, 2000, 4000, 8000, 16000, 32000});
    metrics_.declareGauge("dynaspam_cluster_workers_connected",
                          "Workers currently holding a shard slot.");
    metrics_.declareGauge("dynaspam_cluster_worker_inflight",
                          "Batches inflight per worker slot.");
    metrics_.declareGauge("dynaspam_cluster_worker_queue_depth",
                          "Batches queued worker-side, per slot (from the "
                          "last Pong).");
    metrics_.declareGauge("dynaspam_cluster_worker_evictions",
                          "Cumulative memo + cache evictions per slot "
                          "(from the last Pong).");
    metrics_.declareCounter("dynaspam_cluster_batch_retries_total",
                            "Batch reassignments after a worker died.");
    metrics_.declareCounter("dynaspam_cluster_hello_rejects_total",
                            "Worker enrollments rejected (bad or missing "
                            "cluster token).");
    metrics_.declareGauge("dynaspam_cluster_coordinator_memo_hits",
                          "Jobs answered from the coordinator-side "
                          "result memo.");
    metrics_.declareGauge("dynaspam_cluster_outstanding_jobs",
                          "Jobs belonging to unfinished requests.");
    metrics_.declareHistogram(
        "dynaspam_request_latency_seconds",
        "End-to-end /run and /sweep latency in seconds.",
        {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30});
}

Coordinator::~Coordinator()
{
    if (started && !drained) {
        beginDrain();
        waitUntilDrained();
    }
}

void
Coordinator::attachWorker(common::Fd link)
{
    if (started)
        panic("Coordinator::attachWorker after start");
    attached.push_back(std::move(link));
}

void
Coordinator::start()
{
    if (started)
        panic("Coordinator::start called twice");

    wakePipe = common::Pipe::create();
    // The event loop drains the wake pipe until EAGAIN; it must never
    // block there.
    setNonBlocking(wakePipe.readEnd.get());

    listenHttpFd = serve::listenTcp(options.bindAddress, options.httpPort,
                                    options.acceptBacklog, httpPort_);
    setNonBlocking(listenHttpFd.get());
    remoteWorkers = attached.empty();
    if (remoteWorkers) {
        listenWorkerFd =
            serve::listenTcp(options.bindAddress, options.workerPort,
                             options.acceptBacklog, workerPort_);
        setNonBlocking(listenWorkerFd.get());
    }

    epollFd.reset(::epoll_create1(0));
    if (!epollFd)
        fatal("coordinator: epoll_create1: ", std::strerror(errno));
    for (int fd : {listenHttpFd.get(), listenWorkerFd.get(),
                   wakePipe.readEnd.get()}) {
        if (fd < 0)
            continue;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd.get(), EPOLL_CTL_ADD, fd, &ev) != 0)
            fatal("coordinator: epoll_ctl: ", std::strerror(errno));
    }

    started = true;
    loopThread = std::thread([this] { eventLoop(); });
}

void
Coordinator::beginDrain()
{
    if (wakePipe.writeEnd.valid()) {
        char byte = 1;
        [[maybe_unused]] ssize_t n =
            ::write(wakePipe.writeEnd.get(), &byte, 1);
    }
}

void
Coordinator::waitUntilDrained()
{
    if (!started || drained)
        return;
    if (loopThread.joinable())
        loopThread.join();
    int wakeFd = wakePipe.writeEnd.get();
    gCoordinatorWakeFd.compare_exchange_strong(wakeFd, -1);
    drained = true;
}

void
Coordinator::drainOnSignals()
{
    gCoordinatorWakeFd.store(wakePipe.writeEnd.get(),
                             std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = coordinatorSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

int
Coordinator::serveForever()
{
    start();
    drainOnSignals();

    if (options.verbose)
        inform("coordinator: serving HTTP on ", options.bindAddress, ":",
               httpPort(), ", workers on :", workerPort(), " (",
               options.workerSlots, " shard slots, queue capacity ",
               options.queueCapacity, ")");

    waitUntilDrained();

    if (options.verbose)
        inform("coordinator: drained, exiting");
    return 0;
}

void
Coordinator::eventLoop()
{
    // The loop thread owns every piece of GUARDED_BY(loopRole) state for
    // its entire lifetime; helpers REQUIRES(loopRole) and are therefore
    // uncallable from any other thread.
    common::ScopedRole role(loopRole);

    lastPingSweep = Clock::now();
    for (common::Fd &link : attached)
        addWorker(std::move(link));
    attached.clear();

    std::vector<epoll_event> events(64);
    while (true) {
        int ready = ::epoll_wait(epollFd.get(), events.data(),
                                 int(events.size()), kEpollTickMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("coordinator: epoll_wait: ", std::strerror(errno));
            break;
        }

        // Connection events first, accepts last: a close in this wave
        // can then never collide with an fd number a fresh accept
        // reuses.
        for (int pass = 0; pass < 2; pass++) {
            for (int i = 0; i < ready; i++) {
                int fd = events[i].data.fd;
                bool isListen =
                    fd == listenHttpFd.get() ||
                    fd == listenWorkerFd.get() ||
                    fd == wakePipe.readEnd.get();
                if ((pass == 0) == isListen)
                    continue;

                if (fd == wakePipe.readEnd.get()) {
                    char sink[64];
                    while (::read(wakePipe.readEnd.get(), sink,
                                  sizeof(sink)) > 0) {
                    }
                    if (!draining) {
                        draining = true;
                        for (common::Fd *lfd :
                             {&listenHttpFd, &listenWorkerFd}) {
                            if (lfd->valid()) {
                                ::epoll_ctl(epollFd.get(), EPOLL_CTL_DEL,
                                            lfd->get(), nullptr);
                                lfd->reset();
                            }
                        }
                    }
                } else if (fd == listenHttpFd.get()) {
                    acceptClients();
                } else if (fd == listenWorkerFd.get()) {
                    acceptWorkers();
                } else if (clients.count(fd)) {
                    if (events[i].events & (EPOLLHUP | EPOLLERR))
                        closeClient(fd);
                    else {
                        if (events[i].events & EPOLLIN)
                            onClientReadable(fd);
                        if (clients.count(fd) &&
                            (events[i].events & EPOLLOUT))
                            onClientWritable(fd);
                    }
                } else if (workers.count(fd)) {
                    if (events[i].events & (EPOLLHUP | EPOLLERR))
                        dropWorker(fd, "link error");
                    else {
                        if (events[i].events & EPOLLIN)
                            onWorkerReadable(fd);
                        if (workers.count(fd) &&
                            (events[i].events & EPOLLOUT))
                            onWorkerWritable(fd);
                    }
                }
            }
        }

        checkTimers();

        // A drain finishes every request, and every batch a worker
        // already holds, before the links close.
        if (draining && requests.empty() && exploreSessions.empty() &&
            runningJobs == 0) {
            bool flushed = true;
            for (const auto &kv : clients)
                if (!kv.second.out.empty())
                    flushed = false;
            if (flushed)
                break;
        }
    }

    for (auto &kv : clients)
        ::close(kv.first);
    clients.clear();
    // Orderly shutdown: a Goodbye frame tells each worker to exit
    // instead of reconnecting (a bare EOF now means "coordinator lost,
    // retry with backoff"). Best-effort blocking send — the links are
    // about to close either way.
    const std::string bye = encodeFrame(FrameType::Goodbye, "{}");
    for (auto &kv : workers) {
        [[maybe_unused]] ssize_t n =
            ::send(kv.first, bye.data(), bye.size(), MSG_NOSIGNAL);
        ::close(kv.first);
    }
    workers.clear();
    std::fill(slotFd.begin(), slotFd.end(), -1);
}

void
Coordinator::updateEvents(int fd, bool wantWrite)
{
    epoll_event ev{};
    ev.events = wantWrite ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epollFd.get(), EPOLL_CTL_MOD, fd, &ev) != 0)
        warn("coordinator: epoll_ctl mod: ", std::strerror(errno));
}

void
Coordinator::acceptClients()
{
    while (true) {
        common::Fd accepted(::accept4(listenHttpFd.get(), nullptr,
                                      nullptr, SOCK_NONBLOCK));
        if (!accepted) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn("coordinator: accept: ", std::strerror(errno));
            return;
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = accepted.get();
        if (::epoll_ctl(epollFd.get(), EPOLL_CTL_ADD, accepted.get(),
                        &ev) != 0)
            continue;    // `accepted` closes the socket
        ClientConn conn;
        // analyze-owns: the clients map owns the fd; closeClient() and
        // the event-loop teardown close it.
        conn.fd = accepted.release();
        clients.emplace(conn.fd, std::move(conn));
        metrics_.inc("dynaspam_http_connections_total");
    }
}

void
Coordinator::acceptWorkers()
{
    while (true) {
        common::Fd accepted(::accept4(listenWorkerFd.get(), nullptr,
                                      nullptr, SOCK_NONBLOCK));
        if (!accepted) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn("coordinator: worker accept: ", std::strerror(errno));
            return;
        }
        addWorker(std::move(accepted));
    }
}

void
Coordinator::addWorker(common::Fd link)
{
    setNonBlocking(link.get());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = link.get();
    if (::epoll_ctl(epollFd.get(), EPOLL_CTL_ADD, link.get(), &ev) != 0)
        return;    // `link` closes the socket
    WorkerConn conn;
    // analyze-owns: the workers map owns the fd; dropWorker() and the
    // event-loop teardown close it.
    conn.fd = link.release();
    conn.lastPong = Clock::now();
    workers.emplace(conn.fd, std::move(conn));
}

void
Coordinator::onClientReadable(int fd)
{
    ClientConn &conn = clients.at(fd);
    int state = drainFd(fd, conn.in);
    if (state <= 0) {
        closeClient(fd);
        return;
    }
    if (conn.busy &&
        conn.in.size() > options.maxRequestBytes * kBusyClientBufferFactor) {
        closeClient(fd);
        return;
    }
    parseClientRequests(fd);
}

void
Coordinator::onClientWritable(int fd)
{
    ClientConn &conn = clients.at(fd);
    if (!flushBuffer(fd, conn.out)) {
        closeClient(fd);
        return;
    }
    if (conn.out.empty()) {
        if (conn.closeAfterFlush) {
            closeClient(fd);
            return;
        }
        updateEvents(fd, false);
    }
}

void
Coordinator::parseClientRequests(int fd)
{
    while (true) {
        // Re-find each round: a handler can close this client.
        auto it = clients.find(fd);
        if (it == clients.end())
            return;
        ClientConn &conn = it->second;
        if (conn.busy || conn.closeAfterFlush)
            return;

        serve::HttpRequest req;
        std::size_t consumed = 0;
        switch (serve::parseHttpRequest(conn.in, options.maxRequestBytes,
                                        req, consumed)) {
          case serve::HttpParseOutcome::NeedMore:
            return;
          // Without keep-alive, queueResponse closes the connection once
          // flushed; `conn` may be gone when it returns.
          case serve::HttpParseOutcome::Malformed:
            queueResponse(conn,
                          errorResponse(400, "malformed HTTP request"),
                          false, "unparsed");
            return;
          case serve::HttpParseOutcome::TooLarge:
            queueResponse(
                conn, errorResponse(413, "request exceeds size limit"),
                false, "unparsed");
            return;
          case serve::HttpParseOutcome::Ok:
            conn.in.erase(0, consumed);
            handleHttpRequest(conn, req);
            break;
        }
    }
}

void
Coordinator::handleHttpRequest(ClientConn &conn,
                               const serve::HttpRequest &req)
{
    // Keep-alive is opt-in (`Connection: keep-alive`), so a client that
    // reads to EOF sees the close; a draining coordinator stops
    // granting it.
    const bool keepAlive = req.wantsKeepAlive() && !draining;
    auto reply = [&](const serve::HttpResponse &resp, const char *label) {
        queueResponse(conn, resp, keepAlive, label);
    };
    // /run takes query parameters; every other endpoint matches on the
    // full target.
    const std::string path = req.target.substr(0, req.target.find('?'));

    if (req.target == "/healthz") {
        if (req.method != "GET")
            return reply(errorResponse(405, "use GET"), "/healthz");
        return reply(jsonResponse(200, json::Object{{"status", "ok"}}),
                     "/healthz");
    }
    if (req.target == "/metrics") {
        if (req.method != "GET")
            return reply(errorResponse(405, "use GET"), "/metrics");
        return reply(handleMetricsScrape(), "/metrics");
    }
    if (path == "/run") {
        if (req.method != "POST")
            return reply(errorResponse(405, "use POST"), "/run");
        runner::Job job;
        try {
            job = serve::jobFromSpecJson(json::Value::parse(req.body));
            serve::applyRunQuery(job, req.target);
        } catch (const FatalError &err) {
            return reply(errorResponse(400, err.what()), "/run");
        }
        if (job.warmupInsts == 0)
            job.warmupInsts = options.defaultWarmupInsts;
        return admitRequest(conn, "/run", "run", {job}, keepAlive);
    }
    if (req.target == "/sweep") {
        if (req.method != "POST")
            return reply(errorResponse(405, "use POST"), "/sweep");
        serve::SweepRequest sweep;
        try {
            sweep = serve::parseSweepBody(req.body);
        } catch (const FatalError &err) {
            return reply(errorResponse(400, err.what()), "/sweep");
        }
        for (runner::Job &job : sweep.jobs)
            if (job.warmupInsts == 0)
                job.warmupInsts = options.defaultWarmupInsts;
        return admitRequest(conn, "/sweep", sweep.name,
                            std::move(sweep.jobs), keepAlive);
    }
    if (req.target == "/explore")
        return handleExplore(conn, req);
    if (req.target.rfind("/results/", 0) == 0)
        return handleResults(conn, req, keepAlive);
    reply(errorResponse(404, "unknown endpoint"), "other");
}

void
Coordinator::queueResponse(ClientConn &conn,
                           const serve::HttpResponse &resp,
                           bool keep_alive, const std::string &endpoint)
{
    metrics_.inc("dynaspam_http_requests_total",
                 requestLabels(endpoint, resp.status));
    conn.out += serve::serializeHttpResponse(resp, keep_alive);
    if (!keep_alive)
        conn.closeAfterFlush = true;
    if (!flushBuffer(conn.fd, conn.out)) {
        closeClient(conn.fd);
        return;
    }
    if (!conn.out.empty())
        updateEvents(conn.fd, true);
    else if (conn.closeAfterFlush)
        closeClient(conn.fd);
}

void
Coordinator::closeClient(int fd)
{
    auto it = clients.find(fd);
    if (it == clients.end())
        return;
    // A pending request keeps running; its result still warms the
    // owning shard's caches. The response is dropped on completion.
    // An explore session dies with its stream: any in-flight internal
    // batch completes (warming shard caches and the memo) and is then
    // dropped when finishExploreBatch finds the session gone.
    const std::uint64_t exploreId = it->second.exploreId;
    ::close(fd);
    clients.erase(it);
    if (exploreId != 0)
        exploreSessions.erase(exploreId);
}

void
Coordinator::onWorkerReadable(int fd)
{
    WorkerConn &conn = workers.at(fd);
    int state = drainFd(fd, conn.in);
    if (state < 0) {
        dropWorker(fd, "read error");
        return;
    }

    while (workers.count(fd)) {
        Frame frame;
        std::size_t consumed = 0;
        switch (decodeFrame(workers.at(fd).in, frame, consumed)) {
          case DecodeOutcome::Bad:
            dropWorker(fd, "bad frame");
            return;
          case DecodeOutcome::NeedMore:
            if (state == 0)
                dropWorker(fd, "connection closed");
            return;
          case DecodeOutcome::Ok:
            workers.at(fd).in.erase(0, consumed);
            handleWorkerFrame(workers.at(fd), frame);
            break;
        }
    }
}

void
Coordinator::onWorkerWritable(int fd)
{
    WorkerConn &conn = workers.at(fd);
    if (!flushBuffer(fd, conn.out)) {
        dropWorker(fd, "write error");
        return;
    }
    if (conn.out.empty()) {
        if (conn.closeAfterFlush) {
            dropWorker(fd, "handshake rejected");
            return;
        }
        updateEvents(fd, false);
    }
}

void
Coordinator::handleWorkerFrame(WorkerConn &conn, const Frame &frame)
{
    if (conn.slot < 0) {
        // Pre-handshake: only Hello is legal.
        if (frame.type != FrameType::Hello) {
            dropWorker(conn.fd, "frame before Hello");
            return;
        }
        try {
            json::Value hello = json::Value::parse(frame.payload);
            if (hello.at("protocol").asUint() != kWireVersion) {
                json::Object reject;
                reject.emplace("error", "protocol version mismatch");
                conn.closeAfterFlush = true;
                queueFrame(conn, FrameType::Welcome,
                           json::Value(std::move(reject)));
                return;
            }
            if (!options.clusterToken.empty()) {
                // Authenticated enrollment: a wrong or missing token
                // drops the connection before any Welcome. The drop
                // path logs nothing at this stage, so the expected
                // token can never leak into logs (and the counter
                // below carries no label material from the frame).
                const json::Value *token = hello.find("token");
                if (!token || !token->isString() ||
                    token->asString() != options.clusterToken) {
                    metrics_.inc("dynaspam_cluster_hello_rejects_total");
                    dropWorker(conn.fd, "enrollment rejected");
                    return;
                }
            }
        } catch (const FatalError &) {
            dropWorker(conn.fd, "malformed Hello");
            return;
        }

        auto vacancy = std::find(slotFd.begin(), slotFd.end(), -1);
        if (vacancy == slotFd.end()) {
            json::Object reject;
            reject.emplace("error", "cluster full");
            conn.closeAfterFlush = true;
            queueFrame(conn, FrameType::Welcome,
                       json::Value(std::move(reject)));
            return;
        }
        conn.slot = int(vacancy - slotFd.begin());
        *vacancy = conn.fd;
        conn.lastPong = Clock::now();

        json::Object welcome;
        welcome.emplace("slot", std::uint64_t(conn.slot));
        welcome.emplace("slots", std::uint64_t(options.workerSlots));
        queueFrame(conn, FrameType::Welcome,
                   json::Value(std::move(welcome)));
        updateWorkerGauge();
        if (options.verbose)
            inform("coordinator: worker joined slot ", conn.slot, "/",
                   options.workerSlots);
        assignPendingBatches();
        return;
    }

    switch (frame.type) {
      case FrameType::Pong: {
        conn.lastPong = Clock::now();
        try {
            json::Value pong = json::Value::parse(frame.payload);
            const std::string label = workerLabel(conn.slot);
            metrics_.set("dynaspam_cluster_worker_queue_depth", label,
                         double(pong.at("queued").asUint()));
            metrics_.set("dynaspam_cluster_worker_evictions", label,
                         double(pong.at("evictions").asUint()));
            // Cumulative warm passes the worker actually simulated; a
            // snapshot-cache-served sweep leaves this flat, which the
            // ship-smoke asserts over /metrics.
            if (const json::Value *warmups = pong.find("warmups"))
                metrics_.set("dynaspam_cluster_worker_warmups", label,
                             double(warmups->asUint()));
        } catch (const FatalError &) {
            dropWorker(conn.fd, "malformed Pong");
        }
        break;
      }
      case FrameType::Result:
      case FrameType::ResultRaw:
        handleResult(conn, frame);
        break;
      default:
        dropWorker(conn.fd, "unexpected frame type");
        break;
    }
}

void
Coordinator::handleResult(WorkerConn &conn, const Frame &frame)
{
    // Success results arrive as binary ResultRaw frames whose entries
    // are pre-rendered report fragments — spliced below via json::Raw,
    // never parsed. The JSON Result frame only carries errors.
    std::uint64_t batchId = 0;
    std::vector<RawEntry> rawEntries;
    std::string error;
    if (frame.type == FrameType::ResultRaw) {
        if (!decodeResultRaw(frame.payload, batchId, rawEntries)) {
            dropWorker(conn.fd, "malformed Result");
            return;
        }
    } else {
        try {
            json::Value payload = json::Value::parse(frame.payload);
            batchId = payload.at("id").asUint();
            error = payload.at("error").asString();
        } catch (const FatalError &) {
            dropWorker(conn.fd, "malformed Result");
            return;
        }
    }

    if (conn.lookups.erase(batchId)) {
        handleLookupResult(batchId, std::move(rawEntries));
        return;
    }
    if (conn.batchId != batchId) {
        dropWorker(conn.fd, "result for a batch it does not hold");
        return;
    }
    conn.batchId = 0;
    metrics_.set("dynaspam_cluster_worker_inflight",
                 workerLabel(conn.slot), 0.0);

    auto batchIt = batches.find(batchId);
    if (batchIt == batches.end())
        return;
    Batch batch = std::move(batchIt->second);
    batches.erase(batchIt);
    runningJobs -= batch.jobs.size();

    if (error.empty() && rawEntries.size() != batch.jobs.size())
        error = "shard returned " + std::to_string(rawEntries.size()) +
                " entries for a " + std::to_string(batch.jobs.size()) +
                "-job batch";
    if (!error.empty()) {
        // Deterministic execution failure: retrying would reproduce it.
        failBatch(batch, 500, error);
        assignPendingBatches();
        return;
    }

    std::vector<std::uint64_t> completed;
    for (std::size_t i = 0; i < rawEntries.size(); i++) {
        RawEntry &entry = rawEntries[i];
        if (entry.executed) {
            metrics_.inc("dynaspam_jobs_executed_total");
            if (entry.hostNanos > 0)
                metrics_.observe("dynaspam_sim_kips",
                                 double(entry.insts) * 1e6 /
                                     double(entry.hostNanos));
        }
        if (options.memoCapacity > 0) {
            // Memoize a twin of the fragment with from_cache flipped to
            // true: a memo-served repeat IS a cache hit, and must say
            // so. The re-render is byte-safe — json::Object keys are
            // sorted, and dumpAt at the worker's indent/depth produces
            // exactly the splice-compatible form.
            try {
                json::Value twin = json::Value::parse(entry.fragment);
                twin.asObject().insert_or_assign("from_cache",
                                                 json::Value(true));
                memoPut(hexOf(batch.hashes[i]),
                        twin.dumpAt(kReportIndent, kEntryFragmentDepth));
            } catch (const FatalError &) {
                // An unparseable fragment still splices verbatim; it
                // just never memoizes.
            }
        }

        auto flightIt = flights.find(batch.hashes[i]);
        if (flightIt == flights.end() ||
            flightIt->second.batchId != batch.id)
            continue;
        const auto waiters = std::move(flightIt->second.waiters);
        flights.erase(flightIt);
        for (std::size_t w = 0; w < waiters.size(); w++) {
            auto reqIt = requests.find(waiters[w].first);
            if (reqIt == requests.end())
                continue;
            Request &request = reqIt->second;
            request.entries[waiters[w].second] = json::Value(json::Raw{
                w + 1 == waiters.size() ? std::move(entry.fragment)
                                        : entry.fragment});
            if (entry.fromCache)
                request.hits++;
            if (--request.remaining == 0)
                completed.push_back(request.id);
        }
    }

    // Hand the worker its next batch before rendering replies.
    assignPendingBatches();
    for (std::uint64_t id : completed) {
        auto reqIt = requests.find(id);
        if (reqIt != requests.end())
            finishRequest(reqIt->second);
    }
}

void
Coordinator::handleLookupResult(std::uint64_t lookupId,
                                std::vector<RawEntry> entries)
{
    auto lookupIt = lookups.find(lookupId);
    if (lookupIt == lookups.end())
        return;
    const std::uint64_t requestId = lookupIt->second;
    lookups.erase(lookupIt);
    auto reqIt = requests.find(requestId);
    if (reqIt == requests.end())
        return;    // answered by another worker, or timed out
    Request &request = reqIt->second;

    if (!entries.empty()) {
        // Exactly the bytes a /run of the job answers now.
        std::vector<json::Value> found;
        found.push_back(
            json::Value(json::Raw{std::move(entries.front().fragment)}));
        serve::HttpResponse resp;
        resp.body = reportBody("run", std::move(found),
                               entries.front().fromCache ? 1 : 0);
        respond(request, resp);
        closeRequest(requestId);
        return;
    }
    if (--request.lookupsPending == 0)
        failRequest(requestId, 404, "no result for hash " + request.name);
}

void
Coordinator::queueFrame(WorkerConn &conn, FrameType type,
                        const json::Value &payload)
{
    conn.out += encodeFrame(type, payload.dump());
    if (!flushBuffer(conn.fd, conn.out)) {
        dropWorker(conn.fd, "write error");
        return;
    }
    if (!conn.out.empty())
        updateEvents(conn.fd, true);
    else if (conn.closeAfterFlush)
        dropWorker(conn.fd, "handshake rejected");
}

void
Coordinator::dropWorker(int fd, const char *why)
{
    auto it = workers.find(fd);
    if (it == workers.end())
        return;
    WorkerConn &conn = it->second;
    const int slot = conn.slot;
    const std::uint64_t batchId = conn.batchId;
    const std::set<std::uint64_t> owedLookups = std::move(conn.lookups);

    if (slot >= 0) {
        slotFd[std::size_t(slot)] = -1;
        metrics_.set("dynaspam_cluster_worker_inflight", workerLabel(slot),
                     0.0);
        if (options.verbose)
            warn("coordinator: worker slot ", slot, " dropped (", why,
                 "), ", batchId ? 1 : 0, " batches to reassign");
    }
    ::close(fd);
    workers.erase(it);
    updateWorkerGauge();

    // A lookup the dead worker owed counts as "not found there".
    for (std::uint64_t lookupId : owedLookups)
        handleLookupResult(lookupId, {});

    auto batchIt = batches.find(batchId);
    if (batchId == 0 || batchIt == batches.end())
        return;
    Batch &batch = batchIt->second;
    batch.assignedFd = -1;
    runningJobs -= batch.jobs.size();
    queuedJobs += batch.jobs.size();
    batch.attempts++;
    metrics_.inc("dynaspam_cluster_batch_retries_total", workerLabel(slot));
    if (batch.attempts > options.maxBatchRetries) {
        Batch dead = std::move(batch);
        batches.erase(batchIt);
        queuedJobs -= dead.jobs.size();
        std::ostringstream os;
        os << "shard batch failed after " << options.maxBatchRetries
           << " reassignments (workers keep dying)";
        failBatch(dead, 503, os.str());
    } else {
        // Exponential backoff: 1x, 2x, 4x, ... the base, clamped so a
        // high attempt count can neither overflow the shift (UB at 64)
        // nor schedule the retry past any useful horizon. The next
        // timer tick reassigns it.
        batch.notBefore =
            Clock::now() +
            std::chrono::milliseconds(retryBackoffDelayMs(
                options.retryBackoffMs, batch.attempts,
                kRetryBackoffCapMs));
        pruneBatch(batchId);
    }
    updateJobGauges();
}

std::optional<serve::HttpResponse>
Coordinator::admissionError(const std::vector<std::uint64_t> &hashes)
{
    // Jobs neither memoized nor in flight, once per hash: what
    // admitting the request would queue.
    std::set<std::uint64_t> fresh;
    bool allMemo = true;
    for (std::uint64_t hash : hashes) {
        const bool memo =
            options.memoCapacity > 0 && memoMap.count(hexOf(hash)) > 0;
        allMemo = allMemo && memo;
        if (!memo && !flights.count(hash))
            fresh.insert(hash);
    }
    if (queuedJobs + fresh.size() > options.queueCapacity) {
        std::ostringstream os;
        os << "admission queue full (" << queuedJobs << " queued, "
           << fresh.size() << " requested, capacity "
           << options.queueCapacity << ")";
        return errorResponse(429, os.str());
    }
    // Fully memo-served requests are legal with zero workers connected.
    if (!allMemo && liveWorkerCount() == 0)
        return errorResponse(503, "no workers connected");
    return std::nullopt;
}

void
Coordinator::admitRequest(ClientConn &conn, const std::string &endpoint,
                          const std::string &name,
                          std::vector<runner::Job> jobs, bool keep_alive)
{
    if (draining) {
        queueResponse(conn, errorResponse(503, "coordinator is draining"),
                      false, endpoint);
        return;
    }
    std::vector<std::uint64_t> hashes = hashesOf(jobs);
    if (std::optional<serve::HttpResponse> refusal =
            admissionError(hashes)) {
        queueResponse(conn, *refusal, keep_alive, endpoint);
        return;
    }

    Request &request =
        openRequest(name, endpoint, std::move(jobs), std::move(hashes),
                    Clock::now() +
                        std::chrono::milliseconds(options.requestTimeoutMs));
    request.clientFd = conn.fd;
    request.keepAlive = keep_alive;
    conn.busy = true;
    conn.requestId = request.id;
    // A fully memo-served request completes without any worker round
    // trip (finishRequest needs conn.busy/requestId set above).
    if (request.remaining == 0)
        finishRequest(request);
    else
        scheduleRequest(request);
}

Coordinator::Request &
Coordinator::openRequest(std::string name, std::string endpoint,
                         std::vector<runner::Job> jobs,
                         std::vector<std::uint64_t> hashes,
                         Clock::time_point deadline)
{
    const std::uint64_t id = nextRequestId++;
    Request &request = requests[id];
    request.id = id;
    request.name = std::move(name);
    request.endpoint = std::move(endpoint);
    request.jobs = std::move(jobs);
    request.hashes = std::move(hashes);
    request.entries.resize(request.jobs.size());
    request.remaining = request.jobs.size();
    request.start = Clock::now();
    request.deadline = deadline;

    // Memo probe: jobs whose pre-rendered entry is already in the
    // coordinator-side memo never reach a worker.
    if (options.memoCapacity > 0) {
        for (std::size_t i = 0; i < request.jobs.size(); i++) {
            const std::string *frag = memoGet(hexOf(request.hashes[i]));
            if (!frag)
                continue;
            request.entries[i] = json::Value(json::Raw{*frag});
            request.hits++;
            request.remaining--;
            memoHits++;
        }
        metrics_.set("dynaspam_cluster_coordinator_memo_hits",
                     double(memoHits));
    }

    outstandingJobs += request.jobs.size();
    metrics_.set("dynaspam_cluster_outstanding_jobs",
                 double(outstandingJobs));
    return request;
}

void
Coordinator::scheduleRequest(Request &request)
{
    // Single-flight: attach to the flight of a job already queued or
    // running; queue the rest in one new batch per owner slot. The
    // owner is chosen by fork-group hash, so every member of a fork
    // group lands on the same worker, which warms the shared prefix
    // once (or loads it from its snapshot cache) and forks all members
    // from it.
    std::map<unsigned, std::uint64_t> newBatchOf;
    for (std::size_t i = 0; i < request.jobs.size(); i++) {
        if (!request.entries[i].isNull())
            continue;
        const runner::Job &job = request.jobs[i];
        const std::uint64_t hash = request.hashes[i];
        auto [flightIt, fresh] = flights.try_emplace(hash);
        if (fresh) {
            // forkGroupHash is the job hash for a job without warmup.
            const unsigned slot = ownerSlot(
                job.warmupInsts ? runner::forkGroupHash(job) : hash,
                options.workerSlots);
            auto [batchOf, newBatch] = newBatchOf.try_emplace(slot, 0);
            if (newBatch) {
                batchOf->second = nextBatchId++;
                Batch &batch = batches[batchOf->second];
                batch.id = batchOf->second;
                batch.ownerSlot = slot;
                batch.notBefore = request.start;
            }
            Batch &batch = batches[batchOf->second];
            batch.jobs.push_back(job);
            batch.hashes.push_back(hash);
            flightIt->second.batchId = batch.id;
            queuedJobs++;
        }
        flightIt->second.waiters.emplace_back(request.id, i);
    }
    assignPendingBatches();
}

void
Coordinator::handleResults(ClientConn &conn, const serve::HttpRequest &req,
                           bool keep_alive)
{
    auto reply = [&](const serve::HttpResponse &resp) {
        queueResponse(conn, resp, keep_alive, "/results");
    };
    if (req.method != "GET")
        return reply(errorResponse(405, "use GET"));
    const std::string hash = req.target.substr(std::strlen("/results/"));
    if (!serve::isJobHash(hash))
        return reply(errorResponse(
            404, "not a job hash (16 lowercase hex characters)"));
    if (flights.count(std::strtoull(hash.c_str(), nullptr, 16)))
        return reply(jsonResponse(
            202, json::Object{{"hash", hash}, {"status", "pending"}}));
    // Ask every worker (each memoizes every entry it served): the
    // job's owner is keyed by its fork group, which a bare hash does
    // not name.
    std::vector<int> asked;
    for (int fd : slotFd)
        if (fd >= 0)
            asked.push_back(fd);
    if (asked.empty())
        return reply(errorResponse(404, "no result for hash " + hash));

    Request &request = openRequest(
        hash, "/results", {}, {},
        Clock::now() + std::chrono::milliseconds(options.requestTimeoutMs));
    const std::uint64_t id = request.id;
    request.clientFd = conn.fd;
    request.keepAlive = keep_alive;
    request.lookupsPending = asked.size();
    conn.busy = true;
    conn.requestId = id;
    for (int fd : asked) {
        auto workerIt = workers.find(fd);
        if (!requests.count(id) || workerIt == workers.end())
            break;
        const std::uint64_t lookupId = nextBatchId++;
        lookups[lookupId] = id;
        workerIt->second.lookups.insert(lookupId);
        json::Object payload;
        payload.emplace("id", lookupId);
        payload.emplace("hash", hash);
        queueFrame(workerIt->second, FrameType::Lookup,
                   json::Value(std::move(payload)));
    }
}

void
Coordinator::assignPendingBatches()
{
    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> ready;
    for (const auto &kv : batches)
        if (kv.second.assignedFd < 0 && kv.second.notBefore <= now)
            ready.push_back(kv.first);

    // Oldest first, one batch per idle worker.
    for (std::uint64_t id : ready) {
        auto it = batches.find(id);
        if (it == batches.end() || it->second.assignedFd >= 0)
            continue;
        Batch &batch = it->second;
        const int fd = liveWorkerForSlot(batch.ownerSlot);
        if (fd < 0)
            continue;    // stays queued until a worker joins
        WorkerConn &conn = workers.at(fd);
        if (conn.batchId != 0)
            continue;

        json::Array jobSpecs;
        for (const runner::Job &job : batch.jobs)
            jobSpecs.push_back(runner::jobToJson(job));
        json::Object payload;
        payload.emplace("id", batch.id);
        payload.emplace("jobs", std::move(jobSpecs));

        batch.assignedFd = fd;
        conn.batchId = batch.id;
        queuedJobs -= batch.jobs.size();
        runningJobs += batch.jobs.size();
        metrics_.set("dynaspam_cluster_worker_inflight",
                     workerLabel(conn.slot), 1.0);
        // A failed write drops the worker, which requeues the batch.
        queueFrame(conn, FrameType::Batch, json::Value(std::move(payload)));
    }
    updateJobGauges();
}

void
Coordinator::pruneBatch(std::uint64_t batchId)
{
    auto batchIt = batches.find(batchId);
    if (batchIt == batches.end() || batchIt->second.assignedFd >= 0)
        return;
    Batch &batch = batchIt->second;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.jobs.size(); i++) {
        auto flightIt = flights.find(batch.hashes[i]);
        const bool mine = flightIt != flights.end() &&
                          flightIt->second.batchId == batchId;
        if (mine && !flightIt->second.waiters.empty()) {
            if (kept != i) {
                batch.jobs[kept] = std::move(batch.jobs[i]);
                batch.hashes[kept] = std::move(batch.hashes[i]);
            }
            kept++;
            continue;
        }
        if (mine)
            flights.erase(flightIt);
        queuedJobs--;
        metrics_.inc("dynaspam_jobs_cancelled_total");
    }
    batch.jobs.resize(kept);
    batch.hashes.resize(kept);
    if (kept == 0)
        batches.erase(batchIt);
    updateJobGauges();
}

void
Coordinator::failBatch(const Batch &batch, int status,
                       const std::string &message)
{
    std::set<std::uint64_t> waiting;
    for (std::uint64_t hash : batch.hashes) {
        auto flightIt = flights.find(hash);
        if (flightIt == flights.end() ||
            flightIt->second.batchId != batch.id)
            continue;
        for (const auto &waiter : flightIt->second.waiters)
            waiting.insert(waiter.first);
        flights.erase(flightIt);
    }
    for (std::uint64_t requestId : waiting)
        failRequest(requestId, status, message);
}

void
Coordinator::failRequest(std::uint64_t requestId, int status,
                         const std::string &message)
{
    auto it = requests.find(requestId);
    if (it == requests.end())
        return;
    Request &request = it->second;

    // Leave every flight this request waits on; a queued job nobody
    // else wants is cancelled before the reply goes out.
    std::set<std::uint64_t> orphaned;
    for (std::size_t i = 0; i < request.jobs.size(); i++) {
        if (!request.entries[i].isNull())
            continue;
        auto flightIt = flights.find(request.hashes[i]);
        if (flightIt == flights.end())
            continue;
        auto &waiters = flightIt->second.waiters;
        std::erase_if(waiters, [&](const auto &waiter) {
            return waiter.first == requestId;
        });
        if (waiters.empty())
            orphaned.insert(flightIt->second.batchId);
    }
    for (std::uint64_t batchId : orphaned)
        pruneBatch(batchId);

    const std::uint64_t exploreId = request.exploreSessionId;
    if (exploreId == 0)
        respond(request, errorResponse(status, message));
    closeRequest(requestId);
    // An internal explore batch fails its whole search: the stream
    // already carries partial generations, so the failure surfaces as
    // a terminal error line instead of an HTTP status.
    if (exploreId != 0)
        failExploreSession(exploreId, status, message);
}

void
Coordinator::finishRequest(Request &request)
{
    if (request.exploreSessionId != 0) {
        const std::uint64_t sessionId = request.exploreSessionId;
        finishExploreBatch(request);
        driveExplore(sessionId);
        return;
    }

    metrics_.inc("dynaspam_cache_hits_total", double(request.hits));
    metrics_.inc("dynaspam_cache_misses_total",
                 double(request.jobs.size() - request.hits));
    metrics_.observe("dynaspam_request_latency_seconds",
                     std::chrono::duration<double>(Clock::now() -
                                                   request.start)
                         .count());

    serve::HttpResponse resp;
    resp.body = reportBody(request.name, std::move(request.entries),
                           request.hits);
    respond(request, resp);
    closeRequest(request.id);
}

void
Coordinator::respond(const Request &request,
                     const serve::HttpResponse &resp)
{
    auto it = clients.find(request.clientFd);
    if (it == clients.end() || it->second.requestId != request.id ||
        !it->second.busy) {
        // Client vanished; still account the request.
        metrics_.inc("dynaspam_http_requests_total",
                     requestLabels(request.endpoint, resp.status));
        return;
    }
    ClientConn &conn = it->second;
    conn.busy = false;
    conn.requestId = 0;
    queueResponse(conn, resp, request.keepAlive, request.endpoint);
    parseClientRequests(request.clientFd);
}

void
Coordinator::closeRequest(std::uint64_t requestId)
{
    auto it = requests.find(requestId);
    if (it == requests.end())
        return;
    outstandingJobs -= it->second.jobs.size();
    metrics_.set("dynaspam_cluster_outstanding_jobs",
                 double(outstandingJobs));
    requests.erase(it);
}

void
Coordinator::handleExplore(ClientConn &conn,
                           const serve::HttpRequest &req)
{
    // The stream never keeps the connection alive: the chunk
    // terminator plus close is how it ends.
    auto reply = [&](const serve::HttpResponse &resp) {
        queueResponse(conn, resp, false, "/explore");
    };
    if (req.method != "POST")
        return reply(errorResponse(405, "use POST"));
    explore::Space space;
    try {
        space = explore::Space::fromJson(json::Value::parse(req.body));
    } catch (const FatalError &err) {
        return reply(errorResponse(400, err.what()));
    }
    if (draining)
        return reply(errorResponse(503, "coordinator is draining"));

    auto engine = std::make_unique<explore::Engine>(std::move(space));
    // Admission is decided on the first engine batch, before any
    // stream bytes: a full queue or an empty worker ring turns into
    // the same plain 429/503 a /sweep would get.
    if (std::optional<serve::HttpResponse> refusal =
            admissionError(hashesOf(engine->nextBatch())))
        return reply(*refusal);

    const std::uint64_t id = nextExploreId++;
    ExploreSession &session = exploreSessions[id];
    session.id = id;
    session.clientFd = conn.fd;
    session.engine = std::move(engine);
    session.deadline =
        Clock::now() +
        std::chrono::milliseconds(options.requestTimeoutMs);

    // Count the request as a 200 now; later failures surface as a
    // terminal error line inside the stream.
    metrics_.inc("dynaspam_http_requests_total",
                 requestLabels("/explore", 200));
    conn.busy = true;
    conn.exploreId = id;
    conn.out += serve::chunkedResponseHead(200, "application/x-ndjson");
    std::string startBytes;
    for (const std::string &line : session.engine->start())
        startBytes += serve::encodeChunk(line + "\n");
    if (!emitExplore(id, startBytes))
        return;
    driveExplore(id);
}

void
Coordinator::driveExplore(std::uint64_t sessionId)
{
    // Iterative, so memo-served batches (which complete synchronously)
    // cannot recurse one stack frame per generation.
    while (true) {
        auto it = exploreSessions.find(sessionId);
        if (it == exploreSessions.end())
            return;
        ExploreSession &session = it->second;
        if (session.requestId != 0)
            return;    // waiting on shard results
        if (session.engine->done()) {
            endExploreStream(sessionId);
            return;
        }
        if (!dispatchExploreBatch(session))
            return;    // shards in flight (or the session died)
    }
}

bool
Coordinator::dispatchExploreBatch(ExploreSession &session)
{
    // Internal batches bypass the draining/queue-capacity rejections:
    // the search was admitted as a whole when its stream began, and a
    // draining coordinator still finishes running streams. Results
    // flow over the stream, not HTTP.
    const std::vector<runner::Job> &jobs = session.engine->nextBatch();
    Request &request = openRequest("explore", "/explore", jobs,
                                   hashesOf(jobs), session.deadline);
    request.exploreSessionId = session.id;
    session.requestId = request.id;

    if (request.remaining == 0) {
        // Fully memo-served: complete inline; driveExplore's loop
        // continues with the next generation.
        finishExploreBatch(request);
        return true;
    }
    scheduleRequest(request);
    return false;
}

void
Coordinator::finishExploreBatch(Request &request)
{
    const std::uint64_t sessionId = request.exploreSessionId;

    // Decode the pre-rendered entries back into outcomes for the
    // engine. This is the one place the coordinator parses fragments —
    // the price of reusing the /sweep machinery unchanged.
    std::vector<runner::JobOutcome> outcomes;
    std::string decodeError;
    for (const json::Value &entry : request.entries) {
        try {
            json::Value doc = json::Value::parse(entry.asRaw().text);
            runner::JobOutcome outcome;
            outcome.job = runner::jobFromJson(doc.at("job"));
            outcome.result = runner::resultFromJson(doc.at("result"));
            const json::Value *fc = doc.find("from_cache");
            outcome.fromCache = fc && fc->asBool();
            outcomes.push_back(std::move(outcome));
        } catch (const FatalError &err) {
            decodeError = err.what();
            break;
        }
    }
    closeRequest(request.id);    // `request` is dead past this line

    auto it = exploreSessions.find(sessionId);
    if (it == exploreSessions.end())
        return;    // stream gone; the results still warmed the caches
    ExploreSession &session = it->second;
    session.requestId = 0;
    if (!decodeError.empty()) {
        failExploreSession(sessionId, 500,
                           "shard entry undecodable: " + decodeError);
        return;
    }
    std::vector<std::string> lines;
    try {
        lines = session.engine->feed(outcomes);
    } catch (const FatalError &err) {
        failExploreSession(sessionId, 500, err.what());
        return;
    }
    std::string bytes;
    for (const std::string &line : lines)
        bytes += serve::encodeChunk(line + "\n");
    emitExplore(sessionId, bytes);
}

bool
Coordinator::emitExplore(std::uint64_t sessionId,
                         const std::string &bytes)
{
    auto it = exploreSessions.find(sessionId);
    if (it == exploreSessions.end())
        return false;
    auto clientIt = clients.find(it->second.clientFd);
    if (clientIt == clients.end()) {
        exploreSessions.erase(it);
        return false;
    }
    ClientConn &conn = clientIt->second;
    conn.out += bytes;
    if (!flushBuffer(conn.fd, conn.out)) {
        closeClient(conn.fd);    // also erases the session
        return false;
    }
    if (!conn.out.empty())
        updateEvents(conn.fd, true);
    else if (conn.closeAfterFlush)
        closeClient(conn.fd);
    return exploreSessions.count(sessionId) > 0;
}

void
Coordinator::endExploreStream(std::uint64_t sessionId)
{
    auto it = exploreSessions.find(sessionId);
    if (it == exploreSessions.end())
        return;
    const int fd = it->second.clientFd;
    exploreSessions.erase(it);
    auto clientIt = clients.find(fd);
    if (clientIt == clients.end())
        return;
    ClientConn &conn = clientIt->second;
    conn.out += serve::kLastChunk;
    conn.closeAfterFlush = true;
    if (!flushBuffer(conn.fd, conn.out)) {
        closeClient(conn.fd);
        return;
    }
    if (!conn.out.empty())
        updateEvents(conn.fd, true);
    else
        closeClient(conn.fd);
}

void
Coordinator::failExploreSession(std::uint64_t sessionId, int status,
                                const std::string &message)
{
    json::Object err;
    err.emplace("type", "error");
    err.emplace("status", std::uint64_t(status));
    err.emplace("error", message);
    emitExplore(sessionId,
                serve::encodeChunk(json::Value(std::move(err)).dump() +
                                   "\n"));
    endExploreStream(sessionId);
}

const std::string *
Coordinator::memoGet(const std::string &hash)
{
    auto it = memoMap.find(hash);
    if (it == memoMap.end())
        return nullptr;
    memoOrder.splice(memoOrder.begin(), memoOrder, it->second.first);
    return &it->second.second;
}

void
Coordinator::memoPut(const std::string &hash, std::string fragment)
{
    auto it = memoMap.find(hash);
    if (it != memoMap.end()) {
        memoOrder.splice(memoOrder.begin(), memoOrder, it->second.first);
        it->second.second = std::move(fragment);
        return;
    }
    memoOrder.push_front(hash);
    memoMap.emplace(hash, std::make_pair(memoOrder.begin(),
                                         std::move(fragment)));
    while (memoMap.size() > options.memoCapacity) {
        memoMap.erase(memoOrder.back());
        memoOrder.pop_back();
    }
}

void
Coordinator::sendPings()
{
    // Collect first: queueFrame can drop a worker, mutating the map.
    std::vector<int> fds;
    for (const auto &kv : workers)
        if (kv.second.slot >= 0)
            fds.push_back(kv.first);
    for (int fd : fds) {
        auto it = workers.find(fd);
        if (it == workers.end())
            continue;
        json::Object ping;
        ping.emplace("tick", pingTick);
        queueFrame(it->second, FrameType::Ping,
                   json::Value(std::move(ping)));
    }
    pingTick++;
}

void
Coordinator::checkTimers()
{
    const Clock::time_point now = Clock::now();

    if (now - lastPingSweep >=
        std::chrono::milliseconds(options.pingIntervalMs)) {
        lastPingSweep = now;
        sendPings();

        std::vector<int> stale;
        for (const auto &kv : workers)
            if (remoteWorkers && kv.second.slot >= 0 &&
                now - kv.second.lastPong >
                    std::chrono::milliseconds(options.pingTimeoutMs))
                stale.push_back(kv.first);
        for (int fd : stale)
            dropWorker(fd, "ping timeout");
    }

    std::vector<std::uint64_t> expired;
    for (const auto &kv : requests)
        if (kv.second.deadline <= now)
            expired.push_back(kv.first);
    for (std::uint64_t id : expired)
        failRequest(id, 503,
                    "request deadline exceeded before every job "
                    "finished");

    assignPendingBatches();
}

std::size_t
Coordinator::liveWorkerCount() const
{
    std::size_t n = 0;
    for (int fd : slotFd)
        if (fd >= 0)
            n++;
    return n;
}

int
Coordinator::liveWorkerForSlot(unsigned slot) const
{
    // Owner first; on failure scan upward (mod slots) so reassignment
    // is deterministic and spreads across the ring.
    for (unsigned i = 0; i < options.workerSlots; i++) {
        int fd = slotFd[(slot + i) % options.workerSlots];
        if (fd >= 0)
            return fd;
    }
    return -1;
}

void
Coordinator::updateWorkerGauge()
{
    metrics_.set("dynaspam_cluster_workers_connected",
                 double(liveWorkerCount()));
}

void
Coordinator::updateJobGauges()
{
    metrics_.set("dynaspam_queue_depth", double(queuedJobs));
    metrics_.set("dynaspam_jobs_inflight", double(runningJobs));
}

serve::HttpResponse
Coordinator::handleMetricsScrape()
{
    const double hits = metrics_.value("dynaspam_cache_hits_total");
    const double total =
        hits + metrics_.value("dynaspam_cache_misses_total");
    metrics_.set("dynaspam_cache_hit_ratio", total > 0 ? hits / total : 0.0);

    serve::HttpResponse resp;
    resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = metrics_.render();
    return resp;
}

serve::HttpResponse
Coordinator::errorResponse(int status, const std::string &message)
{
    serve::HttpResponse resp = jsonResponse(
        status, json::Object{{"error", message}});
    if (status == 429)
        resp.extraHeaders.emplace_back("Retry-After", "2");
    return resp;
}

} // namespace dynaspam::cluster
