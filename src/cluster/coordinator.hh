/**
 * @file
 * Cluster coordinator: the one HTTP front end, plus shard fan-out.
 *
 * The coordinator is the client-facing half of the sweep service. It
 * backs both `dynaspam coordinator` (workers dial its worker port) and
 * `dynaspam serve` (serve::Server attaches in-process workers over
 * socketpairs). ONE event-loop thread multiplexes every socket — the
 * HTTP listener, the worker listener, every client and every worker
 * link — through epoll with non-blocking fds and per-connection in/out
 * buffers. A connection serves one request and closes unless the client
 * asks for `Connection: keep-alive`.
 *
 * Endpoints:
 *   POST /run             one job spec -> single-job report; the query
 *                         "?fidelity=...&warmup_insts=N" overrides the
 *                         body
 *   POST /sweep           {"sweep": "fig8", ...} or {"jobs": [...]}
 *   POST /explore         design-space search -> chunked NDJSON stream
 *   GET  /results/<hash>  a finished job's report, asked of the workers
 *                         (202 while the job is in flight)
 *   GET  /healthz         liveness probe (readiness is the
 *                         dynaspam_cluster_workers_connected gauge)
 *   GET  /metrics         Prometheus text format
 *
 * Sharding: each job's fork-group hash is mapped to one of
 * `workerSlots` hash-space partitions (cluster::ownerSlot), so a job
 * always lands on the same slot and repeat jobs hit that worker's memo
 * and disk cache. New jobs of a request are grouped into one Batch per
 * owner slot.
 *
 * Scheduling: single-flight per job hash — a job already queued or
 * running is never dispatched twice; every request that wants it waits
 * on the same Flight and gets the same entry bytes. Batches wait in a
 * coordinator-side queue and each worker is handed one batch at a time,
 * so a request that passes its deadline (503) cancels its jobs that
 * have not started. A started job finishes and stays retrievable
 * through GET /results/<hash>. Admission: when the jobs admitted but
 * not yet handed to a worker would exceed queueCapacity, new requests
 * get 429 + Retry-After.
 *
 * Merging: workers return fully serialized sweep-report entries; the
 * coordinator splices them back into job order and wraps them with
 * runner::sweepReportJson + sweepRequestStats, producing a report
 * byte-identical to what `dynaspam sweep` emits for the same cache
 * state.
 *
 * Failure handling, so a worker crash never drops an accepted request:
 *  - membership is health-checked (Ping/Pong every pingIntervalMs; a
 *    worker silent past pingTimeoutMs is declared dead);
 *  - a dead worker's batch is requeued for the next live slot upward
 *    with bounded exponential backoff (retryBackoffMs << attempts), up
 *    to maxBatchRetries, then its requests fail 503;
 *  - deterministic job failures (worker Result carries "error") fail
 *    the requests with 500 and are NOT retried — a deterministic
 *    simulator would only reproduce the error.
 *
 * POST /explore runs the design-space-exploration engine
 * (explore::Engine) inside the event loop: every engine batch becomes
 * an internal request scheduled like a /sweep, and the engine's NDJSON
 * lines stream back to the client as a chunked response while the
 * search progresses.
 *
 * Hardening: with --cluster-token set, worker enrollment requires the
 * shared secret in the Hello frame; mismatches are dropped before
 * Welcome and counted (never logged). An optional coordinator-side LRU
 * memo (--coordinator-memo) answers repeat jobs from pre-rendered
 * entry fragments without touching workers.
 */

#ifndef DYNASPAM_CLUSTER_COORDINATOR_HH
#define DYNASPAM_CLUSTER_COORDINATOR_HH

#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/wire.hh"
#include "common/annotations.hh"
#include "common/fd.hh"
#include "common/json.hh"
#include "common/mutex.hh"
#include "explore/engine.hh"
#include "runner/job.hh"
#include "serve/http.hh"
#include "serve/metrics.hh"

namespace dynaspam::cluster
{

/** Configuration for one Coordinator instance. */
struct CoordinatorOptions
{
    std::string bindAddress = "127.0.0.1";
    /** Client-facing HTTP port; 0 binds an ephemeral port. */
    unsigned httpPort = 8080;
    /** Worker-facing wire-protocol port; 0 binds an ephemeral port.
     *  Not opened when workers are attached in process (attachWorker). */
    unsigned workerPort = 9090;
    /** Hash-space partitions == maximum cluster size. */
    unsigned workerSlots = 4;
    /** Max jobs admitted but not yet handed to a worker before 429. */
    std::size_t queueCapacity = 256;
    /** Per-request wall-clock budget before a 503. */
    std::uint64_t requestTimeoutMs = 120000;
    /** Hard cap on HTTP request size (line + headers + body). */
    std::size_t maxRequestBytes = 1 << 20;
    /** listen(2) backlog for both listeners. */
    int acceptBacklog = 128;
    /** Batch reassignment attempts before the request fails 503. */
    unsigned maxBatchRetries = 3;
    /** Base reassignment backoff; doubles per attempt. */
    std::uint64_t retryBackoffMs = 100;
    /** Worker health-check period. */
    std::uint64_t pingIntervalMs = 2000;
    /** Silence past this declares a remote worker dead. */
    std::uint64_t pingTimeoutMs = 10000;
    /**
     * Shared enrollment secret. When non-empty, a worker Hello must
     * carry the same token or the connection is dropped before Welcome
     * (counted by dynaspam_cluster_hello_rejects_total). The token is
     * never logged and never appears in /metrics.
     */
    std::string clusterToken;
    /**
     * Coordinator-side result memo: pre-rendered sweep-report entries
     * kept per job hash, so fully repeated sweeps answer without
     * touching a worker. 0 disables the memo (the default: memo-served
     * entries report from_cache=true, which changes repeat-sweep bytes
     * for deployments that run workers cache-less on purpose).
     */
    std::size_t memoCapacity = 0;
    /**
     * warmup_insts given to every /run and /sweep job that did not set
     * one (`dynaspam serve --warmup-insts N`). 0 = no default.
     */
    std::uint64_t defaultWarmupInsts = 0;
    /** Log a line per lifecycle event (suppressed in tests). */
    bool verbose = true;
};

/** The cluster coordinator service. */
class Coordinator
{
  public:
    explicit Coordinator(CoordinatorOptions options);

    /** Drains (beginDrain + waitUntilDrained) if still running. */
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /**
     * Adopt @p link, a connected stream whose other end runs
     * Worker::serveConnection in this process, as a worker link. Call
     * before start(); the worker enrolls with the usual Hello/Welcome
     * handshake. A coordinator with attached workers opens no worker
     * port and never drops a worker for silence: a worker answers
     * pings only between jobs, and a lost in-process link reads as EOF.
     */
    void attachWorker(common::Fd link);

    /**
     * Bind the listeners and spawn the event-loop thread.
     * @throws FatalError when a socket cannot be bound
     */
    void start();

    /** @return the actually bound client-facing HTTP port. */
    unsigned httpPort() const { return httpPort_; }
    /** @return the actually bound worker-facing port. */
    unsigned workerPort() const { return workerPort_; }

    /**
     * Stop accepting new connections and finish pending requests.
     * Idempotent, callable from any thread (writes the wake pipe).
     */
    void beginDrain();

    /**
     * Block until the event loop has exited and everything is closed:
     * every request answered, every batch a worker holds finished, and
     * each worker told Goodbye.
     */
    void waitUntilDrained();

    /** Route SIGTERM/SIGINT to beginDrain() until the drain completes.
     *  Call after start(). */
    void drainOnSignals();

    /**
     * start(), install SIGTERM/SIGINT drain handlers, and block until
     * a signal (or beginDrain) completes the drain. @return 0.
     */
    int serveForever();

    serve::Metrics &metrics() { return metrics_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One client (HTTP) connection's event-loop state. */
    struct ClientConn
    {
        int fd = -1;
        std::string in;
        std::string out;
        /** A request is pending; stop parsing further requests. */
        bool busy = false;
        /** Close once the out buffer drains. */
        bool closeAfterFlush = false;
        /** Request id the pending response belongs to. */
        std::uint64_t requestId = 0;
        /** Explore session streaming on this connection (0 = none). */
        std::uint64_t exploreId = 0;
    };

    /** One worker link's event-loop state. */
    struct WorkerConn
    {
        int fd = -1;
        std::string in;
        std::string out;
        /** Assigned shard slot; -1 until the Hello handshake. */
        int slot = -1;
        /** Close once the out buffer drains (rejected Hello). */
        bool closeAfterFlush = false;
        Clock::time_point lastPong;
        /** The batch this worker is executing (0 = idle). */
        std::uint64_t batchId = 0;
        /** Lookup ids awaiting this worker's answer. */
        std::set<std::uint64_t> lookups;
    };

    /**
     * One accepted request awaiting its entries: a client /run or
     * /sweep, an internal explore batch, or a /results lookup.
     */
    struct Request
    {
        std::uint64_t id = 0;
        int clientFd = -1;
        std::string name;
        bool keepAlive = false;
        std::string endpoint;        ///< metrics label ("/run"/"/sweep")
        std::vector<runner::Job> jobs;
        std::vector<std::uint64_t> hashes;    ///< jobs[i].hash()
        /** results[] entries, filled in job order as shards report. */
        std::vector<json::Value> entries;
        std::size_t remaining = 0;   ///< entries still missing
        std::size_t hits = 0;        ///< from_cache entries seen
        Clock::time_point start;
        Clock::time_point deadline;
        /** Owning explore session for an internal batch (0 = client
         *  request: the response goes back over HTTP). */
        std::uint64_t exploreSessionId = 0;
        /** /results lookups still unanswered (lookup requests only). */
        std::size_t lookupsPending = 0;
    };

    /**
     * One job queued or running, shared by every request that wants it
     * (single-flight). Keyed by job hash in `flights`.
     */
    struct Flight
    {
        /** The batch carrying the job. */
        std::uint64_t batchId = 0;
        /** (request id, job index) pairs the entry is delivered to. */
        std::vector<std::pair<std::uint64_t, std::size_t>> waiters;
    };

    /**
     * One POST /explore search in flight. The engine is driven from the
     * event loop: each engine batch becomes an internal Request, and
     * every completed batch feeds the engine, whose emitted NDJSON
     * lines stream to the client as chunks.
     */
    struct ExploreSession
    {
        std::uint64_t id = 0;
        int clientFd = -1;
        std::unique_ptr<explore::Engine> engine;
        /** Internal request in flight (0 = none, about to dispatch). */
        std::uint64_t requestId = 0;
        Clock::time_point deadline;
    };

    /** Distinct jobs for one owner slot, queued or handed to a worker. */
    struct Batch
    {
        std::uint64_t id = 0;
        unsigned ownerSlot = 0;
        std::vector<runner::Job> jobs;
        std::vector<std::uint64_t> hashes;    ///< jobs[i].hash()
        unsigned attempts = 0;
        /** Worker fd it is assigned to; -1 = queued. */
        int assignedFd = -1;
        /** Earliest (re)assignment time (retry backoff). */
        Clock::time_point notBefore;
    };

    void eventLoop();
    void updateEvents(int fd, bool wantWrite) REQUIRES(loopRole);
    void acceptClients() REQUIRES(loopRole);
    void acceptWorkers() REQUIRES(loopRole);
    void addWorker(common::Fd link) REQUIRES(loopRole);

    void onClientReadable(int fd) REQUIRES(loopRole);
    void onClientWritable(int fd) REQUIRES(loopRole);
    /** Parse+dispatch buffered requests (by fd: handlers may close). */
    void parseClientRequests(int fd) REQUIRES(loopRole);
    void handleHttpRequest(ClientConn &conn, const serve::HttpRequest &req)
        REQUIRES(loopRole);
    void queueResponse(ClientConn &conn, const serve::HttpResponse &resp,
                       bool keep_alive, const std::string &endpoint)
        REQUIRES(loopRole);
    void closeClient(int fd) REQUIRES(loopRole);

    void onWorkerReadable(int fd) REQUIRES(loopRole);
    void onWorkerWritable(int fd) REQUIRES(loopRole);
    void handleWorkerFrame(WorkerConn &conn, const Frame &frame)
        REQUIRES(loopRole);
    void handleResult(WorkerConn &conn, const Frame &frame)
        REQUIRES(loopRole);
    /** Deliver a Lookup answer (0 or 1 entries) to its request. */
    void handleLookupResult(std::uint64_t lookupId,
                            std::vector<RawEntry> entries)
        REQUIRES(loopRole);
    void queueFrame(WorkerConn &conn, FrameType type,
                    const json::Value &payload) REQUIRES(loopRole);
    /** Declare a worker dead and requeue its batch. */
    void dropWorker(int fd, const char *why) REQUIRES(loopRole);

    /** Admit a client /run or /sweep: single-flight, queue, dispatch. */
    void admitRequest(ClientConn &conn, const std::string &endpoint,
                      const std::string &name,
                      std::vector<runner::Job> jobs, bool keep_alive)
        REQUIRES(loopRole);
    /** Create a Request for @p jobs and fill what the memo holds.
     *  @return the request (its entries may already be complete) */
    Request &openRequest(std::string name, std::string endpoint,
                         std::vector<runner::Job> jobs,
                         std::vector<std::uint64_t> hashes,
                         Clock::time_point deadline) REQUIRES(loopRole);
    /** Attach @p request's missing entries to flights, queueing batches
     *  for jobs not yet in flight, then dispatch. */
    void scheduleRequest(Request &request) REQUIRES(loopRole);
    /** @return the 429 (queue full) or 503 (no workers) admitting jobs
     *  with @p hashes earns, or nullopt to admit */
    std::optional<serve::HttpResponse>
    admissionError(const std::vector<std::uint64_t> &hashes)
        REQUIRES(loopRole);
    /** GET /results/<hash>: 202 in flight, else ask every worker. */
    void handleResults(ClientConn &conn, const serve::HttpRequest &req,
                       bool keep_alive) REQUIRES(loopRole);

    /** Validate + admit a POST /explore and stream its header. */
    void handleExplore(ClientConn &conn, const serve::HttpRequest &req)
        REQUIRES(loopRole);
    /** Dispatch engine batches until one waits on workers (or done). */
    void driveExplore(std::uint64_t sessionId) REQUIRES(loopRole);
    /**
     * Create the internal Request for the session's pending engine
     * batch. @return true when it completed synchronously (memo served
     * every job) and the drive loop should continue
     */
    bool dispatchExploreBatch(ExploreSession &session) REQUIRES(loopRole);
    /** Decode a finished internal batch, feed the engine, stream. */
    void finishExploreBatch(Request &request) REQUIRES(loopRole);
    /** Stream @p bytes to the session's client. @return false when the
     *  client (and therefore the session) is gone. */
    bool emitExplore(std::uint64_t sessionId, const std::string &bytes)
        REQUIRES(loopRole);
    /** Terminate the stream (last chunk + close) and drop the session. */
    void endExploreStream(std::uint64_t sessionId) REQUIRES(loopRole);
    /** Emit a terminal error line, then end the stream. */
    void failExploreSession(std::uint64_t sessionId, int status,
                            const std::string &message) REQUIRES(loopRole);

    /** Memo lookup; refreshes LRU order. @return nullptr on miss */
    const std::string *memoGet(const std::string &hash)
        REQUIRES(loopRole);
    /** Memo insert/refresh (evicts LRU past memoCapacity). */
    void memoPut(const std::string &hash, std::string fragment)
        REQUIRES(loopRole);
    /** Hand queued batches to idle workers, oldest first. */
    void assignPendingBatches() REQUIRES(loopRole);
    /** Fail @p requestId with an error response; cancels its jobs
     *  that no other request waits on and no worker has started. */
    void failRequest(std::uint64_t requestId, int status,
                     const std::string &message) REQUIRES(loopRole);
    /** Fail every request waiting on a job of @p batch (already out
     *  of `batches`) and drop its flights. */
    void failBatch(const Batch &batch, int status,
                   const std::string &message) REQUIRES(loopRole);
    /** Drop the jobs of queued @p batch nobody waits on any more;
     *  erases the batch once it is empty. */
    void pruneBatch(std::uint64_t batchId) REQUIRES(loopRole);
    void finishRequest(Request &request) REQUIRES(loopRole);
    /** Respond to the request's client (if still connected). */
    void respond(const Request &request, const serve::HttpResponse &resp)
        REQUIRES(loopRole);
    /** Erase a finished or failed request and its accounting. */
    void closeRequest(std::uint64_t requestId) REQUIRES(loopRole);

    void sendPings() REQUIRES(loopRole);
    void checkTimers() REQUIRES(loopRole);
    std::size_t liveWorkerCount() const REQUIRES(loopRole);
    int liveWorkerForSlot(unsigned slot) const REQUIRES(loopRole);
    void updateWorkerGauge() REQUIRES(loopRole);
    void updateJobGauges() REQUIRES(loopRole);

    serve::HttpResponse handleMetricsScrape() REQUIRES(loopRole);
    static serve::HttpResponse errorResponse(int status,
                                             const std::string &message);

    CoordinatorOptions options;
    serve::Metrics metrics_;

    // Lifecycle plumbing. The listen sockets and the epoll instance are
    // created by start() before the loop thread exists and closed by the
    // loop thread (drain) or the destructor (after join) — never
    // concurrently. `attached` is filled before start() and emptied by
    // the loop thread as it begins.
    common::Fd epollFd;
    common::Fd listenHttpFd;
    common::Fd listenWorkerFd;
    common::Pipe wakePipe;
    std::vector<common::Fd> attached;
    /** Workers dial in over TCP (nothing was attached before start). */
    bool remoteWorkers = true;
    unsigned httpPort_ = 0;
    unsigned workerPort_ = 0;
    std::thread loopThread;
    bool started = false;
    bool drained = false;

    /**
     * Everything below is thread-confined to the epoll loop: eventLoop()
     * holds loopRole for its whole lifetime, and the analysis rejects
     * any other path into the REQUIRES(loopRole) machinery above. The
     * only cross-thread entry points are beginDrain() (writes the wake
     * pipe) and metrics_ (internally locked).
     */
    common::ThreadRole loopRole;

    bool draining GUARDED_BY(loopRole) = false;

    std::map<int, ClientConn> clients GUARDED_BY(loopRole);
    std::map<int, WorkerConn> workers GUARDED_BY(loopRole);
    /** slot -> worker fd (-1 = vacant). */
    std::vector<int> slotFd GUARDED_BY(loopRole);

    std::map<std::uint64_t, Request> requests GUARDED_BY(loopRole);
    /** Batches by id: ascending id is queue order. */
    std::map<std::uint64_t, Batch> batches GUARDED_BY(loopRole);
    std::map<std::uint64_t, Flight> flights GUARDED_BY(loopRole);
    /** Lookup id -> the /results request it answers. */
    std::map<std::uint64_t, std::uint64_t> lookups GUARDED_BY(loopRole);
    std::map<std::uint64_t, ExploreSession> exploreSessions
        GUARDED_BY(loopRole);
    std::uint64_t nextRequestId GUARDED_BY(loopRole) = 1;
    std::uint64_t nextBatchId GUARDED_BY(loopRole) = 1;
    std::uint64_t nextExploreId GUARDED_BY(loopRole) = 1;

    /** Coordinator-side LRU result memo: job hash -> pre-rendered
     *  from_cache=true sweep-report entry fragment. */
    std::list<std::string> memoOrder GUARDED_BY(loopRole);
    std::map<std::string,
             std::pair<std::list<std::string>::iterator, std::string>>
        memoMap GUARDED_BY(loopRole);
    /** Lifetime memo hits (mirrored into the memo_hits gauge). */
    std::uint64_t memoHits GUARDED_BY(loopRole) = 0;
    std::uint64_t pingTick GUARDED_BY(loopRole) = 0;
    Clock::time_point lastPingSweep GUARDED_BY(loopRole);
    /** Jobs belonging to unfinished requests. */
    std::size_t outstandingJobs GUARDED_BY(loopRole) = 0;
    /** Distinct jobs in queued batches (the admission bound). */
    std::size_t queuedJobs GUARDED_BY(loopRole) = 0;
    /** Distinct jobs in batches workers hold. */
    std::size_t runningJobs GUARDED_BY(loopRole) = 0;
};

} // namespace dynaspam::cluster

#endif // DYNASPAM_CLUSTER_COORDINATOR_HH
