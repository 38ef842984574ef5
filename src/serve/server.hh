/**
 * @file
 * `dynaspam serve`: the HTTP simulation service in one process.
 *
 * A Server is a cluster::Coordinator — the one HTTP front end, which
 * owns routing, admission, single-flight, deadlines, drain and
 * /metrics — plus ServerOptions::jobs cluster::Workers on threads of
 * this process. Each worker is linked to the coordinator over a
 * socketpair and runs the same Worker::serveConnection a remote
 * `dynaspam worker` runs, so a serve response is byte-identical to a
 * cluster's and to the CLI report for the same spec and cache state.
 * No worker TCP port is opened. See cluster/coordinator.hh for the
 * endpoints and the request contract.
 */

#ifndef DYNASPAM_SERVE_SERVER_HH
#define DYNASPAM_SERVE_SERVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hh"
#include "cluster/worker.hh"
#include "runner/job.hh"
#include "serve/metrics.hh"
#include "sim/system.hh"

namespace dynaspam::serve
{

/** Configuration for one Server instance. */
struct ServerOptions
{
    std::string bindAddress = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (query with port()). */
    unsigned port = 8080;
    /** In-process workers; 0 = ThreadPool::defaultWorkers(). */
    unsigned jobs = 0;
    /** Max jobs admitted but not yet handed to a worker before 429. */
    std::size_t queueCapacity = 64;
    /** Per-request wall-clock budget before a 503. */
    std::uint64_t requestTimeoutMs = 120000;
    /** Hard cap on request size (line + headers + body). */
    std::size_t maxRequestBytes = 1 << 20;
    /** listen(2) backlog for the accept socket. */
    int acceptBacklog = 128;
    /** Result-cache directory, shared by the workers; empty disables
     *  the disk cache. */
    std::string cacheDir;
    /** LRU size budget for the cache directory; 0 = unbounded. */
    std::uint64_t cacheMaxBytes = 0;
    /** Snapshot-cache directory: warmup jobs persist/reuse their warmed
     *  prefix across requests and restarts. Empty disables. */
    std::string snapshotCacheDir;
    /** LRU size budget for the snapshot cache; 0 = unbounded. */
    std::uint64_t snapshotCacheMaxBytes = 0;
    /**
     * Default warmup_insts applied to any incoming job spec that did
     * not set one (`dynaspam serve --warmup-insts N`). 0 = no default.
     */
    std::uint64_t defaultWarmupInsts = 0;
    /** Log a line per lifecycle event (suppressed in tests). */
    bool verbose = true;
    /**
     * Simulation function; defaults to runner::execute. A test seam:
     * injecting a gated fake makes queue-full and drain behavior
     * deterministic without multi-second simulations.
     */
    std::function<sim::RunResult(const runner::Job &)> executeFn;
};

/** The HTTP simulation service. */
class Server
{
  public:
    explicit Server(ServerOptions options);

    /** Drains (beginDrain + waitUntilDrained) if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, start the coordinator and the workers, and return once
     * every worker has enrolled.
     * @throws FatalError when the socket cannot be bound
     */
    void start();

    /** @return the actually bound port (resolves port 0). */
    unsigned port() const { return coordinator.httpPort(); }

    /** Stop accepting new connections. Idempotent, callable from any
     *  thread. */
    void beginDrain() { coordinator.beginDrain(); }

    /**
     * Block until drain completes: every request answered, every job a
     * worker started finished, the workers' caches GC'd and their
     * threads joined.
     */
    void waitUntilDrained();

    /**
     * start(), install SIGTERM/SIGINT drain handlers, and block until
     * a signal (or beginDrain) completes the drain. @return 0 — the
     * process exit code for a graceful shutdown.
     */
    int serveForever();

    Metrics &metrics() { return coordinator.metrics(); }

  private:
    ServerOptions options;
    cluster::Coordinator coordinator;
    std::vector<std::unique_ptr<cluster::Worker>> workers;
    std::vector<std::thread> threads;
    bool started = false;
};

} // namespace dynaspam::serve

#endif // DYNASPAM_SERVE_SERVER_HH
