/**
 * @file
 * Cluster worker: one shard of the distributed sweep fabric.
 *
 * A worker is a standalone process (`dynaspam worker --connect
 * host:port`) that dials the coordinator's worker port, joins the
 * cluster with a Hello/Welcome handshake, and then executes the job
 * batches the coordinator assigns to its shard. It wraps the exact
 * execution stack the single-process daemon uses — runner::execute
 * behind a runner::ResultCache — so a job computed by a worker produces
 * the same bytes it would have produced anywhere else.
 *
 * Shard-local caching, two tiers:
 *  - the on-disk ResultCache (per-worker --cache-dir), same format and
 *    epoch as the CLI's, surviving worker restarts;
 *  - an in-memory LRU memo of *pre-rendered* sweep-report entry bytes
 *    (serialized once at the report's splice depth), so a repeat job is
 *    answered with a string copy — no cache file read, no JSON parse,
 *    and no re-serialization, on the worker or on the coordinator
 *    (which splices the fragment via json::Raw). A memo replay reports
 *    from_cache=true only when the worker has a result cache: it then
 *    matches a disk hit, and without one a repeat sweep is
 *    byte-identical to the first.
 * Because the coordinator routes each job hash to a fixed owner slot,
 * hits concentrate in the owning worker's memo and never require
 * cross-worker traffic.
 *
 * Health and liveness: the worker answers coordinator Pings between job
 * executions (never mid-job), reporting its queued-batch depth and
 * cumulative cache evictions — the coordinator republishes both as
 * per-worker Prometheus gauges.
 *
 * Failure semantics: a deterministic job failure (execute throws) is
 * reported as a Result {"error": ...} — the coordinator fails that
 * request without retry, because retrying a deterministic simulator
 * reproduces the error. A vanished worker (socket EOF / ping timeout)
 * is the retryable case, handled coordinator-side by reassignment.
 */

#ifndef DYNASPAM_CLUSTER_WORKER_HH
#define DYNASPAM_CLUSTER_WORKER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "cluster/wire.hh"
#include "common/annotations.hh"
#include "common/fd.hh"
#include "common/json.hh"
#include "common/mutex.hh"
#include "runner/job.hh"
#include "runner/result_cache.hh"
#include "runner/runner.hh"
#include "runner/snapshot_cache.hh"

namespace dynaspam::cluster
{

/** Configuration for one Worker instance. */
struct WorkerOptions
{
    /** Coordinator worker-port endpoint to dial. */
    std::string connectHost = "127.0.0.1";
    unsigned connectPort = 9090;
    /** Bounded *consecutive* dial failures (coordinator may still be
     *  booting, or be restarting mid-sweep); a successful connection
     *  resets the count. */
    unsigned connectRetries = 25;
    std::uint64_t connectRetryMs = 200;

    /**
     * Re-dial after a lost coordinator link instead of exiting. An
     * orderly drain (Goodbye frame) or shutdownNow() still terminates
     * the worker; only an unexplained EOF / error / silence triggers a
     * reconnect. Waits are jittered exponential backoff from
     * connectRetryMs, capped at reconnectBackoffCapMs.
     */
    bool reconnect = true;
    std::uint64_t reconnectBackoffCapMs = 5000;

    /**
     * Shared cluster secret sent in the Hello frame. Must match the
     * coordinator's --cluster-token when the coordinator has one; an
     * empty token simply omits the field. Never logged.
     */
    std::string clusterToken;

    /** Shard-local result cache; empty disables the disk tier. */
    std::string cacheDir;
    /** LRU size budget for the cache directory; 0 = unbounded. */
    std::uint64_t cacheMaxBytes = 0;
    /** In-memory memo capacity, in entries. */
    std::size_t memoCapacity = 4096;

    /** Shard-local snapshot cache (warmed fork-group state); empty
     *  disables on-disk snapshots. */
    std::string snapshotCacheDir;
    /** LRU size budget for the snapshot cache; 0 = unbounded. */
    std::uint64_t snapshotCacheMaxBytes = 0;

    /** Log a line per lifecycle event (suppressed in tests). */
    bool verbose = true;

    /** Simulation function; defaults to runner::execute (test seam).
     *  Supplying one disables fork-group execution — every job runs
     *  through the seam individually. */
    std::function<sim::RunResult(const runner::Job &)> executeFn;
};

/** One cluster worker process (or in-process instance, in tests). */
class Worker
{
  public:
    explicit Worker(WorkerOptions options);

    /**
     * Dial the coordinator, handshake, and serve batches until the
     * coordinator sends Goodbye (orderly drain) or shutdownNow() is
     * called. A lost link (EOF, error, silence) re-dials with jittered
     * exponential backoff when options.reconnect is set; consecutive
     * dial failures are bounded by options.connectRetries.
     * @return process exit code: 0 on clean close, 1 on error
     */
    int run();

    /**
     * Serve an already-connected coordinator link (handshake included).
     * Exposed for tests driving a socketpair. @return same as run().
     */
    int serveConnection(int fd);

    /**
     * Async kill switch: shut the coordinator link down so the serve
     * loop exits at the next socket operation. Callable from any
     * thread; used by tests to simulate a worker crash mid-sweep.
     */
    void shutdownNow();

    /** Slot assigned by the last Welcome (for logs/tests). Readable
     *  from any thread; the serve thread writes it at handshake. */
    unsigned slot() const { return slot_.load(std::memory_order_relaxed); }

  private:
    /**
     * Drain every decodable frame out of @p inBuf: answer Pings
     * immediately, queue Batches. @return false on protocol error.
     */
    bool drainFrames(std::string &inBuf, int fd);
    /**
     * Execute one batch and send its Result frame. Bytes arriving
     * mid-batch (pings, more batches) are picked up into @p inBuf
     * between job executions.
     */
    bool handleBatch(const Frame &frame, int fd, std::string &inBuf);
    /** One dial attempt. @return the connected fd, or -1 (retryable
     *  failure; terminal errors also set `terminal`). */
    int dialCoordinator();
    /**
     * Memo -> disk-cache probe for @p hash (by @p job when known, else
     * by hash alone, as a Lookup asks). @return the entry on a hit; a
     * memo hit has from_cache set when this worker has a result cache
     */
    std::optional<RawEntry> cachedEntry(const std::string &hash,
                                        const runner::Job *job);
    /** Answer a Lookup frame from the memo or the disk cache. */
    bool answerLookup(const Frame &frame, int fd);
    /** Render a freshly executed outcome and memo its cached twin. */
    RawEntry freshEntry(const runner::Job &job,
                        const runner::JobOutcome &outcome);
    void memoPut(const std::string &hash, std::string fragment);
    void maybeGcCache();

    WorkerOptions options;
    runner::ResultCache cache;
    runner::SnapshotCache snapCache;
    runner::ForkGroupStats groupStats;
    /** True when the options carried a custom executeFn: the test seam
     *  replaces the simulator, so fork-group execution is disabled. */
    bool customExecute = false;

    std::atomic<unsigned> slot_{0};
    std::atomic<bool> stopping{false};
    /** Set on Goodbye / handshake rejection / unusable address: run()
     *  must not reconnect. */
    std::atomic<bool> terminal{false};

    /**
     * The live coordinator link, guarded so shutdownNow() can never
     * call ::shutdown on a descriptor the serve thread already closed
     * (and the kernel possibly recycled): the serve thread clears
     * linkFd under the lock before closing the socket.
     */
    common::Mutex fdMutex;
    int linkFd GUARDED_BY(fdMutex) = -1;

    std::deque<Frame> pendingBatches;

    /** LRU memo: hash -> pre-rendered entry fragment (in its replay
     *  form, serialized at the report's splice depth). */
    std::list<std::pair<std::string, std::string>> memoOrder;
    std::map<std::string,
             std::list<std::pair<std::string, std::string>>::iterator>
        memoMap;
    std::uint64_t memoEvictions = 0;
    std::uint64_t cacheEvictions = 0;
    std::uint64_t storesSinceGc = 0;
};

} // namespace dynaspam::cluster

#endif // DYNASPAM_CLUSTER_WORKER_HH
