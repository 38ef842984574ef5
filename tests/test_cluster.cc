/**
 * @file
 * Tests for the distributed sweep fabric: the length-prefixed wire
 * protocol (round-trip, garbage rejection, incremental decode), the
 * FNV-1a hash-space shard mapping, and the coordinator/worker system
 * end to end — report byte-identity with single-process sweeps, worker
 * death mid-sweep with batch reassignment, protocol-garbage resilience,
 * no-worker 503s, bounded admission, and HTTP keep-alive on the epoll
 * front end.
 *
 * Cluster tests run the coordinator and workers in-process: the
 * coordinator binds ephemeral ports and each worker runs Worker::run on
 * its own thread, dialing the coordinator like the real
 * `dynaspam worker` process would. A gated executeFn turns a worker
 * into a deterministic crash victim.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cluster/coordinator.hh"
#include "cluster/wire.hh"
#include "cluster/worker.hh"
#include "common/logging.hh"
#include "runner/runner.hh"

using namespace dynaspam;
using cluster::Coordinator;
using cluster::CoordinatorOptions;
using cluster::Worker;
using cluster::WorkerOptions;
using runner::Job;
using sim::SystemMode;

namespace fs = std::filesystem;

namespace
{

/** Fresh unique directory under the system temp dir, removed on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<unsigned> next{0};
        path_ = (fs::temp_directory_path() /
                 ("dynaspam-cluster-" + tag + "-" +
                  std::to_string(getpid()) + "-" + std::to_string(next++)))
                    .string();
        fs::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** One parsed response from the test HTTP client. */
struct Reply
{
    int status = 0;
    std::map<std::string, std::string> headers;
    std::string body;
};

int
connectTo(unsigned port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * Read exactly one HTTP response from @p fd (headers + Content-Length
 * body) WITHOUT waiting for EOF — usable on keep-alive connections.
 */
Reply
readReply(int fd)
{
    Reply reply;
    std::string raw;
    char chunk[4096];
    std::size_t head_end = std::string::npos;
    while ((head_end = raw.find("\r\n\r\n")) == std::string::npos) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return reply;
        raw.append(chunk, std::size_t(n));
    }

    std::istringstream head(raw.substr(0, head_end));
    std::string version;
    head >> version >> reply.status;
    std::string line;
    std::getline(head, line);
    while (std::getline(head, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string value = line.substr(colon + 1);
        std::size_t b = value.find_first_not_of(' ');
        reply.headers[line.substr(0, colon)] =
            b == std::string::npos ? "" : value.substr(b);
    }

    std::size_t body_len = 0;
    auto it = reply.headers.find("Content-Length");
    if (it != reply.headers.end())
        body_len = std::stoul(it->second);
    reply.body = raw.substr(head_end + 4);
    while (reply.body.size() < body_len) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        reply.body.append(chunk, std::size_t(n));
    }
    return reply;
}

bool
sendRaw(int fd, const std::string &wire)
{
    std::size_t sent = 0;
    while (sent < wire.size()) {
        ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += std::size_t(n);
    }
    return true;
}

std::string
requestWire(const std::string &method, const std::string &target,
            const std::string &body = "", bool keep_alive = false)
{
    std::ostringstream os;
    os << method << ' ' << target << " HTTP/1.1\r\n"
       << "Host: 127.0.0.1\r\n"
       << (keep_alive ? "Connection: keep-alive\r\n" : "")
       << "Content-Length: " << body.size() << "\r\n\r\n"
       << body;
    return os.str();
}

/** One-shot request on a fresh connection. */
Reply
request(unsigned port, const std::string &method,
        const std::string &target, const std::string &body = "")
{
    int fd = connectTo(port);
    if (fd < 0)
        return Reply{};
    Reply reply;
    if (sendRaw(fd, requestWire(method, target, body)))
        reply = readReply(fd);
    ::close(fd);
    return reply;
}

/** Spin until @p predicate holds (bounded; avoids sleep-based races). */
template <typename Pred>
bool
eventually(Pred predicate, unsigned timeout_ms = 10000)
{
    for (unsigned waited = 0; waited < timeout_ms; waited++) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return predicate();
}

CoordinatorOptions
quietCoordinator(unsigned slots)
{
    CoordinatorOptions opts;
    opts.httpPort = 0;
    opts.workerPort = 0;
    opts.workerSlots = slots;
    opts.retryBackoffMs = 10;    // fast reassignment in tests
    opts.verbose = getenv("DSPAM_TEST_VERBOSE") != nullptr;
    return opts;
}

WorkerOptions
quietWorker(const Coordinator &coordinator, const std::string &cache_dir)
{
    WorkerOptions opts;
    opts.connectPort = coordinator.workerPort();
    opts.cacheDir = cache_dir;
    opts.verbose = getenv("DSPAM_TEST_VERBOSE") != nullptr;
    return opts;
}

/** The fig8/bfs sweep used throughout: 4 cheap, real simulation jobs. */
const char *kSweepBody =
    "{\"sweep\": \"fig8\", \"workloads\": [\"bfs\"],"
    " \"trace_length\": 16}";

std::vector<Job>
sweepJobsUnderTest()
{
    return runner::sweepJobs("fig8", {"bfs"}, 1, 16);
}

/** What `dynaspam sweep` writes for the same jobs and cache dir. */
std::string
cliReport(const std::string &cache_dir)
{
    runner::RunnerOptions opts;
    opts.jobs = 1;
    opts.cacheDir = cache_dir;
    runner::Runner runner(opts);
    auto outcomes = runner.runAll(sweepJobsUnderTest());
    std::ostringstream os;
    runner::writeSweepReport(os, "fig8", outcomes, &runner.stats());
    return os.str();
}

} // namespace

// --- Wire protocol --------------------------------------------------------

TEST(ClusterWire, FrameRoundTrip)
{
    const std::string payload = "{\"id\": 7}";
    std::string wire =
        cluster::encodeFrame(cluster::FrameType::Batch, payload);

    cluster::Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(cluster::decodeFrame(wire, frame, consumed),
              cluster::DecodeOutcome::Ok);
    EXPECT_EQ(frame.type, cluster::FrameType::Batch);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(consumed, wire.size());

    // Two concatenated frames decode one at a time.
    std::string two =
        wire + cluster::encodeFrame(cluster::FrameType::Ping, "{}");
    EXPECT_EQ(cluster::decodeFrame(two, frame, consumed),
              cluster::DecodeOutcome::Ok);
    EXPECT_EQ(frame.type, cluster::FrameType::Batch);
    two.erase(0, consumed);
    EXPECT_EQ(cluster::decodeFrame(two, frame, consumed),
              cluster::DecodeOutcome::Ok);
    EXPECT_EQ(frame.type, cluster::FrameType::Ping);
    EXPECT_EQ(frame.payload, "{}");
}

TEST(ClusterWire, TruncatedFramesNeedMore)
{
    std::string wire =
        cluster::encodeFrame(cluster::FrameType::Result, "{\"id\": 1}");
    cluster::Frame frame;
    std::size_t consumed = 0;
    for (std::size_t len = 0; len < wire.size(); len++) {
        EXPECT_EQ(cluster::decodeFrame(wire.substr(0, len), frame,
                                       consumed),
                  cluster::DecodeOutcome::NeedMore)
            << "at prefix length " << len;
    }
}

TEST(ClusterWire, GarbageFramesRejected)
{
    cluster::Frame frame;
    std::size_t consumed = 0;

    // Wrong magic (an HTTP request aimed at the worker port).
    EXPECT_EQ(cluster::decodeFrame("GET / HTTP/1.1\r\n\r\n", frame,
                                   consumed),
              cluster::DecodeOutcome::Bad);

    // Wrong version byte.
    std::string wire =
        cluster::encodeFrame(cluster::FrameType::Ping, "{}");
    wire[2] = char(0x7f);
    EXPECT_EQ(cluster::decodeFrame(wire, frame, consumed),
              cluster::DecodeOutcome::Bad);

    // Unknown frame type.
    wire = cluster::encodeFrame(cluster::FrameType::Ping, "{}");
    wire[3] = char(0x42);
    EXPECT_EQ(cluster::decodeFrame(wire, frame, consumed),
              cluster::DecodeOutcome::Bad);

    // Length field past the payload cap: rejected before allocation.
    wire = cluster::encodeFrame(cluster::FrameType::Ping, "{}");
    wire[4] = char(0xff);
    wire[5] = char(0xff);
    wire[6] = char(0xff);
    wire[7] = char(0xff);
    EXPECT_EQ(cluster::decodeFrame(wire, frame, consumed),
              cluster::DecodeOutcome::Bad);
}

TEST(ClusterWire, ResultRawRoundTripsEntriesAndExecutionStats)
{
    std::vector<cluster::RawEntry> entries(3);
    entries[0] = {true, "{\"a\": 1}"};
    entries[1] = {false, "{\"b\": 2}", true, 123456789, 4242};
    entries[2] = {false, ""};
    const std::string payload = cluster::encodeResultRaw(77, entries);

    std::uint64_t id = 0;
    std::vector<cluster::RawEntry> decoded;
    ASSERT_TRUE(cluster::decodeResultRaw(payload, id, decoded));
    EXPECT_EQ(id, 77u);
    ASSERT_EQ(decoded.size(), 3u);
    for (std::size_t i = 0; i < 3; i++) {
        EXPECT_EQ(decoded[i].fromCache, entries[i].fromCache) << i;
        EXPECT_EQ(decoded[i].fragment, entries[i].fragment) << i;
        EXPECT_EQ(decoded[i].executed, entries[i].executed) << i;
        EXPECT_EQ(decoded[i].hostNanos, entries[i].hostNanos) << i;
        EXPECT_EQ(decoded[i].insts, entries[i].insts) << i;
    }

    // A lookup miss is a zero-entry payload.
    ASSERT_TRUE(cluster::decodeResultRaw(cluster::encodeResultRaw(5, {}),
                                         id, decoded));
    EXPECT_EQ(id, 5u);
    EXPECT_TRUE(decoded.empty());

    // Lookup frames decode like every other type.
    cluster::Frame frame;
    std::size_t consumed = 0;
    const std::string lookup = cluster::encodeFrame(
        cluster::FrameType::Lookup,
        "{\"id\": 3, \"hash\": \"0123456789abcdef\"}");
    EXPECT_EQ(cluster::decodeFrame(lookup, frame, consumed),
              cluster::DecodeOutcome::Ok);
    EXPECT_EQ(frame.type, cluster::FrameType::Lookup);
}

TEST(ClusterWire, GarbageResultRawRejected)
{
    const std::string good = cluster::encodeResultRaw(
        9, {{false, "{\"x\": 1}", true, 10, 20}});
    std::uint64_t id = 0;
    std::vector<cluster::RawEntry> decoded;
    // Every truncation is rejected, never read past the end.
    for (std::size_t len = 0; len < good.size(); len++)
        EXPECT_FALSE(cluster::decodeResultRaw(good.substr(0, len), id,
                                              decoded))
            << "at prefix length " << len;
    // Trailing bytes, unknown flag bits and an entry count the payload
    // cannot hold are all rejected.
    EXPECT_FALSE(cluster::decodeResultRaw(good + "x", id, decoded));
    std::string flags = good;
    flags[12] = char(0x80);
    EXPECT_FALSE(cluster::decodeResultRaw(flags, id, decoded));
    std::string count = good;
    count[8] = count[9] = count[10] = count[11] = char(0xff);
    EXPECT_FALSE(cluster::decodeResultRaw(count, id, decoded));
}

TEST(ClusterWire, RetryBackoffDelayClampedAndSafe)
{
    using cluster::retryBackoffDelayMs;
    // Attempt 0 (defensive) and 1 both mean "first retry": base delay.
    EXPECT_EQ(retryBackoffDelayMs(100, 0, 60000), 100u);
    EXPECT_EQ(retryBackoffDelayMs(100, 1, 60000), 100u);
    EXPECT_EQ(retryBackoffDelayMs(100, 2, 60000), 200u);
    EXPECT_EQ(retryBackoffDelayMs(100, 3, 60000), 400u);
    EXPECT_EQ(retryBackoffDelayMs(100, 11, 60000), 60000u);
    // Attempt counts whose naive `base << (attempts - 1)` would shift
    // past 63 bits (UB) or wrap must saturate at the cap instead.
    for (unsigned attempts : {64u, 65u, 1000u, ~0u})
        EXPECT_EQ(retryBackoffDelayMs(100, attempts, 60000), 60000u)
            << attempts << " attempts";
    // A base already above the cap clamps down; a zero base stays zero.
    EXPECT_EQ(retryBackoffDelayMs(100000, 1, 60000), 60000u);
    EXPECT_EQ(retryBackoffDelayMs(0, 50, 60000), 0u);
}

// --- Shard mapping --------------------------------------------------------

TEST(ClusterShard, OwnerSlotIsStableAndInRange)
{
    const std::vector<Job> jobs = sweepJobsUnderTest();
    for (unsigned slots : {1u, 2u, 3u, 4u, 7u}) {
        for (const Job &job : jobs) {
            unsigned slot = cluster::ownerSlot(job.hash(), slots);
            EXPECT_LT(slot, slots);
            // Same hash, same slot count -> same owner, every time.
            EXPECT_EQ(slot, cluster::ownerSlot(job.hash(), slots));
        }
    }
    // With one slot everything maps to it.
    EXPECT_EQ(cluster::ownerSlot(0, 1), 0u);
    EXPECT_EQ(cluster::ownerSlot(~0ull, 1), 0u);
}

TEST(ClusterShard, HashSpacePartitionIsRoughlyBalanced)
{
    // 4096 synthetic hashes over 4 slots: each slot should own a
    // non-trivial share (the multiply-shift map is uniform for uniform
    // hashes; FNV-1a output is well spread).
    constexpr unsigned kSlots = 4;
    std::vector<unsigned> counts(kSlots, 0);
    std::uint64_t hash = 0x9e3779b97f4a7c15ull;
    for (unsigned i = 0; i < 4096; i++) {
        hash ^= hash >> 33;
        hash *= 0xff51afd7ed558ccdull;
        hash ^= hash >> 33;
        counts[cluster::ownerSlot(hash, kSlots)]++;
    }
    for (unsigned slot = 0; slot < kSlots; slot++)
        EXPECT_GT(counts[slot], 4096u / kSlots / 2)
            << "slot " << slot << " owns too little of the hash space";
}

// --- Cluster end to end ---------------------------------------------------

TEST(Cluster, SweepReportByteIdenticalToSingleProcess)
{
    TempDir tmp("bytes");
    Coordinator coordinator(quietCoordinator(3));
    coordinator.start();

    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < 3; i++) {
        workers.push_back(std::make_unique<Worker>(quietWorker(
            coordinator, tmp.path() + "/worker" + std::to_string(i))));
        // The vector may grow while earlier workers run: capture the
        // worker, not its slot.
        threads.emplace_back([w = workers[i].get()] { w->run(); });
    }
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 3;
    }));

    // Cold: every job simulated on some shard; report must match a cold
    // uncached single-process `dynaspam sweep`.
    Reply cold = request(coordinator.httpPort(), "POST", "/sweep",
                         kSweepBody);
    ASSERT_EQ(cold.status, 200);
    EXPECT_EQ(cold.body, cliReport(""));

    // Warm: all four jobs answered from shard-local caches; report must
    // match a warm single-process sweep (one runner warms, one reads).
    Reply warm = request(coordinator.httpPort(), "POST", "/sweep",
                         kSweepBody);
    ASSERT_EQ(warm.status, 200);
    std::string warm_cache = tmp.path() + "/cli";
    (void)cliReport(warm_cache);
    EXPECT_EQ(warm.body, cliReport(warm_cache));
    EXPECT_EQ(coordinator.metrics().value("dynaspam_cache_hits_total"),
              4);

    // /run of one job behaves like a one-job sweep named "run".
    Reply run = request(coordinator.httpPort(), "POST", "/run",
                        "{\"workload\": \"bfs\", \"trace_length\": 16}");
    EXPECT_EQ(run.status, 200);
    EXPECT_NE(run.body.find("\"sweep\": \"run\""), std::string::npos);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    for (std::thread &t : threads)
        t.join();
}

TEST(Cluster, WorkerKilledMidSweepStillYieldsIdenticalReport)
{
    TempDir tmp("kill");

    // Decide the victim slot up front: the slot owning the first job's
    // hash is guaranteed to receive a batch.
    constexpr unsigned kSlots = 2;
    const std::vector<Job> jobs = sweepJobsUnderTest();
    const unsigned victimSlot =
        cluster::ownerSlot(jobs[0].hash(), kSlots);

    Coordinator coordinator(quietCoordinator(kSlots));
    coordinator.start();

    // The victim's executeFn blocks until released, so the kill happens
    // deterministically mid-batch. Its (fake) results never escape: the
    // link is already shut when the batch would report.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;
    std::atomic<unsigned> victim_calls{0};
    WorkerOptions victim_opts = quietWorker(coordinator, "");
    victim_opts.executeFn = [&](const Job &) {
        victim_calls++;
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return gate_open; });
        return sim::RunResult{};
    };

    WorkerOptions healthy_opts =
        quietWorker(coordinator, tmp.path() + "/healthy");

    // Slots are granted in connection order: dial the victim first when
    // it must own slot 0.
    std::unique_ptr<Worker> first = std::make_unique<Worker>(
        victimSlot == 0 ? victim_opts : healthy_opts);
    std::thread first_thread([&] { first->run(); });
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));
    std::unique_ptr<Worker> second = std::make_unique<Worker>(
        victimSlot == 0 ? healthy_opts : victim_opts);
    std::thread second_thread([&] { second->run(); });
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 2;
    }));
    Worker &victim_worker = victimSlot == 0 ? *first : *second;
    std::thread &victim_thread = victimSlot == 0 ? first_thread : second_thread;
    std::thread &healthy_thread = victimSlot == 0 ? second_thread : first_thread;

    std::thread client([&] {
        Reply reply = request(coordinator.httpPort(), "POST", "/sweep",
                              kSweepBody);
        EXPECT_EQ(reply.status, 200);
        // Cold cluster, cold CLI: byte-identical despite the crash.
        EXPECT_EQ(reply.body, cliReport(""));
    });

    // Wait until the victim is provably mid-batch, then kill it.
    ASSERT_TRUE(eventually([&] { return victim_calls.load() >= 1; }));
    victim_worker.shutdownNow();

    client.join();

    // The batch was reassigned (and accounted), not dropped.
    std::ostringstream label;
    label << "worker=\"" << victimSlot << "\"";
    EXPECT_GE(coordinator.metrics().value(
                  "dynaspam_cluster_batch_retries_total", label.str()),
              1);
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_workers_connected"),
              1);

    // Release the gated executeFn so the victim thread can exit.
    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        gate_open = true;
    }
    gate_cv.notify_all();
    victim_thread.join();

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    healthy_thread.join();
}

TEST(Cluster, WorkerReconnectsAfterCoordinatorCrashAndRestart)
{
    TempDir tmp("reconnect");

    // A stand-in coordinator: accept the worker, complete the
    // Hello/Welcome handshake, then vanish without a Goodbye — the
    // crash case. Its listener closes too, freeing the port for the
    // real coordinator that "restarts" in its place.
    int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)), 0);
    ASSERT_EQ(::listen(listener, 4), 0);
    socklen_t addr_len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr *>(&addr),
                            &addr_len), 0);
    const unsigned port = ntohs(addr.sin_port);

    WorkerOptions wopts;
    wopts.connectPort = port;
    wopts.cacheDir = tmp.path() + "/w";
    wopts.connectRetryMs = 5;    // fast redial waves in the test
    wopts.verbose = getenv("DSPAM_TEST_VERBOSE") != nullptr;
    Worker worker(wopts);
    int exit_code = -1;
    std::thread worker_thread([&] { exit_code = worker.run(); });

    int conn = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    char hello[256];
    ASSERT_GT(::recv(conn, hello, sizeof(hello), 0), 0);
    ASSERT_TRUE(sendRaw(conn,
                        cluster::encodeFrame(cluster::FrameType::Welcome,
                                             "{\"slot\": 0, \"slots\": 1}")));
    ::close(conn);
    ::close(listener);

    // The real coordinator binds the same port; the worker's jittered
    // backoff redial finds it and rejoins without operator help.
    CoordinatorOptions copts = quietCoordinator(1);
    copts.workerPort = port;
    Coordinator coordinator(copts);
    coordinator.start();
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    // ...and the rejoined worker serves a real sweep end to end.
    Reply reply = request(coordinator.httpPort(), "POST", "/sweep",
                          kSweepBody);
    EXPECT_EQ(reply.status, 200);
    EXPECT_EQ(reply.body, cliReport(""));

    // An orderly drain says Goodbye: the worker exits 0 instead of
    // treating the close as another crash and redialing forever.
    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    worker_thread.join();
    EXPECT_EQ(exit_code, 0);
}

/** Four bfs jobs with a shared warmup: two fork groups (the baseline
 *  host pipeline warms separately from the DynaSpAM configurations). */
const char *kWarmSweepBody =
    "{\"jobs\": ["
    "{\"workload\": \"bfs\", \"mode\": \"baseline-ooo\","
    " \"warmup_insts\": 20000},"
    "{\"workload\": \"bfs\", \"mode\": \"mapping-only\","
    " \"warmup_insts\": 20000},"
    "{\"workload\": \"bfs\", \"mode\": \"accel-nospec\","
    " \"warmup_insts\": 20000},"
    "{\"workload\": \"bfs\", \"mode\": \"accel-spec\","
    " \"warmup_insts\": 20000}]}";

TEST(Cluster, SnapshotCacheSkipsRewarmAcrossWorkerRestart)
{
    TempDir tmp("snapshot");
    CoordinatorOptions copts = quietCoordinator(1);
    copts.pingIntervalMs = 50;    // fast warmups-gauge propagation
    Coordinator coordinator(copts);
    coordinator.start();

    const std::string snap_dir = tmp.path() + "/snaps";
    auto snapWorker = [&] {
        // No result cache: run 2 must re-execute every job, so the only
        // thing that can spare the warm pass is the snapshot cache.
        WorkerOptions opts = quietWorker(coordinator, "");
        opts.snapshotCacheDir = snap_dir;
        return opts;
    };

    // What a single process answers for the same four jobs.
    std::vector<Job> jobs;
    for (SystemMode mode :
         {SystemMode::BaselineOoo, SystemMode::MappingOnly,
          SystemMode::AccelNoSpec, SystemMode::AccelSpec}) {
        Job job{"bfs", mode, 32, 1, 1};
        job.warmupInsts = 20000;
        jobs.push_back(job);
    }
    runner::RunnerOptions ropts;
    ropts.jobs = 1;
    runner::Runner straight(ropts);
    auto outcomes = straight.runAll(jobs);
    std::ostringstream os;
    runner::writeSweepReport(os, "custom", outcomes, &straight.stats());
    const std::string expected = os.str();

    // Run 1: cold snapshot cache — the worker warms each fork group
    // once and persists the warmed state.
    Worker first(snapWorker());
    std::thread first_thread([&] { first.run(); });
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));
    Reply cold = request(coordinator.httpPort(), "POST", "/sweep",
                         kWarmSweepBody);
    ASSERT_EQ(cold.status, 200);
    EXPECT_EQ(cold.body, expected);
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_worker_warmups", "worker=\"0\"") == 2;
    }));
    std::size_t snap_files = 0;
    for (const auto &de : fs::directory_iterator(snap_dir))
        snap_files += de.path().extension() == ".snap";
    EXPECT_EQ(snap_files, 2u);

    // Restart: a FRESH worker process sharing only the snapshot dir.
    first.shutdownNow();
    first_thread.join();
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 0;
    }));
    Worker second(snapWorker());
    std::thread second_thread([&] { second.run(); });
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    // Run 2: every job re-executes (no result cache), but the warmed
    // prefixes load from disk — zero warm passes, identical bytes.
    Reply warm = request(coordinator.httpPort(), "POST", "/sweep",
                         kWarmSweepBody);
    ASSERT_EQ(warm.status, 200);
    EXPECT_EQ(warm.body, expected);
    // Give the gauge a few ping cycles to reflect post-sweep state: it
    // must remain at the fresh worker's zero, proving no re-warm.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_worker_warmups", "worker=\"0\""),
              0);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    second_thread.join();
}

TEST(Cluster, GarbageOnWorkerPortDoesNotDisturbService)
{
    TempDir tmp("garbage");
    Coordinator coordinator(quietCoordinator(2));
    coordinator.start();

    // An HTTP request aimed at the worker port: bad magic, dropped.
    int bad = connectTo(coordinator.workerPort());
    ASSERT_GE(bad, 0);
    sendRaw(bad, "GET / HTTP/1.1\r\nHost: x\r\n\r\n");

    // A truncated-then-abandoned frame: valid header, missing payload.
    int trunc = connectTo(coordinator.workerPort());
    ASSERT_GE(trunc, 0);
    std::string frame =
        cluster::encodeFrame(cluster::FrameType::Hello, "{\"protocol\": 1}");
    sendRaw(trunc, frame.substr(0, frame.size() - 4));

    // The coordinator keeps serving and a real worker can still join.
    EXPECT_EQ(request(coordinator.httpPort(), "GET", "/healthz").status,
              200);
    Worker worker(quietWorker(coordinator, tmp.path() + "/w"));
    std::thread worker_thread([&] { worker.run(); });
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));
    ::close(bad);
    ::close(trunc);

    Reply sweep = request(coordinator.httpPort(), "POST", "/sweep",
                          kSweepBody);
    EXPECT_EQ(sweep.status, 200);
    EXPECT_EQ(sweep.body, cliReport(""));

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    worker_thread.join();
}

TEST(Cluster, NoWorkersMeans503AndBadBodiesMean400)
{
    Coordinator coordinator(quietCoordinator(2));
    coordinator.start();

    Reply no_workers = request(coordinator.httpPort(), "POST", "/sweep",
                               kSweepBody);
    EXPECT_EQ(no_workers.status, 503);
    EXPECT_NE(no_workers.body.find("no workers connected"),
              std::string::npos);

    EXPECT_EQ(request(coordinator.httpPort(), "POST", "/sweep",
                      "{not json").status, 400);
    EXPECT_EQ(request(coordinator.httpPort(), "POST", "/run",
                      "{\"workload\": \"nope\"}").status, 400);
    EXPECT_EQ(request(coordinator.httpPort(), "GET", "/sweep").status,
              405);
    EXPECT_EQ(request(coordinator.httpPort(), "GET", "/nope").status,
              404);
    EXPECT_EQ(request(coordinator.httpPort(), "GET",
                      "/results/0123").status, 404);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
}

TEST(Cluster, KeepAliveServesManyRequestsOnOneConnection)
{
    Coordinator coordinator(quietCoordinator(1));
    coordinator.start();

    // Keep-alive is opt-in (`Connection: keep-alive`): many requests,
    // one connection, one connection-count increment.
    int fd = connectTo(coordinator.httpPort());
    ASSERT_GE(fd, 0);
    for (unsigned i = 0; i < 5; i++) {
        ASSERT_TRUE(sendRaw(fd, requestWire("GET", "/healthz", "", true)));
        Reply reply = readReply(fd);
        EXPECT_EQ(reply.status, 200);
        EXPECT_EQ(reply.headers.at("Connection"), "keep-alive");
    }

    // Pipelined back-to-back requests also all get answered.
    ASSERT_TRUE(sendRaw(fd, requestWire("GET", "/healthz", "", true) +
                                requestWire("GET", "/metrics", "", true)));
    EXPECT_EQ(readReply(fd).status, 200);
    Reply scrape = readReply(fd);
    EXPECT_EQ(scrape.status, 200);
    EXPECT_NE(scrape.body.find("dynaspam_http_connections_total 1\n"),
              std::string::npos);

    // `Connection: close` is honored: response says close, then EOF.
    ASSERT_TRUE(sendRaw(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n"
                            "Connection: close\r\n\r\n"));
    Reply last = readReply(fd);
    EXPECT_EQ(last.status, 200);
    EXPECT_EQ(last.headers.at("Connection"), "close");
    char byte;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
}

TEST(Cluster, AdmissionBoundReturns429)
{
    CoordinatorOptions opts = quietCoordinator(1);
    opts.queueCapacity = 2;    // fig8/bfs needs 4 job slots
    Coordinator coordinator(opts);
    coordinator.start();

    // One worker so admission (not worker-absence) is the limiter; the
    // sweep is larger than the queue, so it is refused outright.
    TempDir tmp("admission");
    Worker worker(quietWorker(coordinator, tmp.path() + "/w"));
    std::thread worker_thread([&] { worker.run(); });
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    Reply reply = request(coordinator.httpPort(), "POST", "/sweep",
                          kSweepBody);
    EXPECT_EQ(reply.status, 429);
    EXPECT_EQ(reply.headers.at("Retry-After"), "2");
    EXPECT_NE(reply.body.find("admission queue full"), std::string::npos);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    worker_thread.join();
}

TEST(Cluster, EnrollmentTokenGatesWorkers)
{
    TempDir tmp("token");
    CoordinatorOptions copts = quietCoordinator(2);
    copts.clusterToken = "sekrit-cluster-token";
    Coordinator coordinator(copts);
    coordinator.start();

    // A tokenless worker and a wrong-token worker are both dropped
    // before any Welcome; neither ever counts as connected.
    WorkerOptions bare = quietWorker(coordinator, "");
    bare.reconnect = false;
    Worker tokenless(bare);
    std::thread tokenless_thread([&] { tokenless.run(); });

    WorkerOptions mismatched = bare;
    mismatched.clusterToken = "wrong-token";
    Worker wrong(mismatched);
    std::thread wrong_thread([&] { wrong.run(); });

    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_hello_rejects_total") >= 2;
    }));
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_workers_connected"),
              0);
    tokenless_thread.join();
    wrong_thread.join();

    // The secret must never surface through the metrics endpoint.
    Reply metrics = request(coordinator.httpPort(), "GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_EQ(metrics.body.find("sekrit"), std::string::npos);
    EXPECT_NE(metrics.body.find("dynaspam_cluster_hello_rejects_total 2"),
              std::string::npos);

    // The matching token enrolls normally and the cluster serves work.
    WorkerOptions good = quietWorker(coordinator, tmp.path() + "/w");
    good.clusterToken = "sekrit-cluster-token";
    Worker enrolled(good);
    std::thread enrolled_thread([&] { enrolled.run(); });
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));
    Reply run = request(coordinator.httpPort(), "POST", "/run",
                        "{\"workload\": \"bfs\", \"trace_length\": 16}");
    EXPECT_EQ(run.status, 200);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    enrolled_thread.join();
}

TEST(Cluster, CoordinatorMemoServesRepeatSweeps)
{
    TempDir tmp("memo");
    CoordinatorOptions copts = quietCoordinator(2);
    copts.memoCapacity = 64;
    Coordinator coordinator(copts);
    coordinator.start();

    Worker worker(quietWorker(coordinator, tmp.path() + "/w"));
    std::thread worker_thread([&] { worker.run(); });
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    Reply cold = request(coordinator.httpPort(), "POST", "/sweep",
                         kSweepBody);
    ASSERT_EQ(cold.status, 200);
    EXPECT_EQ(cold.body.find("\"from_cache\": true"), std::string::npos);
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_coordinator_memo_hits"),
              0);

    // The repeat sweep is answered from the coordinator-side memo:
    // every entry is marked from_cache and no worker round-trip adds
    // cache hits beyond the first pass.
    Reply warm = request(coordinator.httpPort(), "POST", "/sweep",
                         kSweepBody);
    ASSERT_EQ(warm.status, 200);
    EXPECT_NE(warm.body.find("\"from_cache\": true"), std::string::npos);
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_coordinator_memo_hits"),
              4);

    // Memo-served requests need no workers at all: kill the only
    // worker and the same sweep still answers 200 entirely from memo.
    worker.shutdownNow();
    worker_thread.join();
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 0;
    }));
    Reply orphan = request(coordinator.httpPort(), "POST", "/sweep",
                           kSweepBody);
    EXPECT_EQ(orphan.status, 200);
    EXPECT_EQ(coordinator.metrics().value(
                  "dynaspam_cluster_coordinator_memo_hits"),
              8);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
}

// --- Parity with `dynaspam serve` -----------------------------------------

namespace
{

/** Fake simulator shared by a test's workers: counts calls and blocks
 *  while closed. */
class Gate
{
  public:
    sim::RunResult
    operator()(const Job &)
    {
        calls++;
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
        sim::RunResult result;
        result.cycles = 1000;
        result.instsTotal = 500;
        result.functionallyCorrect = true;
        return result;
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        open = true;
        cv.notify_all();
    }

    std::atomic<unsigned> calls{0};

  private:
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
};

/** A coordinator and @p count cache-less remote workers running
 *  @p gate, torn down in order. */
class GatedCluster
{
  public:
    GatedCluster(Gate &gate, unsigned count)
        : coordinator(quietCoordinator(count))
    {
        coordinator.start();
        for (unsigned i = 0; i < count; i++) {
            WorkerOptions opts = quietWorker(coordinator, "");
            opts.executeFn = [&gate](const Job &job) { return gate(job); };
            workers.push_back(std::make_unique<Worker>(opts));
            Worker *worker = workers.back().get();
            threads.emplace_back([worker] { worker->run(); });
        }
        connected = eventually([&] {
            return coordinator.metrics().value(
                       "dynaspam_cluster_workers_connected") == count;
        });
    }

    ~GatedCluster()
    {
        coordinator.beginDrain();
        coordinator.waitUntilDrained();
        for (std::thread &t : threads)
            t.join();
    }

    unsigned port() const { return coordinator.httpPort(); }

    Coordinator coordinator;
    bool connected = false;

  private:
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;
};

} // namespace

TEST(Cluster, RunQuerySelectsSampledFidelity)
{
    Coordinator coordinator(quietCoordinator(1));
    coordinator.start();
    Worker worker(quietWorker(coordinator, ""));
    std::thread worker_thread([&] { worker.run(); });
    ASSERT_TRUE(eventually([&] {
        return coordinator.metrics().value(
                   "dynaspam_cluster_workers_connected") == 1;
    }));

    // The query overrides the body spec, exactly as on `dynaspam serve`.
    Reply sampled = request(coordinator.httpPort(), "POST",
                            "/run?fidelity=sampled&warmup_insts=20000",
                            "{\"workload\": \"bfs\", \"trace_length\": 16}");
    EXPECT_EQ(sampled.status, 200) << sampled.body;
    EXPECT_NE(sampled.body.find("\"sampled\": {"), std::string::npos);
    EXPECT_NE(sampled.body.find("\"fidelity\": \"sampled\""),
              std::string::npos);
    EXPECT_EQ(request(coordinator.httpPort(), "POST", "/run?bogus=1",
                      "{\"workload\": \"bfs\"}").status,
              400);

    coordinator.beginDrain();
    coordinator.waitUntilDrained();
    worker_thread.join();
}

TEST(Cluster, ResultsAnswersFromTheWorkers)
{
    Gate gate;
    GatedCluster cluster(gate, 2);
    ASSERT_TRUE(cluster.connected);
    const std::vector<Job> jobs = sweepJobsUnderTest();
    const std::string spec =
        "{\"workload\": \"bfs\", \"mode\": \"accel-spec\","
        " \"trace_length\": 16}";
    const std::string hash =
        Job{"BFS", SystemMode::AccelSpec, 16, 1, 1}.hashHex();

    // In flight: 202, without asking any worker.
    std::thread first([&] {
        EXPECT_EQ(request(cluster.port(), "POST", "/run", spec).status, 200);
    });
    ASSERT_TRUE(eventually([&] { return gate.calls.load() == 1; }));
    Reply pending = request(cluster.port(), "GET", "/results/" + hash);
    EXPECT_EQ(pending.status, 202);
    EXPECT_NE(pending.body.find("\"status\": \"pending\""),
              std::string::npos);
    gate.release();
    first.join();

    // After a sweep, every job's result is the bytes a /run answers,
    // whichever worker holds it.
    ASSERT_EQ(request(cluster.port(), "POST", "/sweep", kSweepBody).status,
              200);
    for (const Job &job : jobs) {
        std::ostringstream body;
        body << "{\"workload\": \"bfs\", \"mode\": \""
             << sim::modeName(job.mode) << "\", \"trace_length\": 16}";
        Reply results =
            request(cluster.port(), "GET", "/results/" + job.hashHex());
        Reply run = request(cluster.port(), "POST", "/run", body.str());
        EXPECT_EQ(results.status, 200) << job.key();
        EXPECT_EQ(results.body, run.body) << job.key();
    }
    EXPECT_EQ(gate.calls.load(), jobs.size());

    EXPECT_EQ(request(cluster.port(), "GET",
                      "/results/0123456789abcdef").status, 404);
    EXPECT_EQ(request(cluster.port(), "POST", "/results/" + hash).status,
              405);
}

TEST(Cluster, CachelessWorkerRepeatSweepIsByteIdentical)
{
    Gate gate;
    gate.release();
    GatedCluster cluster(gate, 1);
    ASSERT_TRUE(cluster.connected);

    // A worker without a result cache replays its memo as what it is:
    // not a cache hit. The repeat sweep executes nothing and matches
    // the first byte for byte.
    Reply first = request(cluster.port(), "POST", "/sweep", kSweepBody);
    Reply again = request(cluster.port(), "POST", "/sweep", kSweepBody);
    ASSERT_EQ(first.status, 200);
    EXPECT_EQ(again.body, first.body);
    EXPECT_EQ(first.body.find("\"from_cache\": true"), std::string::npos);
    EXPECT_EQ(gate.calls.load(), 4u);
    EXPECT_EQ(cluster.coordinator.metrics().value(
                  "dynaspam_jobs_executed_total"),
              4);
}
