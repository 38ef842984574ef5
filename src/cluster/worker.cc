#include "cluster/worker.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "runner/report.hh"
#include "serve/http.hh"

namespace dynaspam::cluster
{

namespace
{

/** Cache GC every this many stores when a size budget is configured. */
constexpr std::uint64_t kGcStoreInterval = 32;

/**
 * SO_RCVTIMEO on the coordinator link. The coordinator pings every few
 * seconds, so this much silence means it is gone.
 */
constexpr unsigned kCoordinatorSilenceTimeoutSec = 30;

/** @return bytes read, 0 on EOF, -1 error, -2 timeout/no-data */
long
recvSome(int fd, char *buf, std::size_t len, int flags)
{
    while (true) {
        ssize_t n = ::recv(fd, buf, len, flags);
        if (n >= 0)
            return long(n);
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return -2;
        return -1;
    }
}

bool
sendFrame(int fd, FrameType type, const json::Value &payload)
{
    const std::string wire = encodeFrame(type, payload.dump());
    return serve::sendAll(fd, wire.data(), wire.size());
}

} // namespace

Worker::Worker(WorkerOptions options_)
    : options(std::move(options_)), cache(options.cacheDir),
      snapCache(options.snapshotCacheDir),
      customExecute(bool(options.executeFn))
{
    if (!options.executeFn)
        options.executeFn = [](const runner::Job &job) {
            return runner::execute(job);
        };
}

int
Worker::dialCoordinator()
{
    common::Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd) {
        warn("worker: socket: ", std::strerror(errno));
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(options.connectPort));
    if (::inet_pton(AF_INET, options.connectHost.c_str(),
                    &addr.sin_addr) != 1) {
        warn("worker: bad coordinator address \"", options.connectHost,
             "\" (IPv4 literal required)");
        terminal.store(true, std::memory_order_relaxed);
        return -1;
    }
    if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0)
        return fd.release();
    return -1;
}

int
Worker::run()
{
    // Jitter the reconnect waves so workers that lost the same
    // coordinator don't re-dial in lockstep. Seed quality is
    // irrelevant; per-process distinctness is the point.
    Rng rng(std::uint64_t(::getpid()) * 0x9e3779b97f4a7c15ULL ^
            std::uint64_t(std::chrono::steady_clock::now()
                              .time_since_epoch()
                              .count()));
    unsigned dialFailures = 0;
    while (true) {
        const int fd = dialCoordinator();
        if (terminal.load(std::memory_order_relaxed))
            return 1;
        if (fd < 0) {
            if (++dialFailures >= options.connectRetries) {
                warn("worker: cannot reach coordinator at ",
                     options.connectHost, ":", options.connectPort,
                     " after ", options.connectRetries, " attempts");
                return 1;
            }
            std::uint64_t delay = retryBackoffDelayMs(
                options.connectRetryMs, dialFailures,
                options.reconnectBackoffCapMs);
            delay += rng.below(delay / 2 + 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
            continue;
        }
        dialFailures = 0;
        // serveConnection takes ownership and closes on all paths.
        const int code = serveConnection(fd);
        if (stopping.load(std::memory_order_relaxed) ||
            terminal.load(std::memory_order_relaxed) ||
            !options.reconnect)
            return code;
        if (options.verbose)
            warn("worker: coordinator link lost, reconnecting");
    }
}

int
Worker::serveConnection(int fd)
{
    // Owns @p fd (int parameter so tests can hand it a socketpair end).
    common::Fd link(fd);
    {
        common::MutexLock lock(fdMutex);
        linkFd = fd;
    }

    timeval tv{};
    tv.tv_sec = kCoordinatorSilenceTimeoutSec;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    // Clearing linkFd under the lock strictly precedes `link` closing
    // the socket (at return), so a concurrent shutdownNow() either sees
    // the live fd and shuts it down before we close, or sees -1.
    auto finish = [this](int code) {
        {
            common::MutexLock lock(fdMutex);
            linkFd = -1;
        }
        if (cache.enabled()) {
            runner::CacheGcStats gc = cache.gc(options.cacheMaxBytes);
            cacheEvictions += gc.staleEvicted + gc.lruEvicted;
        }
        if (snapCache.enabled()) {
            runner::CacheGcStats gc =
                snapCache.gc(options.snapshotCacheMaxBytes);
            cacheEvictions += gc.staleEvicted + gc.lruEvicted;
        }
        return code;
    };

    json::Object hello;
    hello.emplace("protocol", std::uint64_t(kWireVersion));
    if (!options.clusterToken.empty())
        hello.emplace("token", options.clusterToken);
    if (!sendFrame(fd, FrameType::Hello, json::Value(std::move(hello))))
        return finish(1);

    // Handshake: block until one Welcome frame arrives.
    std::string inBuf;
    Frame welcome;
    while (true) {
        std::size_t consumed = 0;
        DecodeOutcome outcome = decodeFrame(inBuf, welcome, consumed);
        if (outcome == DecodeOutcome::Bad) {
            warn("worker: bad frame during handshake");
            return finish(1);
        }
        if (outcome == DecodeOutcome::Ok) {
            inBuf.erase(0, consumed);
            break;
        }
        char chunk[4096];
        long n = recvSome(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            warn("worker: coordinator closed during handshake");
            return finish(1);
        }
        inBuf.append(chunk, std::size_t(n));
    }
    if (welcome.type != FrameType::Welcome) {
        warn("worker: expected Welcome, got frame type ",
             unsigned(welcome.type));
        return finish(1);
    }
    try {
        json::Value payload = json::Value::parse(welcome.payload);
        if (const json::Value *error = payload.find("error")) {
            warn("worker: coordinator rejected us: ", error->asString());
            // A rejection (full cluster, protocol mismatch) is not a
            // lost link: reconnecting would just be rejected again.
            terminal.store(true, std::memory_order_relaxed);
            return finish(1);
        }
        slot_ = unsigned(payload.at("slot").asUint());
        if (options.verbose)
            inform("worker: joined as slot ", slot_, "/",
                   payload.at("slots").asUint(), " (cache ",
                   cache.enabled() ? options.cacheDir : "disabled", ")");
    } catch (const FatalError &err) {
        warn("worker: malformed Welcome: ", err.what());
        return finish(1);
    }

    while (true) {
        if (!drainFrames(inBuf, fd))
            return finish(stopping.load() ? 1 : 0);
        while (!pendingBatches.empty()) {
            Frame batch = std::move(pendingBatches.front());
            pendingBatches.pop_front();
            if (!handleBatch(batch, fd, inBuf))
                return finish(1);
        }

        char chunk[4096];
        long n = recvSome(fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            // Bare EOF: the coordinator vanished without a Goodbye.
            // run() re-dials (an orderly drain sets `terminal` via the
            // Goodbye frame before the close).
            return finish(stopping.load() ? 1 : 0);
        if (n == -2) {
            warn("worker: coordinator silent for ",
                 kCoordinatorSilenceTimeoutSec, "s, dropping link");
            return finish(1);
        }
        if (n < 0)
            return finish(stopping.load() ? 1 : 0);
        inBuf.append(chunk, std::size_t(n));
    }
}

void
Worker::shutdownNow()
{
    stopping.store(true, std::memory_order_relaxed);
    common::MutexLock lock(fdMutex);
    if (linkFd >= 0)
        ::shutdown(linkFd, SHUT_RDWR);
}

bool
Worker::drainFrames(std::string &inBuf, int fd)
{
    while (true) {
        Frame frame;
        std::size_t consumed = 0;
        switch (decodeFrame(inBuf, frame, consumed)) {
          case DecodeOutcome::Bad:
            warn("worker: bad frame from coordinator, dropping link");
            return false;
          case DecodeOutcome::NeedMore:
            return true;
          case DecodeOutcome::Ok:
            break;
        }
        inBuf.erase(0, consumed);

        switch (frame.type) {
          case FrameType::Ping: {
            json::Object pong;
            try {
                json::Value ping = json::Value::parse(frame.payload);
                pong.emplace("tick", ping.at("tick").asUint());
            } catch (const FatalError &) {
                warn("worker: malformed Ping payload");
                return false;
            }
            pong.emplace("queued",
                         std::uint64_t(pendingBatches.size()));
            pong.emplace("evictions", memoEvictions + cacheEvictions);
            pong.emplace("warmups", groupStats.warmups.load());
            if (!sendFrame(fd, FrameType::Pong,
                           json::Value(std::move(pong))))
                return false;
            break;
          }
          case FrameType::Batch:
            pendingBatches.push_back(std::move(frame));
            break;
          case FrameType::Lookup:
            if (!answerLookup(frame, fd))
                return false;
            break;
          case FrameType::Goodbye:
            // Orderly coordinator shutdown: exit cleanly, never
            // reconnect.
            if (options.verbose)
                inform("worker: coordinator said goodbye, exiting");
            terminal.store(true, std::memory_order_relaxed);
            return false;
          default:
            warn("worker: unexpected frame type ", unsigned(frame.type),
                 " from coordinator");
            return false;
        }
    }
}

bool
Worker::handleBatch(const Frame &frame, int fd, std::string &inBuf)
{
    std::uint64_t id = 0;
    std::vector<RawEntry> entries;
    std::string error;
    try {
        json::Value payload = json::Value::parse(frame.payload);
        id = payload.at("id").asUint();
        const json::Array &specs = payload.at("jobs").asArray();
        std::vector<runner::Job> jobs;
        jobs.reserve(specs.size());
        for (const json::Value &spec : specs)
            jobs.push_back(runner::jobFromJson(spec));
        entries.resize(jobs.size());

        // Tier 1+2: memo and disk cache, recording the misses.
        std::vector<std::size_t> missIdx;
        for (std::size_t i = 0; i < jobs.size(); i++) {
            if (std::optional<RawEntry> hit =
                    cachedEntry(jobs[i].hashHex(), &jobs[i]))
                entries[i] = std::move(*hit);
            else
                missIdx.push_back(i);
        }

        // Partition the misses into fork groups — the coordinator
        // shards by fork-group hash, so a group's members all land in
        // this batch and warm once here (possibly straight from the
        // snapshot cache). The executeFn test seam replaces the
        // simulator, so when it is set every job runs individually.
        std::vector<std::vector<std::size_t>> units;
        // Canonical miss order (matching Runner::runAll): sort by job
        // hash before partitioning so fork-group member order — and the
        // warmup representative — is independent of the coordinator's
        // batch order. Entries still land by original index.
        std::sort(missIdx.begin(), missIdx.end(),
                  [&](std::size_t a, std::size_t b) {
                      const std::uint64_t ha = jobs[a].hash();
                      const std::uint64_t hb = jobs[b].hash();
                      if (ha != hb)
                          return ha < hb;
                      const std::string ka = jobs[a].key();
                      const std::string kb = jobs[b].key();
                      if (ka != kb)
                          return ka < kb;
                      return a < b;
                  });
        std::map<std::string, std::size_t> groupOf;
        for (std::size_t i : missIdx) {
            if (customExecute || jobs[i].warmupInsts == 0) {
                units.push_back({i});
                continue;
            }
            auto [it, fresh] = groupOf.try_emplace(
                runner::forkGroupKey(jobs[i]), units.size());
            if (fresh)
                units.emplace_back();
            units[it->second].push_back(i);
        }

        std::vector<runner::JobOutcome> outcomes(jobs.size());
        for (const std::vector<std::size_t> &unit : units) {
            const std::size_t front = unit.front();
            const auto begin = std::chrono::steady_clock::now();
            if (unit.size() == 1 &&
                (customExecute || jobs[front].warmupInsts == 0)) {
                sim::RunResult result = options.executeFn(jobs[front]);
                if (cache.enabled())
                    cache.store(jobs[front], result);
                outcomes[front] = runner::JobOutcome{
                    jobs[front], std::move(result), false};
            } else {
                runner::runForkGroup(
                    jobs, unit, outcomes,
                    cache.enabled() ? &cache : nullptr,
                    snapCache.enabled() ? &snapCache : nullptr,
                    &groupStats);
            }
            // A fork group's members share its host time evenly.
            const std::uint64_t nanos =
                std::uint64_t(std::chrono::duration_cast<
                                  std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - begin)
                                  .count()) /
                unit.size();
            if (cache.enabled())
                maybeGcCache();
            for (std::size_t i : unit) {
                entries[i] = freshEntry(jobs[i], outcomes[i]);
                entries[i].executed = true;
                entries[i].hostNanos = nanos;
                entries[i].insts = outcomes[i].result.instsTotal;
            }

            // Opportunistically answer pings that arrived while the
            // unit simulated, so a busy worker is not declared dead.
            char chunk[4096];
            long n;
            while ((n = recvSome(fd, chunk, sizeof(chunk),
                                 MSG_DONTWAIT)) > 0)
                inBuf.append(chunk, std::size_t(n));
            if (!drainFrames(inBuf, fd))
                return false;
            if (n == 0 || n == -1)
                return false;    // link gone mid-batch
        }
    } catch (const std::exception &err) {
        error = err.what();
    }

    if (!error.empty()) {
        json::Object result;
        result.emplace("id", id);
        result.emplace("error", error);
        return sendFrame(fd, FrameType::Result,
                         json::Value(std::move(result)));
    }
    const std::string wire =
        encodeFrame(FrameType::ResultRaw, encodeResultRaw(id, entries));
    return serve::sendAll(fd, wire.data(), wire.size());
}

namespace
{

std::string
renderEntry(const runner::JobOutcome &outcome)
{
    return runner::sweepEntryJson(outcome).dumpAt(kReportIndent,
                                                  kEntryFragmentDepth);
}

} // namespace

std::optional<RawEntry>
Worker::cachedEntry(const std::string &hash, const runner::Job *job)
{
    auto it = memoMap.find(hash);
    if (it != memoMap.end()) {
        // Touch: move to the front of the LRU order.
        memoOrder.splice(memoOrder.begin(), memoOrder, it->second);
        return RawEntry{cache.enabled(), it->second->second};
    }

    std::optional<runner::JobOutcome> hit;
    if (job) {
        if (auto cached = cache.load(*job))
            hit = runner::JobOutcome{*job, std::move(*cached), true};
    } else if (auto cached = cache.loadByHash(hash)) {
        hit = runner::JobOutcome{std::move(cached->first),
                                 std::move(cached->second), true};
    }
    if (!hit)
        return std::nullopt;
    std::string fragment = renderEntry(*hit);
    memoPut(hash, fragment);
    return RawEntry{true, std::move(fragment)};
}

RawEntry
Worker::freshEntry(const runner::Job &job,
                   const runner::JobOutcome &outcome)
{
    RawEntry entry{false, renderEntry(runner::JobOutcome{
                              job, outcome.result, false})};
    // Memo the entry as a repeat will report it: from_cache=true when
    // a result cache would now hold it (the bytes a disk hit renders),
    // otherwise the fresh bytes, so a cache-less repeat sweep is
    // byte-identical to its first run.
    memoPut(job.hashHex(),
            cache.enabled() ? renderEntry(runner::JobOutcome{
                                  job, outcome.result, true})
                            : entry.fragment);
    return entry;
}

bool
Worker::answerLookup(const Frame &frame, int fd)
{
    std::uint64_t id = 0;
    std::string hash;
    try {
        json::Value lookup = json::Value::parse(frame.payload);
        id = lookup.at("id").asUint();
        hash = lookup.at("hash").asString();
    } catch (const FatalError &) {
        warn("worker: malformed Lookup payload");
        return false;
    }
    std::vector<RawEntry> found;
    if (std::optional<RawEntry> hit = cachedEntry(hash, nullptr))
        found.push_back(std::move(*hit));
    const std::string wire =
        encodeFrame(FrameType::ResultRaw, encodeResultRaw(id, found));
    return serve::sendAll(fd, wire.data(), wire.size());
}

void
Worker::memoPut(const std::string &hash, std::string fragment)
{
    if (options.memoCapacity == 0)
        return;
    auto it = memoMap.find(hash);
    if (it != memoMap.end()) {
        it->second->second = std::move(fragment);
        memoOrder.splice(memoOrder.begin(), memoOrder, it->second);
        return;
    }
    memoOrder.emplace_front(hash, std::move(fragment));
    memoMap[hash] = memoOrder.begin();
    while (memoOrder.size() > options.memoCapacity) {
        memoMap.erase(memoOrder.back().first);
        memoOrder.pop_back();
        memoEvictions++;
    }
}

void
Worker::maybeGcCache()
{
    if (!options.cacheMaxBytes)
        return;
    if (++storesSinceGc % kGcStoreInterval == 0) {
        runner::CacheGcStats gc = cache.gc(options.cacheMaxBytes);
        cacheEvictions += gc.staleEvicted + gc.lruEvicted;
    }
}

} // namespace dynaspam::cluster
