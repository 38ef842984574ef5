#include "serve/server.hh"

#include <chrono>

#include <sys/socket.h>

#include "common/logging.hh"
#include "runner/thread_pool.hh"

namespace dynaspam::serve
{

namespace
{

unsigned
workerCount(const ServerOptions &o)
{
    return o.jobs ? o.jobs : runner::ThreadPool::defaultWorkers();
}

cluster::CoordinatorOptions
coordinatorOptions(const ServerOptions &o)
{
    cluster::CoordinatorOptions co;
    co.bindAddress = o.bindAddress;
    co.httpPort = o.port;
    co.workerSlots = workerCount(o);
    co.queueCapacity = o.queueCapacity;
    co.requestTimeoutMs = o.requestTimeoutMs;
    co.maxRequestBytes = o.maxRequestBytes;
    co.acceptBacklog = o.acceptBacklog;
    co.defaultWarmupInsts = o.defaultWarmupInsts;
    // serve logs its own lifecycle lines.
    co.verbose = false;
    return co;
}

} // namespace

Server::Server(ServerOptions options_)
    : options(std::move(options_)), coordinator(coordinatorOptions(options))
{
}

Server::~Server()
{
    if (started) {
        beginDrain();
        waitUntilDrained();
    }
}

void
Server::start()
{
    if (started)
        panic("Server::start called twice");

    std::vector<common::Fd> workerEnds;
    for (unsigned i = 0; i < workerCount(options); i++) {
        int pair[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair) != 0)
            fatal("serve: socketpair: cannot link a worker");
        coordinator.attachWorker(common::Fd(pair[0]));
        workerEnds.emplace_back(pair[1]);

        cluster::WorkerOptions wo;
        wo.cacheDir = options.cacheDir;
        wo.cacheMaxBytes = options.cacheMaxBytes;
        wo.snapshotCacheDir = options.snapshotCacheDir;
        wo.snapshotCacheMaxBytes = options.snapshotCacheMaxBytes;
        wo.executeFn = options.executeFn;
        wo.verbose = false;
        workers.push_back(std::make_unique<cluster::Worker>(std::move(wo)));
    }

    coordinator.start();
    started = true;
    // serveConnection takes ownership of its end of the link.
    for (std::size_t i = 0; i < workers.size(); i++)
        threads.emplace_back([worker = workers[i].get(),
                              fd = workerEnds[i].release()] {
            worker->serveConnection(fd);
        });

    // perfbench and the tests send their first request right after
    // start(): return only once every worker holds a slot.
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
    while (metrics().value("dynaspam_cluster_workers_connected") <
           double(workers.size())) {
        if (std::chrono::steady_clock::now() > until)
            fatal("serve: in-process workers did not enroll");
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

void
Server::waitUntilDrained()
{
    // The coordinator's drain ends with a Goodbye to every worker,
    // whose serveConnection then GCs its caches and returns.
    coordinator.waitUntilDrained();
    for (std::thread &t : threads)
        if (t.joinable())
            t.join();
}

int
Server::serveForever()
{
    start();
    coordinator.drainOnSignals();
    if (options.verbose)
        inform("serve: listening on ", options.bindAddress, ":", port(),
               " (", workers.size(), " workers, queue capacity ",
               options.queueCapacity, ")");

    waitUntilDrained();

    if (options.verbose)
        inform("serve: drained, exiting");
    return 0;
}

} // namespace dynaspam::serve
