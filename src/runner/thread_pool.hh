/**
 * @file
 * Work-stealing thread pool for experiment execution.
 *
 * A fixed set of worker threads each owns a deque of queued tasks.
 * Workers pop work from the front of their own deque and, when it runs
 * dry, steal from the back of a victim's deque — the classic split that
 * keeps owner and thieves on opposite ends. Simulation jobs are coarse
 * (milliseconds to seconds each), so each deque is guarded by a plain
 * mutex rather than a lock-free Chase-Lev structure; contention is
 * negligible at this granularity.
 *
 * Two front ends share the same workers:
 *
 *  - parallelFor(n, fn): batch mode. Blocks until fn(0)..fn(n-1) have
 *    all run; the first task exception is rethrown after the batch
 *    drains. This is what the Runner's sweep path uses.
 *  - submit(task): persistent-queue mode. Enqueues one fire-and-forget
 *    closure and returns immediately; completion and error tracking are
 *    the caller's responsibility.
 *
 * Determinism: parallelFor schedules *index-carrying closures* and the
 * caller stores each task's result into a slot owned by that index, so
 * the combined result vector is identical no matter how many workers
 * run or in what order tasks finish. Tasks must not share mutable state
 * for this to hold.
 *
 * Shutdown drains: the destructor runs every already-queued task before
 * joining, so a service can rely on "everything admitted eventually
 * executes" simply by destroying the pool.
 */

#ifndef DYNASPAM_RUNNER_THREAD_POOL_HH
#define DYNASPAM_RUNNER_THREAD_POOL_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/mutex.hh"

namespace dynaspam::runner
{

/** Fixed-size pool executing queued tasks with work stealing. */
class ThreadPool
{
  public:
    /**
     * Spawn @p workers persistent worker threads (clamped to >= 1).
     * Workers idle on a condition variable while the queues are empty.
     */
    explicit ThreadPool(unsigned workers);

    /**
     * Drain every queued task, then join all workers. Tasks submitted
     * concurrently with destruction may or may not run; callers that
     * need a clean cut must stop submitting first.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned workers() const { return unsigned(deques.size()); }

    /**
     * Enqueue @p task (round-robin across the worker deques) and return
     * immediately. The task runs exactly once, on some worker thread.
     * Exceptions thrown by the task are a logic error: the worker has
     * nowhere to report them, so they terminate the process — wrap
     * fallible work in its own try/catch.
     */
    void submit(std::function<void()> task);

    /**
     * Execute fn(0) ... fn(n-1) across the workers and block until all
     * complete. Task indices are dealt round-robin to the worker deques
     * up front; idle workers steal from the back of busy workers'
     * deques. If any task throws, the first exception is rethrown here
     * after the batch drains (remaining tasks still run). Safe to call
     * from several threads at once (batches interleave); must not be
     * called from inside a pool task (the nested batch would wait for
     * workers that are all busy).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** @return tasks enqueued but not yet claimed by a worker — a
     *  queue-depth signal for services reporting backlog gauges. */
    std::size_t queuedTasks() const;

    /** @return a worker count from the DYNASPAM_JOBS environment
     *  variable, or @p fallback (hardware concurrency when 0). */
    static unsigned defaultWorkers(unsigned fallback = 0);

  private:
    struct WorkerDeque
    {
        common::Mutex mutex;
        std::deque<std::function<void()>> tasks GUARDED_BY(mutex);
    };

    void workerLoop(std::size_t self);
    bool popOwn(std::size_t self, std::function<void()> &task);
    bool stealOther(std::size_t self, std::function<void()> &task);

    std::vector<std::unique_ptr<WorkerDeque>> deques;
    std::vector<std::thread> threads;

    // Pool-wide state, guarded by poolMutex. `pending` counts enqueued
    // but not-yet-claimed tasks; it is incremented before the push so it
    // can never observably undercount, which makes it a safe sleep
    // predicate for the workers.
    mutable common::Mutex poolMutex;
    common::CondVar workAvailable;
    std::size_t pending GUARDED_BY(poolMutex) = 0;
    std::size_t nextDeque GUARDED_BY(poolMutex) = 0;
    bool shutdown GUARDED_BY(poolMutex) = false;
};

} // namespace dynaspam::runner

#endif // DYNASPAM_RUNNER_THREAD_POOL_HH
