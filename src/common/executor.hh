/**
 * @file
 * A small persistent worker pool shared by every layer that fans
 * indexed work out — the runtime's shard-execution grid and the core
 * library compile plane both run on it. The pool owns workers-callers
 * threads; each calling thread participates in its own run, so an
 * Executor(1) runs every job on its caller with zero threads — the
 * degenerate case the determinism tests compare against.
 *
 * The only primitive is an indexed parallel-for: jobs are claimed
 * from an atomic counter, results are written by index into
 * caller-owned storage, and aggregation happens serially afterwards —
 * which is what makes N-worker execution bit-identical to 1-worker
 * execution no matter how the OS schedules the claims.
 *
 * Several threads may run at once: each run publishes a fresh
 * heap-allocated batch (function, size, claim counter) to a FIFO of
 * open batches and wakes one idle thread — a pool thread, or a caller
 * lent to the pool through helpUntil() — per job beyond the one its
 * caller starts on; an idle thread joins the oldest batch that still
 * has unclaimed jobs. A batch leaves the FIFO once its last job is
 * claimed, and threads capture it by shared_ptr, so a thread joining
 * late can never claim indices from another batch.
 *
 * forEachWorker() additionally hands each job the id of the worker
 * running it (caller = 0, every other thread that joins the batch the
 * next id in join order), so a caller can keep one scratch object — a
 * codec instance, a compression pipeline — per worker and honor
 * single-owner scratch contracts without thread_local state or
 * per-job construction.
 *
 * Lock order: the executor's mutex comes before any lock a
 * helpUntil() condition takes (runtime::Server's, for one), so the
 * condition may take such a lock — notify() evaluates sleepers'
 * conditions under the executor's mutex too — and nothing may call
 * into the executor while holding it.
 */

#ifndef COMPAQT_COMMON_EXECUTOR_HH
#define COMPAQT_COMMON_EXECUTOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace compaqt::common
{

/**
 * Fixed-size worker pool. Up to `callers` threads outside the pool
 * may drive it at once, each with forEach()/forEachWorker() or
 * helpUntil(); runs must not be nested (a job must not call back
 * into the executor).
 */
class Executor
{
  public:
    /**
     * @param workers threads that run jobs, the callers included;
     *        >= callers
     * @param callers threads outside the pool that drive it; >= 1.
     *        The pool starts workers - callers threads.
     */
    explicit Executor(int workers, int callers = 1);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    int workers() const { return workers_; }

    /**
     * std::thread::hardware_concurrency() clamped to >= 1 — the
     * standard permits a 0 return, which would otherwise turn into a
     * zero-worker pool. The default worker count for runtime::Server
     * and the value the bench env headers record.
     */
    static int defaultWorkerCount();

    /**
     * Run fn(i) for every i in [0, n), spread across the pool and any
     * helping callers; blocks until all jobs finish. If any job
     * throws, the first exception recorded is rethrown here after the
     * batch drains — including exceptions thrown on other threads,
     * never just the caller's.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

    /**
     * Like forEach(), but fn(worker, i) also receives the id of the
     * worker running job i: 0 for the calling thread, 1, 2, ... for
     * the other threads in the order they join the batch. A thread
     * joins a batch at most once, so a given worker id is live on at
     * most one job at a time and per-worker state indexed by it needs
     * no locking; ids stay below workers() while no more than
     * `callers` threads drive the executor.
     */
    void forEachWorker(
        std::size_t n,
        const std::function<void(std::size_t, std::size_t)> &fn);

    /**
     * Lend the calling thread to the pool until ready() holds: run
     * jobs of open batches (any caller's) while there are any, sleep
     * otherwise. ready() is checked under the executor's mutex before
     * each batch the thread joins, at every wake-up, and by notify()
     * on the notifying thread while this one sleeps; it must not
     * throw. Whoever makes it true must call notify() afterwards.
     */
    void helpUntil(const std::function<bool()> &ready);

    /** Wake each thread in helpUntil() whose condition now holds. */
    void notify();

  private:
    /** One run's jobs and claim state. */
    struct Batch
    {
        const std::function<void(std::size_t, std::size_t)> *fn =
            nullptr;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};
        // The rest is guarded by the pool mutex.
        /** Threads besides the caller that joined (their ids). */
        std::size_t joined = 0;
        /** Finished jobs. */
        std::size_t completed = 0;
        /** First exception thrown. */
        std::exception_ptr error;
        /** Signalled when completed reaches n. */
        std::condition_variable done;
    };

    /** A thread asleep in helpUntil(), woken (and forgotten) by
     *  notify() once its condition holds or by a batch that has a job
     *  for it. Lives on that thread's stack. */
    struct Sleeper
    {
        const std::function<bool()> *ready = nullptr;
        std::condition_variable cv;
        bool woken = false;
    };

    /** Claim and run jobs of `batch` as `worker` until exhausted,
     *  then account for them. Called with `lock` released; returns
     *  holding it. */
    void drain(std::unique_lock<std::mutex> &lock, Batch &batch,
               std::size_t worker);

    int workers_;

    std::mutex mu_;
    bool stop_ = false;
    /** Batches with unclaimed jobs, oldest first. */
    std::deque<std::shared_ptr<Batch>> open_;
    /** Threads asleep in helpUntil(), most recently idle last. */
    std::vector<Sleeper *> sleepers_;

    /** The pool threads; declared after what they use. */
    std::vector<std::thread> threads_;
};

} // namespace compaqt::common

#endif // COMPAQT_COMMON_EXECUTOR_HH
