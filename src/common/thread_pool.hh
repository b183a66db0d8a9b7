/**
 * @file
 * Fixed-size worker thread pool for trial-level parallelism.
 *
 * The simulator's expensive fan-outs — OFF-LINE exhaustive trial
 * epochs, RAND-HILL round trials, and workload x policy bench grids —
 * are embarrassingly parallel: every task is a pure function of a
 * value-copied machine checkpoint. The pool runs such index-addressed
 * task sets across a fixed set of workers while keeping results
 * ordered by index, so callers can reduce them in exactly the order
 * the serial code would have produced.
 *
 * Determinism contract: parallelFor(n, body) invokes body(i) exactly
 * once for every i in [0, n); the caller owns per-index output slots
 * and reduces them in index order afterwards, which makes results
 * bit-identical for any job count — including jobs == 1, which runs
 * every index inline on the calling thread with no workers involved
 * (the exact legacy serial execution).
 *
 * No nested pools: a parallelFor issued from inside a pool task (a
 * task body, a parallelFor index on a concurrent lane, or a submit
 * task) runs inline on that lane, and a pool constructed there spawns
 * no threads. Grid cells that build learners or solo references with
 * the grid's own job count therefore never multiply the thread count.
 */

#ifndef SMTHILL_COMMON_THREAD_POOL_HH
#define SMTHILL_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stat_registry.hh"

namespace smthill
{

/**
 * Fixed-size thread pool. Value semantics are deliberately absent:
 * the pool is a runtime resource, not machine state, so it is never
 * part of a checkpoint.
 */
class ThreadPool
{
  public:
    /**
     * @param jobs total concurrency including the calling thread;
     *        clamped to >= 1. jobs == 1, or construction from inside
     *        a pool task, spawns no workers and makes every
     *        parallelFor/submit run inline on the caller; jobs()
     *        still reports the clamped value, so per-worker scratch
     *        sized by it stays valid.
     */
    explicit ThreadPool(int jobs);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return configured concurrency (>= 1). */
    int jobs() const { return numJobs; }

    /**
     * Run body(i) for every i in [0, n), distributing indices across
     * the workers and the calling thread; blocks until all complete.
     * If any invocation throws, the exception with the lowest index
     * is rethrown after every in-flight task has finished (so the
     * surviving exception is deterministic regardless of schedule).
     * Called from inside a pool task, it runs every index inline on
     * the calling lane, in index order.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * parallelFor variant that also hands body the identity of the
     * executing lane: the calling thread is worker 0, pool threads
     * are workers 1..jobs()-1. A given worker id is never active on
     * two indices at once, so per-worker scratch (e.g. a MachineArena
     * machine) needs no synchronization. Same determinism and
     * exception contract as parallelFor.
     */
    void parallelForWorker(
        std::size_t n,
        const std::function<void(std::size_t, int)> &body);

    /**
     * Run one task asynchronously; @return a future for its result.
     * With jobs == 1 the task runs inline before submit returns.
     */
    template <typename F>
    auto
    submit(F &&task) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto packaged = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(task));
        std::future<R> fut = packaged->get_future();
        enqueue([packaged] { (*packaged)(); });
        return fut;
    }

    /**
     * Concurrency to use when the caller does not specify one:
     * std::thread::hardware_concurrency, clamped to >= 1.
     */
    static int defaultJobs();

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    int numJobs;
    std::vector<std::thread> workers;

    std::mutex queueMutex;
    std::condition_variable queueCv;
    std::deque<std::function<void()>> queue;
    bool shuttingDown = false;

    // Observability (globalStats(); see stat_registry.hh): executed
    // task count, the queue depth at each enqueue/dequeue edge, and
    // parallelFor indices (batched: one add(n) per sweep, so the hot
    // index-drain loop touches no stats at all).
    StatCounter &tasksStat;
    StatGauge &queueDepthStat;
    StatCounter &forIndicesStat;
};

} // namespace smthill

#endif // SMTHILL_COMMON_THREAD_POOL_HH
