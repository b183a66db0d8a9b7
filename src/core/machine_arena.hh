/**
 * @file
 * Per-worker warm-machine arena for trial fan-outs.
 *
 * The OFF-LINE exhaustive sweep and RAND-HILL both evaluate many
 * one-epoch trials from the same checkpoint. Copy-constructing an
 * SmtCpu per trial pays a full set of allocations (instruction rings,
 * per-slot dependence vectors, cache arrays) on top of the state
 * copy; the arena instead keeps one preallocated machine per pool
 * worker and restores it with SmtCpu::restoreFrom, which reuses the
 * warm machine's storage. Each worker index owns exactly one machine,
 * so concurrent trials on different workers never share mutable
 * state — the checkpoint itself is only ever read.
 *
 * The arena also keeps the sweep's best trial: a worker offers its
 * machine after each trial, the arena copies it into one keeper
 * machine (under a mutex) whenever it beats the best so far, and the
 * learner adopts the keeper as its committed machine instead of
 * re-simulating the winning epoch.
 */

#ifndef SMTHILL_CORE_MACHINE_ARENA_HH
#define SMTHILL_CORE_MACHINE_ARENA_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pipeline/cpu.hh"

namespace smthill
{

/** One preallocated trial machine per pool worker. */
class MachineArena
{
  public:
    /** @param workers worker slots (ThreadPool::jobs of the pool). */
    explicit MachineArena(int workers);

    MachineArena(const MachineArena &) = delete;
    MachineArena &operator=(const MachineArena &) = delete;

    /**
     * @return worker @p worker's machine, restored to @p checkpoint.
     * The first use on a worker clones the checkpoint (allocating);
     * every later use restores into the warm machine. The returned
     * machine is unobserved (restoreFrom drops trace links and
     * observers) and remains valid until the next acquire on the
     * same worker.
     */
    SmtCpu &acquire(int worker, const SmtCpu &checkpoint);

    /** @return configured worker slots. */
    int workers() const { return static_cast<int>(machines.size()); }

    /**
     * Offer worker @p worker's machine, which just ran the trial at
     * serial position @p order and scored @p metric, as the sweep's
     * best. Kept when it beats the best so far under the serial
     * comparator: a strictly greater metric (the first offer must
     * beat -1), or an equal metric at a lower order. The outcome is
     * the first strict maximum in serial order for any schedule, so
     * it is deterministic for every job count. Thread-safe; callers
     * on different workers may offer concurrently.
     */
    void offerBest(int worker, double metric, std::uint64_t order);

    /**
     * End the sweep: @p cpu takes the kept trial's state
     * (SmtCpu::adoptState), keeping its own observers and event-trace
     * links, and the keeper takes @p cpu's old storage for the next
     * sweep. Fatal if no trial was kept. Call after the sweep joins.
     * @return the serial order of the adopted trial
     */
    std::uint64_t adoptBest(SmtCpu &cpu);

  private:
    std::vector<std::unique_ptr<SmtCpu>> machines;

    std::mutex keepMutex;
    std::unique_ptr<SmtCpu> keeper;
    bool kept = false;
    double keptMetric = -1.0;
    std::uint64_t keptOrder = 0;
};

} // namespace smthill

#endif // SMTHILL_CORE_MACHINE_ARENA_HH
