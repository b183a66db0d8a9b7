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
 * The arena also runs the trial sweep itself (sweep): every trial
 * restores a worker's machine, runs one epoch under its partition,
 * is scored, and is offered as the sweep's best. The arena copies the
 * best so far into one keeper machine (under a mutex), and the
 * learner adopts the keeper as its committed machine instead of
 * re-simulating the winning epoch. This is the only place a sweep's
 * winner is picked.
 */

#ifndef SMTHILL_CORE_MACHINE_ARENA_HH
#define SMTHILL_CORE_MACHINE_ARENA_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/thread_pool.hh"
#include "core/metrics.hh"
#include "pipeline/cpu.hh"

namespace smthill
{

/**
 * Measure one epoch on an already-restored trial machine (typically a
 * MachineArena machine just restored to the checkpoint): install the
 * partition, run @p epoch_size cycles, and return per-thread IPCs.
 * The machine is left in its end-of-epoch state, which a sweep may
 * keep as its committed machine. Bit-identical to the value-copy
 * path of runFixedPartitionEpoch.
 */
IpcSample runTrialEpoch(SmtCpu &trial, const Partition &partition,
                        Cycle epoch_size);

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
     * Run one trial sweep from @p from across @p pool (whose jobs()
     * must not exceed workers()): trial i restores a worker's
     * machine to @p from, runs @p epoch_size cycles under trials[i]
     * (runTrialEpoch), writes its IPCs to samples[i] and its
     * @p metric score to metrics[i], and is offered as the best at
     * serial order @p first_order + i. @p from is only read. A sweep
     * may span several calls (RAND-HILL sweeps round by round);
     * adoptBest ends it.
     */
    void sweep(ThreadPool &pool, const SmtCpu &from,
               std::span<const Partition> trials, Cycle epoch_size,
               PerfMetric metric,
               const std::array<double, kMaxThreads> &single_ipc,
               std::uint64_t first_order, std::span<IpcSample> samples,
               std::span<double> metrics);

    /**
     * End the sweep: @p cpu takes the kept trial's state
     * (SmtCpu::adoptState), keeping its own observers and event-trace
     * links, and the keeper takes @p cpu's old storage for the next
     * sweep. The kept trial is the first strict maximum in serial
     * order, for every job count. Fatal if no trial was kept.
     * @return the serial order of the adopted trial
     */
    std::uint64_t adoptBest(SmtCpu &cpu);

  private:
    /**
     * Offer worker @p worker's machine, which just ran the trial at
     * serial position @p order and scored @p metric, as the sweep's
     * best. Kept when it beats the best so far under the serial
     * comparator: a strictly greater metric (the first offer must
     * beat -1), or an equal metric at a lower order. The outcome is
     * the first strict maximum in serial order for any schedule.
     * Thread-safe; workers offer concurrently.
     */
    void offerBest(int worker, double metric, std::uint64_t order);

    std::vector<std::unique_ptr<SmtCpu>> machines;

    std::mutex keepMutex;
    std::unique_ptr<SmtCpu> keeper;
    bool kept = false;
    double keptMetric = -1.0;
    std::uint64_t keptOrder = 0;
};

} // namespace smthill

#endif // SMTHILL_CORE_MACHINE_ARENA_HH
