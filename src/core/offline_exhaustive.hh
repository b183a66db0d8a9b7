/**
 * @file
 * OFF-LINE exhaustive learning (Section 3.1): the ideal learner used
 * for the limit study. At each epoch boundary every enumerated
 * partitioning of the integer rename registers is tried for one epoch
 * from the machine's current state; the best trial's end state then
 * becomes the machine (it is kept, not re-simulated), and only that
 * epoch is charged to execution time.
 *
 * Restricted to 2 hardware contexts, like the paper (the exhaustive
 * trial count is exponential in the thread count).
 */

#ifndef SMTHILL_CORE_OFFLINE_EXHAUSTIVE_HH
#define SMTHILL_CORE_OFFLINE_EXHAUSTIVE_HH

#include <array>
#include <memory>
#include <vector>

#include "common/thread_pool.hh"
#include "core/machine_arena.hh"
#include "core/metrics.hh"
#include "core/partitioning.hh"
#include "pipeline/cpu.hh"

namespace smthill
{

/**
 * One-shot reference epoch: run a fresh, unobserved copy of
 * @p checkpoint for @p epoch_size cycles under a fixed @p partition,
 * with no per-cycle policy actions. @p checkpoint is not modified.
 * The learners never call this; tests use it as the reference for
 * what a sweep committed (fuzz stages E and J re-simulate the same
 * way on their own copy, so they can compare machine states too).
 * @return per-thread IPCs over the epoch
 */
IpcSample runFixedPartitionEpoch(const SmtCpu &checkpoint,
                                 const Partition &partition,
                                 Cycle epoch_size);

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

/** OFF-LINE configuration. */
struct OfflineConfig
{
    Cycle epochSize = 64 * 1024;
    int stride = 2;  ///< enumeration step (2 = the paper's 127 trials)
    PerfMetric metric = PerfMetric::WeightedIpc;
    /** Stand-alone IPCs (known a priori in the off-line setting). */
    std::array<double, kMaxThreads> singleIpc{};
    bool keepCurves = false; ///< retain metric-vs-partition curves
    /**
     * Worker threads for the trial sweep; results are bit-identical
     * for every value (jobs == 1 is the exact serial path).
     */
    int jobs = 1;
};

/** Record of one committed epoch. */
struct OfflineEpoch
{
    Partition best;        ///< chosen (best) partitioning
    IpcSample ipc;         ///< per-thread IPCs of the committed epoch
    double metricValue = 0.0;
    /** share of thread 0 for each trial (when keepCurves). */
    std::vector<int> curveShares;
    /** metric of each trial (when keepCurves). */
    std::vector<double> curve;
};

/** Result of an OFF-LINE run. */
struct OfflineResult
{
    std::vector<OfflineEpoch> epochs;

    /** @return mean metric value across committed epochs. */
    double meanMetric() const;
};

/** The OFF-LINE exhaustive learner. */
class OfflineExhaustive
{
  public:
    explicit OfflineExhaustive(OfflineConfig config = OfflineConfig{});

    /**
     * Exhaustively evaluate one epoch from @p cpu's current state,
     * then advance @p cpu through that epoch under the best
     * partitioning.
     *
     * Commit-adoption contract: the trials restore straight from
     * @p cpu, which the sweep only reads; the best trial's end state
     * (first strict maximum in enumeration order, for every job
     * count) is kept, and @p cpu adopts it (SmtCpu::adoptState), so
     * the committed epoch is that trial, bit-identical to
     * re-simulating it with runFixedPartitionEpoch, and rec.ipc is
     * its sample. Like every trial, the committed epoch runs
     * unobserved: @p cpu's branch/load observers and event-trace
     * links see none of it, and stay attached to @p cpu afterwards.
     */
    OfflineEpoch stepEpoch(SmtCpu &cpu) const;

    /** Run @p num_epochs epochs, advancing @p cpu along the way. */
    OfflineResult run(SmtCpu &cpu, int num_epochs) const;

    const OfflineConfig &config() const { return cfg; }

  private:
    OfflineConfig cfg;
    /** Trial-sweep pool, shared by copies of the learner. */
    std::shared_ptr<ThreadPool> pool;
    /**
     * Warm per-worker trial machines and the best-trial keeper,
     * shared by copies of the learner like the pool. A learner
     * (including its copies) must not run stepEpoch concurrently from
     * multiple threads — the arena's per-worker exclusivity and its
     * one keeper hold within one sweep at a time.
     */
    std::shared_ptr<MachineArena> arena;
};

} // namespace smthill

#endif // SMTHILL_CORE_OFFLINE_EXHAUSTIVE_HH
