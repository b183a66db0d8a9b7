/**
 * @file
 * The epoch-learner skeleton shared by every on-line learner (HILL,
 * PHASE-HILL, BANDIT, RL): the paper's Figure 8 epoch loop minus the
 * search. At every epoch boundary the skeleton measures the epoch's
 * per-thread IPCs over the cycles the machine actually executed,
 * charges the 200-cycle software cost, keeps the stand-alone IPC
 * estimates (Section 4.2), follows the open-system active set, and
 * emits the epoch slice (which carries the epoch-trace record) and
 * the churn events. The derived learner only chooses the next
 * partition.
 *
 * Solo IPC estimates come from one of two sources, fixed by the
 * learner's type:
 *  - sampled (HILL family): right after attach every thread runs solo
 *    for one epoch (the bootstrap), then one thread every
 *    samplePeriod epochs in rotation, and a context that receives a
 *    new job is re-sampled before it is learned on;
 *  - oracle (BANDIT, RL): the estimates are the solo IPCs the caller
 *    put in the learner's config, and no solo epoch ever runs.
 *
 * The search plugs in through the protected hooks below, listed in
 * the order the skeleton calls them (DESIGN.md §13 has the per-learner
 * table).
 */

#ifndef SMTHILL_CORE_EPOCH_LEARNER_HH
#define SMTHILL_CORE_EPOCH_LEARNER_HH

#include <array>
#include <cstdint>

#include "core/epoch_trace.hh"
#include "core/metrics.hh"
#include "core/partitioning.hh"
#include "policy/policy.hh"

namespace smthill
{

/** Base of the on-line learners: one epoch loop, pluggable search. */
class EpochLearner : public ResourcePolicy
{
  public:
    void attach(SmtCpu &cpu) final;
    void epoch(SmtCpu &cpu, std::uint64_t epoch_id) final;
    void threadAttached(SmtCpu &cpu, ThreadId tid) final;
    void threadDetached(SmtCpu &cpu, ThreadId tid) final;

    /** Learners act only at epoch boundaries: no per-cycle hook. */
    bool perCycle() const override { return false; }

    /** @return the current anchor (the partition learning builds on). */
    const Partition &anchor() const { return anchorPartition; }

    /** @return current stand-alone IPC estimates. */
    const std::array<double, kMaxThreads> &singleIpc() const
    {
        return singleIpcEst;
    }

    /** @return true while a solo-sampling epoch is in flight. */
    bool samplingActive() const { return samplingThread >= 0; }

    /**
     * @return true while the initial SingleIPC bootstrap (one solo
     * epoch per thread, right after attach) is still running. Until
     * it completes no learning epoch has executed, so the weighted
     * metrics never see the degenerate all-zero estimate state.
     */
    bool bootstrapping() const { return bootstrapPending > 0; }

    /** @return true once every thread has a stand-alone IPC estimate. */
    bool estimatesReady() const;

    /** @return true while context @p tid holds a job (open system). */
    bool threadActive(int tid) const { return activeMask[tid]; }

    /**
     * @return true while context @p tid waits for a solo re-bootstrap
     * sample (queued at threadAttached so a reused context never
     * learns on the previous occupant's stand-alone IPC).
     */
    bool soloResamplePending(int tid) const { return needsSolo[tid]; }

  protected:
    /** What one learning epoch decided, for the epoch-trace record. */
    struct EpochStep
    {
        int gradientThread = -1; ///< thread the anchor moved toward
        bool anchorMoved = false;
    };

    /**
     * @param sample_solo sample solo IPCs on-line (the HILL family);
     *        false takes them from @p oracle_solo instead
     * @param sample_period epochs between periodic solo samples
     */
    EpochLearner(PerfMetric metric, Cycle software_cost, int min_share,
                 bool sample_solo, int sample_period,
                 const std::array<double, kMaxThreads> &oracle_solo);

    /**
     * Observe a boundary before anything is measured or traced
     * (PHASE-HILL classifies the finished epoch here). Default: none.
     */
    virtual void epochEnded(const SmtCpu &) {}

    /** Reset the search at attach (machine state is already reset). */
    virtual void restart(SmtCpu &cpu) = 0;

    /** Install the partition the next learning epoch runs under. */
    virtual void install(SmtCpu &cpu) = 0;

    /**
     * Consume one learning epoch and choose what runs next: fold
     * @p metric (the finished epoch's feedback) into the search,
     * advance algEpoch, and install the next partition (or yield to
     * a due solo sample via beginDueSample). @p dirty means churn hit
     * the finished epoch, so its measurement must not be credited.
     */
    virtual EpochStep learn(SmtCpu &cpu, const IpcSample &sample,
                            double metric, bool dirty) = 0;

    /**
     * React to a job arriving at (@p attached) or leaving context
     * @p tid; the active set and anchor are already updated.
     */
    virtual void churned(SmtCpu &cpu, ThreadId tid, bool attached) = 0;

    /** @return the event category of this learner's decisions. */
    virtual const char *category() const = 0;

    /** Add learner-specific args to a churn event (after "thread"). */
    virtual void churnArgs(Json &) const {}

    /** @return @p p's shares as a JSON array. */
    static Json shareJson(const Partition &p);

    /** Put @p tid solo on the machine for one sampling epoch. */
    void beginSample(SmtCpu &cpu, int tid);

    /**
     * Start the solo sample that is due after a learning epoch, if
     * any: a churn-queued re-bootstrap first, else the periodic
     * rotation (every samplePeriod learning epochs).
     * @return true if a sample began (nothing else to install)
     */
    bool beginDueSample(SmtCpu &cpu, int na);

    /**
     * Measure per-thread IPCs of the epoch that just ended, over the
     * cycles the machine actually executed since measurement resumed
     * (excluding the software-cost stall charged at the previous
     * boundary), not the nominal epoch size.
     */
    IpcSample measureEpoch(const SmtCpu &cpu);

    /** @return number of active (job-holding) contexts. */
    int numActive(int nt) const;

    /** @return thread id of the @p k-th active context. */
    int activeAt(int k) const;

    const PerfMetric perfMetric;
    const Cycle softwareCost;
    const int minShare;

    Partition anchorPartition;
    std::array<double, kMaxThreads> roundPerf{}; ///< HILL round metrics
    std::array<double, kMaxThreads> singleIpcEst{};
    std::uint64_t algEpoch = 0; ///< epochs consumed by learning
    /** Contexts holding a job; all-true in a closed system. */
    std::array<bool, kMaxThreads> activeMask{};
    bool openSystemMode = false; ///< any churn (or partial attach) seen

  private:
    /** Charge the software cost and restart the measurement window. */
    void chargeBoundary(SmtCpu &cpu);

    /** Fold a solo measurement of @p tid into its estimate. */
    void updateSingleIpc(const SmtCpu &cpu, int tid, double ipc);

    /** Close the solo sample that just ended and resume learning. */
    void finishSample(SmtCpu &cpu, const IpcSample &sample, int na);

    /** Start a queued re-bootstrap sample, else install(). */
    void resume(SmtCpu &cpu, int na);

    /** Install the anchor (or nothing) right after churn. */
    void installAfterChurn(SmtCpu &cpu);

    /** @return the args of a churn event about context @p tid. */
    Json churnJson(ThreadId tid) const;

    /** @return lowest-index active context awaiting a solo sample. */
    int nextNeedsSolo() const;

    const bool sampleSolo;  ///< sampled (true) or oracle solo source
    const int samplePeriod;
    const std::array<double, kMaxThreads> oracleSolo;

    std::array<std::uint64_t, kMaxThreads> lastCommitted{};
    Cycle lastEpochStart = 0; ///< cycle measurement resumed at
    Cycle lastElapsed = 0;    ///< cycles covered by the last sample
    int epochsSinceSample = 0;
    int sampleRotation = 0;   ///< next thread to sample
    int samplingThread = -1;  ///< thread running solo, or -1
    int bootstrapPending = 0; ///< attach-time solo samples left

    // --- Open-system churn state. Inert in a closed system:
    // --- activeMask stays all-true, openSystemMode false, and every
    // --- churn branch reduces to the closed-system behavior.
    std::array<bool, kMaxThreads> needsSolo{}; ///< re-bootstrap due
    /** Start cycle of each context's current residency stint. */
    std::array<Cycle, kMaxThreads> residentFrom{};
    /** Resident cycles of finished stints inside this window. */
    std::array<Cycle, kMaxThreads> residentAccum{};
    bool roundDirty = false; ///< churn invalidated the running epoch
};

} // namespace smthill

#endif // SMTHILL_CORE_EPOCH_LEARNER_HH
