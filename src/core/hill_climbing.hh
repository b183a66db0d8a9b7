/**
 * @file
 * The paper's contribution: on-line hill-climbing SMT resource
 * distribution (Section 4, Figure 8).
 *
 * Execution is divided into epochs (64K cycles). Learning proceeds in
 * rounds of T epochs: in epoch k of a round, the trial partition
 * shifts Delta unit resources to thread k from every other thread,
 * relative to the current anchor partition. At the end of a round the
 * anchor moves along the positive gradient — in favor of the thread
 * whose trial epoch performed best. The performance feedback metric
 * is configurable (average IPC, weighted IPC, or harmonic mean of
 * weighted IPC); the weighted metrics learn each thread's stand-alone
 * IPC on-line by periodically running the thread solo for one epoch
 * (Section 4.2); right after attach, every thread is sampled solo
 * once (the bootstrap) so the weighted metrics never run on empty
 * estimates. Every epoch boundary charges the software cost of
 * running the algorithm by stalling the machine (200 cycles), and
 * per-epoch IPCs are measured over the cycles the machine actually
 * executed, not the nominal epoch size. Those epoch mechanics live in
 * the shared EpochLearner skeleton; this class is the Figure 8
 * search on top of it.
 */

#ifndef SMTHILL_CORE_HILL_CLIMBING_HH
#define SMTHILL_CORE_HILL_CLIMBING_HH

#include "core/epoch_learner.hh"

namespace smthill
{

/** Tunables of the hill-climbing learner (defaults = the paper's). */
struct HillConfig
{
    Cycle epochSize = 64 * 1024;  ///< cycles per epoch
    int delta = 4;                ///< registers shifted per sample
    PerfMetric metric = PerfMetric::WeightedIpc;
    Cycle softwareCost = 200;     ///< machine stall per epoch boundary
    int minShare = 4;             ///< floor on any thread's share

    /**
     * Epochs between SingleIPC samples; each thread is sampled once
     * every samplePeriod * T epochs (Section 4.2 uses 40).
     */
    int samplePeriod = 40;

    /** Disable solo sampling (only sane for the AvgIpc metric). */
    bool sampleSingleIpc = true;
};

/** The HILL resource-distribution policy. */
class HillClimbing : public EpochLearner
{
  public:
    explicit HillClimbing(HillConfig config = HillConfig{});

    std::string name() const override;
    std::unique_ptr<ResourcePolicy> clone() const override;

    const HillConfig &config() const { return cfg; }

  protected:
    void restart(SmtCpu &cpu) override;
    void install(SmtCpu &cpu) override;
    EpochStep learn(SmtCpu &cpu, const IpcSample &sample, double metric,
                    bool dirty) override;
    void churned(SmtCpu &cpu, ThreadId tid, bool attached) override;
    const char *category() const override { return "hill"; }

    /**
     * Figure 8 lines 7-15: record the finished trial epoch's @p metric
     * and, at the end of a round, pick the positive gradient (the
     * thread whose trial performed best). A churn-@p dirty epoch, or
     * one with at most one job resident, is not credited.
     */
    EpochStep climb(const SmtCpu &cpu, double metric, bool dirty);

    /**
     * Move the anchor to @p next — the gradient @p step toward
     * @p gradient, or a partition that replaces it — and audit the
     * move.
     */
    void commitAnchor(SmtCpu &cpu, int gradient, const Partition &step,
                      const Partition &next);

    /**
     * Close the learning epoch: advance algEpoch, then start a due
     * solo sample or install the next trial (Figure 8 lines 16-21).
     */
    void advance(SmtCpu &cpu);

  private:
    HillConfig cfg;
    Cycle roundStart = 0; ///< cycle the current round began at
    int roundPos = 0;     ///< active-set index of installed trial
};

} // namespace smthill

#endif // SMTHILL_CORE_HILL_CLIMBING_HH
