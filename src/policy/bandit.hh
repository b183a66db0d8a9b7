/**
 * @file
 * Multi-armed bandit resource distribution (ROADMAP "learner
 * diversity", after Glassner & Crammer's bandit cache allocation):
 * each epoch pulls one arm of a quantized partition lattice and the
 * epoch's performance metric is the arm's reward. Two classic index
 * policies are provided — UCB1 (deterministic optimism) and EXP3
 * (adversarial, samples arms from a weight distribution seeded from
 * common/rng) — on the same EpochLearner skeleton as the
 * hill-climber, which owns the epoch measurement, software-cost
 * charging, and open-system residency accounting. The lattice, not
 * the gradient, does the exploring: with two active threads the arms
 * are exactly enumeratePartitions2(total, stride); with more, an
 * equal-split arm plus trialPartition spokes around it.
 *
 * Unlike HILL, the bandit takes the oracle solo source and never runs
 * solo-sampling epochs: weighted rewards (WIPC/HWIPC) normalize by
 * config.singleIpc when the caller supplies solo estimates (harness
 * soloIpcs), and otherwise fall back to the evalMetric single-IPC <= 0
 * convention (solo = 1.0, i.e. unnormalized) — rewards stay
 * comparable across arms either way, which is all a bandit needs.
 */

#ifndef SMTHILL_POLICY_BANDIT_HH
#define SMTHILL_POLICY_BANDIT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "core/epoch_learner.hh"

namespace smthill
{

/** Which bandit index rule picks the next arm. */
enum class BanditAlgo
{
    Ucb1, ///< deterministic: mean + c * sqrt(ln t / n)
    Exp3  ///< stochastic: exponential weights, seeded draws
};

/** Tunables of the bandit allocator. */
struct BanditConfig
{
    Cycle epochSize = 64 * 1024; ///< cycles per epoch
    int stride = 16;             ///< lattice quantization step
    PerfMetric metric = PerfMetric::AvgIpc;
    Cycle softwareCost = 200;    ///< machine stall per boundary
    int minShare = 4;            ///< floor on any thread's share
    BanditAlgo algo = BanditAlgo::Ucb1;
    double exploreCoeff = 1.0;   ///< UCB1 exploration coefficient c
    double gamma = 0.1;          ///< EXP3 exploration rate
    std::uint64_t seed = 1;      ///< EXP3 arm-draw stream

    /**
     * Solo IPC estimates normalizing the weighted reward metrics
     * (zero entries fall back to evalMetric's solo = 1.0). The bandit
     * never solo-samples, so these come from the caller.
     */
    std::array<double, kMaxThreads> singleIpc{};
};

/** The BANDIT resource-distribution policy (UCB1 or EXP3). */
class BanditAllocator : public EpochLearner
{
  public:
    explicit BanditAllocator(BanditConfig config = BanditConfig{});
    BanditAllocator(const BanditAllocator &) = default;
    BanditAllocator &operator=(const BanditAllocator &) = delete;

    std::string name() const override;
    std::unique_ptr<ResourcePolicy> clone() const override;

    /** @return the current arm lattice (rebuilt on churn). */
    const std::vector<Partition> &arms() const { return armSet; }

    /** @return the arm installed for the running epoch, or -1. */
    int currentArm() const { return armInFlight; }

    /** @return total pulls since the last lattice (re)build. */
    std::uint64_t pulls() const { return totalPlays; }

  protected:
    void restart(SmtCpu &cpu) override;
    void install(SmtCpu &cpu) override;
    EpochStep learn(SmtCpu &cpu, const IpcSample &sample, double metric,
                    bool dirty) override;
    void churned(SmtCpu &cpu, ThreadId tid, bool attached) override;
    const char *category() const override { return "bandit"; }
    void churnArgs(Json &args) const override;

  private:
    /**
     * Rebuild the arm lattice for the current active set and zero
     * every arm statistic. Called at attach and on churn: an arm is a
     * concrete share assignment to specific contexts, so a changed
     * active set changes what every arm means — carrying rewards
     * across would credit the wrong partitions.
     */
    void rebuildArms(const SmtCpu &cpu);

    /** @return next arm per the configured index rule. */
    int selectArm();

    /** Fold @p reward into @p arm's UCB1/EXP3 statistics. */
    void applyReward(int arm, double reward);

    /** Select, install, and audit the arm for the next epoch. */
    void pullArm(SmtCpu &cpu, int previous_arm, double reward);

    BanditConfig bcfg;
    Rng rng;
    std::vector<Partition> armSet;
    std::vector<std::uint64_t> playCount;
    std::vector<double> meanReward; ///< UCB1 running means
    std::vector<double> weight;     ///< EXP3 exponential weights
    std::vector<double> lastProb;   ///< EXP3 probs at last draw
    double rewardScale = 0.0; ///< running max reward (EXP3 normalizer)
    std::uint64_t totalPlays = 0;
    int armInFlight = -1;
};

} // namespace smthill

#endif // SMTHILL_POLICY_BANDIT_HH
