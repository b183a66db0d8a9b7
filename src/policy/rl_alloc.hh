/**
 * @file
 * Reinforcement-learning resource distribution (ROADMAP "learner
 * diversity", after Chasparis et al.'s RL-based dynamic pinning): a
 * tabular Q-learner over anchor moves. The state is which active
 * context currently holds the largest anchor share (lowest index on
 * ties); the actions are "move the anchor toward active context k"
 * (the Figure 8 moveAnchor step) or "stay". The reward is the
 * epoch's performance metric, selectable among the paper's three
 * (src/core/metrics.*). Action selection is epsilon-greedy with the
 * exploration draw taken from a seeded common/rng stream, so clones
 * replay bit-identically.
 *
 * Like the bandit, the RL learner runs on the EpochLearner skeleton
 * (epoch measurement, software-cost charging, open-system residency
 * accounting) with the oracle solo source, so it never runs
 * solo-sampling epochs: weighted rewards normalize by
 * config.singleIpc when the caller supplies solo estimates, else run
 * unnormalized via the evalMetric fallback.
 */

#ifndef SMTHILL_POLICY_RL_ALLOC_HH
#define SMTHILL_POLICY_RL_ALLOC_HH

#include <array>
#include <cstdint>

#include "common/rng.hh"
#include "core/epoch_learner.hh"

namespace smthill
{

/** Tunables of the Q-learning allocator. */
struct RlConfig
{
    Cycle epochSize = 64 * 1024; ///< cycles per epoch
    int delta = 8;               ///< registers shifted per move
    PerfMetric metric = PerfMetric::AvgIpc;
    Cycle softwareCost = 200;    ///< machine stall per boundary
    int minShare = 4;            ///< floor on any thread's share
    double alpha = 0.2;          ///< learning rate
    double discount = 0.5;       ///< future-reward discount
    double epsilon = 0.1;        ///< exploration probability
    std::uint64_t seed = 1;      ///< exploration-draw stream

    /**
     * Solo IPC estimates normalizing the weighted reward metrics
     * (zero entries fall back to evalMetric's solo = 1.0). The RL
     * learner never solo-samples, so these come from the caller.
     */
    std::array<double, kMaxThreads> singleIpc{};
};

/** The RL resource-distribution policy (epsilon-greedy Q-learning). */
class RlAllocator : public EpochLearner
{
  public:
    /** Action index meaning "keep the anchor where it is". */
    static constexpr int kStay = kMaxThreads;

    explicit RlAllocator(RlConfig config = RlConfig{});
    RlAllocator(const RlAllocator &) = default;
    RlAllocator &operator=(const RlAllocator &) = delete;

    std::string name() const override;
    std::unique_ptr<ResourcePolicy> clone() const override;

    const RlConfig &rlConfig() const { return rcfg; }

    /** @return learned value of (@p state, @p action). */
    double qValue(int state, int action) const
    {
        return qTable[state][action];
    }

    /** @return epsilon-draw explorations taken so far. */
    std::uint64_t explorations() const { return exploreCount; }

    /** @return actions that actually moved the anchor. */
    std::uint64_t anchorMoves() const { return moveCount; }

  protected:
    void restart(SmtCpu &cpu) override;
    void install(SmtCpu &cpu) override;
    EpochStep learn(SmtCpu &cpu, const IpcSample &sample, double metric,
                    bool dirty) override;
    void churned(SmtCpu &cpu, ThreadId tid, bool attached) override;
    const char *category() const override { return "rl"; }

  private:
    /** @return the active context holding the largest anchor share. */
    int stateOf() const;

    /** @return max Q over the valid actions in @p state. */
    double bestValue(int state, int nt) const;

    /** @return epsilon-greedy action for @p state (consumes rng). */
    int selectAction(int state, int nt);

    RlConfig rcfg;
    Rng rng;
    /** Q[state][action]; action kStay is the last column. */
    std::array<std::array<double, kMaxThreads + 1>, kMaxThreads>
        qTable{};
    int lastState = -1;
    int lastAction = -1;
    std::uint64_t exploreCount = 0;
    std::uint64_t moveCount = 0;
};

} // namespace smthill

#endif // SMTHILL_POLICY_RL_ALLOC_HH
