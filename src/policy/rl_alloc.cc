#include "policy/rl_alloc.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/stat_registry.hh"

namespace smthill
{

namespace
{

StatCounter &
rlEpochs()
{
    static StatCounter &c = globalStats().counter("smthill.rl.epochs");
    return c;
}

StatCounter &
rlExplores()
{
    static StatCounter &c = globalStats().counter("smthill.rl.explores");
    return c;
}

StatCounter &
rlMoves()
{
    static StatCounter &c =
        globalStats().counter("smthill.rl.anchor_moves");
    return c;
}

} // namespace

RlAllocator::RlAllocator(RlConfig config)
    : EpochLearner(config.metric, config.softwareCost, config.minShare,
                   /*sample_solo=*/false, 0, config.singleIpc),
      rcfg(config), rng(config.seed)
{
    if (rcfg.delta < 1)
        fatal("RlAllocator: delta must be >= 1");
    if (rcfg.epochSize < 1)
        fatal("RlAllocator: epoch size must be >= 1");
    if (rcfg.alpha <= 0.0 || rcfg.alpha > 1.0)
        fatal("RlAllocator: alpha must be in (0, 1]");
    if (rcfg.discount < 0.0 || rcfg.discount >= 1.0)
        fatal("RlAllocator: discount must be in [0, 1)");
    if (rcfg.epsilon < 0.0 || rcfg.epsilon > 1.0)
        fatal("RlAllocator: epsilon must be in [0, 1]");
}

std::string
RlAllocator::name() const
{
    return "RL-Q";
}

int
RlAllocator::stateOf() const
{
    int state = -1;
    for (int i = 0; i < anchorPartition.numThreads; ++i) {
        if (!activeMask[i])
            continue;
        if (state < 0 ||
            anchorPartition.share[i] > anchorPartition.share[state])
            state = i;
    }
    return state;
}

double
RlAllocator::bestValue(int state, int nt) const
{
    double best = qTable[state][kStay];
    for (int a = 0; a < nt; ++a)
        if (activeMask[a] && qTable[state][a] > best)
            best = qTable[state][a];
    return best;
}

int
RlAllocator::selectAction(int state, int nt)
{
    // Clones copy the Rng stream position, so the draw sequence —
    // one chance() per decision, plus one nextBelow() on explore —
    // replays bit-identically.
    if (rng.chance(rcfg.epsilon)) {
        rlExplores().inc();
        int na = numActive(nt);
        std::uint64_t pick = rng.nextBelow(
            static_cast<std::uint64_t>(na) + 1);
        if (pick == static_cast<std::uint64_t>(na))
            return kStay;
        return activeAt(static_cast<int>(pick));
    }
    // Greedy: strictly-greater scan, kStay first, so ties break
    // deterministically (stay, then lowest active index).
    int best = kStay;
    double bestQ = qTable[state][kStay];
    for (int a = 0; a < nt; ++a) {
        if (activeMask[a] && qTable[state][a] > bestQ) {
            bestQ = qTable[state][a];
            best = a;
        }
    }
    return best;
}

void
RlAllocator::restart(SmtCpu &)
{
    rng = Rng(rcfg.seed);
    for (auto &row : qTable)
        row.fill(0.0);
    lastState = -1;
    lastAction = -1;
}

void
RlAllocator::install(SmtCpu &cpu)
{
    // The first epoch runs under the plain anchor; learning starts at
    // the first boundary once a reward exists to update from.
    if (numActive(cpu.numThreads()) >= 2)
        cpu.setPartition(anchorPartition);
    else
        cpu.clearPartition();
}

EpochLearner::EpochStep
RlAllocator::learn(SmtCpu &cpu, const IpcSample &, double metric,
                   bool dirty)
{
    int nt = cpu.numThreads();
    int na = numActive(nt);
    int state = na >= 1 ? stateOf() : -1;
    // Q-update from the transition that just completed. A
    // churn-dirtied epoch ran under a different active set; its
    // reward is not attributable to (lastState, lastAction).
    if (!dirty && lastState >= 0 && lastAction >= 0 && state >= 0) {
        double target = metric + rcfg.discount * bestValue(state, nt);
        qTable[lastState][lastAction] +=
            rcfg.alpha * (target - qTable[lastState][lastAction]);
    }

    EpochStep step;
    if (na >= 2 && state >= 0) {
        int action = selectAction(state, nt);
        if (action != kStay) {
            Partition before = anchorPartition;
            anchorPartition = moveAnchor(anchorPartition, action,
                                         rcfg.delta, minShare);
            step.anchorMoved = !(anchorPartition == before);
            step.gradientThread = action;
            if (step.anchorMoved) {
                rlMoves().inc();
                if (EventTrace *evt = eventTraceRef.trace) {
                    Json args = Json::object();
                    args.set("alg_epoch", algEpoch);
                    args.set("state", state);
                    args.set("action", action);
                    args.set("reward", metric);
                    args.set("q", qTable[state][action]);
                    args.set("anchor_before", shareJson(before));
                    args.set("anchor_step", shareJson(anchorPartition));
                    args.set("anchor_after", shareJson(anchorPartition));
                    evt->instant(cpu.now(), eventTraceRef.pid,
                                 kControlTid, "rl", "anchor.move",
                                 std::move(args));
                }
            }
        }
        cpu.setPartition(anchorPartition);
        lastState = state;
        lastAction = action;
    } else {
        // Nothing to learn with 0 or 1 jobs resident.
        lastState = -1;
        lastAction = -1;
    }
    ++algEpoch;
    rlEpochs().inc();
    return step;
}

void
RlAllocator::churned(SmtCpu &, ThreadId tid, bool attached)
{
    lastState = -1;
    lastAction = -1;
    if (!attached)
        return;
    // A fresh job in a reused context invalidates what was learned
    // about that context: zero its state row and the move-toward-it
    // action column.
    qTable[tid].fill(0.0);
    for (auto &row : qTable)
        row[tid] = 0.0;
}

std::unique_ptr<ResourcePolicy>
RlAllocator::clone() const
{
    return std::make_unique<RlAllocator>(*this);
}

} // namespace smthill
