#include "core/hill_climbing.hh"

#include "common/log.hh"

namespace smthill
{

HillClimbing::HillClimbing(HillConfig config)
    : EpochLearner(config.metric, config.softwareCost, config.minShare,
                   config.sampleSingleIpc &&
                       config.metric != PerfMetric::AvgIpc,
                   config.samplePeriod, {}),
      cfg(config)
{
    if (cfg.delta < 1)
        fatal("HillClimbing: delta must be >= 1");
    if (cfg.epochSize < 1)
        fatal("HillClimbing: epoch size must be >= 1");
}

std::string
HillClimbing::name() const
{
    switch (cfg.metric) {
      case PerfMetric::AvgIpc:
        return "HILL-IPC";
      case PerfMetric::WeightedIpc:
        return "HILL-WIPC";
      case PerfMetric::HarmonicWeightedIpc:
        return "HILL-HWIPC";
    }
    return "HILL";
}

void
HillClimbing::restart(SmtCpu &cpu)
{
    roundStart = cpu.now();
    roundPos = 0;
}

void
HillClimbing::churned(SmtCpu &cpu, ThreadId, bool)
{
    // The round in flight compared trials over the old active set;
    // start over.
    roundPos = 0;
    roundStart = cpu.now();
}

void
HillClimbing::install(SmtCpu &cpu)
{
    int nt = cpu.numThreads();
    int favored;
    if (openSystemMode) {
        int na = numActive(nt);
        if (na < 2) {
            // Nothing to partition: 0 or 1 jobs resident.
            cpu.clearPartition();
            return;
        }
        favored = activeAt(roundPos % na);
    } else {
        // Closed system: roundPos tracks algEpoch % nt exactly; keep
        // the Figure 8 indexing verbatim.
        favored = static_cast<int>(algEpoch % nt);
    }
    Partition trial =
        trialPartition(anchorPartition, favored, cfg.delta, minShare);
    cpu.setPartition(trial);
    if (EventTrace *evt = eventTraceRef.trace) {
        Json args = Json::object();
        args.set("alg_epoch", algEpoch);
        args.set("favored", favored);
        args.set("trial", shareJson(trial));
        evt->instant(cpu.now(), eventTraceRef.pid, kControlTid, "hill",
                     "trial.install", std::move(args));
    }
}

EpochLearner::EpochStep
HillClimbing::climb(const SmtCpu &cpu, double metric, bool dirty)
{
    int nt = cpu.numThreads();
    int na = numActive(nt);
    EpochStep step;
    // Nothing to learn with 0 or 1 jobs resident. A churn-dirty epoch
    // ran (at least partly) under a pre-churn partition over a
    // different active set; its measurement is not comparable within
    // the restarted round, so drop it and let the new round begin.
    if ((openSystemMode && na <= 1) || dirty)
        return step;
    roundPerf[activeAt(roundPos)] = metric;
    // Figure 8 lines 8-15: at the end of a round, move the anchor in
    // favor of the best-performing trial (the positive gradient).
    if (roundPos == na - 1) {
        step.gradientThread = activeAt(0);
        for (int i = step.gradientThread + 1; i < nt; ++i)
            if (activeMask[i] && roundPerf[i] > roundPerf[step.gradientThread])
                step.gradientThread = i;
        step.anchorMoved = true;
    }
    roundPos = (roundPos + 1) % na;
    return step;
}

void
HillClimbing::commitAnchor(SmtCpu &cpu, int gradient, const Partition &step,
                           const Partition &next)
{
    Partition before = anchorPartition;
    anchorPartition = next;
    if (EventTrace *evt = eventTraceRef.trace) {
        // Decision audit: everything the gradient step looked at and
        // everything it decided, in one event.
        Json rp = Json::array();
        for (int i = 0; i < cpu.numThreads(); ++i)
            rp.push(Json(roundPerf[i]));
        Json args = Json::object();
        args.set("alg_epoch", algEpoch);
        args.set("round_perf", std::move(rp));
        args.set("gradient", gradient);
        args.set("delta", cfg.delta);
        args.set("anchor_before", shareJson(before));
        args.set("anchor_step", shareJson(step));
        args.set("anchor_after", shareJson(anchorPartition));
        evt->instant(cpu.now(), eventTraceRef.pid, kControlTid, "hill",
                     "anchor.move", std::move(args));
        evt->complete(roundStart,
                      static_cast<std::int64_t>(cpu.now() - roundStart),
                      eventTraceRef.pid, kControlTid, "hill", "round");
    }
    roundStart = cpu.now();
}

void
HillClimbing::advance(SmtCpu &cpu)
{
    ++algEpoch;
    int na = numActive(cpu.numThreads());
    if (openSystemMode && na <= 1)
        return;
    if (!beginDueSample(cpu, na))
        install(cpu);
}

EpochLearner::EpochStep
HillClimbing::learn(SmtCpu &cpu, const IpcSample &, double metric,
                    bool dirty)
{
    EpochStep step = climb(cpu, metric, dirty);
    if (step.anchorMoved) {
        Partition next = moveAnchor(anchorPartition, step.gradientThread,
                                    cfg.delta, minShare);
        commitAnchor(cpu, step.gradientThread, next, next);
    }
    advance(cpu);
    return step;
}

std::unique_ptr<ResourcePolicy>
HillClimbing::clone() const
{
    return std::make_unique<HillClimbing>(*this);
}

} // namespace smthill
