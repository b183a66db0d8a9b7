#include "core/offline_exhaustive.hh"

#include "common/log.hh"
#include "common/profile.hh"

namespace smthill
{

IpcSample
runFixedPartitionEpoch(const SmtCpu &checkpoint, const Partition &partition,
                       Cycle epoch_size)
{
    // The one-shot reference: a fresh copy, detached like every
    // trial machine (copies already drop both event-trace links).
    SmtCpu trial = checkpoint; // smthill-lint: allow(cpu-copy-hot-path)
    trial.setBranchObserver(nullptr, nullptr);
    trial.setLoadObserver(nullptr, nullptr);
    return runTrialEpoch(trial, partition, epoch_size);
}

double
OfflineResult::meanMetric() const
{
    if (epochs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &e : epochs)
        sum += e.metricValue;
    return sum / static_cast<double>(epochs.size());
}

OfflineExhaustive::OfflineExhaustive(OfflineConfig config)
    : cfg(config),
      pool(std::make_shared<ThreadPool>(cfg.jobs < 1 ? 1 : cfg.jobs)),
      arena(std::make_shared<MachineArena>(pool->jobs()))
{
    if (cfg.stride < 1)
        fatal("OfflineExhaustive: stride must be >= 1");
    if (cfg.epochSize < 1)
        fatal("OfflineExhaustive: epochSize must be >= 1");
}

OfflineEpoch
OfflineExhaustive::stepEpoch(SmtCpu &cpu) const
{
    SMTHILL_PROF_SCOPE("offline.step_epoch");
    if (cpu.numThreads() != 2)
        fatal("OfflineExhaustive: exhaustive search supports exactly "
              "2 hardware contexts (use RandHill for more)");

    // The arena fans the trials out and keeps the first strict
    // maximum in enumeration order (the lowest share[0] among exact
    // ties) for every job count; its machine becomes the committed
    // one, and only this epoch is charged to execution time.
    const std::vector<Partition> trials =
        enumeratePartitions2(cpu.config().intRegs, cfg.stride);
    std::vector<IpcSample> samples(trials.size());
    std::vector<double> metrics(trials.size());
    arena->sweep(*pool, cpu, trials, cfg.epochSize, cfg.metric,
                 cfg.singleIpc, 0, samples, metrics);
    const auto best = static_cast<std::size_t>(arena->adoptBest(cpu));

    OfflineEpoch rec;
    rec.best = trials[best];
    rec.ipc = samples[best];
    rec.metricValue = metrics[best];
    rec.curveShares.resize(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i)
        rec.curveShares[i] = trials[i].share[0];
    rec.curve = std::move(metrics);
    return rec;
}

OfflineResult
OfflineExhaustive::run(SmtCpu &cpu, int num_epochs) const
{
    OfflineResult res;
    res.epochs.reserve(num_epochs);
    for (int e = 0; e < num_epochs; ++e)
        res.epochs.push_back(stepEpoch(cpu));
    return res;
}

} // namespace smthill
