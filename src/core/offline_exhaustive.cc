#include "core/offline_exhaustive.hh"

#include "common/log.hh"
#include "common/profile.hh"

namespace smthill
{

IpcSample
runTrialEpoch(SmtCpu &trial, const Partition &partition, Cycle epoch_size)
{
    SMTHILL_PROF_SCOPE("offline.trial_epoch");
    trial.setPartition(partition);
    auto before = trial.stats().committed;
    trial.run(epoch_size);

    IpcSample s;
    s.numThreads = trial.numThreads();
    for (int i = 0; i < s.numThreads; ++i) {
        s.ipc[i] =
            static_cast<double>(trial.stats().committed[i] - before[i]) /
            static_cast<double>(epoch_size);
    }
    return s;
}

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

    const int total = cpu.config().intRegs;

    // Every trial is an independent function of the live machine,
    // which the sweep only reads, so the sweep fans out across the
    // pool. Results land in per-trial slots and are reduced below in
    // enumeration order, making the chosen partition (first strict
    // maximum, i.e. lowest share[0] among exact ties) bit-identical
    // to the serial jobs=1 path; the arena keeps the same trial's
    // machine under the same rule.
    const std::vector<Partition> trials =
        enumeratePartitions2(total, cfg.stride);
    std::vector<IpcSample> samples(trials.size());
    std::vector<double> metrics(trials.size());
    pool->parallelForWorker(trials.size(), [&](std::size_t i, int worker) {
        // Restore the worker's warm machine instead of copy-
        // constructing a fresh SmtCpu per trial.
        SmtCpu &trial = arena->acquire(worker, cpu);
        samples[i] = runTrialEpoch(trial, trials[i], cfg.epochSize);
        metrics[i] = evalMetric(cfg.metric, samples[i], cfg.singleIpc);
        arena->offerBest(worker, metrics[i], i);
    });

    OfflineEpoch rec;
    double best_metric = -1.0;
    std::size_t best = 0;

    for (std::size_t i = 0; i < trials.size(); ++i) {
        if (cfg.keepCurves) {
            // Diagnostic curves are opt-in (keepCurves) and amortized
            // at one sample per trial; sweeps leave this off.
            rec.curveShares.push_back(trials[i].share[0]); // smthill-lint: allow(hot-path-allocation)
            rec.curve.push_back(metrics[i]); // smthill-lint: allow(hot-path-allocation)
        }
        if (metrics[i] > best_metric) {
            best_metric = metrics[i];
            best = i;
        }
    }
    // Commit: the best trial's machine becomes the real one. Only
    // this epoch is charged to execution time.
    if (arena->adoptBest(cpu) != best)
        panic("OfflineExhaustive: kept trial is not the serial best");
    rec.ipc = samples[best];
    rec.best = trials[best];
    rec.metricValue = best_metric;
    return rec;
}

OfflineResult
OfflineExhaustive::run(SmtCpu &cpu, int num_epochs) const
{
    OfflineResult res;
    // The preallocation itself: one reserve up front, then every
    // per-epoch push_back lands in already-committed storage.
    res.epochs.reserve(num_epochs); // smthill-lint: allow(hot-path-allocation)
    for (int e = 0; e < num_epochs; ++e)
        res.epochs.push_back(stepEpoch(cpu)); // smthill-lint: allow(hot-path-allocation)
    return res;
}

} // namespace smthill
