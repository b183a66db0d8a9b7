#include "core/machine_arena.hh"

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
    return committedIpc(before, trial.stats().committed,
                        trial.numThreads(), epoch_size);
}

MachineArena::MachineArena(int workers)
    : machines(static_cast<std::size_t>(workers < 1 ? 1 : workers))
{
}

SmtCpu &
MachineArena::acquire(int worker, const SmtCpu &checkpoint)
{
    if (worker < 0 || worker >= workers())
        fatal(msg("MachineArena: worker ", worker, " out of range [0, ",
                  workers(), ")"));
    std::unique_ptr<SmtCpu> &m = machines[static_cast<std::size_t>(worker)];
    if (!m) {
        // First trial on this worker: clone (both event-trace links
        // are already dropped by copy), then detach observation
        // exactly as restoreFrom would — trials never observe.
        // First-touch warm-up: one clone per worker for the arena's
        // lifetime; every later trial reuses it via restoreFrom.
        m = std::make_unique<SmtCpu>(checkpoint); // smthill-lint: allow(hot-path-allocation)
        m->setBranchObserver(nullptr, nullptr);
        m->setLoadObserver(nullptr, nullptr);
        return *m;
    }
    m->restoreFrom(checkpoint);
    return *m;
}

void
MachineArena::sweep(ThreadPool &pool, const SmtCpu &from,
                    std::span<const Partition> trials, Cycle epoch_size,
                    PerfMetric metric,
                    const std::array<double, kMaxThreads> &single_ipc,
                    std::uint64_t first_order, std::span<IpcSample> samples,
                    std::span<double> metrics)
{
    if (samples.size() != trials.size() || metrics.size() != trials.size())
        fatal(msg("MachineArena: sweep of ", trials.size(),
                  " trials given ", samples.size(), " sample and ",
                  metrics.size(), " metric slots"));
    // Every trial is an independent function of @p from, so the
    // trials fan out; each writes only its own slots, and the keeper
    // resolves the winner by serial order, whatever the schedule.
    pool.parallelForWorker(trials.size(), [&](std::size_t i, int worker) {
        SmtCpu &trial = acquire(worker, from);
        samples[i] = runTrialEpoch(trial, trials[i], epoch_size);
        metrics[i] = evalMetric(metric, samples[i], single_ipc);
        offerBest(worker, metrics[i], first_order + i);
    });
}

void
MachineArena::offerBest(int worker, double metric, std::uint64_t order)
{
    const SmtCpu &trial = *machines.at(static_cast<std::size_t>(worker));
    std::lock_guard<std::mutex> lock(keepMutex);
    const bool better = metric > keptMetric ||
                        (kept && metric == keptMetric && order < keptOrder);
    if (!better)
        return;
    if (keeper) {
        keeper->restoreFrom(trial);
    } else {
        // First keep of the arena's lifetime; afterwards the keeper
        // trades storage with the committed machine and restores
        // into it.
        keeper = std::make_unique<SmtCpu>(trial); // smthill-lint: allow(hot-path-allocation)
    }
    kept = true;
    keptMetric = metric;
    keptOrder = order;
}

std::uint64_t
MachineArena::adoptBest(SmtCpu &cpu)
{
    if (!kept)
        fatal("MachineArena: no trial was kept in this sweep");
    cpu.adoptState(*keeper);
    const std::uint64_t order = keptOrder;
    kept = false;
    keptMetric = -1.0;
    keptOrder = 0;
    return order;
}

} // namespace smthill
