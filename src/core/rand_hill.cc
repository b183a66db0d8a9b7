#include "core/rand_hill.hh"

#include <algorithm>

#include "common/log.hh"

namespace smthill
{

RandHill::RandHill(RandHillConfig config)
    : cfg(config), rng(cfg.seed),
      pool(std::make_shared<ThreadPool>(cfg.jobs < 1 ? 1 : cfg.jobs)),
      arena(std::make_shared<MachineArena>(pool->jobs()))
{
    if (cfg.iterations < 1)
        fatal("RandHill: need at least one iteration");
    if (cfg.delta < 1)
        fatal("RandHill: delta must be >= 1");
    if (cfg.epochSize < 1)
        fatal("RandHill: epochSize must be >= 1");
}

Partition
RandHill::randomPartition(int threads, int total)
{
    // Draw raw weights, then scale onto the simplex with a floor.
    std::array<double, kMaxThreads> w{};
    double sum = 0.0;
    for (int i = 0; i < threads; ++i) {
        w[i] = 0.05 + rng.nextDouble();
        sum += w[i];
    }
    Partition p;
    p.numThreads = threads;
    int assigned = 0;
    for (int i = 0; i < threads; ++i) {
        int share = std::max(
            cfg.minShare, static_cast<int>(w[i] / sum * total));
        p.share[i] = share;
        assigned += share;
    }
    // Repair the total by adjusting the largest share.
    int richest = 0;
    for (int i = 1; i < threads; ++i)
        if (p.share[i] > p.share[richest])
            richest = i;
    p.share[richest] += total - assigned;
    if (p.share[richest] < cfg.minShare)
        return Partition::equal(threads, total);
    return p;
}

OfflineEpoch
RandHill::stepEpoch(SmtCpu &cpu)
{
    const int nt = cpu.numThreads();
    const int total = cpu.config().intRegs;

    Partition anchor = Partition::equal(nt, total);
    std::array<double, kMaxThreads> round_perf{};
    double pass_best = -1.0;

    double global_best_metric = -1.0;
    Partition global_best = anchor;
    IpcSample global_best_ipc;
    int global_best_iter = 0;

    // The climb proceeds round by round: each round's nt trials all
    // derive from the same anchor and from the live machine, which
    // the search only reads (no RNG involved), so they fan out across
    // the pool; the reduction, the anchor move, and any restart draw
    // then happen serially in iteration order, which keeps every
    // result — including the restart RNG sequence — bit-identical to
    // the jobs=1 serial path. The arena keeps the best trial's
    // machine under the same rule, ordered by iteration index.
    for (int round_start = 0; round_start < cfg.iterations;
         round_start += nt) {
        const int len = std::min(nt, cfg.iterations - round_start);

        std::array<Partition, kMaxThreads> trials;
        std::array<IpcSample, kMaxThreads> samples;
        std::array<double, kMaxThreads> metrics{};
        for (int k = 0; k < len; ++k)
            trials[k] =
                trialPartition(anchor, k, cfg.delta, cfg.minShare);
        pool->parallelForWorker(
            static_cast<std::size_t>(len), [&](std::size_t k, int worker) {
                SmtCpu &trial = arena->acquire(worker, cpu);
                samples[k] =
                    runTrialEpoch(trial, trials[k], cfg.epochSize);
                metrics[k] =
                    evalMetric(cfg.metric, samples[k], cfg.singleIpc);
                arena->offerBest(worker, metrics[k],
                                 static_cast<std::uint64_t>(round_start) +
                                     k);
            });

        for (int k = 0; k < len; ++k) {
            round_perf[k] = metrics[k];
            if (metrics[k] > global_best_metric) {
                global_best_metric = metrics[k];
                global_best = trials[k];
                global_best_ipc = samples[k];
                global_best_iter = round_start + k;
            }
        }

        if (len == nt) {
            // End of a full round: climb, or restart at a peak.
            int g = 0;
            for (int i = 1; i < nt; ++i)
                if (round_perf[i] > round_perf[g])
                    g = i;
            if (round_perf[g] <= pass_best) {
                // No improvement: a (possibly local) peak; restart
                // from a random point in the distribution space.
                anchor = randomPartition(nt, total);
                pass_best = -1.0;
            } else {
                pass_best = round_perf[g];
                anchor =
                    moveAnchor(anchor, g, cfg.delta, cfg.minShare);
            }
        }
    }

    // Commit: the best trial's machine becomes the real one.
    if (arena->adoptBest(cpu) !=
        static_cast<std::uint64_t>(global_best_iter))
        panic("RandHill: kept trial is not the serial best");
    OfflineEpoch rec;
    rec.ipc = global_best_ipc;
    rec.best = global_best;
    rec.metricValue = global_best_metric;
    return rec;
}

OfflineResult
RandHill::run(SmtCpu &cpu, int num_epochs)
{
    OfflineResult res;
    res.epochs.reserve(num_epochs);
    for (int e = 0; e < num_epochs; ++e)
        res.epochs.push_back(stepEpoch(cpu));
    return res;
}

} // namespace smthill
