#include "core/rand_hill.hh"

#include <algorithm>
#include <span>

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
    const auto iterations = static_cast<std::size_t>(cfg.iterations);

    Partition anchor = Partition::equal(nt, total);
    double pass_best = -1.0;
    std::vector<Partition> trials(iterations);
    std::vector<IpcSample> samples(iterations);
    std::vector<double> metrics(iterations);

    // The climb proceeds round by round: each round's nt trials all
    // derive from the same anchor and from the live machine, which
    // the search only reads (no RNG involved), so the arena fans them
    // out; the anchor move and any restart draw then happen serially,
    // which keeps every result — including the restart RNG sequence —
    // bit-identical to the jobs=1 serial path. The arena keeps the
    // first strict maximum in iteration order across all rounds.
    for (int round_start = 0; round_start < cfg.iterations;
         round_start += nt) {
        const int len = std::min(nt, cfg.iterations - round_start);
        const auto first = static_cast<std::size_t>(round_start);
        const auto round = static_cast<std::size_t>(len);
        for (int k = 0; k < len; ++k)
            trials[first + k] =
                trialPartition(anchor, k, cfg.delta, cfg.minShare);
        arena->sweep(*pool, cpu,
                     std::span(trials).subspan(first, round),
                     cfg.epochSize, cfg.metric, cfg.singleIpc, first,
                     std::span(samples).subspan(first, round),
                     std::span(metrics).subspan(first, round));

        if (len == nt) {
            // End of a full round: climb, or restart at a peak.
            const double *round_perf = &metrics[first];
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
    const auto best = static_cast<std::size_t>(arena->adoptBest(cpu));
    OfflineEpoch rec;
    rec.best = trials[best];
    rec.ipc = samples[best];
    rec.metricValue = metrics[best];
    rec.curve = std::move(metrics);
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
