#include "harness/sync_runner.hh"

#include <algorithm>

#include "common/log.hh"

namespace smthill
{

double
SyncResult::offlineWinRate(std::size_t other_index) const
{
    const SyncSeries &s = others.at(other_index);
    if (offline.metric.empty())
        return 0.0;
    std::size_t n = std::min(offline.metric.size(), s.metric.size());
    std::size_t wins = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (offline.metric[i] >= s.metric[i])
            ++wins;
    return static_cast<double>(wins) / static_cast<double>(n);
}

SyncResult
syncCompareOffline(SmtCpu cpu, const OfflineExhaustive &offline,
                   const std::vector<ResourcePolicy *> &policies,
                   int epochs, EventTrace *trace)
{
    SyncResult res;
    res.offline.name = "OFF-LINE";
    for (ResourcePolicy *p : policies)
        res.others.push_back(SyncSeries{p->name(), {}});

    const OfflineConfig &oc = offline.config();

    if (trace) {
        trace->processName(0, "OFF-LINE");
        for (std::size_t pi = 0; pi < policies.size(); ++pi)
            trace->processName(1 + static_cast<int>(pi),
                               policies[pi]->name());
        cpu.setEventTrace(trace, 0);
    }

    for (int e = 0; e < epochs; ++e) {
        // Each policy runs one epoch from a copy of the machine (it
        // stays at the epoch start until OFF-LINE commits below) with
        // a fresh clone (its steady state re-forms within cycles).
        // A handful of copies per epoch, each needing its own
        // event-trace wiring, so the arena buys nothing here.
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
            SmtCpu trial = cpu; // smthill-lint: allow(cpu-copy-hot-path)
            auto policy = policies[pi]->clone();
            // Clones drop any event-trace link (EventTraceRef), so
            // the per-epoch throwaway machines must be wired
            // explicitly; each policy files under its own process.
            if (trace) {
                int pid = 1 + static_cast<int>(pi);
                policy->setEventTrace(trace, pid);
                trial.setEventTrace(trace, pid);
            }
            policy->attach(trial);
            IpcSample s = runOneEpoch(trial, *policy, oc.epochSize);
            res.others[pi].metric.push_back(
                evalMetric(oc.metric, s, oc.singleIpc));
        }

        // Advance the real machine along OFF-LINE's best path. The
        // step adopts the winning trial's state and keeps the
        // machine's trace link, which its unobserved trials never
        // write to.
        OfflineEpoch rec = offline.stepEpoch(cpu);
        res.offline.metric.push_back(rec.metricValue);
        if (trace) {
            Json args = Json::object();
            args.set("epoch", e);
            args.set("metric", rec.metricValue);
            Json shares = Json::array();
            for (int i = 0; i < rec.best.numThreads; ++i)
                shares.push(Json(rec.best.share[i]));
            args.set("best", std::move(shares));
            trace->instant(cpu.now(), 0, kControlTid, "offline",
                           "best.partition", std::move(args));
        }
    }
    return res;
}

std::vector<HillTraceEpoch>
traceHillVsOffline(SmtCpu cpu, HillClimbing &hill,
                   const OfflineConfig &offline_config, int epochs)
{
    if (cpu.numThreads() != 2)
        fatal("traceHillVsOffline: 2-thread machines only");

    OfflineConfig oc = offline_config;
    oc.keepCurves = true;
    oc.epochSize = hill.config().epochSize;
    OfflineExhaustive offline(oc);

    std::vector<HillTraceEpoch> out;
    out.reserve(epochs);

    // The machine arrived by value; mirror the hill policy's event
    // trace (if any) onto it. Probe copies drop the link, so the
    // exhaustive per-epoch mapping never pollutes the stream.
    if (hill.eventTrace())
        cpu.setEventTrace(hill.eventTrace(), hill.eventTracePid());
    hill.attach(cpu);
    for (int e = 0; e < epochs; ++e) {
        // Exhaustively map the epoch from the checkpoint, without
        // letting it advance the real machine (one copy per epoch).
        SmtCpu probe = cpu; // smthill-lint: allow(cpu-copy-hot-path)
        OfflineEpoch best = offline.stepEpoch(probe);

        HillTraceEpoch rec;
        rec.offlineShare0 = best.best.share[0];
        rec.offlineMetric = best.metricValue;
        rec.curveShares = std::move(best.curveShares);
        rec.curve = std::move(best.curve);
        rec.hillShare0 =
            cpu.partitioningEnabled() ? cpu.partition().share[0] : -1;

        // Hill-climbing takes its real epoch.
        IpcSample s = runOneEpoch(cpu, hill, oc.epochSize);
        rec.hillMetric = evalMetric(oc.metric, s, oc.singleIpc);
        hill.epoch(cpu, static_cast<std::uint64_t>(e));

        out.push_back(std::move(rec));
    }
    return out;
}

} // namespace smthill
