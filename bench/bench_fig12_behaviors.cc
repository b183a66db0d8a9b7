/**
 * @file
 * Figure 12: time-varying behavior of HILL-WIPC against OFF-LINE's
 * per-epoch exhaustive map, for the paper's five representative
 * workloads — temporally-stable (swim-mcf), spatially-stable
 * (applu-ammp), temporally-limited (mcf-eon), spatially-limited
 * (art-mcf), and jitter-limited (swim-twolf).
 *
 * For every epoch this prints hill's partition, OFF-LINE's best
 * partition, both metric values, and a coarse rendering of the
 * performance hill (the gray-scale columns of Figure 12).
 *
 * Scale with SMTHILL_EPOCHS (default 16) and SMTHILL_OFFLINE_STRIDE
 * (default 16).
 *
 * SMTHILL_EVENT_TRACE=FILE writes the hill-climbing runs' cycle-level
 * `smthill.events.v1` trace: one Perfetto process per representative
 * workload, with epoch/round slices, anchor-move audits, and the
 * per-thread share counter tracks (.jsonl selects the JSONL form).
 */

#include <cstdio>

#include "bench_common.hh"
#include "harness/sync_runner.hh"
#include "harness/table.hh"
#include "phase/phase_hill.hh"
#include "policy/bandit.hh"
#include "policy/rl_alloc.hh"

using namespace smthill;
using namespace smthill::benchutil;

namespace
{

/** Render a curve as a ten-bucket shade string (light..dark). */
std::string
shade(const std::vector<double> &curve)
{
    static const char *levels = " .:-=+*#%@";
    double lo = curve[0], hi = curve[0];
    for (double v : curve) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    std::string out;
    for (double v : curve) {
        int idx = hi > lo ? static_cast<int>((v - lo) / (hi - lo) * 9.0)
                          : 9;
        out += levels[idx];
    }
    return out;
}

} // namespace

int
main()
{
    banner("Figure 12: representative time-varying behaviors "
           "(HILL-WIPC vs per-epoch OFF-LINE map)");

    RunConfig rc = benchRunConfig(12);
    const int stride = offlineStride(rc, 16);

    EventTrace event_trace;
    const std::string trace_path = eventTracePath();
    int trace_pid = 0;

    const std::pair<const char *, const char *> cases[] = {
        {"swim-mcf", "TS (temporally-stable)"},
        {"applu-ammp", "SS (spatially-stable)"},
        {"mcf-eon", "TL (temporally-limited)"},
        {"art-mcf", "SL (spatially-limited)"},
        {"swim-twolf", "JL (jitter-limited)"},
    };

    for (const auto &[wname, label] : cases) {
        const Workload &w = workloadByName(wname);
        auto solo = soloIpcs(w, rc, soloWindow(rc));

        HillConfig hc;
        hc.epochSize = rc.epochSize;
        hc.metric = PerfMetric::WeightedIpc;
        HillClimbing hill(hc);
        if (!trace_path.empty()) {
            // One Perfetto process per representative workload.
            event_trace.processName(trace_pid, wname);
            for (int i = 0; i < w.numThreads(); ++i)
                event_trace.threadName(trace_pid, i, w.benchmarks[i]);
            event_trace.threadName(trace_pid, kControlTid, "control");
            hill.setEventTrace(&event_trace, trace_pid);
            ++trace_pid;
        }

        OfflineConfig oc;
        oc.stride = stride;
        oc.metric = PerfMetric::WeightedIpc;
        oc.singleIpc = solo;

        auto trace =
            traceHillVsOffline(makeCpu(w, rc), hill, oc, rc.epochs);

        std::printf("\n-- %s: %s --\n", wname, label);
        std::printf("%5s %6s %6s %8s %8s  %s\n", "epoch", "hill",
                    "best", "hillWIPC", "bestWIPC",
                    "hill shape (share 0 low->high)");
        double hill_sum = 0, best_sum = 0;
        for (std::size_t e = 0; e < trace.size(); ++e) {
            const HillTraceEpoch &rec = trace[e];
            std::printf("%5zu %6d %6d %8.3f %8.3f  |%s|\n", e,
                        rec.hillShare0, rec.offlineShare0,
                        rec.hillMetric, rec.offlineMetric,
                        shade(rec.curve).c_str());
            hill_sum += rec.hillMetric;
            best_sum += rec.offlineMetric;
        }
        std::printf("   hill achieves %.1f%% of the per-epoch best\n",
                    100.0 * hill_sum / best_sum);
    }

    std::printf("\nshape to check: TS/SS workloads track the best "
                "closely; TL misses during abrupt shifts; SL risks\n"
                "non-maximal peaks; JL re-course-corrects under "
                "inter-epoch jitter (Section 4.4.1).\n");

    // Learner race per representative behavior: the full family on
    // identical machines and seeds, evaluated under weighted IPC.
    // Shows which behaviors reward memory (PHASE), lattice search
    // (BANDIT), or state-action credit (RL) over plain climbing.
    std::printf("\nlearner race per representative workload "
                "(weighted IPC):\n");
    Table race({"workload", "behavior", "HILL", "PHASE", "BANDIT",
                "RL"});
    for (const auto &[wname, label] : cases) {
        const Workload &w = workloadByName(wname);
        auto solo = soloIpcs(w, rc, soloWindow(rc));

        HillConfig hc;
        hc.epochSize = rc.epochSize;
        hc.metric = PerfMetric::WeightedIpc;
        HillClimbing hill(hc);
        PhaseHillClimbing phase(hc);
        BanditConfig bc;
        bc.epochSize = rc.epochSize;
        bc.metric = PerfMetric::WeightedIpc;
        bc.seed = rc.seedSalt + 1;
        bc.singleIpc = solo;
        BanditAllocator bandit(bc);
        RlConfig rlc;
        rlc.epochSize = rc.epochSize;
        rlc.metric = PerfMetric::WeightedIpc;
        rlc.seed = rc.seedSalt + 1;
        rlc.singleIpc = solo;
        RlAllocator rl(rlc);

        race.beginRow();
        race.cell(std::string(wname));
        race.cell(std::string(label, 2));
        ResourcePolicy *const racers[] = {&hill, &phase, &bandit, &rl};
        for (ResourcePolicy *p : racers)
            race.cell(runPolicy(w, *p, rc)
                          .metric(PerfMetric::WeightedIpc, solo));
    }
    race.print();

    if (!trace_path.empty())
        exportEventTrace(event_trace, trace_path);
    return 0;
}
