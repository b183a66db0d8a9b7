/**
 * @file
 * Integration tests: end-to-end scenarios that exercise the paper's
 * claims in miniature across modules (workloads -> pipeline ->
 * policies -> learners -> metrics).
 */

#include <gtest/gtest.h>

#include "core/hill_climbing.hh"
#include "core/hill_width.hh"
#include "core/offline_exhaustive.hh"
#include "core/rand_hill.hh"
#include "harness/runner.hh"
#include "harness/sync_runner.hh"
#include "policy/dcra.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "policy/static_partition.hh"

namespace smthill
{
namespace
{

RunConfig
mediumConfig(int epochs = 12)
{
    RunConfig rc;
    rc.epochSize = 16384;
    rc.epochs = epochs;
    rc.warmupCycles = 128 * 1024;
    return rc;
}

double
runMetric(const Workload &w, ResourcePolicy &p, const RunConfig &rc,
          PerfMetric m, const std::array<double, kMaxThreads> &solo)
{
    return runPolicy(w, p, rc).metric(m, solo);
}

TEST(Integration, MemWorkloadCausesClogUnderIcount)
{
    // The central pathology the paper targets: under full sharing, a
    // memory-bound thread occupies most of the window while an ILP
    // partner starves relative to a fair static split.
    RunConfig rc = mediumConfig();
    const Workload &w = workloadByName("art-gzip"); // MEM + ILP

    IcountPolicy icount;
    RunResult shared = runPolicy(w, icount, rc);

    StaticPartitionPolicy fair;
    RunResult split = runPolicy(w, fair, rc);

    // gzip (thread 1) must do materially better when art is contained.
    EXPECT_GT(split.overallIpc.ipc[1], shared.overallIpc.ipc[1] * 1.02);
}

TEST(Integration, OfflineBeatsBaselinesOnMemPair)
{
    RunConfig rc = mediumConfig(8);
    const Workload &w = workloadByName("art-mcf");
    auto solo = soloIpcs(w, rc, 8 * rc.epochSize);

    OfflineConfig oc;
    oc.epochSize = rc.epochSize;
    oc.stride = 32;
    oc.singleIpc = solo;
    OfflineExhaustive off(oc);

    SmtCpu cpu = makeCpu(w, rc);
    OfflineResult res = off.run(cpu, rc.epochs);
    double offline_metric = res.meanMetric();

    IcountPolicy icount;
    double icount_metric =
        runMetric(w, icount, rc, PerfMetric::WeightedIpc, solo);
    FlushPolicy flush;
    double flush_metric =
        runMetric(w, flush, rc, PerfMetric::WeightedIpc, solo);

    EXPECT_GT(offline_metric, icount_metric);
    EXPECT_GT(offline_metric, flush_metric);
}

TEST(Integration, HillLearnsOnMlpWorkload)
{
    // Hill climbing (AvgIpc feedback for speed) must end up at least
    // as good as a fixed equal split on a workload with an interior
    // optimum, given time to learn.
    RunConfig rc = mediumConfig(40);
    const Workload &w = workloadByName("art-gzip");
    auto solo = soloIpcs(w, rc, 8 * rc.epochSize);

    HillConfig hc;
    hc.epochSize = rc.epochSize;
    hc.metric = PerfMetric::AvgIpc;
    hc.sampleSingleIpc = false;
    HillClimbing hill(hc);
    double hill_m = runMetric(w, hill, rc, PerfMetric::AvgIpc, solo);

    StaticPartitionPolicy fair;
    double fair_m = runMetric(w, fair, rc, PerfMetric::AvgIpc, solo);

    EXPECT_GT(hill_m, fair_m * 0.97)
        << "hill must at least roughly match the equal split";
}

TEST(Integration, SynchronizedOfflineWinsMostEpochs)
{
    // Figure 5 in miniature: epoch-synchronized OFF-LINE dominates
    // ICOUNT nearly everywhere.
    RunConfig rc = mediumConfig();
    const Workload &w = workloadByName("art-mcf");
    auto solo = soloIpcs(w, rc, 4 * rc.epochSize);

    OfflineConfig oc;
    oc.epochSize = rc.epochSize;
    oc.stride = 32;
    oc.singleIpc = solo;
    OfflineExhaustive off(oc);

    IcountPolicy icount;
    std::vector<ResourcePolicy *> policies{&icount};
    SyncResult res =
        syncCompareOffline(makeCpu(w, rc), off, policies, 6);
    EXPECT_GE(res.offlineWinRate(0), 5.0 / 6.0);
}

TEST(Integration, HillWidthsFromOfflineCurves)
{
    // Figure 6/7 pipeline: real curves in, hill widths out.
    RunConfig rc = mediumConfig();
    OfflineConfig oc;
    oc.epochSize = rc.epochSize;
    oc.stride = 16;
    OfflineExhaustive off(oc);

    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    OfflineEpoch rec = off.stepEpoch(cpu);
    HillWidthProfile p = hillWidthProfile(rec.curveShares, rec.curve);
    EXPECT_GT(p.w90, 0.0);
    EXPECT_LE(p.w99, p.w90);
    EXPECT_LE(p.w90, 256.0);
}

TEST(Integration, RandHillMatchesOfflineOnTwoThreads)
{
    // On 2 threads, RAND-HILL's best should be close to exhaustive
    // search's best for the same epoch.
    RunConfig rc = mediumConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    const SmtCpu checkpoint = cpu;

    OfflineConfig oc;
    oc.epochSize = rc.epochSize;
    oc.stride = 8;
    OfflineExhaustive off(oc);
    SmtCpu a = checkpoint;
    OfflineEpoch best = off.stepEpoch(a);

    RandHillConfig rh_cfg;
    rh_cfg.epochSize = rc.epochSize;
    rh_cfg.iterations = 96;
    RandHill rh(rh_cfg);
    SmtCpu b = checkpoint;
    OfflineEpoch rh_best = rh.stepEpoch(b);

    EXPECT_GT(rh_best.metricValue, best.metricValue * 0.90);
}

TEST(Integration, WeightedMetricChangesLearnedAllocation)
{
    // Learning with throughput (AvgIpc) vs weighted IPC feedback must
    // be able to produce different final anchors on an asymmetric
    // workload (the user-definable-goal property, Section 4.4).
    RunConfig rc = mediumConfig(30);
    const Workload &w = workloadByName("art-gzip");

    HillConfig a;
    a.epochSize = rc.epochSize;
    a.metric = PerfMetric::AvgIpc;
    a.sampleSingleIpc = false;
    HillClimbing hill_ipc(a);
    runPolicy(w, hill_ipc, rc);

    HillConfig b = a;
    b.metric = PerfMetric::HarmonicWeightedIpc;
    b.sampleSingleIpc = true;
    b.samplePeriod = 10;
    HillClimbing hill_hw(b);
    runPolicy(w, hill_hw, rc);

    // They need not differ hugely, but the machinery must produce
    // valid (and usually distinct) anchors.
    EXPECT_EQ(hill_ipc.anchor().total(), 256);
    EXPECT_EQ(hill_hw.anchor().total(), 256);
}

TEST(Integration, FourThreadWorkloadRunsAllPolicies)
{
    RunConfig rc = mediumConfig(6);
    const Workload &w = workloadByName("art-mcf-swim-twolf");
    IcountPolicy icount;
    FlushPolicy flush;
    DcraPolicy dcra;
    HillConfig hc;
    hc.epochSize = rc.epochSize;
    hc.metric = PerfMetric::AvgIpc;
    hc.sampleSingleIpc = false;
    HillClimbing hill(hc);
    for (ResourcePolicy *p :
         std::initializer_list<ResourcePolicy *>{&icount, &flush, &dcra,
                                                 &hill}) {
        RunResult res = runPolicy(w, *p, rc);
        for (int t = 0; t < 4; ++t)
            EXPECT_GT(res.overallIpc.ipc[t], 0.0)
                << p->name() << " thread " << t;
    }
}

TEST(Integration, EpochSynchronizationPreservesDeterminism)
{
    RunConfig rc = mediumConfig(4);
    const Workload &w = workloadByName("swim-twolf");
    IcountPolicy p1, p2;
    RunResult a = runPolicy(w, p1, rc);
    RunResult b = runPolicy(w, p2, rc);
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
        EXPECT_DOUBLE_EQ(a.epochs[e].ipc.ipc[0], b.epochs[e].ipc.ipc[0]);
        EXPECT_DOUBLE_EQ(a.epochs[e].ipc.ipc[1], b.epochs[e].ipc.ipc[1]);
    }
}

} // namespace
} // namespace smthill
