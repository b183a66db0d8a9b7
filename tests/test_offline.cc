/**
 * @file
 * Unit tests for OFF-LINE exhaustive learning (Section 3.1).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/offline_exhaustive.hh"
#include "harness/runner.hh"
#include "policy/icount.hh"
#include "trace/program_profile.hh"

namespace smthill
{
namespace
{

ProgramProfile
profileWith(double p_cold, int dep, const char *name)
{
    ProfileParams pp;
    pp.name = name;
    pp.numBlocks = 12;
    pp.avgBlockLen = 8;
    pp.pLoadCold = p_cold;
    pp.meanDepDist = dep;
    pp.serialFrac = 0.1;
    pp.burstProb = p_cold > 0 ? 0.6 : 0.0;
    pp.burstMax = 6;
    return buildProfile(pp);
}

SmtCpu
testCpu()
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.08, 30, "mlp"), 0);
    gens.emplace_back(profileWith(0.0, 6, "ilp"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(80000);
    return cpu;
}

OfflineConfig
fastConfig()
{
    OfflineConfig oc;
    oc.epochSize = 8192;
    oc.stride = 32; // 7 trials per epoch, fast for tests
    oc.metric = PerfMetric::AvgIpc;
    return oc;
}

TEST(Offline, StepAdvancesExactlyOneEpoch)
{
    SmtCpu cpu = testCpu();
    Cycle before = cpu.now();
    OfflineExhaustive off(fastConfig());
    off.stepEpoch(cpu);
    EXPECT_EQ(cpu.now(), before + 8192);
}

TEST(Offline, BestTrialIsMaxOfCurve)
{
    SmtCpu cpu = testCpu();
    OfflineConfig oc = fastConfig();
    oc.keepCurves = true;
    OfflineExhaustive off(oc);
    OfflineEpoch rec = off.stepEpoch(cpu);
    ASSERT_EQ(rec.curve.size(), 7u);
    double max_metric = *std::max_element(rec.curve.begin(),
                                          rec.curve.end());
    EXPECT_DOUBLE_EQ(rec.metricValue, max_metric);
    // The recorded best share appears in the curve at the max.
    auto it = std::find(rec.curve.begin(), rec.curve.end(), max_metric);
    std::size_t idx = static_cast<std::size_t>(it - rec.curve.begin());
    EXPECT_EQ(rec.curveShares[idx], rec.best.share[0]);
}

TEST(Offline, ChosenEpochMatchesBestTrialPerformance)
{
    // The committed epoch is the best trial itself, so the committed
    // IPCs must score the best trial's metric.
    SmtCpu cpu = testCpu();
    OfflineConfig oc = fastConfig();
    oc.keepCurves = true;
    OfflineExhaustive off(oc);
    OfflineEpoch rec = off.stepEpoch(cpu);
    double m = evalMetric(oc.metric, rec.ipc, oc.singleIpc);
    EXPECT_DOUBLE_EQ(m, rec.metricValue);
}

TEST(Offline, NeverWorseThanEqualPartitionTrial)
{
    SmtCpu cpu = testCpu();
    const SmtCpu checkpoint = cpu;
    OfflineConfig oc = fastConfig();
    OfflineExhaustive off(oc);
    OfflineEpoch rec = off.stepEpoch(cpu);

    IpcSample equal_run = runFixedPartitionEpoch(
        checkpoint, Partition::equal(2, 256), oc.epochSize);
    double equal_metric = evalMetric(oc.metric, equal_run, oc.singleIpc);
    EXPECT_GE(rec.metricValue, equal_metric - 1e-12);
}

TEST(Offline, BeatsIcountOverARun)
{
    // The limit result in miniature: OFF-LINE end performance must
    // be at least ICOUNT's on the same machine and window.
    SmtCpu cpu = testCpu();
    const SmtCpu start = cpu;
    OfflineConfig oc = fastConfig();
    OfflineExhaustive off(oc);
    OfflineResult res = off.run(cpu, 6);

    SmtCpu icount_cpu = start;
    IcountPolicy icount;
    icount.attach(icount_cpu);
    double icount_sum = 0.0;
    for (int e = 0; e < 6; ++e) {
        IpcSample s = runOneEpoch(icount_cpu, icount, oc.epochSize);
        icount_sum += evalMetric(oc.metric, s, oc.singleIpc);
    }
    EXPECT_GE(res.meanMetric() * 6, icount_sum * 0.98)
        << "OFF-LINE should not lose to ICOUNT";
}

TEST(Offline, RunReturnsRequestedEpochs)
{
    SmtCpu cpu = testCpu();
    OfflineExhaustive off(fastConfig());
    OfflineResult res = off.run(cpu, 4);
    EXPECT_EQ(res.epochs.size(), 4u);
    EXPECT_GT(res.meanMetric(), 0.0);
}

TEST(Offline, RequiresTwoThreads)
{
    SmtConfig cfg;
    cfg.numThreads = 1;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.0, 6, "solo"), 0);
    SmtCpu cpu(cfg, std::move(gens));
    OfflineExhaustive off(fastConfig());
    EXPECT_DEATH(off.stepEpoch(cpu), "2 hardware contexts");
}

TEST(Offline, FixedPartitionEpochDoesNotMutateCheckpoint)
{
    SmtCpu cpu = testCpu();
    auto committed = cpu.stats().committedTotal();
    Cycle now = cpu.now();
    runFixedPartitionEpoch(cpu, Partition::equal(2, 256), 4096);
    EXPECT_EQ(cpu.stats().committedTotal(), committed);
    EXPECT_EQ(cpu.now(), now);
}

TEST(Offline, AdoptedCommitEqualsResimulatedCommit)
{
    // The committed machine is the kept best trial, not a re-run: at
    // every job count it must equal a fresh re-simulation of the
    // chosen partition from the epoch start, and keep evolving
    // identically afterwards.
    for (int jobs : {1, 3}) {
        OfflineConfig oc = fastConfig();
        oc.jobs = jobs;
        OfflineExhaustive off(oc);
        SmtCpu cpu = testCpu();
        const SmtCpu start = cpu;
        OfflineEpoch rec = off.stepEpoch(cpu);

        SmtCpu again = start;
        IpcSample s = runTrialEpoch(again, rec.best, oc.epochSize);
        EXPECT_EQ(cpu.now(), start.now() + oc.epochSize);
        EXPECT_EQ(rec.ipc.ipc, s.ipc);
        EXPECT_EQ(rec.ipc.ipc,
                  runFixedPartitionEpoch(start, rec.best, oc.epochSize).ipc);
        EXPECT_TRUE(cpu.stats() == again.stats());
        EXPECT_TRUE(cpu.occupancyTotals() == again.occupancyTotals());
        EXPECT_TRUE(MachineSnapshot::capture(cpu) ==
                    MachineSnapshot::capture(again));

        cpu.run(oc.epochSize);
        again.run(oc.epochSize);
        EXPECT_TRUE(cpu.stats() == again.stats()) << "jobs " << jobs;
    }
}

} // namespace
} // namespace smthill
