/**
 * @file
 * Unit tests for the experiment runner, solo-IPC measurement, the
 * synchronized comparison machinery, and the table printer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/stat_registry.hh"
#include "harness/runner.hh"
#include "harness/sync_runner.hh"
#include "harness/table.hh"
#include "policy/dcra.hh"
#include "policy/icount.hh"
#include "trace/spec_profiles.hh"

namespace smthill
{
namespace
{

RunConfig
fastConfig()
{
    RunConfig rc;
    rc.epochSize = 8192;
    rc.epochs = 4;
    rc.warmupCycles = 32768;
    return rc;
}

TEST(Runner, MakeCpuSetsThreadCountAndWarms)
{
    RunConfig rc = fastConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    EXPECT_EQ(cpu.numThreads(), 2);
    EXPECT_EQ(cpu.now(), rc.warmupCycles);
    EXPECT_GT(cpu.stats().committedTotal(), 0u);
}

TEST(Runner, RunPolicyProducesEpochRecords)
{
    RunConfig rc = fastConfig();
    IcountPolicy p;
    RunResult res = runPolicy(workloadByName("apsi-eon"), p, rc);
    ASSERT_EQ(res.epochs.size(), 4u);
    for (const auto &e : res.epochs) {
        EXPECT_FALSE(e.partitioned) << "ICOUNT runs unpartitioned";
        EXPECT_GT(e.ipc.ipc[0] + e.ipc.ipc[1], 0.0);
    }
    EXPECT_GT(res.overallIpc.ipc[0], 0.0);
}

TEST(Runner, OverallIpcConsistentWithEpochs)
{
    RunConfig rc = fastConfig();
    IcountPolicy p;
    RunResult res = runPolicy(workloadByName("apsi-eon"), p, rc);
    double epoch_mean = 0.0;
    for (const auto &e : res.epochs)
        epoch_mean += e.ipc.ipc[0];
    epoch_mean /= static_cast<double>(res.epochs.size());
    // ICOUNT neither stalls nor samples, so the end-to-end IPC is the
    // mean of the per-epoch IPCs.
    EXPECT_NEAR(res.overallIpc.ipc[0], epoch_mean, 1e-9);
}

TEST(Runner, RunOneEpochAdvancesExactly)
{
    RunConfig rc = fastConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    IcountPolicy p;
    p.attach(cpu);
    Cycle before = cpu.now();
    runOneEpoch(cpu, p, 4096);
    EXPECT_EQ(cpu.now(), before + 4096);
}

TEST(Runner, SoloIpcCachedAndPositive)
{
    RunConfig rc = fastConfig();
    double a = soloIpc("bzip2", rc, 16384);
    double b = soloIpc("bzip2", rc, 16384);
    EXPECT_GT(a, 0.0);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(Runner, SoloIpcsCoverWorkload)
{
    RunConfig rc = fastConfig();
    auto solo = soloIpcs(workloadByName("art-mcf"), rc, 16384);
    EXPECT_GT(solo[0], 0.0);
    EXPECT_GT(solo[1], 0.0);
    EXPECT_DOUBLE_EQ(solo[2], 0.0);
}

TEST(Runner, MetricUsesOverallIpc)
{
    RunConfig rc = fastConfig();
    IcountPolicy p;
    RunResult res = runPolicy(workloadByName("apsi-eon"), p, rc);
    std::array<double, kMaxThreads> solo{};
    solo[0] = res.overallIpc.ipc[0];
    solo[1] = res.overallIpc.ipc[1];
    EXPECT_NEAR(res.metric(PerfMetric::WeightedIpc, solo), 1.0, 1e-9);
}

TEST(Runner, EnvScaleParsesAndDefaults)
{
    ::unsetenv("SMTHILL_TEST_KNOB");
    EXPECT_EQ(envScale("SMTHILL_TEST_KNOB", 7u), 7u);
    ::setenv("SMTHILL_TEST_KNOB", "123", 1);
    EXPECT_EQ(envScale("SMTHILL_TEST_KNOB", 7u), 123u);
    ::setenv("SMTHILL_TEST_KNOB", "", 1);
    EXPECT_EQ(envScale("SMTHILL_TEST_KNOB", 7u), 7u);
    ::unsetenv("SMTHILL_TEST_KNOB");
}

TEST(EnvScale, MalformedValuesAreFatal)
{
    // strtoull alone reads "64k" as 64 and "-1" as 2^64 - 1.
    for (const char *bad : {"64k", "-1", "bogus", " 5", "+5",
                            "18446744073709551616"}) {
        ::setenv("SMTHILL_TEST_KNOB", bad, 1);
        EXPECT_DEATH(envScale("SMTHILL_TEST_KNOB", 7u),
                     "SMTHILL_TEST_KNOB")
            << bad;
    }
    ::setenv("SMTHILL_TEST_KNOB", "0", 1);
    EXPECT_EQ(envScale("SMTHILL_TEST_KNOB", 7u), 0u);
    EXPECT_DEATH(envScale("SMTHILL_TEST_KNOB", 7u, 1),
                 "SMTHILL_TEST_KNOB='0' must be at least 1");
    ::setenv("SMTHILL_TEST_KNOB", "11", 1);
    EXPECT_DEATH(envScale("SMTHILL_TEST_KNOB", 7u, 1, 10),
                 "SMTHILL_TEST_KNOB='11' must be at most 10");
    ::unsetenv("SMTHILL_TEST_KNOB");
}

TEST(EnvScale, BenchKnobsRejectZeroSizesAndNegativeWarmup)
{
    // 0 epochs or a 0-cycle epoch makes the solo window 0 cycles; a
    // warm-up of -1 used to read as 2^64 - 1 cycles.
    const struct
    {
        const char *name;
        const char *value;
    } cases[] = {{"SMTHILL_EPOCHS", "0"},
                 {"SMTHILL_EPOCH_SIZE", "0"},
                 {"SMTHILL_EPOCH_SIZE", "64k"},
                 {"SMTHILL_WARMUP", "-1"},
                 {"SMTHILL_JOBS", "0"}};
    for (const auto &c : cases) {
        ::setenv(c.name, c.value, 1);
        EXPECT_DEATH(benchRunConfig(4), c.name) << c.value;
        ::unsetenv(c.name);
    }
}

TEST(EnvScale, ZeroCycleSoloWindowIsFatal)
{
    EXPECT_DEATH(soloIpc("bzip2", fastConfig(), 0), "solo window");
}

/** soloIpc's build, spelled out as an independent reference. */
double
referenceSoloIpc(const std::string &benchmark, const RunConfig &rc,
                 Cycle cycles)
{
    SmtConfig machine = rc.machine;
    machine.numThreads = 1;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(specProfile(benchmark), rc.seedSalt * 131);
    SmtCpu cpu(machine, std::move(gens));
    cpu.run(rc.warmupCycles);
    const std::uint64_t before = cpu.stats().committed[0];
    cpu.run(cycles);
    return static_cast<double>(cpu.stats().committed[0] - before) /
           static_cast<double>(cycles);
}

TEST(SoloIpcs, SameValuesAndCacheCountsAtEveryJobCount)
{
    // One benchmark named twice: it builds once and hits once, as in
    // the serial loop, whichever lane reaches the cache first.
    const Workload w = makeCustomWorkload({"art", "mcf", "art"});
    StatRegistry &stats = globalStats();
    StatCounter &misses =
        stats.counter("smthill.warm_cache.solo_ipc.misses");
    StatCounter &hits = stats.counter("smthill.warm_cache.solo_ipc.hits");
    for (int jobs : {1, 4}) {
        RunConfig rc = fastConfig();
        rc.warmupCycles = 16384;
        rc.jobs = jobs;
        // Fresh cache keys for each job count.
        rc.seedSalt = 0x5010 + static_cast<std::uint64_t>(jobs);
        const std::uint64_t misses0 = misses.value();
        const std::uint64_t hits0 = hits.value();
        const auto solo = soloIpcs(w, rc, 8192);
        EXPECT_EQ(misses.value() - misses0, 2u) << "jobs " << jobs;
        EXPECT_EQ(hits.value() - hits0, 1u) << "jobs " << jobs;
        for (int i = 0; i < w.numThreads(); ++i) {
            EXPECT_EQ(solo[i], referenceSoloIpc(w.benchmarks[i], rc, 8192))
                << "jobs " << jobs << " thread " << i;
        }
        EXPECT_EQ(solo[3], 0.0);
    }
}

/** @return this process's live threads (entries of /proc/self/task). */
std::size_t
liveThreads()
{
    std::size_t n = 0;
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)task;
        ++n;
    }
    return n;
}

/** @return the most live threads any cell of a 2-cell grid saw. */
std::size_t
twoCellGridThreads(int jobs)
{
    std::array<std::size_t, 2> seen{};
    runGrid(2, jobs, [&](std::size_t cell) { seen[cell] = liveThreads(); });
    return std::max(seen[0], seen[1]);
}

TEST(RunGrid, StartsNoMoreLanesThanCells)
{
    // A pool starts all its threads before the first cell runs, so
    // a 2-cell grid at jobs=16 must run on as many threads as one at
    // jobs=2, not fourteen more. (Comparing two grids, not a grid
    // against the idle process, leaves out helper threads that a
    // sanitizer runtime starts with the first pool thread.)
    if (!std::filesystem::exists("/proc/self/task"))
        GTEST_SKIP() << "no /proc/self/task on this platform";
    const std::size_t two_lanes = twoCellGridThreads(2);
    EXPECT_EQ(twoCellGridThreads(16), two_lanes);
}

TEST(SyncRunner, ComparesPoliciesFromSharedCheckpoints)
{
    RunConfig rc = fastConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);

    OfflineConfig oc;
    oc.epochSize = 8192;
    oc.stride = 64;
    oc.metric = PerfMetric::AvgIpc;
    OfflineExhaustive off(oc);

    IcountPolicy icount;
    DcraPolicy dcra;
    std::vector<ResourcePolicy *> policies{&icount, &dcra};
    SyncResult res = syncCompareOffline(cpu, off, policies, 3);

    ASSERT_EQ(res.offline.metric.size(), 3u);
    ASSERT_EQ(res.others.size(), 2u);
    ASSERT_EQ(res.others[0].metric.size(), 3u);
    EXPECT_EQ(res.others[0].name, "ICOUNT");
    EXPECT_EQ(res.others[1].name, "DCRA");

    // OFF-LINE picks the best fixed partition per epoch; it must beat
    // or match ICOUNT in virtually every epoch (Section 3.3).
    EXPECT_GE(res.offlineWinRate(0), 2.0 / 3.0);
}

TEST(SyncRunner, TraceHillVsOfflineProducesCurves)
{
    RunConfig rc = fastConfig();
    SmtCpu cpu = makeCpu(workloadByName("art-mcf"), rc);
    HillConfig hc;
    hc.epochSize = 8192;
    hc.metric = PerfMetric::AvgIpc;
    hc.sampleSingleIpc = false;
    HillClimbing hill(hc);

    OfflineConfig oc;
    oc.stride = 64;
    oc.metric = PerfMetric::AvgIpc;

    auto trace = traceHillVsOffline(cpu, hill, oc, 3);
    ASSERT_EQ(trace.size(), 3u);
    for (const auto &e : trace) {
        EXPECT_GT(e.curve.size(), 0u);
        EXPECT_GE(e.hillShare0, 0);
        EXPECT_GT(e.offlineMetric, 0.0);
        // Hill can never beat the per-epoch exhaustive best by more
        // than noise.
        EXPECT_LE(e.hillMetric, e.offlineMetric * 1.10);
    }
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.beginRow();
    t.cell("alpha");
    t.cell(1.5, 2);
    t.beginRow();
    t.cell("b");
    t.cell(std::int64_t{42});
    EXPECT_EQ(t.numRows(), 2u);
    t.print(); // must not crash
}

TEST(Table, IncompleteRowDies)
{
    Table t({"a", "b"});
    t.beginRow();
    t.cell("only-one");
    EXPECT_DEATH(t.beginRow(), "cells");
}

TEST(Table, CellOutsideRowDies)
{
    Table t({"a"});
    EXPECT_DEATH(t.cell("x"), "outside");
}

TEST(Table, FmtPrecision)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(2.0, 3), "2.000");
}

} // namespace
} // namespace smthill
