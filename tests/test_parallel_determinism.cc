/**
 * @file
 * The parallel execution layer's determinism contract: OFF-LINE
 * exhaustive learning and RAND-HILL must produce bit-identical epoch
 * records and chosen partitions at jobs=1 (the exact legacy serial
 * path) and jobs=8, and runGrid cells must reduce to the same values
 * as a serial loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/offline_exhaustive.hh"
#include "core/rand_hill.hh"
#include "harness/runner.hh"
#include "policy/bandit.hh"
#include "policy/icount.hh"
#include "policy/rl_alloc.hh"
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
    return buildProfile(pp);
}

SmtCpu
twoThreadCpu()
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.08, 30, "mem"), 0);
    gens.emplace_back(profileWith(0.0, 6, "ilp"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(80000);
    return cpu;
}

SmtCpu
fourThreadCpu()
{
    SmtConfig cfg;
    cfg.numThreads = 4;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(profileWith(0.08, 30, "mem0"), 0);
    gens.emplace_back(profileWith(0.0, 6, "ilp1"), 1);
    gens.emplace_back(profileWith(0.03, 14, "mix2"), 2);
    gens.emplace_back(profileWith(0.0, 10, "ilp3"), 3);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(80000);
    return cpu;
}

void
expectIdenticalEpochs(const OfflineResult &a, const OfflineResult &b)
{
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
        const OfflineEpoch &ea = a.epochs[e];
        const OfflineEpoch &eb = b.epochs[e];
        EXPECT_EQ(ea.best, eb.best) << "epoch " << e;
        EXPECT_EQ(ea.metricValue, eb.metricValue) << "epoch " << e;
        ASSERT_EQ(ea.ipc.numThreads, eb.ipc.numThreads);
        for (int t = 0; t < ea.ipc.numThreads; ++t)
            EXPECT_EQ(ea.ipc.ipc[t], eb.ipc.ipc[t])
                << "epoch " << e << " thread " << t;
        EXPECT_EQ(ea.curveShares, eb.curveShares) << "epoch " << e;
        EXPECT_EQ(ea.curve, eb.curve) << "epoch " << e;
    }
}

TEST(ParallelDeterminism, OfflineIdenticalAcrossJobCounts)
{
    OfflineConfig oc;
    oc.epochSize = 8192;
    oc.stride = 16; // 15 trials per epoch
    oc.metric = PerfMetric::AvgIpc;

    OfflineConfig serial = oc;
    serial.jobs = 1;
    OfflineConfig parallel = oc;
    parallel.jobs = 8;

    SmtCpu a = twoThreadCpu();
    SmtCpu b = twoThreadCpu();
    OfflineResult ra = OfflineExhaustive(serial).run(a, 3);
    OfflineResult rb = OfflineExhaustive(parallel).run(b, 3);

    expectIdenticalEpochs(ra, rb);
    // The advanced machines must also agree exactly.
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.stats().committedTotal(), b.stats().committedTotal());
}

TEST(ParallelDeterminism, OfflineTieBreakIsFirstMaximumInCurveOrder)
{
    // The reduce keeps the first strict maximum in enumeration
    // order, and enumeratePartitions2 enumerates ascending share[0],
    // so any exact metric tie resolves to the lowest share[0] — for
    // every job count. Verified against the retained curve.
    OfflineConfig oc;
    oc.epochSize = 4096;
    oc.stride = 32;
    oc.metric = PerfMetric::AvgIpc;
    for (int jobs : {1, 8}) {
        oc.jobs = jobs;
        SmtCpu cpu = twoThreadCpu();
        OfflineEpoch rec = OfflineExhaustive(oc).stepEpoch(cpu);
        ASSERT_FALSE(rec.curve.empty());
        // Curve shares ascend, so the first maximum is the lowest
        // share[0] among maxima; best must be exactly that trial.
        std::size_t first_max = 0;
        for (std::size_t i = 1; i < rec.curve.size(); ++i) {
            EXPECT_GT(rec.curveShares[i], rec.curveShares[i - 1]);
            if (rec.curve[i] > rec.curve[first_max])
                first_max = i;
        }
        EXPECT_EQ(rec.best.share[0], rec.curveShares[first_max])
            << "jobs=" << jobs;
        EXPECT_EQ(rec.metricValue, rec.curve[first_max]);
    }
}

TEST(ParallelDeterminism, RandHillTieBreakIsFirstMaximumInCurveOrder)
{
    // RAND-HILL keeps the first strict maximum in iteration order.
    // Oracle: the climb only looks back, so a learner stopped right
    // after that iteration tries the same partitions, holds that
    // trial as its unique maximum, and must commit the same
    // partition and machine — a later exact tie must not win. With
    // delta 2 this climb scores several different partitions exactly
    // the same as its first maximum.
    RandHillConfig rh;
    rh.epochSize = 4096;
    rh.iterations = 16;
    rh.delta = 2;
    rh.metric = PerfMetric::AvgIpc;
    rh.seed = 7;
    for (int jobs : {1, 3}) {
        rh.jobs = jobs;
        SmtCpu cpu = fourThreadCpu();
        SmtCpu stopped_cpu = cpu;
        OfflineEpoch rec = RandHill(rh).stepEpoch(cpu);
        ASSERT_EQ(rec.curve.size(),
                  static_cast<std::size_t>(rh.iterations));
        std::size_t first_max = 0;
        for (std::size_t i = 1; i < rec.curve.size(); ++i)
            if (rec.curve[i] > rec.curve[first_max])
                first_max = i;
        EXPECT_EQ(rec.metricValue, rec.curve[first_max]) << "jobs=" << jobs;
        EXPECT_GT(std::count(rec.curve.begin(), rec.curve.end(),
                             rec.curve[first_max]),
                  1)
            << "no later tie: the oracle cannot tell first from last";

        RandHillConfig stopped = rh;
        stopped.iterations = static_cast<int>(first_max) + 1;
        OfflineEpoch want = RandHill(stopped).stepEpoch(stopped_cpu);
        EXPECT_EQ(want.curve, std::vector<double>(
                                  rec.curve.begin(),
                                  rec.curve.begin() + stopped.iterations));
        EXPECT_EQ(rec.best, want.best) << "jobs=" << jobs;
        EXPECT_EQ(cpu.now(), stopped_cpu.now());
        EXPECT_TRUE(cpu.stats() == stopped_cpu.stats()) << "jobs=" << jobs;
    }
}

TEST(ParallelDeterminism, RandHillIdenticalAcrossJobCounts)
{
    RandHillConfig rh;
    rh.epochSize = 4096;
    rh.iterations = 16;
    rh.metric = PerfMetric::AvgIpc;
    rh.seed = 7;

    RandHillConfig serial = rh;
    serial.jobs = 1;
    RandHillConfig parallel = rh;
    parallel.jobs = 8;

    SmtCpu a = fourThreadCpu();
    SmtCpu b = fourThreadCpu();
    RandHill hs(serial);
    RandHill hp(parallel);
    OfflineResult ra = hs.run(a, 3);
    OfflineResult rb = hp.run(b, 3);

    expectIdenticalEpochs(ra, rb);
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.stats().committedTotal(), b.stats().committedTotal());
}

TEST(ParallelDeterminism, RandHillPartialLastRoundMatches)
{
    // iterations not a multiple of numThreads: the trailing partial
    // round must behave identically in both modes.
    RandHillConfig rh;
    rh.epochSize = 4096;
    rh.iterations = 10; // 2 full rounds + 2 trials on 4 threads
    rh.metric = PerfMetric::AvgIpc;

    RandHillConfig serial = rh;
    serial.jobs = 1;
    RandHillConfig parallel = rh;
    parallel.jobs = 8;

    SmtCpu a = fourThreadCpu();
    SmtCpu b = fourThreadCpu();
    OfflineEpoch ea = RandHill(serial).stepEpoch(a);
    OfflineEpoch eb = RandHill(parallel).stepEpoch(b);
    EXPECT_EQ(ea.best, eb.best);
    EXPECT_EQ(ea.metricValue, eb.metricValue);
}

TEST(ParallelDeterminism, RunGridMatchesSerialLoop)
{
    // Same cells through runGrid at jobs=4 and a plain loop: the
    // per-cell outputs must agree exactly (cells are pure functions
    // of the shared warm machine).
    RunConfig rc;
    rc.epochs = 2;
    rc.epochSize = 4096;
    rc.warmupCycles = 40000;

    const std::vector<Workload> workloads = {
        workloadByName("art-mcf"), workloadByName("swim-twolf")};

    auto runCell = [&](std::size_t i) {
        IcountPolicy icount;
        return runPolicy(workloads[i], icount, rc)
            .overallIpc.ipc[0];
    };

    std::vector<double> serial(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i)
        serial[i] = runCell(i);

    std::vector<double> parallel(workloads.size());
    runGrid(workloads.size(), 4,
            [&](std::size_t i) { parallel[i] = runCell(i); });

    EXPECT_EQ(serial, parallel);
}

/**
 * The new learners (BANDIT-UCB, BANDIT-EXP3, RL-Q) under the grid:
 * jobs=1 (exact serial path) and jobs=4 must produce bit-identical
 * epoch records and machine end states. Their seeded Rng streams
 * live inside the policy object each cell constructs, so nothing
 * about worker scheduling may leak into the results.
 */
TEST(ParallelDeterminism, NewLearnersIdenticalAcrossJobCounts)
{
    const Cycle epoch_size = 8192;
    auto makeLearner = [&](int li) -> std::unique_ptr<ResourcePolicy> {
        switch (li) {
          case 0: {
            BanditConfig bc;
            bc.epochSize = epoch_size;
            bc.seed = 5;
            return std::make_unique<BanditAllocator>(bc);
          }
          case 1: {
            BanditConfig bc;
            bc.epochSize = epoch_size;
            bc.algo = BanditAlgo::Exp3;
            bc.seed = 5;
            return std::make_unique<BanditAllocator>(bc);
          }
          default: {
            RlConfig rc;
            rc.epochSize = epoch_size;
            rc.epsilon = 0.3; // make sure exploration draws happen
            rc.seed = 5;
            return std::make_unique<RlAllocator>(rc);
          }
        }
    };

    const SmtCpu two = twoThreadCpu();
    const SmtCpu four = fourThreadCpu();
    const std::size_t cells = 6; // 3 learners x 2 machines

    auto runAll = [&](int jobs) {
        std::vector<RunResult> out(cells);
        runGrid(cells, jobs, [&](std::size_t cell) {
            auto p = makeLearner(static_cast<int>(cell % 3));
            out[cell] =
                runPolicyOn(cell < 3 ? two : four, *p, 4, epoch_size);
        });
        return out;
    };

    std::vector<RunResult> serial = runAll(1);
    std::vector<RunResult> parallel = runAll(4);
    for (std::size_t cell = 0; cell < cells; ++cell) {
        const RunResult &a = serial[cell];
        const RunResult &b = parallel[cell];
        ASSERT_EQ(a.epochs.size(), b.epochs.size()) << "cell " << cell;
        for (std::size_t e = 0; e < a.epochs.size(); ++e) {
            EXPECT_EQ(a.epochs[e].partition, b.epochs[e].partition)
                << "cell " << cell << " epoch " << e;
            EXPECT_EQ(a.epochs[e].partitioned, b.epochs[e].partitioned)
                << "cell " << cell << " epoch " << e;
            for (int t = 0; t < a.epochs[e].ipc.numThreads; ++t)
                EXPECT_EQ(a.epochs[e].ipc.ipc[t], b.epochs[e].ipc.ipc[t])
                    << "cell " << cell << " epoch " << e;
        }
        EXPECT_EQ(a.finalSnapshot.cycle, b.finalSnapshot.cycle)
            << "cell " << cell;
        for (int t = 0; t < a.finalSnapshot.numThreads; ++t)
            EXPECT_EQ(a.finalSnapshot.stats.committed[t],
                      b.finalSnapshot.stats.committed[t])
                << "cell " << cell << " thread " << t;
    }
}

TEST(ParallelDeterminism, MakeCpuCacheCoherentUnderConcurrency)
{
    // Hammer the warm-machine cache from concurrent cells: every
    // copy of the same workload/config must be the same machine.
    RunConfig rc;
    rc.epochs = 1;
    rc.epochSize = 1024;
    rc.warmupCycles = 20000;
    const Workload &w = workloadByName("art-mcf");

    SmtCpu reference = makeCpu(w, rc);
    std::vector<Cycle> nows(16);
    std::vector<std::uint64_t> committed(16);
    runGrid(16, 8, [&](std::size_t i) {
        SmtCpu cpu = makeCpu(w, rc);
        nows[i] = cpu.now();
        committed[i] = cpu.stats().committedTotal();
    });
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(nows[i], reference.now());
        EXPECT_EQ(committed[i], reference.stats().committedTotal());
    }
}

} // namespace
} // namespace smthill
