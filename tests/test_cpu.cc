/**
 * @file
 * Unit tests for the SMT pipeline core: forward progress, occupancy
 * invariants, statistics, determinism, checkpoint-by-copy, and the
 * run() quiescence fast-forward against its step() reference.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stat_registry.hh"
#include "harness/report.hh"
#include "pipeline/cpu.hh"
#include "trace/spec_profiles.hh"

namespace smthill
{
namespace
{

ProgramProfile
toyProfile(const char *name = "toy", double p_cold = 0.0)
{
    ProfileParams pp;
    pp.name = name;
    pp.numBlocks = 12;
    pp.avgBlockLen = 8;
    pp.pLoadCold = p_cold;
    return buildProfile(pp);
}

SmtCpu
makeToyCpu(int threads, double p_cold = 0.0)
{
    SmtConfig cfg;
    cfg.numThreads = threads;
    std::vector<StreamGenerator> gens;
    for (int i = 0; i < threads; ++i)
        gens.emplace_back(toyProfile(), i);
    if (p_cold > 0.0) {
        gens.clear();
        for (int i = 0; i < threads; ++i)
            gens.emplace_back(toyProfile("toy-mem", p_cold), i);
    }
    return SmtCpu(cfg, std::move(gens));
}

TEST(SmtCpu, MakesForwardProgress)
{
    SmtCpu cpu = makeToyCpu(1);
    cpu.run(20000);
    EXPECT_GT(cpu.stats().committed[0], 500u);
    EXPECT_EQ(cpu.now(), 20000u);
    // After the caches warm, throughput is much higher.
    auto before = cpu.stats().committed[0];
    cpu.run(300000);
    auto warm = cpu.stats().committed[0];
    cpu.run(100000);
    EXPECT_GT(cpu.stats().committed[0] - warm,
              (warm - before) / 4);
    EXPECT_GT(cpu.stats().committed[0], 100000u);
}

TEST(SmtCpu, AllThreadsProgress)
{
    SmtCpu cpu = makeToyCpu(4);
    cpu.run(50000);
    for (int i = 0; i < 4; ++i)
        EXPECT_GT(cpu.stats().committed[i], 1000u) << "thread " << i;
}

TEST(SmtCpu, IpcIsPhysical)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(50000);
    double total_ipc =
        static_cast<double>(cpu.stats().committedTotal()) / 50000.0;
    EXPECT_LE(total_ipc, 8.0) << "cannot exceed commit width";
    EXPECT_GT(total_ipc, 0.5);
}

TEST(SmtCpu, Deterministic)
{
    SmtCpu a = makeToyCpu(2);
    SmtCpu b = makeToyCpu(2);
    a.run(30000);
    b.run(30000);
    EXPECT_EQ(a.stats().committed[0], b.stats().committed[0]);
    EXPECT_EQ(a.stats().committed[1], b.stats().committed[1]);
    EXPECT_EQ(a.stats().mispredicts[0], b.stats().mispredicts[0]);
}

TEST(SmtCpu, CheckpointCopyReplaysIdentically)
{
    SmtCpu cpu = makeToyCpu(2, 0.05);
    cpu.run(10000);
    SmtCpu checkpoint = cpu; // whole-machine checkpoint
    cpu.run(20000);
    checkpoint.run(20000);
    EXPECT_EQ(cpu.stats().committed[0], checkpoint.stats().committed[0]);
    EXPECT_EQ(cpu.stats().committed[1], checkpoint.stats().committed[1]);
    EXPECT_EQ(cpu.stats().flushed[0], checkpoint.stats().flushed[0]);
    EXPECT_EQ(cpu.memory().dl1().misses(),
              checkpoint.memory().dl1().misses());
}

TEST(SmtCpu, CheckpointDivergesUnderDifferentControl)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(10000);
    SmtCpu checkpoint = cpu;
    checkpoint.setPartition(Partition::equal(2, 64)); // tiny machine
    cpu.run(30000);
    checkpoint.run(30000);
    EXPECT_NE(cpu.stats().committedTotal(),
              checkpoint.stats().committedTotal());
}

TEST(SmtCpu, StatsAccumulate)
{
    SmtCpu cpu = makeToyCpu(1, 0.02);
    cpu.run(40000);
    const CpuStats &s = cpu.stats();
    EXPECT_GT(s.fetched[0], s.committed[0] * 9 / 10);
    EXPECT_GT(s.branches[0], 0u);
    EXPECT_GT(s.loads[0], 0u);
    EXPECT_GT(s.committedTotal(), 0u);
}

TEST(SmtCpu, MispredictsOccurAndAreBounded)
{
    SmtCpu cpu = makeToyCpu(1);
    cpu.run(100000);
    const CpuStats &s = cpu.stats();
    EXPECT_GT(s.mispredicts[0], 0u);
    EXPECT_LT(s.mispredicts[0], s.branches[0] / 2)
        << "predictors should do much better than chance";
}

TEST(SmtCpu, OccupancyWithinCapacities)
{
    SmtCpu cpu = makeToyCpu(2, 0.1);
    const SmtConfig &cfg = cpu.config();
    for (int i = 0; i < 20000; ++i) {
        cpu.step();
        const Occupancy &o = cpu.occupancy();
        ASSERT_LE(o.totalIfq(), cfg.ifqSize);
        ASSERT_LE(o.totalIntIq(), cfg.intIqSize);
        ASSERT_LE(o.totalFpIq(), cfg.fpIqSize);
        ASSERT_LE(o.totalIntRegs(), cfg.intRegs);
        ASSERT_LE(o.totalFpRegs(), cfg.fpRegs);
        ASSERT_LE(o.totalRob(), cfg.robSize);
        ASSERT_LE(o.totalLsq(), cfg.lsqSize);
        for (int t = 0; t < 2; ++t) {
            ASSERT_GE(o.intIq[t], 0);
            ASSERT_GE(o.rob[t], 0);
            ASSERT_GE(o.intRegs[t], 0);
            ASSERT_GE(o.lsq[t], 0);
            ASSERT_GE(o.ifq[t], 0);
        }
    }
}

TEST(SmtCpu, DrainsToEmptyWhenDisabled)
{
    SmtCpu cpu = makeToyCpu(1);
    cpu.run(5000);
    cpu.setThreadEnabled(0, false);
    cpu.run(3000); // enough to drain any in-flight work
    const Occupancy &o = cpu.occupancy();
    EXPECT_EQ(o.totalRob(), 0);
    EXPECT_EQ(o.totalIfq(), 0);
    EXPECT_EQ(o.totalIntIq(), 0);
    auto committed = cpu.stats().committed[0];
    cpu.run(1000);
    EXPECT_EQ(cpu.stats().committed[0], committed)
        << "a disabled thread must not commit";
}

TEST(SmtCpu, ReEnableResumes)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(5000);
    cpu.setThreadEnabled(1, false);
    cpu.run(3000);
    auto c1 = cpu.stats().committed[1];
    cpu.setThreadEnabled(1, true);
    cpu.run(5000);
    EXPECT_GT(cpu.stats().committed[1], c1);
}

TEST(SmtCpu, SoloEpochMeasuresOnlyThatThread)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(5000);
    cpu.setThreadEnabled(0, false);
    cpu.run(2000); // drain
    auto c0 = cpu.stats().committed[0];
    auto c1 = cpu.stats().committed[1];
    cpu.run(10000);
    EXPECT_EQ(cpu.stats().committed[0], c0);
    EXPECT_GT(cpu.stats().committed[1], c1 + 1000);
}

TEST(SmtCpu, StallFreezesCommit)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(10000);
    auto before = cpu.stats().committedTotal();
    cpu.stallUntil(cpu.now() + 200);
    // During the stall fetch/dispatch/issue/commit are frozen; only
    // already-issued operations drain. With all-hot loads everything
    // in flight completes within a handful of cycles, so commit stays
    // flat over the stall window.
    cpu.run(200);
    auto after = cpu.stats().committedTotal();
    EXPECT_EQ(after, before);
    cpu.run(2000);
    EXPECT_GT(cpu.stats().committedTotal(), after);
}

TEST(SmtCpu, FetchLockStopsFetchButDrainsPipeline)
{
    SmtCpu cpu = makeToyCpu(2);
    cpu.run(5000);
    cpu.setFetchLocked(0, true);
    EXPECT_TRUE(cpu.fetchLocked(0));
    cpu.run(3000);
    auto c0 = cpu.stats().committed[0];
    cpu.run(2000);
    EXPECT_EQ(cpu.stats().committed[0], c0);
    cpu.setFetchLocked(0, false);
    cpu.run(2000);
    EXPECT_GT(cpu.stats().committed[0], c0);
}

TEST(SmtCpu, IcountFetchFavorsNonCloggedThread)
{
    // Thread 0 is memory-bound (cold misses), thread 1 is clean ILP;
    // without partitioning, ICOUNT alone should still let thread 1
    // commit far more instructions.
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(toyProfile("mem", 0.15), 0);
    gens.emplace_back(toyProfile("ilp", 0.0), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(100000);
    EXPECT_GT(cpu.stats().committed[1], 2 * cpu.stats().committed[0]);
}

TEST(SmtCpu, BranchObserverSeesCommittedBranches)
{
    SmtCpu cpu = makeToyCpu(1);
    struct Ctx
    {
        std::uint64_t count = 0;
        std::uint64_t insts = 0;
    } ctx;
    cpu.setBranchObserver(
        [](void *c, const CommittedBranch &cb) {
            auto *x = static_cast<Ctx *>(c);
            ++x->count;
            x->insts += cb.blockLength;
        },
        &ctx);
    cpu.run(20000);
    EXPECT_NEAR(static_cast<double>(ctx.count),
                static_cast<double>(cpu.stats().branches[0]), 64.0);
    EXPECT_GT(ctx.insts, 0u);
}

TEST(SmtCpu, ConfigValidationRejectsMismatch)
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(toyProfile(), 0);
    EXPECT_DEATH(
        { SmtCpu cpu(cfg, std::move(gens)); }, "expected 2 programs");
}

TEST(SmtCpu, SingleThreadIpcReasonable)
{
    // A clean ILP toy program on the Table 1 machine should sustain
    // at least ~1 IPC (once warm) and not exceed the 8-wide limit.
    SmtCpu cpu = makeToyCpu(1);
    cpu.run(400000); // warm caches/predictors
    auto before = cpu.stats().committed[0];
    cpu.run(100000);
    double ipc = static_cast<double>(cpu.stats().committed[0] - before) /
                 100000.0;
    EXPECT_GT(ipc, 1.0);
    EXPECT_LT(ipc, 8.0);
}

// --- run() fast-forward vs the step() reference ---------------------

/** Default Table 1 machine on SPEC profiles, warmed through run(). */
SmtCpu
specCpu(const std::vector<std::string> &benches, Cycle warm)
{
    SmtConfig cfg;
    cfg.numThreads = static_cast<int>(benches.size());
    std::vector<StreamGenerator> gens;
    for (std::size_t i = 0; i < benches.size(); ++i)
        gens.emplace_back(specProfile(benches[i]), i + 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(warm);
    return cpu;
}

void
stepCycles(SmtCpu &cpu, Cycle n)
{
    for (Cycle i = 0; i < n; ++i)
        cpu.step();
}

std::uint64_t
skippedSoFar()
{
    return globalStats().counter("smthill.cpu.skipped_cycles").value();
}

/** Everything stage I of the fuzzer compares, plus per-thread state. */
void
expectSameMachine(const SmtCpu &fast, const SmtCpu &slow)
{
    ASSERT_EQ(fast.now(), slow.now());
    EXPECT_TRUE(fast.stats() == slow.stats());
    EXPECT_TRUE(fast.occupancyTotals() == slow.occupancyTotals());
    EXPECT_TRUE(MachineSnapshot::capture(fast) ==
                MachineSnapshot::capture(slow));
    for (int i = 0; i < fast.numThreads(); ++i) {
        const auto tid = static_cast<ThreadId>(i);
        EXPECT_EQ(fast.frontEndCount(tid), slow.frontEndCount(tid));
        EXPECT_EQ(fast.dl1MissesInFlight(tid), slow.dl1MissesInFlight(tid));
    }
}

TEST(CpuFastForward, MemoryBoundSoloMcfMatchesStep)
{
    SmtCpu fast = specCpu({"mcf"}, 100000);
    SmtCpu slow = fast;
    const std::uint64_t before = skippedSoFar();
    fast.run(200000);
    const std::uint64_t skipped = skippedSoFar() - before;
    stepCycles(slow, 200000);
    expectSameMachine(fast, slow);
    // mcf waits on memory most of the time: most cycles are quiet.
    EXPECT_GT(skipped, 100000u);
    EXPECT_EQ(skippedSoFar() - before, skipped)
        << "a step() loop must not count skipped cycles";
}

TEST(CpuFastForward, PartitionLockCyclesGrowInsideSkips)
{
    SmtCpu fast = specCpu({"art", "mcf"}, 100000);
    // A 32-register share keeps mcf fetch-locked behind its misses
    // most of the time, while both threads wait on memory.
    Partition p;
    p.numThreads = 2;
    p.share[0] = fast.config().intRegs - 32;
    p.share[1] = 32;
    fast.setPartition(p);
    SmtCpu slow = fast;

    const Cycle window = 100000;
    const std::uint64_t before = skippedSoFar();
    const std::uint64_t locked0 = fast.stats().partitionLockCycles[1];
    fast.run(window);
    const std::uint64_t skipped = skippedSoFar() - before;
    const std::uint64_t locked =
        fast.stats().partitionLockCycles[1] - locked0;
    stepCycles(slow, window);
    expectSameMachine(fast, slow);
    // Pigeonhole: more locked plus skipped cycles than the window
    // holds means at least the excess was locked inside skips.
    EXPECT_GT(locked + skipped, window + window / 10)
        << "locked " << locked << ", skipped " << skipped;
}

TEST(CpuFastForward, StallSpanningInFlightMissesMatchesStep)
{
    SmtCpu fast = specCpu({"mcf"}, 100000);
    while (fast.dl1MissesInFlight(0) == 0)
        fast.step();
    SmtCpu slow = fast;
    const Cycle start = fast.now();
    const Cycle until =
        fast.outstandingMisses(0).back().completesAt + 100;
    const std::uint64_t stalled0 = fast.stats().stalledCycles;
    fast.stallUntil(until);
    slow.stallUntil(until);

    const std::uint64_t before = skippedSoFar();
    fast.run(until - start);
    EXPECT_GT(skippedSoFar() - before, 0u) << "no skip inside the stall";
    stepCycles(slow, until - start);
    expectSameMachine(fast, slow);
    EXPECT_EQ(fast.stats().stalledCycles - stalled0, until - start);
    EXPECT_EQ(fast.dl1MissesInFlight(0), 0) << "the misses drained";

    // A window that runs past the stall's end: no skip may cross it.
    fast.stallUntil(fast.now() + 700);
    slow.stallUntil(slow.now() + 700);
    fast.run(2700);
    stepCycles(slow, 2700);
    expectSameMachine(fast, slow);
    EXPECT_EQ(fast.stats().stalledCycles - stalled0, until - start + 700);
}

TEST(CpuFastForward, WindowsEndingMidStretchMatchStep)
{
    SmtCpu fast = specCpu({"art", "mcf"}, 100000);
    SmtCpu slow = fast;
    Rng rng(97);
    const std::uint64_t before = skippedSoFar();
    for (int w = 0; w < 4096; ++w) {
        const Cycle len = 1 + rng.nextBelow(97);
        fast.run(len);
        stepCycles(slow, len);
        ASSERT_EQ(fast.now(), slow.now()) << "window " << w;
        ASSERT_TRUE(fast.stats() == slow.stats()) << "window " << w;
    }
    expectSameMachine(fast, slow);
    EXPECT_GT(skippedSoFar() - before, 0u);
}

} // namespace
} // namespace smthill
