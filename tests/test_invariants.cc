/**
 * @file
 * The invariant layer must have no silent checkers: every check is
 * fed deliberately corrupted state here and must fire, and clean
 * state from a real machine must pass.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "validate/checked_cpu.hh"
#include "validate/diff_fuzz.hh"
#include "validate/invariants.hh"

using namespace smthill;

namespace
{

/** Names of every violation the checker recorded. */
std::vector<std::string>
checksFired(const InvariantChecker &chk)
{
    std::vector<std::string> out;
    for (const InvariantViolation &v : chk.violations())
        out.push_back(v.check);
    return out;
}

bool
fired(const InvariantChecker &chk, const std::string &name)
{
    for (const InvariantViolation &v : chk.violations())
        if (v.check == name)
            return true;
    return false;
}

/** A small warmed machine, deterministic across tests. */
SmtCpu
smallMachine()
{
    FuzzCase c = makeFuzzCase(7);
    SmtCpu cpu(c.machine, c.workload.makeGenerators(1));
    cpu.run(20 * 1024);
    return cpu;
}

} // namespace

TEST(InvariantPartitionShape, AcceptsCleanPartition)
{
    InvariantChecker chk;
    chk.checkPartitionShape(Partition::equal(4, 256), 4, 256, 4);
    EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(InvariantPartitionShape, FiresOnThreadMismatch)
{
    InvariantChecker chk;
    chk.checkPartitionShape(Partition::equal(3, 256), 4, 256);
    EXPECT_TRUE(fired(chk, "partition.threads")) << chk.summary();
}

TEST(InvariantPartitionShape, FiresOnNegativeShare)
{
    Partition p = Partition::equal(2, 256);
    p.share[1] = -4;
    p.share[0] = 260;
    InvariantChecker chk;
    chk.checkPartitionShape(p, 2, 256);
    EXPECT_TRUE(fired(chk, "partition.negative")) << chk.summary();
}

TEST(InvariantPartitionShape, FiresOnOverAllocation)
{
    Partition p = Partition::equal(2, 256);
    p.share[0] += 8;
    InvariantChecker chk;
    chk.checkPartitionShape(p, 2, 256);
    EXPECT_TRUE(fired(chk, "partition.total")) << chk.summary();
}

TEST(InvariantPartitionShape, StrictModeFiresOnUnderAllocation)
{
    Partition p = Partition::equal(2, 200); // sums to 200, not 256
    InvariantChecker lax;
    lax.checkPartitionShape(p, 2, 256);
    EXPECT_TRUE(lax.ok()) << "under-allocation is legal by default";

    InvariantChecker::Options o;
    o.strictPartitionTotal = true;
    InvariantChecker strict(o);
    strict.checkPartitionShape(p, 2, 256);
    EXPECT_TRUE(fired(strict, "partition.total")) << strict.summary();
}

TEST(InvariantPartitionShape, FiresOnFeasibleFloorBreach)
{
    Partition p = Partition::equal(2, 256);
    p.share[0] = 2;
    p.share[1] = 254;
    InvariantChecker chk;
    chk.checkPartitionShape(p, 2, 256, 4);
    EXPECT_TRUE(fired(chk, "partition.min_share")) << chk.summary();
}

TEST(InvariantPartitionShape, InfeasibleFloorDoesNotBind)
{
    // min_share 200 x 2 threads > 256: no partition can satisfy it,
    // so the floor check must not fire.
    InvariantChecker chk;
    chk.checkPartitionShape(Partition::equal(2, 256), 2, 256, 200);
    EXPECT_TRUE(chk.ok()) << chk.summary();
}

TEST(InvariantPartitionConserves, FiresOnTotalChange)
{
    Partition before = Partition::equal(2, 256);
    Partition after = before;
    after.share[0] -= 4; // lost units
    InvariantChecker chk;
    chk.checkPartitionConserves(before, after);
    EXPECT_TRUE(fired(chk, "partition.conservation")) << chk.summary();

    chk.clear();
    chk.checkPartitionConserves(before, before);
    EXPECT_TRUE(chk.ok());
}

TEST(InvariantOccupancy, FiresOnCapacityOverflowAndNegative)
{
    SmtConfig cfg;
    Occupancy occ;
    occ.rob[0] = cfg.robSize + 1; // over capacity
    occ.intIq[1] = -2;            // negative counter
    InvariantChecker chk;
    chk.checkOccupancyCapacity(occ, cfg);
    EXPECT_TRUE(fired(chk, "occupancy.capacity")) << chk.summary();
    EXPECT_TRUE(fired(chk, "occupancy.negative")) << chk.summary();
}

TEST(InvariantOccupancy, StrictLimitsFire)
{
    SmtConfig cfg;
    DerivedLimits limits = deriveLimits(Partition::equal(2, 256), cfg);
    Occupancy occ;
    occ.intRegs[0] = limits.intRegs[0] + 1;
    occ.intIq[1] = limits.intIq[1] + 1;
    occ.rob[0] = limits.rob[0] + 1;
    InvariantChecker chk;
    chk.checkOccupancyLimits(occ, limits, 2);
    EXPECT_TRUE(fired(chk, "occupancy.int_regs_limit"));
    EXPECT_TRUE(fired(chk, "occupancy.int_iq_limit"));
    EXPECT_TRUE(fired(chk, "occupancy.rob_limit"));
}

TEST(InvariantOccupancy, TransientAllowsDrainButNotGrowth)
{
    SmtConfig cfg;
    DerivedLimits limits = deriveLimits(Partition::equal(2, 256), cfg);
    int cap = limits.intRegs[0];

    // Above the cap but draining (prev was higher): legal right
    // after a partition shrink.
    Occupancy prev;
    prev.intRegs[0] = cap + 10;
    Occupancy cur;
    cur.intRegs[0] = cap + 5;
    InvariantChecker chk;
    chk.checkOccupancyTransient(cur, prev, limits, 2);
    EXPECT_TRUE(chk.ok()) << chk.summary();

    // Above the cap and growing: dispatch gated on the cap can never
    // do this.
    cur.intRegs[0] = cap + 12;
    chk.checkOccupancyTransient(cur, prev, limits, 2);
    EXPECT_TRUE(fired(chk, "occupancy.partition_limit"))
        << chk.summary();
}

TEST(InvariantFlow, FiresOnEachBrokenIdentity)
{
    SmtConfig cfg;
    CpuStats stats;

    stats.fetched[0] = 10;
    stats.committed[0] = 8;
    stats.flushed[0] = 5; // committed + flushed > fetched
    InvariantChecker chk;
    chk.checkFlowCounters(stats, cfg);
    EXPECT_TRUE(fired(chk, "flow.fetched")) << chk.summary();

    stats = CpuStats{};
    stats.fetched[0] =
        static_cast<std::uint64_t>(cfg.ifqSize + cfg.robSize) + 100;
    chk.clear();
    chk.checkFlowCounters(stats, cfg); // nothing ever retired
    EXPECT_TRUE(fired(chk, "flow.in_flight")) << chk.summary();

    stats = CpuStats{};
    stats.fetched[1] = 100;
    stats.committed[1] = 100;
    stats.branches[1] = 10;
    stats.mispredicts[1] = 11;
    chk.clear();
    chk.checkFlowCounters(stats, cfg);
    EXPECT_TRUE(fired(chk, "flow.mispredicts")) << chk.summary();

    stats = CpuStats{};
    stats.fetched[0] = 50;
    stats.committed[0] = 50;
    stats.branches[0] = 51;
    chk.clear();
    chk.checkFlowCounters(stats, cfg);
    EXPECT_TRUE(fired(chk, "flow.branches")) << chk.summary();

    stats = CpuStats{};
    stats.fetched[0] = 50;
    stats.committed[0] = 50;
    stats.loads[0] = 51;
    chk.clear();
    chk.checkFlowCounters(stats, cfg);
    EXPECT_TRUE(fired(chk, "flow.loads")) << chk.summary();
}

TEST(InvariantCache, CleanMachinePassesCorruptedSampleFires)
{
    SmtCpu cpu = smallMachine();
    InvariantChecker chk;
    chk.checkCacheCounters(cpu.memory());
    EXPECT_TRUE(chk.ok()) << chk.summary();

    CacheCounterSample s = CacheCounterSample::capture(cpu.memory());
    ASSERT_GT(s.dl1Misses, 0u) << "warmup produced no DL1 misses";

    CacheCounterSample bad = s;
    bad.dl1PerThread[0] += 1;
    chk.clear();
    chk.checkCacheCounters(bad);
    EXPECT_TRUE(fired(chk, "cache.dl1_attribution")) << chk.summary();

    bad = s;
    bad.l2PerThread[1] += 3;
    chk.clear();
    chk.checkCacheCounters(bad);
    EXPECT_TRUE(fired(chk, "cache.l2_attribution")) << chk.summary();

    bad = s;
    bad.ul2Hits += 2; // an L2 access no L1 miss produced
    chk.clear();
    chk.checkCacheCounters(bad);
    EXPECT_TRUE(fired(chk, "cache.level_reconcile")) << chk.summary();
}

TEST(InvariantEpochTrace, CleanRunPassesCorruptedRecordsFire)
{
    SmtCpu cpu = smallMachine();
    HillConfig hc;
    hc.epochSize = 2048;
    hc.delta = 4;
    hc.minShare = 2;
    HillClimbing hill(hc);
    EventTrace events;
    hill.setEventTrace(&events, 0);
    runPolicyOn(std::move(cpu), hill, 5, hc.epochSize);
    std::vector<EpochTraceRecord> recs = epochRecords(events.events(), 0);
    ASSERT_FALSE(recs.empty());

    InvariantChecker chk;
    chk.checkEpochTrace(hill, recs);
    EXPECT_TRUE(chk.ok()) << chk.summary();

    // Stale anchor in the last record.
    std::vector<EpochTraceRecord> bad = recs;
    for (EpochTraceRecord &r : bad)
        r.anchor.share[0] += 1;
    chk.clear();
    chk.checkEpochTrace(hill, bad);
    EXPECT_TRUE(fired(chk, "trace.anchor")) << chk.summary();

    // SingleIPC estimates that disagree with the live learner.
    bad = recs;
    for (EpochTraceRecord &r : bad)
        r.singleIpcEst[0] += 0.5;
    chk.clear();
    chk.checkEpochTrace(hill, bad);
    EXPECT_TRUE(fired(chk, "trace.single_ipc")) << chk.summary();

    // Duplicated epoch id.
    bad = recs;
    for (EpochTraceRecord &r : bad)
        r.epochId = 3;
    chk.clear();
    chk.checkEpochTrace(hill, bad);
    EXPECT_TRUE(fired(chk, "trace.epoch_order")) << chk.summary();

    // Impossible measurement windows and IPCs.
    bad = recs;
    for (EpochTraceRecord &r : bad) {
        r.elapsedCycles = 0;
        r.ipc[0] = std::nan("");
    }
    chk.clear();
    chk.checkEpochTrace(hill, bad);
    EXPECT_TRUE(fired(chk, "trace.elapsed")) << chk.summary();
    EXPECT_TRUE(fired(chk, "trace.ipc")) << chk.summary();
}

TEST(InvariantChecked, CleanMachineStaysClean)
{
    InvariantChecker::Options o;
    o.strictPartitionTotal = true;
    CheckedCpu checked(smallMachine(), o, 1);
    checked.cpu().setPartition(
        Partition::equal(checked.cpu().numThreads(),
                         checked.cpu().config().intRegs));
    checked.run(4096);
    checked.checkNow();
    EXPECT_TRUE(checked.checker().ok()) << checked.checker().summary();
}

TEST(InvariantChecked, StrictTotalCatchesUnderAllocation)
{
    InvariantChecker::Options o;
    o.strictPartitionTotal = true;
    CheckedCpu checked(smallMachine(), o, 0);
    int regs = checked.cpu().config().intRegs;
    checked.cpu().setPartition(
        Partition::equal(checked.cpu().numThreads(), regs - 8));
    checked.checkNow();
    EXPECT_TRUE(fired(checked.checker(), "partition.total"))
        << checked.checker().summary();
}

TEST(InvariantChecked, FailFastPanics)
{
    InvariantChecker::Options o;
    o.strictPartitionTotal = true;
    o.failFast = true;
    CheckedCpu checked(smallMachine(), o, 0);
    int regs = checked.cpu().config().intRegs;
    checked.cpu().setPartition(
        Partition::equal(checked.cpu().numThreads(), regs - 8));
    EXPECT_DEATH(checked.checkNow(), "invariant violated");
}

TEST(InvariantChecker, RecordingCapStillCountsEverything)
{
    InvariantChecker::Options o;
    o.maxViolations = 2;
    InvariantChecker chk(o);
    Partition bad = Partition::equal(3, 90);
    bad.share[0] = -1; // negative + under-floor violations per call
    for (int i = 0; i < 5; ++i)
        chk.checkPartitionShape(bad, 3, 300, 10);
    EXPECT_EQ(chk.violations().size(), 2u);
    EXPECT_GT(chk.totalViolations(), 2u);
    EXPECT_FALSE(chk.ok());
    EXPECT_NE(chk.summary().find("more violations"), std::string::npos);

    chk.clear();
    EXPECT_TRUE(chk.ok());
    EXPECT_EQ(checksFired(chk).size(), 0u);
}
