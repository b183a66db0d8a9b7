/**
 * @file
 * Unit tests for the derived-statistics report and the machine's
 * per-instruction `inst.*` events (SmtCpu::setInstTrace).
 */

#include <gtest/gtest.h>

#include <map>

#include "common/event_trace.hh"
#include "core/machine_arena.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "trace/program_profile.hh"

namespace smthill
{
namespace
{

SmtCpu
testCpu(double p_cold = 0.1)
{
    ProfileParams a;
    a.name = "mem";
    a.numBlocks = 12;
    a.avgBlockLen = 8;
    a.pLoadCold = p_cold;
    ProfileParams b;
    b.name = "ilp";
    b.numBlocks = 12;
    b.avgBlockLen = 8;
    b.pLoadWarm = 0.0; // DL1-resident only: near-zero MPKI
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(buildProfile(a), 0);
    gens.emplace_back(buildProfile(b), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(200000);
    return cpu;
}

TEST(Report, RatesAreConsistent)
{
    SmtCpu cpu = testCpu();
    MachineReport rep = runAndReport(cpu, 100000, {"mem", "ilp"});
    ASSERT_EQ(rep.threads.size(), 2u);
    EXPECT_EQ(rep.cycles, 100000u);
    double sum = rep.threads[0].ipc + rep.threads[1].ipc;
    EXPECT_NEAR(sum, rep.totalIpc, 1e-9);
    EXPECT_EQ(rep.threads[0].label, "mem");

    double share_sum =
        rep.threads[0].fetchShare + rep.threads[1].fetchShare;
    EXPECT_NEAR(share_sum, 1.0, 1e-9);

    // The memory thread must show much higher MPKI. (The clean
    // thread still takes some DL1 misses from warm-region stores.)
    EXPECT_GT(rep.threads[0].dl1Mpki, 3 * rep.threads[1].dl1Mpki);
    for (const auto &tr : rep.threads) {
        EXPECT_GE(tr.mispredictRate, 0.0);
        EXPECT_LE(tr.mispredictRate, 1.0);
        EXPECT_GE(tr.lockedFrac, 0.0);
    }
}

TEST(Report, EmptyIntervalIsSafe)
{
    SmtCpu cpu = testCpu();
    MachineSnapshot s = MachineSnapshot::capture(cpu);
    MachineReport rep = buildReport(s, s);
    EXPECT_EQ(rep.cycles, 0u);
    EXPECT_TRUE(rep.threads.empty());
}

TEST(Report, FlushShowsInFlushPerCommit)
{
    SmtCpu cpu = testCpu(0.25);
    FlushPolicy flush;
    flush.attach(cpu);
    MachineSnapshot before = MachineSnapshot::capture(cpu);
    for (int i = 0; i < 100000; ++i) {
        flush.cycle(cpu);
        cpu.step();
    }
    MachineReport rep =
        buildReport(before, MachineSnapshot::capture(cpu));
    EXPECT_GT(rep.threads[0].flushedPerCommit, 0.0);
}

TEST(Report, RunResultCarriesSnapshots)
{
    RunConfig rc;
    rc.epochs = 2;
    rc.epochSize = 8192;
    rc.warmupCycles = 32768;
    IcountPolicy p;
    RunResult res = runPolicy(workloadByName("art-mcf"), p, rc);
    MachineReport rep = res.report({"art", "mcf"});
    EXPECT_EQ(rep.cycles, 2u * 8192u);
    ASSERT_EQ(rep.threads.size(), 2u);
    EXPECT_NEAR(rep.threads[0].ipc, res.overallIpc.ipc[0], 1e-9);
}

/** Lifecycle position of an inst.* event name, or -1. */
int
instStage(const std::string &name)
{
    static const char *const kStages[] = {
        "inst.fetch",    "inst.dispatch", "inst.issue",
        "inst.complete", "inst.commit",   "inst.squash",
    };
    for (int i = 0; i < 6; ++i)
        if (name == kStages[i])
            return i;
    return -1;
}

constexpr int kSquash = 5;

TEST(Tracer, RecordsAllStagesInOrder)
{
    SmtCpu cpu = testCpu(0.0);
    EventTrace trace(1 << 16);
    cpu.setInstTrace(&trace, 0);
    cpu.run(200);
    std::vector<SimEvent> events = trace.events();
    ASSERT_GT(events.size(), 50u);
    bool saw[6] = {false, false, false, false, false, false};
    Cycle prev = 0;
    for (const SimEvent &e : events) {
        int stage = instStage(e.name);
        ASSERT_GE(stage, 0) << eventSummary(e);
        EXPECT_EQ(e.cat, "inst");
        EXPECT_EQ(e.ph, 'i');
        EXPECT_TRUE(e.tid == 0 || e.tid == 1) << eventSummary(e);
        EXPECT_TRUE(e.args.contains("seq") && e.args.contains("pc") &&
                    e.args.contains("op"))
            << eventSummary(e);
        saw[stage] = true;
        EXPECT_GE(e.ts, prev);
        prev = e.ts;
    }
    for (int stage = 0; stage < kSquash; ++stage)
        EXPECT_TRUE(saw[stage]) << "stage " << stage;
}

TEST(Tracer, PerInstructionLifecycleOrder)
{
    SmtCpu cpu = testCpu(0.0);
    EventTrace trace(1 << 16);
    cpu.setInstTrace(&trace, 0);
    cpu.run(500);
    ASSERT_EQ(trace.dropped(), 0u);
    // For any given (tid, seq), stage order must be fetch <= dispatch
    // <= issue <= complete <= commit in time.
    std::map<std::pair<int, std::int64_t>, Cycle> last_stage_cycle;
    std::map<std::pair<int, std::int64_t>, int> last_stage;
    for (const SimEvent &e : trace.events()) {
        int stage = instStage(e.name);
        if (stage == kSquash)
            continue;
        std::int64_t seq = e.args.at("seq").asInt();
        auto key = std::make_pair(e.tid, seq);
        auto it = last_stage.find(key);
        if (it != last_stage.end()) {
            EXPECT_GT(stage, it->second) << "seq " << seq;
            EXPECT_GE(e.ts, last_stage_cycle[key]);
        }
        last_stage[key] = stage;
        last_stage_cycle[key] = e.ts;
    }
}

TEST(Tracer, SquashEventsOnFlush)
{
    SmtCpu cpu = testCpu(0.2);
    cpu.run(200);
    EventTrace trace(1 << 16);
    cpu.setInstTrace(&trace, 0);
    int flushed = cpu.flushThreadAfter(0, cpu.stats().committed[0] + 1);
    ASSERT_GT(flushed, 0);
    EXPECT_EQ(trace.size(), static_cast<std::size_t>(flushed));
    for (const SimEvent &e : trace.events()) {
        EXPECT_EQ(e.name, "inst.squash");
        EXPECT_EQ(e.tid, 0);
    }
}

TEST(Tracer, ThreadFilter)
{
    // Each instruction lands on its hardware thread's track: the
    // commit events of one track count that thread's commits.
    SmtCpu cpu = testCpu(0.0);
    EventTrace trace(1 << 16);
    cpu.setInstTrace(&trace, 0);
    CpuStats before = cpu.stats();
    cpu.run(300);
    ASSERT_EQ(trace.dropped(), 0u);
    std::uint64_t commits[2] = {0, 0};
    for (const SimEvent &e : trace.events()) {
        ASSERT_TRUE(e.tid == 0 || e.tid == 1) << eventSummary(e);
        if (e.name == "inst.commit")
            ++commits[e.tid];
    }
    for (int t = 0; t < 2; ++t) {
        EXPECT_GT(commits[t], 0u) << "thread " << t;
        EXPECT_EQ(commits[t],
                  cpu.stats().committed[t] - before.committed[t])
            << "thread " << t;
    }
}

TEST(Tracer, StageFilter)
{
    // Selecting one stage by name yields one event per instruction
    // that passed that stage: fetch and commit match the counters.
    SmtCpu cpu = testCpu(0.0);
    EventTrace trace(1 << 16);
    cpu.setInstTrace(&trace, 0);
    CpuStats before = cpu.stats();
    cpu.run(300);
    ASSERT_EQ(trace.dropped(), 0u);
    std::uint64_t fetches = 0;
    std::uint64_t commits = 0;
    for (const SimEvent &e : trace.events()) {
        fetches += e.name == "inst.fetch" ? 1 : 0;
        commits += e.name == "inst.commit" ? 1 : 0;
    }
    std::uint64_t fetched = 0;
    std::uint64_t committed = 0;
    for (int t = 0; t < 2; ++t) {
        fetched += cpu.stats().fetched[t] - before.fetched[t];
        committed += cpu.stats().committed[t] - before.committed[t];
    }
    EXPECT_GT(commits, 0u);
    EXPECT_EQ(fetches, fetched);
    EXPECT_EQ(commits, committed);
}

TEST(Tracer, RingEvictsOldest)
{
    // A small inst ring keeps the newest events of the same run a
    // large ring records whole, and counts the rest as dropped.
    SmtCpu a = testCpu(0.0);
    SmtCpu b = a;
    EventTrace full(1 << 16);
    EventTrace small(16);
    a.setInstTrace(&full, 0);
    b.setInstTrace(&small, 0);
    a.run(300);
    b.run(300);
    ASSERT_EQ(full.dropped(), 0u);
    std::vector<SimEvent> all = full.events();
    ASSERT_GT(all.size(), 16u);
    EXPECT_EQ(small.size(), 16u);
    EXPECT_EQ(small.recorded(), all.size());
    EXPECT_EQ(small.dropped(), all.size() - 16);
    std::vector<SimEvent> tail(all.end() - 16, all.end());
    EXPECT_EQ(small.events(), tail);
}

TEST(Tracer, ClearResets)
{
    // Clearing an attached trace empties it; the machine keeps
    // recording into it afterwards.
    SmtCpu cpu = testCpu(0.0);
    EventTrace trace(1 << 16);
    cpu.setInstTrace(&trace, 0);
    cpu.run(300);
    ASSERT_FALSE(trace.empty());
    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_TRUE(trace.events().empty());
    cpu.run(300);
    EXPECT_FALSE(trace.empty());
}

/** Step @p cpu long enough to commit; @return instructions committed. */
std::uint64_t
busyRun(SmtCpu &cpu)
{
    std::uint64_t before = cpu.stats().committed[0] + cpu.stats().committed[1];
    cpu.run(2000);
    return cpu.stats().committed[0] + cpu.stats().committed[1] - before;
}

TEST(Tracer, CopiesRestoresAndArenaMachinesDropTheInstLink)
{
    SmtCpu cpu = testCpu(0.0);
    EventTrace trace(1 << 16);
    cpu.setInstTrace(&trace, 0);

    SmtCpu copy = cpu;
    EXPECT_GT(busyRun(copy), 0u);
    EXPECT_TRUE(trace.empty()) << "a machine copy kept the inst link";

    SmtCpu restored = testCpu(0.0);
    restored.restoreFrom(cpu);
    EXPECT_GT(busyRun(restored), 0u);
    EXPECT_TRUE(trace.empty()) << "restoreFrom kept the inst link";

    MachineArena arena(1);
    EXPECT_GT(busyRun(arena.acquire(0, cpu)), 0u); // first use: clone
    EXPECT_GT(busyRun(arena.acquire(0, cpu)), 0u); // later: restore
    EXPECT_TRUE(trace.empty()) << "an arena machine kept the inst link";

    // The original still records, and a move hands the link over.
    SmtCpu moved = std::move(cpu);
    EXPECT_GT(busyRun(moved), 0u);
    EXPECT_FALSE(trace.empty());
}

} // namespace
} // namespace smthill
