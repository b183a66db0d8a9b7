/**
 * @file
 * Commit adoption in the checkpoint learners: OFF-LINE and RAND-HILL
 * keep their best trial's machine and make it the committed one.
 * RAND-HILL's adopted machine must equal a re-simulation of the
 * chosen partition from the epoch start at every job count, and for
 * both learners the caller's machine must keep its observer
 * attachments while the committed epoch, like every trial, runs
 * unobserved.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/event_trace.hh"
#include "core/offline_exhaustive.hh"
#include "core/rand_hill.hh"
#include "harness/runner.hh"
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
warmCpu(int threads)
{
    static const double kCold[] = {0.08, 0.0, 0.03, 0.0};
    static const int kDep[] = {30, 6, 14, 10};
    SmtConfig cfg;
    cfg.numThreads = threads;
    std::vector<StreamGenerator> gens;
    for (int i = 0; i < threads; ++i) {
        const std::string name = "t" + std::to_string(i);
        gens.emplace_back(profileWith(kCold[i], kDep[i], name.c_str()),
                          static_cast<std::uint64_t>(i));
    }
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(60000);
    return cpu;
}

/** @return "" when @p a and @p b are in the same simulated state. */
std::string
stateDiff(const SmtCpu &a, const SmtCpu &b)
{
    if (a.now() != b.now())
        return "cycle";
    if (!(a.stats() == b.stats()))
        return "stats";
    if (!(a.occupancyTotals() == b.occupancyTotals()))
        return "occupancy_totals";
    if (!(MachineSnapshot::capture(a) == MachineSnapshot::capture(b)))
        return "snapshot";
    return "";
}

TEST(OfflineCommit, RandHillAdoptsTheBestTrialAtEveryJobCount)
{
    // OFF-LINE's counterpart is Offline.AdoptedCommitEqualsResimulatedCommit.
    for (int jobs : {1, 3}) {
        RandHillConfig rc;
        rc.epochSize = 2048;
        rc.iterations = 12;
        rc.metric = PerfMetric::AvgIpc;
        rc.jobs = jobs;
        RandHill rh(rc);
        SmtCpu cpu = warmCpu(4);
        for (int e = 0; e < 3; ++e) {
            SmtCpu again = cpu;
            const OfflineEpoch rec = rh.stepEpoch(cpu);
            const IpcSample want =
                runTrialEpoch(again, rec.best, rc.epochSize);
            EXPECT_EQ(stateDiff(cpu, again), "")
                << "jobs " << jobs << " epoch " << e;
            EXPECT_EQ(rec.ipc.ipc, want.ipc)
                << "jobs " << jobs << " epoch " << e;
        }
    }
}

/** Counts the calls of the two observer kinds. */
struct ObserverCounts
{
    std::uint64_t branches = 0;
    std::uint64_t loads = 0;

    static void
    onBranch(void *ctx, const CommittedBranch &)
    {
        ++static_cast<ObserverCounts *>(ctx)->branches;
    }

    static void
    onLoad(void *ctx, const LoadEvent &)
    {
        ++static_cast<ObserverCounts *>(ctx)->loads;
    }
};

/**
 * Step @p learner on an observed machine: the committed epoch must
 * not reach the observers, and they must still be attached after.
 */
template <typename Learner>
void
expectObserversKept(Learner &learner, SmtCpu cpu)
{
    ObserverCounts counts;
    cpu.setBranchObserver(&ObserverCounts::onBranch, &counts);
    cpu.setLoadObserver(&ObserverCounts::onLoad, &counts);
    EventTrace trace;
    cpu.setEventTrace(&trace, 0);

    learner.stepEpoch(cpu);
    EXPECT_EQ(counts.branches, 0u);
    EXPECT_EQ(counts.loads, 0u);
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(cpu.eventTrace(), &trace);

    cpu.run(4096);
    EXPECT_GT(counts.branches, 0u);
    EXPECT_GT(counts.loads, 0u);
}

TEST(OfflineCommit, OfflineKeepsTheCallersObservers)
{
    OfflineConfig oc;
    oc.epochSize = 4096;
    oc.stride = 64;
    oc.metric = PerfMetric::AvgIpc;
    oc.jobs = 2;
    OfflineExhaustive off(oc);
    expectObserversKept(off, warmCpu(2));
}

TEST(OfflineCommit, RandHillKeepsTheCallersObservers)
{
    RandHillConfig rc;
    rc.epochSize = 2048;
    rc.iterations = 8;
    rc.metric = PerfMetric::AvgIpc;
    rc.jobs = 2;
    RandHill rh(rc);
    expectObserversKept(rh, warmCpu(4));
}

} // namespace
} // namespace smthill
