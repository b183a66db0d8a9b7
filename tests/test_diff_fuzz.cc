/**
 * @file
 * The fuzz harness itself: seed determinism, case diversity, clean
 * seeds passing end to end, the minimizer's fixed point on passing
 * cases, and a regression pinning the trace round-trip bug the fuzzer
 * surfaced (stale trial partitions recorded for solo-sampling epochs).
 */

#include <set>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "harness/runner.hh"
#include "validate/diff_fuzz.hh"

using namespace smthill;

TEST(FuzzCaseGen, SameSeedSameCase)
{
    FuzzCase a = makeFuzzCase(42);
    FuzzCase b = makeFuzzCase(42);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(a.machine.intRegs, b.machine.intRegs);
    EXPECT_EQ(a.machine.robSize, b.machine.robSize);
    EXPECT_EQ(a.workload.name, b.workload.name);
    EXPECT_EQ(a.hill.epochSize, b.hill.epochSize);
    EXPECT_EQ(a.policyChoice, b.policyChoice);
}

TEST(FuzzCaseGen, SeedsCoverDistinctShapes)
{
    std::set<std::string> descriptions;
    std::set<int> policies;
    std::set<int> threads;
    for (std::uint64_t s = 1; s <= 16; ++s) {
        FuzzCase c = makeFuzzCase(s);
        descriptions.insert(c.str());
        policies.insert(c.policyChoice);
        threads.insert(c.workload.numThreads());
        EXPECT_GE(c.machine.numThreads, 2);
        EXPECT_GT(c.epochs, 0);
        EXPECT_GT(c.warmup, 0u);
    }
    EXPECT_EQ(descriptions.size(), 16u) << "seeds collapsed";
    EXPECT_GT(policies.size(), 1u) << "policy choice never varies";
    EXPECT_GT(threads.size(), 1u) << "thread count never varies";
}

TEST(FuzzRun, FirstSeedsPassAllStages)
{
    FuzzSummary sum = runFuzzSeeds(1, 3);
    EXPECT_EQ(sum.casesRun, 3);
    for (const FuzzResult &r : sum.failures)
        ADD_FAILURE() << "seed " << r.seed << ":\n" << r.summary();
}

TEST(FuzzMinimize, PassingCaseIsItsOwnFixedPoint)
{
    FuzzCase c = makeFuzzCase(1);
    FuzzCase m = minimizeFuzzCase(c, 4);
    EXPECT_EQ(m.str(), c.str())
        << "minimizer shrank a case that never failed";
}

// Regression: traceEpoch used to store the stale enforced partition in
// rec.trial for solo-sampling epochs (partitioned == false), while the
// JSON export writes `trial: null` for them — so any run containing a
// sampling epoch failed the fromJson round trip. Force sampling every
// epoch and require the round trip to be exact.
TEST(FuzzRegression, TraceRoundTripWithSamplingEpochs)
{
    FuzzCase c = makeFuzzCase(1);
    SmtCpu cpu(c.machine, c.workload.makeGenerators(1));
    cpu.run(16 * 1024);

    HillConfig hc = c.hill;
    hc.samplePeriod = 1; // a solo-sampling epoch in every round
    hc.sampleSingleIpc = true;
    HillClimbing hill(hc);
    EventTrace events;
    hill.setEventTrace(&events, 0);
    runPolicyOn(std::move(cpu), hill, 8, hc.epochSize);
    std::vector<EpochTraceRecord> recs = epochRecords(events.events(), 0);
    ASSERT_FALSE(recs.empty());

    bool saw_sampling_epoch = false;
    for (const EpochTraceRecord &r : recs)
        saw_sampling_epoch |= !r.partitioned;
    ASSERT_TRUE(saw_sampling_epoch)
        << "samplePeriod=1 produced no solo epochs; regression "
           "coverage lost";

    std::string err;
    Json parsed;
    ASSERT_TRUE(
        Json::parse(epochTraceToJson(recs, hc.metric).dump(), parsed, err))
        << err;
    std::vector<EpochTraceRecord> back;
    ASSERT_TRUE(epochTraceFromJson(parsed, back, err)) << err;
    EXPECT_EQ(back, recs) << "epoch trace does not round-trip through JSON";
}

// Regression: on nominally phase-free streams, cold-start BBV noise
// mints phantom phases whose occurrences each last exactly one epoch.
// The RLE Markov predictor trained on that churn forecast transitions
// between them, and PHASE-HILL jumped its anchor to a round-stale
// learned partitioning, drifting off HILL's trajectory (stage F,
// fuzz seeds 69/90/121 of the PR-4 deep sweep). The phase-stability
// reuse gate (average run length >= 2 epochs for both ends of the
// predicted transition) must keep all three seeds bit-identical.
TEST(FuzzRegression, PhaseFreeSeeds69_90_121Identical)
{
    for (std::uint64_t seed : {69ull, 90ull, 121ull}) {
        FuzzResult r = runFuzzCase(makeFuzzCase(seed));
        EXPECT_TRUE(r.passed())
            << "seed " << seed << ":\n" << r.summary();
    }
}
