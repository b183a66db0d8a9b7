/**
 * @file
 * Golden learner outputs: every epoch learner (HILL-WIPC,
 * PHASE-HILL-WIPC, BANDIT-UCB, BANDIT-EXP3, RL-Q) runs two small
 * scenarios and the test pins an FNV-1a-64 digest over everything
 * the run exports — the report JSON, the epoch-trace JSON, the
 * `smthill.events.v1` document, and the learner stat-counter deltas.
 * A refactor of the learner family must leave every digest unchanged.
 *
 * Scenarios:
 *  - closed: 2 threads, long enough for the solo bootstrap plus one
 *    periodic solo sample; BANDIT/RL get oracle solo IPCs;
 *  - open: 4 contexts under open-system churn (attaches, detaches,
 *    and at least one full drain of the machine).
 *
 * On a mismatch the failure message prints the digest the build
 * produced, so an intended output change can be re-pinned.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/event_trace.hh"
#include "common/stat_registry.hh"
#include "core/epoch_trace.hh"
#include "core/hill_climbing.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "phase/phase_hill.hh"
#include "policy/bandit.hh"
#include "policy/rl_alloc.hh"
#include "trace/spec_profiles.hh"
#include "workload/open_system.hh"

namespace smthill
{
namespace
{

constexpr Cycle kEpoch = 2048;
constexpr PerfMetric kMetric = PerfMetric::WeightedIpc;

/** Oracle solo IPCs handed to BANDIT/RL in the closed scenario. */
constexpr std::array<double, kMaxThreads> kOracleSolo{1.25, 0.5};

const char *const kCounters[] = {
    "smthill.bandit.epochs", "smthill.bandit.switches",
    "smthill.bandit.rebuilds", "smthill.rl.epochs",
    "smthill.rl.explores", "smthill.rl.anchor_moves",
};

std::uint64_t
fnv1a(std::uint64_t h, const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<std::uint64_t>
counterValues()
{
    std::vector<std::uint64_t> v;
    for (const char *name : kCounters)
        v.push_back(globalStats().counter(name).value());
    return v;
}

/** Digest of one run's exports plus the counter deltas it caused. */
std::uint64_t
digest(const Json &report, const EpochTracer &tracer,
       const EventTrace &events, const std::vector<std::uint64_t> &before)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, report.dump());
    h = fnv1a(h, tracer.toJson(kMetric).dump());
    h = fnv1a(h, events.toPerfettoJson().dump());
    std::vector<std::uint64_t> after = counterValues();
    for (std::size_t i = 0; i < after.size(); ++i)
        h = fnv1a(h, std::to_string(after[i] - before[i]) + ";");
    return h;
}

std::unique_ptr<ResourcePolicy>
makeLearner(const std::string &name,
            const std::array<double, kMaxThreads> &solo)
{
    HillConfig hc;
    hc.epochSize = kEpoch;
    hc.metric = kMetric;
    hc.samplePeriod = 2;
    if (name == "HILL-WIPC")
        return std::make_unique<HillClimbing>(hc);
    if (name == "PHASE-HILL-WIPC")
        return std::make_unique<PhaseHillClimbing>(hc);
    if (name == "RL-Q") {
        RlConfig rc;
        rc.epochSize = kEpoch;
        rc.metric = kMetric;
        rc.epsilon = 0.25;
        rc.seed = 5;
        rc.singleIpc = solo;
        return std::make_unique<RlAllocator>(rc);
    }
    BanditConfig bc;
    bc.epochSize = kEpoch;
    bc.metric = kMetric;
    bc.stride = 32;
    bc.algo = name == "BANDIT-UCB" ? BanditAlgo::Ucb1 : BanditAlgo::Exp3;
    bc.seed = 5;
    bc.singleIpc = solo;
    return std::make_unique<BanditAllocator>(bc);
}

std::uint64_t
closedDigest(const std::string &name)
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    std::vector<StreamGenerator> gens;
    gens.emplace_back(specProfile("art"), 0);
    gens.emplace_back(specProfile("mcf"), 1);
    SmtCpu cpu(cfg, std::move(gens));
    cpu.run(8192);

    std::unique_ptr<ResourcePolicy> policy = makeLearner(name, kOracleSolo);
    EpochTracer tracer;
    EventTrace events;
    policy->setEpochTracer(&tracer);
    policy->setEventTrace(&events, 0);
    std::vector<std::uint64_t> before = counterValues();
    RunResult res = runPolicyOn(cpu, *policy, 14, kEpoch);
    if (name.find("HILL") != std::string::npos) {
        // Bootstrap (2 solo epochs) plus one periodic solo sample.
        int solo = 0;
        for (const EpochTraceRecord &rec : tracer.records())
            solo += rec.samplingThread >= 0 ? 1 : 0;
        EXPECT_GE(solo, 3) << name << ": no periodic solo sample ran";
    }
    return digest(res.report().toJson(), tracer, events, before);
}

std::uint64_t
openDigest(const std::string &name)
{
    SmtConfig machine;
    machine.numThreads = 4;
    OpenSystemConfig oc;
    oc.seed = 3;
    oc.arrivalRate = 1.0 / 6144.0;
    oc.numJobs = 8;
    oc.minJobInstructions = 3'000;
    oc.maxJobInstructions = 9'000;
    oc.epochSize = kEpoch;
    oc.horizon = 1'000'000;
    OpenSystem sys(machine, oc);

    std::unique_ptr<ResourcePolicy> policy = makeLearner(name, {});
    EpochTracer tracer;
    EventTrace events;
    policy->setEpochTracer(&tracer);
    std::vector<std::uint64_t> before = counterValues();
    OpenSystemResult res = sys.run(*policy, &events, 1);

    // Scenario coverage: real churn, and at least one full drain
    // (a detach that leaves the anchor holding no registers).
    int attaches = 0;
    bool drained = false;
    for (const SimEvent &e : events.events()) {
        if (e.name == "churn.attach")
            ++attaches;
        if (e.name != "churn.detach")
            continue;
        int total = 0;
        for (const Json &s : e.args.at("anchor").items())
            total += static_cast<int>(s.asInt());
        drained |= total == 0;
    }
    EXPECT_EQ(attaches, oc.numJobs) << name;
    EXPECT_TRUE(drained) << name << ": the machine never drained";
    EXPECT_EQ(res.completedJobs, oc.numJobs) << name;
    return digest(buildJobReport(res).toJson(), tracer, events, before);
}

struct Golden
{
    const char *learner;
    std::uint64_t closed;
    std::uint64_t open;
};

const Golden kGolden[] = {
    {"HILL-WIPC", 0x4228bfc935cea5ecull,
     0x7f2a8bb1e4ce3cd0ull},
    {"PHASE-HILL-WIPC", 0xb0ed13dba11246ebull,
     0x19f96050c9b8e655ull},
    {"BANDIT-UCB", 0x75c4c7eabbca14ddull,
     0x56691a3b3b809945ull},
    {"BANDIT-EXP3", 0xb683da5b41ef3cb6ull,
     0x6eb9d36b0198c5e1ull},
    {"RL-Q", 0x75722500176dd554ull,
     0x00b140d396c4084eull},
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

class LearnerGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(LearnerGolden, ClosedTwoThreadRunIsPinned)
{
    const Golden &g = GetParam();
    std::uint64_t d = closedDigest(g.learner);
    EXPECT_EQ(d, g.closed) << g.learner << " closed digest is " << hex(d);
}

TEST_P(LearnerGolden, OpenSystemChurnRunIsPinned)
{
    const Golden &g = GetParam();
    std::uint64_t d = openDigest(g.learner);
    EXPECT_EQ(d, g.open) << g.learner << " open digest is " << hex(d);
}

INSTANTIATE_TEST_SUITE_P(
    Learners, LearnerGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden> &param) {
        std::string n = param.param.learner;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
} // namespace smthill
