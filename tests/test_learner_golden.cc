/**
 * @file
 * Golden learner outputs: every epoch learner (HILL-WIPC,
 * PHASE-HILL-WIPC, BANDIT-UCB, BANDIT-EXP3, RL-Q) runs two small
 * scenarios and the test pins two FNV-1a-64 digests over everything
 * the run exports:
 *  - outputs: the report JSON, the epoch-trace JSON, and the learner
 *    stat-counter deltas;
 *  - events: the `smthill.events.v1` document.
 * A refactor of the learner family must leave every digest unchanged;
 * the split tells an epoch-trace or report regression apart from an
 * intended change to the event stream.
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
#include <ostream>
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

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** The two digests of one run. */
struct Digests
{
    std::uint64_t outputs = 0; ///< report, epoch trace, counter deltas
    std::uint64_t events = 0;  ///< the events.v1 document
};

/**
 * Digests of one run's exports plus the counter deltas it caused; the
 * epoch trace is projected from process @p pid of the event trace.
 */
Digests
digest(const Json &report, const EventTrace &events, int pid,
       const std::vector<std::uint64_t> &before)
{
    Digests d;
    std::uint64_t h = kFnvBasis;
    h = fnv1a(h, report.dump());
    h = fnv1a(h, epochTraceToJson(epochRecords(events.events(), pid),
                                  kMetric)
                     .dump());
    std::vector<std::uint64_t> after = counterValues();
    for (std::size_t i = 0; i < after.size(); ++i)
        h = fnv1a(h, std::to_string(after[i] - before[i]) + ";");
    d.outputs = h;
    d.events = fnv1a(kFnvBasis, events.toPerfettoJson().dump());
    return d;
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

Digests
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
    EventTrace events;
    policy->setEventTrace(&events, 0);
    std::vector<std::uint64_t> before = counterValues();
    RunResult res = runPolicyOn(cpu, *policy, 14, kEpoch);
    if (name.find("HILL") != std::string::npos) {
        // Bootstrap (2 solo epochs) plus one periodic solo sample.
        int solo = 0;
        for (const EpochTraceRecord &rec :
             epochRecords(events.events(), 0))
            solo += rec.samplingThread >= 0 ? 1 : 0;
        EXPECT_GE(solo, 3) << name << ": no periodic solo sample ran";
    }
    return digest(res.report().toJson(), events, 0, before);
}

Digests
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
    EventTrace events;
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
    return digest(buildJobReport(res).toJson(), events, 1, before);
}

/** One learner's digests of one artifact family, per scenario. */
struct Golden
{
    const char *learner;
    std::uint64_t closed;
    std::uint64_t open;
};

/**
 * Print a Golden as its learner name. GoogleTest would otherwise dump
 * the struct's bytes, the name's address included, and ctest puts that
 * dump in the discovered test name, which then changes on every build.
 */
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.learner;
}

/**
 * Outputs digests (report, epoch trace, counter deltas). A change to
 * the learner family or to how epoch records are kept must leave
 * these unchanged.
 */
const Golden kOutputs[] = {
    {"HILL-WIPC", 0xc590147f6389761full,
     0x394b0be9752164cdull},
    {"PHASE-HILL-WIPC", 0xc590147f6389761full,
     0x394b0be9752164cdull},
    {"BANDIT-UCB", 0x11970d5bb60d4ddbull,
     0x2b3accfa90818edcull},
    {"BANDIT-EXP3", 0x914547ecff3123feull,
     0xa760549bffe156a0ull},
    {"RL-Q", 0x32495e35ba84f733ull,
     0xb309e9f2edc42418ull},
};

/** Events digests (the events.v1 document), in kOutputs' order. */
const Golden kEvents[] = {
    {"HILL-WIPC", 0xa7e3165d12c47440ull,
     0xcbb96c94392b4390ull},
    {"PHASE-HILL-WIPC", 0xf6f24d55720d2523ull,
     0x149e393d96085cf5ull},
    {"BANDIT-UCB", 0x0cd770ada25d10bdull,
     0x9913e65ea98f6754ull},
    {"BANDIT-EXP3", 0xcbe1b1956228b47cull,
     0xd13e5e7aebb79e57ull},
    {"RL-Q", 0xd2836bc576e1af73ull,
     0x311fffdfb75cf20full},
};

const Golden &
eventsGolden(const std::string &learner)
{
    for (const Golden &g : kEvents)
        if (learner == g.learner)
            return g;
    ADD_FAILURE() << "no events digests for " << learner;
    return kEvents[0];
}

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
    Digests d = closedDigest(g.learner);
    EXPECT_EQ(d.outputs, g.closed)
        << g.learner << " closed outputs digest is " << hex(d.outputs);
    EXPECT_EQ(d.events, eventsGolden(g.learner).closed)
        << g.learner << " closed events digest is " << hex(d.events);
}

TEST_P(LearnerGolden, OpenSystemChurnRunIsPinned)
{
    const Golden &g = GetParam();
    Digests d = openDigest(g.learner);
    EXPECT_EQ(d.outputs, g.open)
        << g.learner << " open outputs digest is " << hex(d.outputs);
    EXPECT_EQ(d.events, eventsGolden(g.learner).open)
        << g.learner << " open events digest is " << hex(d.events);
}

INSTANTIATE_TEST_SUITE_P(
    Learners, LearnerGolden, ::testing::ValuesIn(kOutputs),
    [](const ::testing::TestParamInfo<Golden> &param) {
        std::string n = param.param.learner;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
} // namespace smthill
