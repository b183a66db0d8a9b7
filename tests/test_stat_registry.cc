/**
 * @file
 * Unit tests for the named-statistic registry: find-or-create
 * semantics, reference stability, JSON export, and concurrent
 * updates from pool-like worker threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/stat_registry.hh"
#include "common/thread_pool.hh"

namespace smthill
{
namespace
{

TEST(StatRegistry, CounterFindOrCreate)
{
    StatRegistry reg;
    StatCounter &a = reg.counter("hits");
    StatCounter &b = reg.counter("hits");
    EXPECT_EQ(&a, &b) << "same name must yield the same object";
    a.inc();
    b.add(4);
    EXPECT_EQ(a.value(), 5u);
}

TEST(StatRegistry, NamesInRegistrationOrder)
{
    StatRegistry reg;
    reg.counter("c1");
    reg.gauge("g1");
    reg.counter("c0");
    reg.counter("c1"); // lookup, not a new registration
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "c1");
    EXPECT_EQ(names[1], "g1");
    EXPECT_EQ(names[2], "c0");
}

TEST(StatRegistry, KindMismatchDies)
{
    StatRegistry reg;
    reg.counter("x");
    EXPECT_DEATH(reg.gauge("x"), "x");
}

TEST(StatRegistry, ToJsonExportsEveryKind)
{
    StatRegistry reg;
    reg.counter("hits").add(7);
    StatGauge &depth = reg.gauge("depth");
    depth.set(7.5);
    depth.set(2.25); // a gauge is a level: set overwrites

    Json j = reg.toJson();
    EXPECT_EQ(j.size(), 2u);
    EXPECT_EQ(j.at("hits").asInt(), 7);
    EXPECT_DOUBLE_EQ(j.at("depth").asDouble(), 2.25);

    // The export round-trips through the parser.
    Json back;
    std::string error;
    ASSERT_TRUE(Json::parse(j.dump(2), back, error)) << error;
    EXPECT_TRUE(back == j);
}

TEST(StatRegistry, ResetValuesKeepsRegistrations)
{
    StatRegistry reg;
    StatCounter &c = reg.counter("c");
    c.add(5);
    reg.gauge("g").set(1.0);
    reg.resetValues();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
    EXPECT_EQ(reg.names().size(), 2u);
}

TEST(StatRegistry, ConcurrentCountsAreExact)
{
    StatRegistry reg;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            // Registration races with other workers on purpose; every
            // thread must land on the same counter object.
            StatCounter &c = reg.counter("shared");
            for (int i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(reg.counter("shared").value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(StatRegistry, GlobalRegistryIsSingleton)
{
    EXPECT_EQ(&globalStats(), &globalStats());
}

TEST(StatRegistry, ThreadPoolRegistersItsStats)
{
    // The pool wires itself into globalStats(); tasks executed there
    // are visible in the export.
    std::uint64_t before = globalStats().counter("smthill.thread_pool.tasks")
                               .value();
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.parallelFor(16, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 16);
    EXPECT_GE(globalStats().counter("smthill.thread_pool.tasks").value(),
              before);
}

} // namespace
} // namespace smthill
