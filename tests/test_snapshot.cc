/**
 * @file
 * Unit tests for periodic stat snapshots: delta-row semantics of
 * StatSnapshotter, the streaming JSONL sink, and exact JSONL
 * round-trips.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/stat_registry.hh"
#include "common/stat_snapshot.hh"

namespace smthill
{
namespace
{

TEST(Snapshot, CounterRowsAreDeltas)
{
    StatRegistry reg;
    StatCounter &hits = reg.counter("smthill.test.hits");
    StatCounter &misses = reg.counter("smthill.test.misses");
    StatSnapshotter snap(reg);

    hits.add(10);
    misses.add(3);
    Json r0 = snap.sample(0, 1000);
    EXPECT_EQ(r0.at("seq").asDouble(), 0.0);
    EXPECT_EQ(r0.at("epoch").asDouble(), 0.0);
    EXPECT_EQ(r0.at("cycle").asDouble(), 1000.0);
    EXPECT_EQ(r0.at("counters").at("smthill.test.hits").asDouble(),
              10.0);
    EXPECT_EQ(r0.at("counters").at("smthill.test.misses").asDouble(),
              3.0);

    // Only movement shows up: misses is flat, so its key vanishes.
    hits.add(7);
    Json r1 = snap.sample(1, 2000);
    EXPECT_EQ(r1.at("seq").asDouble(), 1.0);
    EXPECT_EQ(r1.at("counters").at("smthill.test.hits").asDouble(), 7.0);
    EXPECT_FALSE(r1.at("counters").contains("smthill.test.misses"));

    // A reset between samples re-baselines instead of underflowing.
    reg.resetValues();
    hits.add(2);
    Json r2 = snap.sample(2, 3000);
    EXPECT_EQ(r2.at("counters").at("smthill.test.hits").asDouble(), 2.0);
}

TEST(Snapshot, GaugesAreLevels)
{
    StatRegistry reg;
    StatGauge &depth = reg.gauge("smthill.test.depth");
    StatSnapshotter snap(reg);

    depth.set(4.0);
    Json r0 = snap.sample(0, 0);
    EXPECT_EQ(r0.at("gauges").at("smthill.test.depth").asDouble(), 4.0);

    depth.set(1.5);
    Json r1 = snap.sample(1, 0);
    EXPECT_EQ(r1.at("gauges").at("smthill.test.depth").asDouble(), 1.5);
    EXPECT_EQ(r1.size(), 5u) << "a row is {seq, epoch, cycle, counters, "
                                "gauges}";
}

TEST(Snapshot, StreamingSinkMatchesToJsonl)
{
    StatRegistry reg;
    StatCounter &c = reg.counter("smthill.test.ticks");
    StatSnapshotter snap(reg);

    std::ostringstream stream;
    snap.streamTo(&stream);
    c.add(5);
    snap.sample(0, 100);
    c.add(5);
    snap.sample(1, 200);
    snap.streamTo(nullptr);

    // The streamed bytes are exactly the batch serialization: a
    // killed run's partial file is a prefix of the full series.
    EXPECT_EQ(stream.str(), snap.toJsonl());
    EXPECT_EQ(snap.rows().size(), 2u);
}

TEST(Snapshot, JsonlRoundTripIsExact)
{
    StatRegistry reg;
    StatCounter &c = reg.counter("smthill.test.work");
    StatGauge &g = reg.gauge("smthill.test.level");
    StatSnapshotter snap(reg);
    for (int e = 0; e < 4; ++e) {
        c.add(static_cast<std::uint64_t>(e) * 3 + 1);
        g.set(0.25 * e);
        snap.sample(static_cast<std::uint64_t>(e),
                    static_cast<std::uint64_t>(e) * 8192);
    }

    const std::string text = snap.toJsonl();
    std::vector<Json> rows;
    std::string error;
    ASSERT_TRUE(StatSnapshotter::fromJsonlText(text, rows, error))
        << error;
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(StatSnapshotter::rowsToJsonl(rows), text);
}

TEST(Snapshot, FromJsonlRejectsBadStreams)
{
    std::vector<Json> rows;
    std::string error;

    EXPECT_FALSE(StatSnapshotter::fromJsonlText("", rows, error));
    EXPECT_FALSE(error.empty());

    EXPECT_FALSE(StatSnapshotter::fromJsonlText(
        "{\"schema\":\"smthill.events.v1\"}\n", rows, error));

    // Header fine, row missing required fields.
    std::string text = StatSnapshotter::headerLine() + "\n" +
                       "{\"seq\":0,\"epoch\":0}\n";
    EXPECT_FALSE(StatSnapshotter::fromJsonlText(text, rows, error));
    EXPECT_NE(error.find("line 2"), std::string::npos);

    // Unparsable JSON line is reported with its line number.
    text = StatSnapshotter::headerLine() + "\n{not json\n";
    EXPECT_FALSE(StatSnapshotter::fromJsonlText(text, rows, error));
    EXPECT_NE(error.find("line 2"), std::string::npos);
}

} // namespace
} // namespace smthill
