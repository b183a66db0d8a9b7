/**
 * @file
 * Unit tests for the three performance metrics of Section 3.1.1.
 */

#include <gtest/gtest.h>

#include "core/metrics.hh"

namespace smthill
{
namespace
{

IpcSample
sample2(double a, double b)
{
    IpcSample s;
    s.numThreads = 2;
    s.ipc = {a, b};
    return s;
}

std::array<double, kMaxThreads>
solo2(double a, double b)
{
    std::array<double, kMaxThreads> s{};
    s[0] = a;
    s[1] = b;
    return s;
}

TEST(Metrics, AvgIpcIsThroughput)
{
    EXPECT_DOUBLE_EQ(evalMetric(PerfMetric::AvgIpc, sample2(1.5, 0.5), {}),
                     2.0);
}

TEST(Metrics, AvgIpcIgnoresSoloIpcs)
{
    EXPECT_DOUBLE_EQ(evalMetric(PerfMetric::AvgIpc, sample2(1.0, 1.0),
                                solo2(4.0, 0.25)),
                     2.0);
}

TEST(Metrics, WeightedIpcNormalizesBySolo)
{
    // Each thread at half its solo speed -> weighted IPC 0.5.
    double w = evalMetric(PerfMetric::WeightedIpc, sample2(2.0, 0.1),
                          solo2(4.0, 0.2));
    EXPECT_DOUBLE_EQ(w, 0.5);
}

TEST(Metrics, WeightedIpcEqualWeightPerThread)
{
    // A fast thread cannot dominate: both threads contribute their
    // ratio equally.
    double w = evalMetric(PerfMetric::WeightedIpc, sample2(4.0, 0.0),
                          solo2(4.0, 0.2));
    EXPECT_DOUBLE_EQ(w, 0.5);
}

TEST(Metrics, HarmonicPenalizesImbalance)
{
    // Balanced ratios: harmonic == weighted.
    double bal = evalMetric(PerfMetric::HarmonicWeightedIpc,
                            sample2(2.0, 0.1), solo2(4.0, 0.2));
    EXPECT_DOUBLE_EQ(bal, 0.5);
    // Unbalanced ratios with the same weighted mean score lower.
    double unbal = evalMetric(PerfMetric::HarmonicWeightedIpc,
                              sample2(3.6, 0.02), solo2(4.0, 0.2));
    double w_unbal = evalMetric(PerfMetric::WeightedIpc,
                                sample2(3.6, 0.02), solo2(4.0, 0.2));
    EXPECT_DOUBLE_EQ(w_unbal, 0.5);
    EXPECT_LT(unbal, bal);
}

TEST(Metrics, HarmonicZeroIpcIsZero)
{
    EXPECT_DOUBLE_EQ(evalMetric(PerfMetric::HarmonicWeightedIpc,
                                sample2(1.0, 0.0), solo2(1.0, 1.0)),
                     0.0);
}

TEST(Metrics, UnknownSoloDefaultsToOne)
{
    // Solo IPCs <= 0 are treated as 1 so learning can proceed before
    // the first SingleIPC sample.
    double w = evalMetric(PerfMetric::WeightedIpc, sample2(0.6, 0.4),
                          solo2(0.0, -1.0));
    EXPECT_DOUBLE_EQ(w, 0.5);
}

TEST(Metrics, EmptySampleIsZero)
{
    IpcSample s;
    const std::array<double, kMaxThreads> solo{};
    EXPECT_DOUBLE_EQ(evalMetric(PerfMetric::AvgIpc, s, solo), 0.0);
    EXPECT_DOUBLE_EQ(evalMetric(PerfMetric::WeightedIpc, s, solo), 0.0);
}

TEST(Metrics, Names)
{
    EXPECT_STREQ(metricName(PerfMetric::AvgIpc), "IPC");
    EXPECT_STREQ(metricName(PerfMetric::WeightedIpc), "WIPC");
    EXPECT_STREQ(metricName(PerfMetric::HarmonicWeightedIpc), "HWIPC");
}

TEST(Metrics, FourThreadWeighted)
{
    IpcSample s;
    s.numThreads = 4;
    s.ipc = {1.0, 1.0, 0.5, 0.25};
    std::array<double, kMaxThreads> solo{};
    solo[0] = 2.0;
    solo[1] = 1.0;
    solo[2] = 1.0;
    solo[3] = 0.5;
    // Ratios: 0.5, 1.0, 0.5, 0.5 -> mean 0.625.
    EXPECT_DOUBLE_EQ(evalMetric(PerfMetric::WeightedIpc, s, solo), 0.625);
}

/**
 * Property sweep: for any positive sample, the harmonic mean of
 * weighted IPC never exceeds the (arithmetic) weighted IPC.
 */
class MetricOrderingTest
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(MetricOrderingTest, HarmonicLeqArithmetic)
{
    auto [a, b] = GetParam();
    IpcSample s = sample2(a, b);
    auto solo = solo2(3.0, 0.4);
    double arith = evalMetric(PerfMetric::WeightedIpc, s, solo);
    double harm = evalMetric(PerfMetric::HarmonicWeightedIpc, s, solo);
    EXPECT_LE(harm, arith + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetricOrderingTest,
    ::testing::Combine(::testing::Values(0.1, 0.5, 1.0, 2.0, 3.0),
                       ::testing::Values(0.05, 0.2, 0.4, 0.8)));

// --- Masked evaluation under open-system churn (PR 7) ---------------

/**
 * Regression: in an open system an idle context reads IPC 0 for the
 * whole epoch. Before masking, that zero fed straight into the
 * metrics — the harmonic mean collapsed to 0 and the averages were
 * diluted by contexts that held no job — so the learner compared
 * every trial against a floor and the gradient signal vanished.
 */
TEST(MaskedMetrics, IdleContextDoesNotZeroHarmonicMean)
{
    IpcSample s;
    s.numThreads = 3;
    s.ipc = {1.2, 0.0, 0.6}; // context 1 idle
    auto solo = solo2(2.4, 1.2);
    solo[2] = 1.2;
    std::array<bool, kMaxThreads> active{};
    active[0] = active[2] = true;

    double unmasked =
        evalMetric(PerfMetric::HarmonicWeightedIpc, s, solo);
    EXPECT_DOUBLE_EQ(unmasked, 0.0) << "zero IPC poisons the mean";

    double masked =
        evalMetricMasked(PerfMetric::HarmonicWeightedIpc, s, solo,
                         active);
    EXPECT_DOUBLE_EQ(masked, 0.5)
        << "both resident jobs run at half their solo speed";
}

TEST(MaskedMetrics, IdleContextDoesNotDiluteAverages)
{
    IpcSample s;
    s.numThreads = 4;
    s.ipc = {1.0, 0.0, 0.0, 1.0}; // only contexts 0 and 3 resident
    auto solo = solo2(2.0, 2.0);
    solo[2] = 2.0;
    solo[3] = 2.0;
    std::array<bool, kMaxThreads> active{};
    active[0] = active[3] = true;

    EXPECT_DOUBLE_EQ(evalMetricMasked(PerfMetric::AvgIpc, s, solo,
                                      active),
                     2.0);
    EXPECT_DOUBLE_EQ(evalMetricMasked(PerfMetric::WeightedIpc, s, solo,
                                      active),
                     0.5);
}

TEST(MaskedMetrics, FullMaskMatchesUnmaskedEvaluation)
{
    // Closed system (every context active): the masked evaluator must
    // be bit-identical to the legacy one for all three metrics.
    IpcSample s = sample2(1.5, 0.5);
    auto solo = solo2(3.0, 0.4);
    std::array<bool, kMaxThreads> active{};
    active[0] = active[1] = true;
    for (PerfMetric m :
         {PerfMetric::AvgIpc, PerfMetric::WeightedIpc,
          PerfMetric::HarmonicWeightedIpc}) {
        EXPECT_EQ(evalMetricMasked(m, s, solo, active),
                  evalMetric(m, s, solo));
    }
}

TEST(MaskedMetrics, EmptyMaskEvaluatesToZero)
{
    IpcSample s = sample2(1.5, 0.5);
    auto solo = solo2(3.0, 0.4);
    std::array<bool, kMaxThreads> active{};
    EXPECT_DOUBLE_EQ(evalMetricMasked(PerfMetric::AvgIpc, s, solo,
                                      active),
                     0.0);
}

} // namespace
} // namespace smthill
