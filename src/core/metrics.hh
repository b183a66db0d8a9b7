/**
 * @file
 * The three SMT performance metrics of Section 3.1.1:
 * average IPC (throughput), average weighted IPC (execution-time
 * reduction), and harmonic mean of weighted IPC (throughput +
 * fairness). The weighted metrics normalize each thread's IPC by its
 * stand-alone (solo) IPC.
 */

#ifndef SMTHILL_CORE_METRICS_HH
#define SMTHILL_CORE_METRICS_HH

#include <array>
#include <cstdint>
#include <string>

#include "memory/hierarchy.hh" // kMaxThreads

namespace smthill
{

/** Which performance goal a learner optimizes / an evaluation uses. */
enum class PerfMetric
{
    AvgIpc,             ///< Equation 1: sum of per-thread IPCs
    WeightedIpc,        ///< Equation 2: mean of IPC_i / SingleIPC_i
    HarmonicWeightedIpc ///< Equation 3: T / sum(SingleIPC_i / IPC_i)
};

/** @return a printable name ("IPC", "WIPC", "HWIPC"). */
const char *metricName(PerfMetric metric);

/** Per-thread IPCs measured over one interval. */
struct IpcSample
{
    std::array<double, kMaxThreads> ipc{};
    int numThreads = 0;
};

/**
 * Per-thread IPC of one interval: each of the first @p num_threads
 * threads' committed instructions (@p after - @p before) over
 * @p cycles.
 */
IpcSample committedIpc(const std::array<std::uint64_t, kMaxThreads> &before,
                       const std::array<std::uint64_t, kMaxThreads> &after,
                       int num_threads, Cycle cycles);

/**
 * Evaluate @p metric for @p sample.
 * @param single_ipc per-thread stand-alone IPCs; entries <= 0 are
 *        treated as 1.0 (i.e., unnormalized) so learners can operate
 *        before their first SingleIPC sample arrives
 */
double evalMetric(PerfMetric metric, const IpcSample &sample,
                  const std::array<double, kMaxThreads> &single_ipc);

/**
 * Evaluate @p metric over the active subset of @p sample only
 * (open-system churn: idle hardware contexts hold no job). Inactive
 * entries are dropped before evaluation rather than contributing
 * zeros — a zero-IPC idle context would zero the harmonic mean and
 * dilute the weighted mean, which is exactly the bug this exists to
 * avoid. Equivalent to evalMetric on the compacted sample.
 */
double evalMetricMasked(PerfMetric metric, const IpcSample &sample,
                        const std::array<double, kMaxThreads> &single_ipc,
                        const std::array<bool, kMaxThreads> &active);

} // namespace smthill

#endif // SMTHILL_CORE_METRICS_HH
