#include "core/metrics.hh"

namespace smthill
{

const char *
metricName(PerfMetric metric)
{
    switch (metric) {
      case PerfMetric::AvgIpc:
        return "IPC";
      case PerfMetric::WeightedIpc:
        return "WIPC";
      case PerfMetric::HarmonicWeightedIpc:
        return "HWIPC";
    }
    return "?";
}

IpcSample
committedIpc(const std::array<std::uint64_t, kMaxThreads> &before,
             const std::array<std::uint64_t, kMaxThreads> &after,
             int num_threads, Cycle cycles)
{
    IpcSample s;
    s.numThreads = num_threads;
    for (int i = 0; i < num_threads; ++i) {
        s.ipc[i] = static_cast<double>(after[i] - before[i]) /
                   static_cast<double>(cycles);
    }
    return s;
}

double
evalMetric(PerfMetric metric, const IpcSample &sample,
           const std::array<double, kMaxThreads> &single_ipc)
{
    int nt = sample.numThreads;
    if (nt <= 0)
        return 0.0;

    auto solo = [&](int i) {
        double s = single_ipc[i];
        return s > 0.0 ? s : 1.0;
    };

    switch (metric) {
      case PerfMetric::AvgIpc: {
        double sum = 0.0;
        for (int i = 0; i < nt; ++i)
            sum += sample.ipc[i];
        return sum;
      }
      case PerfMetric::WeightedIpc: {
        double sum = 0.0;
        for (int i = 0; i < nt; ++i)
            sum += sample.ipc[i] / solo(i);
        return sum / nt;
      }
      case PerfMetric::HarmonicWeightedIpc: {
        double denom = 0.0;
        for (int i = 0; i < nt; ++i) {
            double ipc = sample.ipc[i];
            if (ipc <= 0.0)
                return 0.0; // a starved thread zeroes the harmonic mean
            denom += solo(i) / ipc;
        }
        return static_cast<double>(nt) / denom;
      }
    }
    return 0.0;
}

double
evalMetricMasked(PerfMetric metric, const IpcSample &sample,
                 const std::array<double, kMaxThreads> &single_ipc,
                 const std::array<bool, kMaxThreads> &active)
{
    IpcSample compact;
    std::array<double, kMaxThreads> solo{};
    int j = 0;
    for (int i = 0; i < sample.numThreads; ++i) {
        if (!active[i])
            continue;
        compact.ipc[j] = sample.ipc[i];
        solo[j] = single_ipc[i];
        ++j;
    }
    compact.numThreads = j;
    return evalMetric(metric, compact, solo);
}

} // namespace smthill
