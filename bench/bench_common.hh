/**
 * @file
 * Helpers shared by the figure/table benches: standard baselines,
 * group-mean bookkeeping, and percent-gain reporting.
 */

#ifndef SMTHILL_BENCH_BENCH_COMMON_HH
#define SMTHILL_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/event_trace.hh"
#include "common/log.hh"
#include "common/profile.hh"
#include "harness/artifacts.hh"
#include "harness/runner.hh"

namespace smthill::benchutil
{

/** Mean-by-key accumulator (per workload group, per policy...). */
class GroupMeans
{
  public:
    void
    add(const std::string &key, double value)
    {
        auto &e = sums[key];
        e.first += value;
        e.second += 1;
    }

    double
    mean(const std::string &key) const
    {
        auto it = sums.find(key);
        if (it == sums.end() || it->second.second == 0)
            return 0.0;
        return it->second.first / it->second.second;
    }

  private:
    std::map<std::string, std::pair<double, int>> sums;
};

/** @return percent gain of a over b. */
inline double
pctGain(double a, double b)
{
    return b > 0.0 ? 100.0 * (a / b - 1.0) : 0.0;
}

/** Print a "X vs Y: +Z%" line. */
inline void
printGain(const char *what, double ours, double theirs)
{
    std::printf("  %-28s %+6.1f%%\n", what, pctGain(ours, theirs));
}

/** Solo-IPC window used consistently across benches. */
inline Cycle
soloWindow(const RunConfig &rc)
{
    return static_cast<Cycle>(rc.epochs) * rc.epochSize;
}

/**
 * A count-like bench knob: @p def when @p name is unset, else its
 * value, which must lie in [1, INT_MAX] (anything else is fatal and
 * names the variable, so it can never wrap into a different count).
 */
inline int
envPositiveInt(const char *name, int def)
{
    return static_cast<int>(envScale(
        name, static_cast<std::uint64_t>(def), 1,
        static_cast<std::uint64_t>(std::numeric_limits<int>::max())));
}

/**
 * The OFF-LINE partition stride (SMTHILL_OFFLINE_STRIDE): @p def when
 * unset, else a value in [1, half the int rename registers] (a wider
 * stride leaves no two-thread split to try). Anything else is fatal
 * and names the variable, before a solo reference is built.
 */
inline int
offlineStride(const RunConfig &rc, int def)
{
    return static_cast<int>(
        envScale("SMTHILL_OFFLINE_STRIDE", static_cast<std::uint64_t>(def),
                 1, static_cast<std::uint64_t>(rc.machine.intRegs / 2)));
}

/**
 * Grid concurrency for benches: SMTHILL_JOBS pins it (CI sets 1 for
 * byte-stable logs), otherwise all hardware threads are used.
 */
inline int
benchJobs()
{
    return envPositiveInt("SMTHILL_JOBS", ThreadPool::defaultJobs());
}

/**
 * Export destination for the machine-readable figure data
 * (SMTHILL_STATS_JSON); empty disables the export path entirely.
 */
inline std::string
statsJsonPath()
{
    const char *p = std::getenv("SMTHILL_STATS_JSON");
    return p && *p ? p : "";
}

/**
 * Opt-in cycle-level event-trace destination (SMTHILL_EVENT_TRACE);
 * empty disables tracing entirely.
 */
inline std::string
eventTracePath()
{
    const char *p = std::getenv("SMTHILL_EVENT_TRACE");
    return p && *p ? p : "";
}

/**
 * Opt-in periodic stat-snapshot destination (SMTHILL_SNAPSHOTS, a
 * `smthill.snapshots.v1` JSONL stream); empty disables sampling.
 */
inline std::string
snapshotsPath()
{
    const char *p = std::getenv("SMTHILL_SNAPSHOTS");
    return p && *p ? p : "";
}

/**
 * Host-profile report destination (SMTHILL_PROFILE_JSON). Only
 * consulted when profiling is on; empty falls back to a stdout
 * summary table.
 */
inline std::string
profileJsonPath()
{
    const char *p = std::getenv("SMTHILL_PROFILE_JSON");
    return p && *p ? p : "";
}

/**
 * Write @p trace to @p path (artifacts.hh: the extension picks the
 * form, and the host spans ride along when profiling is on) and say
 * so on stdout.
 */
inline void
exportEventTrace(EventTrace &trace, const std::string &path)
{
    const bool as_jsonl = writeEventTrace(trace, path);
    std::printf("wrote %s event trace to %s (%zu events, %llu "
                "dropped)\n",
                as_jsonl ? "JSONL" : "Perfetto", path.c_str(),
                trace.size(),
                static_cast<unsigned long long>(trace.dropped()));
}

/** Close @p snapshots and say how many rows went to SMTHILL_SNAPSHOTS. */
inline void
closeSnapshots(SnapshotSink &snapshots)
{
    if (!snapshots.enabled())
        return;
    const std::size_t rows = snapshots.close();
    std::printf("wrote %zu stat snapshots to %s\n", rows,
                snapshotsPath().c_str());
}

/** Fatal unless @p a and @p b are bit-identical doubles. */
inline void
checkExportValue(const char *what, double a, double b)
{
    if (a != b)
        fatal(msg("export self-check failed for ", what, ": ", a,
                  " != ", b));
}

} // namespace smthill::benchutil

#endif // SMTHILL_BENCH_BENCH_COMMON_HH
