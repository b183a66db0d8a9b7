/**
 * @file
 * Host-side hierarchical profiler (`smthill.profile.v1`): scoped
 * timers on a monotonic clock that answer "where do the real seconds
 * go" — the host-time complement of the sim-time observability stack
 * (epoch traces, `smthill.events.v1`, stat registry).
 *
 * Clock-domain contract, in order of importance:
 *  - host time NEVER flows into simulator state. No simulator
 *    component reads a span, a duration, or the clock; the profiler
 *    is write-only from the simulator's point of view, so sim outputs
 *    are bit-identical with profiling on or off, at any jobs count.
 *  - the clock itself lives only in profile.cc, behind the sanctioned
 *    `no-wall-clock` lint carve-out (the same shape as `exit` in
 *    common/log.cc). Everything in this header is clock-free.
 *  - disabled (the default) means no clock reads and no data: a scope
 *    costs one relaxed load and a predictable branch. Defining
 *    SMTHILL_PROFILER_DISABLED compiles scopes out entirely.
 *
 * Enabling: set the SMTHILL_PROFILE environment variable to ON/1
 * before launch, or call setProfilingEnabled(true) (tests, CLI).
 *
 * Collection model: each thread appends to its own span stack and
 * per-name aggregates (count/total/self/max, plus a bounded timeline
 * of completed span instances); report() merges the per-thread data.
 * Self time is total minus time spent in child spans, so a hierarchy
 * like offline.step_epoch > offline.trial_epoch > cpu.run attributes
 * every nanosecond exactly once.
 */

#ifndef SMTHILL_COMMON_PROFILE_HH
#define SMTHILL_COMMON_PROFILE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace smthill
{

class EventTrace;

namespace prof
{

/** Aggregated statistics of one span name (one thread or merged). */
struct SpanStats
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0; ///< wall duration summed over instances
    std::uint64_t selfNs = 0;  ///< totalNs minus time in child spans
    std::uint64_t maxNs = 0;   ///< longest single instance

    bool operator==(const SpanStats &) const = default;
};

/** Spans collected by one thread (index in first-use order). */
struct ThreadSpans
{
    int thread = 0;
    std::vector<SpanStats> spans; ///< name-sorted

    bool operator==(const ThreadSpans &) const = default;
};

/** Merged profiling report (the `smthill.profile.v1` document). */
struct ProfileReport
{
    std::vector<SpanStats> spans;     ///< merged across threads
    std::vector<ThreadSpans> threads; ///< per-thread breakdown

    /**
     * Measured pool-worker utilization: busy / (busy + idle) over the
     * kWorkerBusySpan/kWorkerIdleSpan totals of all pool workers, or
     * -1 when no pool worker recorded anything. Unlike the derived
     * `parallel_efficiency` in bench_sim_speed (real-time ratio of a
     * jobs=1 run), this is measured directly from worker timelines.
     */
    double parallelEfficiency = -1.0;

    bool operator==(const ProfileReport &) const = default;
};

/** Span names the thread pool records for every worker. */
inline constexpr const char *kWorkerBusySpan = "pool.worker.busy";
inline constexpr const char *kWorkerIdleSpan = "pool.worker.idle";

/** Perfetto process id for the injected host-clock track. */
inline constexpr int kHostProfilePid = 2000;

/** @return whether scopes currently collect (env or setter). */
bool profilingEnabled();

/** Toggle collection at runtime (tests, CLI `profile=1`). */
void setProfilingEnabled(bool on);

/** Drop all collected spans and timelines on every thread. */
void resetProfile();

/** Merge every thread's aggregates into one report. */
ProfileReport profileReport();

/** Serialize @p report as a `smthill.profile.v1` document. */
Json profileToJson(const ProfileReport &report);

/** @return false with @p error set unless @p doc is a valid v1 doc. */
bool profileFromJson(const Json &doc, ProfileReport &out,
                     std::string &error);

/**
 * Inject the collected span timeline into @p trace as complete
 * events under process @p pid: a second, host-nanosecond clock track
 * rendered alongside the sim-cycle tracks. Timestamps are rebased so
 * the earliest span starts at 0; the two clock domains share a
 * viewer, not a clock.
 */
void appendHostSpans(EventTrace &trace, int pid = kHostProfilePid);

namespace detail
{

extern std::atomic<bool> gProfilingEnabled;

/** Push a frame for @p name on the calling thread (reads the clock). */
void beginSpan(const char *name);

/** Pop the top frame and fold it into the thread's aggregates. */
void endSpan();

} // namespace detail

/**
 * RAII span. Construct via SMTHILL_PROF_SCOPE: the enabled check is
 * latched at entry, so a scope that began collecting always completes
 * even if profiling is toggled off mid-span.
 */
class Scope
{
  public:
    explicit Scope(const char *name)
    {
        if (detail::gProfilingEnabled.load(std::memory_order_relaxed)) {
            active = true;
            detail::beginSpan(name);
        }
    }
    ~Scope()
    {
        if (active)
            detail::endSpan();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    bool active = false;
};

} // namespace prof
} // namespace smthill

#define SMTHILL_PROF_CONCAT2(a, b) a##b
#define SMTHILL_PROF_CONCAT(a, b) SMTHILL_PROF_CONCAT2(a, b)

#ifdef SMTHILL_PROFILER_DISABLED
#define SMTHILL_PROF_SCOPE(name) static_cast<void>(0)
#else
/** Time the enclosing block as one instance of span @p name. */
#define SMTHILL_PROF_SCOPE(name)                                     \
    ::smthill::prof::Scope SMTHILL_PROF_CONCAT(smthill_prof_scope_,  \
                                               __LINE__)(name)
#endif

#endif // SMTHILL_COMMON_PROFILE_HH
