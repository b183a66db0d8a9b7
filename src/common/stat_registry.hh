/**
 * @file
 * Named-statistic registry: counters and gauges that any subsystem
 * can register and update cheaply on a hot path, with a
 * machine-readable JSON export.
 *
 * Design constraints, in order:
 *  - hot-path updates are a single relaxed atomic op (counters,
 *    gauges) — no locks, no lookups; callers hold a reference to the
 *    stat object obtained once at setup;
 *  - references returned by the registry are stable for the life of
 *    the registry (storage is a deque of nodes, never reallocated);
 *  - concurrent registration from pool workers is safe (mutex only on
 *    the registration path);
 *  - zero-cost when unused: nothing updates stats unless a subsystem
 *    was handed one, and reads never block writers.
 *
 * A process-wide registry (globalStats()) serves the long-lived
 * subsystems — thread pool, warm-machine/solo-IPC caches — while
 * per-run structures (an EventTrace, whose epoch slices also carry
 * the epoch records) own their own data.
 */

#ifndef SMTHILL_COMMON_STAT_REGISTRY_HH
#define SMTHILL_COMMON_STAT_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"

namespace smthill
{

/** Monotonic event count (cache hits, tasks executed, evictions). */
class StatCounter
{
  public:
    void add(std::uint64_t n) { val.fetch_add(n, std::memory_order_relaxed); }
    void inc() { add(1); }
    std::uint64_t value() const
    {
        return val.load(std::memory_order_relaxed);
    }
    void reset() { val.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> val{0};
};

/** Instantaneous level (queue depth, estimate state). */
class StatGauge
{
  public:
    void set(double v) { val.store(v, std::memory_order_relaxed); }
    double value() const { return val.load(std::memory_order_relaxed); }
    void reset() { val.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> val{0.0};
};

/**
 * The registry. Stats are created on first lookup and live as long as
 * the registry; a second lookup of the same name returns the same
 * object, so independent subsystems may share a stat by name.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Find-or-create; the reference stays valid forever. */
    StatCounter &counter(const std::string &name);
    StatGauge &gauge(const std::string &name);

    /**
     * Export every stat as one JSON object keyed by name:
     * counters as integers, gauges as doubles.
     */
    Json toJson() const;

    /** Registered names in registration order (tests, listings). */
    std::vector<std::string> names() const;

    // --- Typed enumeration (periodic snapshots) --------------------

    /** (name, value) of every counter, registration order. */
    std::vector<std::pair<std::string, std::uint64_t>>
    counterValues() const;

    /** (name, value) of every gauge, registration order. */
    std::vector<std::pair<std::string, double>> gaugeValues() const;

    /** Reset counters and gauges to zero. */
    void resetValues();

  private:
    enum class Kind
    {
        Counter,
        Gauge
    };

    struct Node
    {
        std::string name;
        Kind kind = Kind::Counter;
        StatCounter counter;
        StatGauge gauge;
    };

    Node &lookup(const std::string &name, Kind kind);

    mutable std::mutex mutex;
    std::deque<Node> nodes;               ///< stable storage
    std::map<std::string, Node *> index;
};

/** The process-wide registry (thread pool, warm caches, CLI export). */
StatRegistry &globalStats();

} // namespace smthill

#endif // SMTHILL_COMMON_STAT_REGISTRY_HH
