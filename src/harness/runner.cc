#include "harness/runner.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "common/log.hh"
#include "common/profile.hh"
#include "common/stat_registry.hh"
#include "trace/spec_profiles.hh"

namespace smthill
{

namespace
{

/**
 * Warm-machine cache key: every field that shapes the warmed state.
 * Keying on the whole SmtConfig (not a hand-picked subset) means no
 * future machine knob can silently alias two different machines.
 */
struct MachineKey
{
    std::string workload;
    std::uint64_t seedSalt;
    Cycle warmupCycles;
    SmtConfig machine;

    auto operator<=>(const MachineKey &) const = default;
};

/**
 * Cache slot whose value is built exactly once, outside the cache
 * lock, so concurrent grid cells warming *different* machines never
 * serialize behind each other.
 */
template <typename V>
struct OnceSlot
{
    std::once_flag once;
    std::optional<V> value;
};

/**
 * Mutex-guarded, size-bounded, build-once cache. Eviction is FIFO by
 * insertion; an evicted slot still being warmed stays alive through
 * its shared_ptr, so readers are never invalidated.
 */
template <typename K, typename V>
class WarmCache
{
  public:
    /**
     * @param name stat prefix; hit/miss/eviction counters register as
     *        "<name>.hits" etc. in globalStats()
     */
    WarmCache(std::size_t max_entries, const std::string &name)
        : maxEntries(max_entries),
          hitsStat(globalStats().counter(name + ".hits")),
          missesStat(globalStats().counter(name + ".misses")),
          evictionsStat(globalStats().counter(name + ".evictions"))
    {
    }

    template <typename Build>
    V
    get(const K &key, Build &&build)
    {
        std::shared_ptr<OnceSlot<V>> slot;
        {
            std::lock_guard<std::mutex> lock(mutex);
            auto it = entries.find(key);
            if (it == entries.end()) {
                while (entries.size() >= maxEntries && !order.empty()) {
                    entries.erase(order.front());
                    order.pop_front();
                    evictionsStat.inc();
                }
                slot = std::make_shared<OnceSlot<V>>();
                entries.emplace(key, slot);
                order.push_back(key);
                missesStat.inc();
            } else {
                slot = it->second;
                hitsStat.inc();
            }
        }
        std::call_once(slot->once,
                       [&] { slot->value.emplace(build()); });
        return *slot->value;
    }

  private:
    std::size_t maxEntries;
    std::mutex mutex;
    std::map<K, std::shared_ptr<OnceSlot<V>>> entries;
    std::deque<K> order;
    StatCounter &hitsStat;
    StatCounter &missesStat;
    StatCounter &evictionsStat;
};

} // namespace

SmtCpu
makeCpu(const Workload &workload, const RunConfig &config)
{
    // Warming a machine costs millions of cycles; benches build the
    // same warm machine for every policy, so cache it by value and
    // hand out copies. Bounded: a long-lived process sweeping many
    // machine configurations must not hold every warm machine alive.
    static WarmCache<MachineKey, SmtCpu> cache(
        64, "smthill.warm_cache.machine");
    MachineKey key{workload.name, config.seedSalt, config.warmupCycles,
                   config.machine};
    return cache.get(key, [&] {
        SMTHILL_PROF_SCOPE("harness.warm_build");
        SmtConfig machine = config.machine;
        machine.numThreads = workload.numThreads();
        SmtCpu cpu(machine, workload.makeGenerators(config.seedSalt));
        cpu.run(config.warmupCycles);
        return cpu;
    });
}

IpcSample
runOneEpoch(SmtCpu &cpu, ResourcePolicy &policy, Cycle epoch_size)
{
    SMTHILL_PROF_SCOPE("runner.epoch");
    auto before = cpu.stats().committed;
    if (policy.perCycle()) {
        for (Cycle c = 0; c < epoch_size; ++c) {
            policy.cycle(cpu);
            cpu.step();
        }
    } else {
        cpu.run(epoch_size);
    }
    return committedIpc(before, cpu.stats().committed, cpu.numThreads(),
                        epoch_size);
}

RunResult
runPolicyOn(SmtCpu cpu, ResourcePolicy &policy, int epochs,
            Cycle epoch_size, const EpochObserver &on_epoch)
{
    SMTHILL_PROF_SCOPE("runner.policy_run");
    RunResult res;
    res.epochs.reserve(epochs);
    // The machine arrived by value, so any event-trace link its
    // source carried was dropped in the copy; mirror the policy's
    // link onto the machine this run will actually execute on.
    if (policy.eventTrace())
        cpu.setEventTrace(policy.eventTrace(), policy.eventTracePid());
    policy.attach(cpu);

    res.startSnapshot = MachineSnapshot::capture(cpu);
    auto start_committed = cpu.stats().committed;
    Cycle start_cycle = cpu.now();

    for (int e = 0; e < epochs; ++e) {
        EpochRecord rec;
        rec.partitioned = cpu.partitioningEnabled();
        if (rec.partitioned)
            rec.partition = cpu.partition();
        rec.ipc = runOneEpoch(cpu, policy, epoch_size);
        res.epochs.push_back(rec);
        policy.epoch(cpu, static_cast<std::uint64_t>(e));
        if (on_epoch)
            on_epoch(e, cpu);
    }

    res.overallIpc = committedIpc(start_committed, cpu.stats().committed,
                                  cpu.numThreads(),
                                  cpu.now() - start_cycle);
    res.stats = cpu.stats();
    res.finalSnapshot = MachineSnapshot::capture(cpu);
    return res;
}

RunResult
runPolicy(const Workload &workload, ResourcePolicy &policy,
          const RunConfig &config)
{
    return runPolicyOn(makeCpu(workload, config), policy, config.epochs,
                       config.epochSize);
}

double
soloIpc(const std::string &benchmark, const RunConfig &config,
        Cycle cycles)
{
    // Process-wide cache: solo IPCs are reused across dozens of
    // workloads and policies within one bench binary. Keyed on the
    // whole machine configuration (the old string key ignored machine
    // overrides, so ablation sweeps could read stale values).
    struct SoloKey
    {
        std::string benchmark;
        Cycle cycles;
        std::uint64_t seedSalt;
        Cycle warmupCycles;
        SmtConfig machine;

        auto operator<=>(const SoloKey &) const = default;
    };
    if (cycles == 0)
        fatal(msg("soloIpc: ", benchmark,
                  ": the solo window must be at least one cycle"));
    static WarmCache<SoloKey, double> cache(
        1024, "smthill.warm_cache.solo_ipc");
    SoloKey key{benchmark, cycles, config.seedSalt, config.warmupCycles,
                config.machine};
    key.machine.numThreads = 1; // solo runs always use one context
    return cache.get(key, [&] {
        SMTHILL_PROF_SCOPE("harness.solo_build");
        SmtConfig machine = config.machine;
        machine.numThreads = 1;
        std::vector<StreamGenerator> gens;
        gens.emplace_back(specProfile(benchmark), config.seedSalt * 131);
        SmtCpu cpu(machine, std::move(gens));
        cpu.run(config.warmupCycles);
        std::uint64_t before = cpu.stats().committed[0];
        cpu.run(cycles);
        return static_cast<double>(cpu.stats().committed[0] - before) /
               static_cast<double>(cycles);
    });
}

std::array<double, kMaxThreads>
soloIpcs(const Workload &workload, const RunConfig &config, Cycle cycles)
{
    // One build per thread, each into its own slot; the cache makes
    // a benchmark named twice build once, whichever lane gets there
    // first, so hit/miss counts match the serial loop. One lane, or a
    // call from inside a pool task, runs inline in thread order.
    std::array<double, kMaxThreads> out{};
    runGrid(static_cast<std::size_t>(workload.numThreads()), config.jobs,
            [&](std::size_t i) {
                out[i] = soloIpc(workload.benchmarks[i], config, cycles);
            });
    return out;
}

void
runGrid(std::size_t cells, int jobs,
        const std::function<void(std::size_t)> &cell)
{
    runGridWorker(cells, jobs,
                  [&cell](std::size_t i, int) { cell(i); });
}

void
runGridWorker(std::size_t cells, int jobs,
              const std::function<void(std::size_t, int)> &cell)
{
    // A pool starts all its threads up front, so a lane beyond the
    // cell count would only idle.
    const std::size_t lanes =
        std::min(static_cast<std::size_t>(jobs < 1 ? 1 : jobs), cells);
    ThreadPool pool(static_cast<int>(lanes));
    pool.parallelForWorker(cells, cell);
}

std::uint64_t
envScale(const char *name, std::uint64_t def, std::uint64_t min_value,
         std::uint64_t max_value)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    // Decimal digits only: strtoull alone would read "64k" as 64 and
    // "-1" as 2^64 - 1.
    for (const char *p = v; *p; ++p) {
        if (*p < '0' || *p > '9')
            fatal(msg(name, "='", v, "' is not a non-negative integer"));
    }
    errno = 0;
    const unsigned long long parsed = std::strtoull(v, nullptr, 10);
    if (parsed < min_value)
        fatal(msg(name, "='", v, "' must be at least ", min_value));
    if (errno == ERANGE || parsed > max_value)
        fatal(msg(name, "='", v, "' must be at most ", max_value));
    return parsed;
}

RunConfig
benchRunConfig(int default_epochs)
{
    RunConfig rc;
    constexpr auto kIntMax =
        static_cast<std::uint64_t>(std::numeric_limits<int>::max());
    // Epochs and epoch size also size the solo window, so 0 would
    // make every solo IPC 0/0.
    rc.epochs = static_cast<int>(envScale(
        "SMTHILL_EPOCHS", static_cast<std::uint64_t>(default_epochs), 1,
        kIntMax));
    rc.epochSize = envScale("SMTHILL_EPOCH_SIZE", rc.epochSize, 1);
    rc.seedSalt = envScale("SMTHILL_SEED", 0);
    rc.warmupCycles = envScale("SMTHILL_WARMUP", rc.warmupCycles);
    rc.jobs = static_cast<int>(envScale(
        "SMTHILL_JOBS", static_cast<std::uint64_t>(rc.jobs), 1, kIntMax));
    return rc;
}

} // namespace smthill
