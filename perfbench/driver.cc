/**
 * @file
 * perfbench driver: one repetition of one benchmark workload, in a
 * fresh process so that the process-wide warm-machine and solo-IPC
 * caches start empty and every repetition really pays for its setup.
 *
 * Usage:
 *   perfbench_driver <workload> <seed> <traced 0|1> <run_id> <out_dir>
 *
 * Workloads (see perfbench/README.md for why each was chosen):
 *   cli_hill_mem2  what `smthill_cli workload=art-mcf policy=hill-wipc
 *                  jobs=1` does, plus the report and events.v1 export
 *   offline_ilp2   the Fig 4 OFF-LINE exhaustive learner on fma3d-gcc,
 *                  stride 16, jobs=2
 *   open_churn4    the open system on 4 contexts, mean arrival gap 4096
 *                  cycles, HILL then DCRA then RL-Q on one cold
 *                  checkpoint
 *
 * The last stdout line is one JSON record: host timings, simulated
 * results, a fingerprint of the simulated results, the outcome of
 * every output check and, when traced, per-layer samples. run.py
 * turns many such records into the benchmark's metrics.
 *
 * Untraced repetitions run the workload exactly as a user would.
 * Traced repetitions turn on the host profiler, add spans around the
 * calls into each layer from this file, wrap the policy in a
 * MeasuredPolicy that samples the per-cycle driver loop, and after
 * the timed part run small probes of the memory, branch and trace
 * components on the workload's own profiles and seeds. They write
 * the span timeline as Perfetto JSON to <out_dir>.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "branch/predictors.hh"
#include "common/event_trace.hh"
#include "common/json.hh"
#include "common/profile.hh"
#include "common/stat_registry.hh"
#include "core/hill_climbing.hh"
#include "core/machine_arena.hh"
#include "core/offline_exhaustive.hh"
#include "core/partitioning.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "memory/cache.hh"
#include "policy/dcra.hh"
#include "policy/rl_alloc.hh"
#include "trace/spec_profiles.hh"
#include "trace/stream_generator.hh"
#include "validate/invariants.hh"
#include "workload/open_system.hh"
#include "workload/workloads.hh"

using namespace smthill;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** User plus system CPU seconds of this process, all threads. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/**
 * Peak resident set of this process image in MB: VmHWM, which exec
 * resets, unlike getrusage's ru_maxrss, which keeps the launching
 * process's peak across the fork+exec that started this one.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

/** Per-layer timing samples of a traced repetition, by metric name. */
using Samples = std::map<std::string, std::vector<double>>;

/** Everything one repetition reports; serialised by toJson(). */
struct Rep
{
    std::string workload;
    std::uint64_t seed = 0;
    bool traced = false;
    int runId = 0;
    std::string outDir;

    Clock::time_point start = Clock::now();
    double setupS = 0, runS = 0, totalS = 0;
    double setupCpuS = 0, runCpuS = 0, cpuS = 0;

    std::uint64_t simCycles = 0;    ///< every cycle simulated
    std::uint64_t runCommitted = 0; ///< committed by the measured run
    Json sim = Json::object();      ///< other simulated results (exact)
    Json layer = Json::object();    ///< per-layer scalars
    Samples samples;             ///< per-layer timings (traced only)
    std::string fingerprint;
    Json checks = Json::object();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Record one output check; a failed check is a failed operation. */
    void
    check(const std::string &name, bool ok)
    {
        checks.set(name, Json(ok));
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         name.c_str());
        }
    }

    Json
    toJson() const
    {
        Json j = Json::object();
        j.set("workload", Json(workload));
        j.set("seed", Json(seed));
        j.set("traced", Json(traced));
        j.set("run_id", Json(runId));
        Json t = Json::object();
        t.set("total_s", Json(totalS));
        t.set("setup_s", Json(setupS));
        t.set("run_s", Json(runS));
        t.set("cpu_s", Json(cpuS));
        t.set("setup_cpu_s", Json(setupCpuS));
        t.set("run_cpu_s", Json(runCpuS));
        t.set("peak_rss_mb", Json(peakRssMb()));
        j.set("timings", std::move(t));
        Json simDoc = sim;
        simDoc.set("cycles", Json(simCycles));
        simDoc.set("run_committed", Json(runCommitted));
        j.set("sim", std::move(simDoc));
        j.set("layer", layer);
        Json s = Json::object();
        for (const auto &[name, values] : samples) {
            Json arr = Json::array();
            for (double v : values)
                arr.push(Json(v));
            s.set(name, std::move(arr));
        }
        j.set("samples", std::move(s));
        j.set("fingerprint", Json(fingerprint));
        j.set("checks", checks);
        j.set("attempted", Json(attempted));
        j.set("failed", Json(failed));
        return j;
    }
};

/** Wall and CPU clock readings at the start of a phase. */
struct PhaseStart
{
    Clock::time_point wall = Clock::now();
    double cpu = cpuSeconds();
};

/** 17 significant digits: enough to tell any two doubles apart. */
std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fileName(const Rep &rep, const std::string &suffix)
{
    return rep.outDir + "/" + rep.workload + (rep.traced ? "-traced" : "") +
           suffix;
}

/**
 * Export @p doc, read it back and check that it parses to the same
 * value. @return the parsed document (Null when unreadable).
 */
Json
exportAndReload(Rep &rep, const std::string &what, const Json &doc)
{
    const std::string path = fileName(rep, "." + what + ".json");
    {
        std::ofstream out(path, std::ios::binary);
        out << doc.dump(2) << "\n";
        rep.check("export." + what + ".written", static_cast<bool>(out));
    }
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    Json parsed;
    std::string error;
    const bool ok = Json::parse(text.str(), parsed, error);
    rep.check("export." + what + ".parses_back_identically",
              ok && parsed == doc);
    std::remove(path.c_str());
    return parsed;
}

void
checkInvariants(Rep &rep, const std::string &what, const SmtCpu &cpu)
{
    InvariantChecker checker;
    checker.checkCpu(cpu);
    if (!checker.ok())
        std::fprintf(stderr, "perfbench: %s\n", checker.summary().c_str());
    rep.check("invariants." + what, checker.ok());
}

/**
 * Simulated per-layer rates over the interval between two snapshots
 * of one machine: memory misses per kilo-instruction, branch
 * mispredicts, useful fetch and partition-locked fetch cycles.
 */
void
intervalRates(Rep &rep, const MachineSnapshot &a, const MachineSnapshot &b)
{
    std::uint64_t committed = 0, fetched = 0, branches = 0, mispredicts = 0,
                  locked = 0, dl1 = 0, l2 = 0;
    for (int t = 0; t < b.numThreads; ++t) {
        committed += b.stats.committed[t] - a.stats.committed[t];
        fetched += b.stats.fetched[t] - a.stats.fetched[t];
        branches += b.stats.branches[t] - a.stats.branches[t];
        mispredicts += b.stats.mispredicts[t] - a.stats.mispredicts[t];
        locked += b.stats.partitionLockCycles[t] -
                  a.stats.partitionLockCycles[t];
        dl1 += b.dl1Misses[t] - a.dl1Misses[t];
        l2 += b.l2Misses[t] - a.l2Misses[t];
    }
    auto ratio = [](std::uint64_t n, std::uint64_t d) {
        return d ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
    };
    const std::uint64_t threadCycles =
        (b.cycle - a.cycle) * static_cast<std::uint64_t>(b.numThreads);
    rep.layer.set("memory.dl1_mpki", Json(1000.0 * ratio(dl1, committed)));
    rep.layer.set("memory.l2_mpki", Json(1000.0 * ratio(l2, committed)));
    rep.layer.set("branch.mispredict_rate", Json(ratio(mispredicts, branches)));
    rep.layer.set("pipeline.useful_fetch_ratio",
                  Json(ratio(committed, fetched)));
    rep.layer.set("pipeline.lock_cycle_share",
                  Json(ratio(locked, threadCycles)));
}

/** Driver-loop counts a MeasuredPolicy accumulates. */
struct LoopCounts
{
    std::uint64_t cycles = 0; ///< steps classified
    std::uint64_t idle = 0;   ///< steps that neither fetched nor committed
};

/**
 * Traced-run policy wrapper. Forwards every hook to the wrapped
 * policy unchanged, so the simulation is bit-identical to an
 * unwrapped run, and measures the caller's driver loop
 * (`policy.cycle(cpu); cpu.step();`) from outside:
 *  - every 128th cycle() call is timed (policy.cycle_ns),
 *    and so is the gap from its return to the next cycle() call,
 *    which is one step() plus the driver's per-cycle bookkeeping and
 *    one clock read (pipeline.step_ns);
 *  - every epoch() call is timed (core.learner_epoch_us), and so is
 *    each whole epoch (pipeline.epoch_ms);
 *  - every step is classified as idle when it changed neither the
 *    fetched nor the committed totals of CpuStats.
 */
class MeasuredPolicy final : public ResourcePolicy
{
  public:
    static constexpr std::uint64_t kSampleMask = (1u << 7) - 1;

    /** @param learner whether epoch() is a learner's (timed) */
    MeasuredPolicy(ResourcePolicy &wrapped, Samples &out, LoopCounts &counts,
                   bool learner)
        : inner(wrapped), loop(counts), stepNs(out["pipeline.step_ns"]),
          cycleNs(out["policy.cycle_ns"]), epochMs(out["pipeline.epoch_ms"]),
          learnerUs(learner ? &out["core.learner_epoch_us"] : nullptr)
    {
    }

    std::string name() const override { return inner.name(); }

    void
    attach(SmtCpu &cpu) override
    {
        inner.attach(cpu);
        havePrev = false;
        stepPending = false;
        epochStart = Clock::now();
    }

    void
    cycle(SmtCpu &cpu) override
    {
        if (stepPending) {
            stepNs.push_back(1e9 * secondsBetween(stepStart, Clock::now()));
            stepPending = false;
        }
        std::uint64_t flow = 0;
        for (int t = 0; t < cpu.numThreads(); ++t)
            flow += cpu.stats().fetched[t] + cpu.stats().committed[t];
        if (havePrev) {
            ++loop.cycles;
            if (flow == prevFlow)
                ++loop.idle;
        }
        prevFlow = flow;
        havePrev = true;

        if ((++ticks & kSampleMask) != 0) {
            inner.cycle(cpu);
            return;
        }
        const Clock::time_point t0 = Clock::now();
        inner.cycle(cpu);
        cycleNs.push_back(1e9 * secondsBetween(t0, Clock::now()));
        stepPending = true;
        stepStart = Clock::now();
    }

    void
    epoch(SmtCpu &cpu, std::uint64_t epoch_id) override
    {
        stepPending = false;
        const Clock::time_point t0 = Clock::now();
        epochMs.push_back(1e3 * secondsBetween(epochStart, t0));
        inner.epoch(cpu, epoch_id);
        epochStart = Clock::now();
        if (learnerUs)
            learnerUs->push_back(1e6 * secondsBetween(t0, epochStart));
    }

    void
    threadAttached(SmtCpu &cpu, ThreadId tid) override
    {
        stepPending = false;
        inner.threadAttached(cpu, tid);
    }

    void
    threadDetached(SmtCpu &cpu, ThreadId tid) override
    {
        stepPending = false;
        inner.threadDetached(cpu, tid);
    }

    /** Copies are unmeasured: the clone is the wrapped policy's. */
    std::unique_ptr<ResourcePolicy>
    clone() const override
    {
        return inner.clone();
    }

  private:
    ResourcePolicy &inner;
    LoopCounts &loop;
    std::vector<double> &stepNs;
    std::vector<double> &cycleNs;
    std::vector<double> &epochMs;
    std::vector<double> *learnerUs;
    std::uint64_t ticks = 0;
    std::uint64_t prevFlow = 0;
    bool havePrev = false;
    bool stepPending = false;
    Clock::time_point stepStart;
    Clock::time_point epochStart;
};

/**
 * Replays a recorded partition sequence, one partition per epoch:
 * the committed path of an OFF-LINE run, re-simulated through the
 * ordinary per-cycle driver loop so MeasuredPolicy can observe it.
 */
class ReplayPartitions final : public ResourcePolicy
{
  public:
    explicit ReplayPartitions(std::vector<Partition> sequence)
        : parts(std::move(sequence))
    {
    }

    std::string name() const override { return "REPLAY"; }

    void
    attach(SmtCpu &cpu) override
    {
        if (!parts.empty())
            cpu.setPartition(parts.front());
    }

    void
    epoch(SmtCpu &cpu, std::uint64_t epoch_id) override
    {
        if (epoch_id + 1 < parts.size())
            cpu.setPartition(parts[epoch_id + 1]);
    }

    std::unique_ptr<ResourcePolicy>
    clone() const override
    {
        return std::make_unique<ReplayPartitions>(*this);
    }

  private:
    std::vector<Partition> parts;
};

void
setLoopShares(Rep &rep, const LoopCounts &loop)
{
    rep.layer.set("pipeline.idle_cycle_share",
                  Json(loop.cycles ? static_cast<double>(loop.idle) /
                                         static_cast<double>(loop.cycles)
                                   : 0.0));
}

/**
 * Component probes on the workload's own instruction streams:
 * StreamGenerator::next, HybridPredictor predict+update (branches of
 * the generated stream) and a DL1-shaped Cache::access (its loads
 * and stores). One sample is the mean per call over one batch.
 */
void
probeComponents(Rep &rep, const SmtConfig &machine,
                std::vector<StreamGenerator> streams)
{
    SMTHILL_PROF_SCOPE("bench.probe.components");
    constexpr int kBatches = 128;
    constexpr int kBatch = 512;
    std::vector<SynthInst> batch(kBatch);
    for (StreamGenerator &gen : streams) {
        HybridPredictor predictor(machine.metaEntries, machine.gshareEntries,
                                  machine.bimodalEntries);
        Cache dl1(machine.mem.dl1);
        for (int b = 0; b < kBatches; ++b) {
            Clock::time_point t0 = Clock::now();
            for (SynthInst &inst : batch)
                inst = gen.next();
            Clock::time_point t1 = Clock::now();
            rep.samples["trace.next_inst_ns"].push_back(
                1e9 * secondsBetween(t0, t1) / kBatch);

            int branches = 0;
            t0 = Clock::now();
            for (const SynthInst &inst : batch) {
                if (!inst.isBranch())
                    continue;
                const auto lookup = predictor.predict(inst.pc);
                predictor.update(inst.pc, lookup, inst.taken);
                ++branches;
            }
            t1 = Clock::now();
            if (branches > 0)
                rep.samples["branch.predict_update_ns"].push_back(
                    1e9 * secondsBetween(t0, t1) / branches);

            int accesses = 0;
            t0 = Clock::now();
            for (const SynthInst &inst : batch) {
                if (!inst.isLoad() && !inst.isStore())
                    continue;
                dl1.access(inst.effAddr, inst.isStore());
                ++accesses;
            }
            t1 = Clock::now();
            if (accesses > 0)
                rep.samples["memory.dl1_access_ns"].push_back(
                    1e9 * secondsBetween(t0, t1) / accesses);
        }
    }
}

/**
 * MachineArena restore probe: alternately restore one arena machine
 * to two different states of the workload's machine, as a sweep
 * alternates checkpoints.
 */
void
probeArena(Rep &rep, const SmtCpu &a, const SmtCpu &b)
{
    SMTHILL_PROF_SCOPE("bench.probe.arena");
    constexpr int kRestores = 64;
    MachineArena arena(1);
    arena.acquire(0, a); // first use clones; time only restores
    for (int i = 0; i < kRestores; ++i) {
        const Clock::time_point t0 = Clock::now();
        arena.acquire(0, i % 2 ? a : b);
        rep.samples["core.arena.restore_us"].push_back(
            1e6 * secondsBetween(t0, Clock::now()));
    }
}

/** Host-time share of setup in the timed part of the repetition. */
void
setSetupShare(Rep &rep)
{
    rep.layer.set("harness.setup_share",
                  Json(rep.totalS > 0 ? rep.setupS / rep.totalS : 0.0));
}

/**
 * Setup of the closed workloads, in smthill_cli's order: the solo-IPC
 * references, then the warm machine. Timed, and guarded against a
 * cache hit: makeCpu and soloIpc memoise process-wide, so a setup that
 * hit either cache would time a lookup, not a build.
 */
SmtCpu
warmSetup(Rep &rep, const Workload &w, const RunConfig &rc,
          Cycle solo_cycles, std::array<double, kMaxThreads> &solo)
{
    const PhaseStart setup;
    {
        SMTHILL_PROF_SCOPE("bench.harness.solo_ipcs");
        solo = soloIpcs(w, rc, solo_cycles);
    }
    SmtCpu cpu = [&] {
        SMTHILL_PROF_SCOPE("bench.harness.make_cpu");
        return makeCpu(w, rc);
    }();
    rep.setupS = secondsBetween(setup.wall, Clock::now());
    rep.setupCpuS = cpuSeconds() - setup.cpu;

    StatRegistry &stats = globalStats();
    const auto built = [&](const std::string &cache, std::uint64_t n) {
        return stats.counter(cache + ".misses").value() == n &&
               stats.counter(cache + ".hits").value() == 0;
    };
    const auto threads = static_cast<std::uint64_t>(w.numThreads());
    rep.check("setup.warm_machine_built",
              built("smthill.warm_cache.machine", 1));
    rep.check("setup.solo_ipcs_built",
              built("smthill.warm_cache.solo_ipc", threads));

    const Cycle setupCycles =
        rc.warmupCycles + threads * (rc.warmupCycles + solo_cycles);
    rep.simCycles = setupCycles;
    rep.layer.set("harness.setup_mcycles", Json(1e-6 * setupCycles));
    rep.layer.set("harness.solo_builds", Json(threads));
    return cpu;
}

// --- cli_hill_mem2 ------------------------------------------------------

void
runCliHillMem2(Rep &rep)
{
    const Workload &w = workloadByName("art-mcf");
    RunConfig rc; // smthill_cli defaults: 16 x 64K-cycle epochs, 2M warm-up
    rc.seedSalt = rep.seed;
    rc.jobs = 1;
    const Cycle soloCycles = 16 * rc.epochSize; // cli solo_epochs=16

    std::array<double, kMaxThreads> solo{};
    SmtCpu warm = warmSetup(rep, w, rc, soloCycles, solo);

    const PhaseStart run;
    HillConfig hc;
    hc.epochSize = rc.epochSize;
    hc.metric = PerfMetric::WeightedIpc;
    HillClimbing hill(hc);
    EventTrace events;
    events.processName(0, w.name + " / " + hill.name());
    for (int i = 0; i < w.numThreads(); ++i)
        events.threadName(0, i, w.benchmarks[i]);
    events.threadName(0, kControlTid, "control");
    hill.setEventTrace(&events, 0);

    LoopCounts loop;
    std::optional<MeasuredPolicy> measured;
    ResourcePolicy *policy = &hill;
    if (rep.traced) {
        measured.emplace(hill, rep.samples, loop, true);
        measured->setEventTrace(&events, 0);
        policy = &*measured;
    }
    // runPolicyOn consumes the machine; check it at the last epoch.
    const EpochObserver onEpoch = [&](int e, const SmtCpu &cpu) {
        if (e + 1 == rc.epochs)
            checkInvariants(rep, "final_machine", cpu);
    };
    RunResult res;
    {
        SMTHILL_PROF_SCOPE("bench.harness.run_policy_on");
        res = runPolicyOn(std::move(warm), *policy, rc.epochs, rc.epochSize,
                          onEpoch);
    }
    rep.runS = secondsBetween(run.wall, Clock::now());
    rep.runCpuS = cpuSeconds() - run.cpu;

    const double wipc = res.metric(PerfMetric::WeightedIpc, solo);
    {
        SMTHILL_PROF_SCOPE("bench.common.export");
        const MachineReport report = res.report(w.benchmarks);
        Json doc = Json::object();
        Json runDoc = Json::object();
        runDoc.set("workload", Json(w.name));
        runDoc.set("policy", Json("hill-wipc"));
        runDoc.set("epochs", Json(rc.epochs));
        runDoc.set("epoch_size", Json(rc.epochSize));
        runDoc.set("warmup_cycles", Json(rc.warmupCycles));
        runDoc.set("seed", Json(rc.seedSalt));
        doc.set("run", std::move(runDoc));
        Json metrics = Json::object();
        metrics.set("weighted_ipc", Json(wipc));
        metrics.set("avg_ipc", Json(res.metric(PerfMetric::AvgIpc, solo)));
        metrics.set("harmonic_weighted_ipc",
                    Json(res.metric(PerfMetric::HarmonicWeightedIpc, solo)));
        doc.set("metrics", std::move(metrics));
        doc.set("report", report.toJson());
        const Json back = exportAndReload(rep, "stats", doc);
        MachineReport reread;
        std::string error;
        rep.check("export.report.round_trips",
                  back.isObject() && back.contains("report") &&
                      machineReportFromJson(back.at("report"), reread,
                                            error) &&
                      reread == report);
        rep.check("events.recorded", !events.empty());
        exportAndReload(rep, "events", events.toPerfettoJson());
    }
    rep.check("result.weighted_ipc_positive", wipc > 0.0);
    rep.totalS = secondsBetween(rep.start, Clock::now());
    rep.cpuS = cpuSeconds();

    const Cycle runCycles = res.finalSnapshot.cycle - res.startSnapshot.cycle;
    const std::uint64_t committed = res.finalSnapshot.stats.committedTotal() -
                                    res.startSnapshot.stats.committedTotal();
    rep.simCycles += runCycles;
    rep.runCommitted = committed;
    rep.sim.set("weighted_ipc", Json(wipc));
    intervalRates(rep, res.startSnapshot, res.finalSnapshot);
    setSetupShare(rep);
    rep.fingerprint = "wipc=" + exact(wipc) + " solo=" + exact(solo[0]) +
                      "," + exact(solo[1]) + " committed=" +
                      std::to_string(res.finalSnapshot.stats.committed[0]) +
                      "," +
                      std::to_string(res.finalSnapshot.stats.committed[1]) +
                      " cycles=" + std::to_string(res.finalSnapshot.cycle);

    if (rep.traced) {
        setLoopShares(rep, loop);
        probeComponents(rep, rc.machine, w.makeGenerators(rc.seedSalt));
    }
}

// --- offline_ilp2 -------------------------------------------------------

void
runOfflineIlp2(Rep &rep)
{
    const Workload &w = workloadByName("fma3d-gcc");
    RunConfig rc; // bench_fig04 defaults: 10 epochs, solo window = run
    rc.epochs = 10;
    rc.seedSalt = rep.seed;
    rc.jobs = 2;
    constexpr int kStride = 16;
    const Cycle soloCycles = static_cast<Cycle>(rc.epochs) * rc.epochSize;

    std::array<double, kMaxThreads> solo{};
    SmtCpu cpu = warmSetup(rep, w, rc, soloCycles, solo);

    const PhaseStart run;
    const MachineSnapshot start = MachineSnapshot::capture(cpu);
    OfflineResult res;
    {
        SMTHILL_PROF_SCOPE("bench.core.offline_run");
        OfflineConfig oc;
        oc.epochSize = rc.epochSize;
        oc.stride = kStride;
        oc.metric = PerfMetric::WeightedIpc;
        oc.singleIpc = solo;
        oc.jobs = rc.jobs;
        OfflineExhaustive off(oc);
        res = off.run(cpu, rc.epochs);
    }
    rep.runS = secondsBetween(run.wall, Clock::now());
    rep.runCpuS = cpuSeconds() - run.cpu;
    const MachineSnapshot end = MachineSnapshot::capture(cpu);
    checkInvariants(rep, "final_machine", cpu);

    const double mean = res.meanMetric();
    {
        SMTHILL_PROF_SCOPE("bench.common.export");
        Json doc = Json::object();
        doc.set("workload", Json(w.name));
        doc.set("stride", Json(kStride));
        doc.set("mean_weighted_ipc", Json(mean));
        Json epochs = Json::array();
        for (const OfflineEpoch &e : res.epochs) {
            Json row = Json::object();
            row.set("share0", Json(e.best.share[0]));
            row.set("share1", Json(e.best.share[1]));
            row.set("ipc0", Json(e.ipc.ipc[0]));
            row.set("ipc1", Json(e.ipc.ipc[1]));
            row.set("metric", Json(e.metricValue));
            epochs.push(std::move(row));
        }
        doc.set("epochs", std::move(epochs));
        exportAndReload(rep, "offline", doc);
    }
    rep.check("result.epochs_committed",
              static_cast<int>(res.epochs.size()) == rc.epochs);
    rep.check("result.weighted_ipc_positive", mean > 0.0);
    rep.totalS = secondsBetween(rep.start, Clock::now());
    rep.cpuS = cpuSeconds();

    const std::uint64_t trials =
        static_cast<std::uint64_t>(rc.epochs) *
        enumeratePartitions2(rc.machine.intRegs, kStride).size();
    const Cycle trialCycles = trials * rc.epochSize;
    rep.simCycles += trialCycles + (end.cycle - start.cycle);
    rep.runCommitted =
        end.stats.committedTotal() - start.stats.committedTotal();
    rep.sim.set("weighted_ipc", Json(mean));
    rep.layer.set("core.offline.trials", Json(trials));
    rep.layer.set("core.offline.trial_cycle_share",
                  Json(static_cast<double>(trialCycles) /
                       static_cast<double>(rep.simCycles)));
    intervalRates(rep, start, end);
    setSetupShare(rep);
    rep.fingerprint = "mean=" + exact(mean) + " solo=" + exact(solo[0]) +
                      "," + exact(solo[1]) + " committed=" +
                      std::to_string(end.stats.committed[0]) + "," +
                      std::to_string(end.stats.committed[1]) +
                      " cycles=" + std::to_string(end.cycle);

    if (rep.traced) {
        // Re-simulate the committed path through the per-cycle driver
        // loop; it must reproduce every committed epoch exactly.
        SMTHILL_PROF_SCOPE("bench.probe.replay");
        std::vector<Partition> parts;
        for (const OfflineEpoch &e : res.epochs)
            parts.push_back(e.best);
        ReplayPartitions replay(parts);
        LoopCounts loop;
        MeasuredPolicy measured(replay, rep.samples, loop, false);
        const SmtCpu warm = makeCpu(w, rc);
        const RunResult again =
            runPolicyOn(warm, measured, rc.epochs, rc.epochSize);
        bool same = again.epochs.size() == res.epochs.size();
        for (std::size_t e = 0; same && e < res.epochs.size(); ++e)
            same = again.epochs[e].ipc.ipc == res.epochs[e].ipc.ipc;
        rep.check("offline.replay_reproduces_committed_epochs", same);
        setLoopShares(rep, loop);
        probeArena(rep, warm, cpu);
        probeComponents(rep, rc.machine, w.makeGenerators(rc.seedSalt));
    }
}

// --- open_churn4 --------------------------------------------------------

constexpr int kOpenJobs = 110; // >= 100 completions: p90 has 10 beyond it

std::unique_ptr<ResourcePolicy>
makeLearner(int index, Cycle epoch_size, std::uint64_t seed)
{
    switch (index) {
      case 0: {
        HillConfig hc;
        hc.epochSize = epoch_size;
        return std::make_unique<HillClimbing>(hc);
      }
      case 1:
        return std::make_unique<DcraPolicy>();
      default: {
        RlConfig rlc;
        rlc.epochSize = epoch_size;
        rlc.seed = seed;
        return std::make_unique<RlAllocator>(rlc);
      }
    }
}

void
runOpenChurn4(Rep &rep)
{
    SmtConfig machine;
    machine.numThreads = 4;
    OpenSystemConfig cfg;
    cfg.seed = rep.seed;
    cfg.arrivalRate = 1.0 / 4096.0;
    cfg.numJobs = kOpenJobs;
    cfg.minJobInstructions = 20'000;
    cfg.maxJobInstructions = 60'000;
    cfg.slaWeights = true;
    // Far beyond the drain time of the schedule: a job the horizon
    // closes out is a failed operation, not a normal outcome.
    cfg.horizon = 256'000'000;

    const PhaseStart setup;
    std::optional<OpenSystem> sys;
    std::optional<SmtCpu> checkpoint;
    {
        SMTHILL_PROF_SCOPE("bench.workload.os_make_machine");
        sys.emplace(machine, cfg);
        checkpoint.emplace(sys->makeMachine());
    }
    rep.setupS = secondsBetween(setup.wall, Clock::now());
    rep.setupCpuS = cpuSeconds() - setup.cpu;

    const PhaseStart run;
    constexpr int kLearners = 3;
    std::vector<OpenSystemResult> results;
    MachineSnapshot hillFinal;
    MachineArena arena(1);
    const SmtCpu *lastMachine = nullptr;
    LoopCounts loop;
    for (int li = 0; li < kLearners; ++li) {
        SMTHILL_PROF_SCOPE("bench.workload.os_cell");
        auto learner = makeLearner(li, cfg.epochSize, rep.seed);
        std::optional<MeasuredPolicy> measured;
        ResourcePolicy *policy = learner.get();
        if (rep.traced) {
            measured.emplace(*learner, rep.samples, loop, true);
            policy = &*measured;
        }
        SmtCpu &cpu = arena.acquire(0, *checkpoint);
        lastMachine = &cpu;
        results.push_back(sys->runOn(cpu, *policy));
        if (li == 0)
            hillFinal = MachineSnapshot::capture(cpu);
        checkInvariants(rep, "final_machine." + results.back().policyName,
                        cpu);
    }
    rep.runS = secondsBetween(run.wall, Clock::now());
    rep.runCpuS = cpuSeconds() - run.cpu;

    {
        SMTHILL_PROF_SCOPE("bench.common.export");
        Json doc = Json::object();
        doc.set("seed", Json(cfg.seed));
        doc.set("num_jobs", Json(cfg.numJobs));
        Json rows = Json::array();
        for (const OpenSystemResult &r : results) {
            const LatencyStats lat = jobLatencyStats(r);
            Json row = Json::object();
            row.set("policy", Json(r.policyName));
            row.set("throughput", Json(jobThroughput(r)));
            row.set("latency_p50", Json(lat.p50));
            row.set("latency_p99", Json(lat.p99));
            row.set("completed_jobs", Json(r.completedJobs));
            row.set("horizon_jobs", Json(r.horizonJobs));
            row.set("max_queue_depth", Json(r.maxQueueDepth));
            row.set("cycles", Json(r.cycles));
            row.set("committed_total", Json(r.committedTotal));
            rows.push(std::move(row));
        }
        doc.set("rows", std::move(rows));
        exportAndReload(rep, "open_system", doc);
    }

    // Job accounting: every scheduled job either completed or was
    // closed out by the horizon; each job is one operation.
    Cycle cycles = 0;
    std::uint64_t committed = 0, attaches = 0, completed = 0, scheduled = 0;
    int maxQueue = 0;
    for (const OpenSystemResult &r : results) {
        int done = 0, attached = 0;
        for (const JobRecord &job : r.jobs) {
            done += job.completed ? 1 : 0;
            attached += job.attached ? 1 : 0;
        }
        rep.check("open.accounting." + r.policyName,
                  static_cast<int>(r.jobs.size()) == cfg.numJobs &&
                      r.completedJobs + r.horizonJobs == cfg.numJobs &&
                      done == r.completedJobs);
        rep.attempted += r.jobs.size();
        rep.failed += static_cast<std::uint64_t>(r.horizonJobs);
        cycles += r.cycles;
        committed += r.committedTotal;
        attaches += static_cast<std::uint64_t>(attached);
        completed += static_cast<std::uint64_t>(r.completedJobs);
        scheduled += r.jobs.size();
        maxQueue = std::max(maxQueue, r.maxQueueDepth);
    }
    rep.totalS = secondsBetween(rep.start, Clock::now());
    rep.cpuS = cpuSeconds();

    const OpenSystemResult &hill = results.front();
    Json latencies = Json::array();
    for (const JobRecord &job : hill.jobs)
        if (job.completed)
            latencies.push(Json(static_cast<double>(job.latency())));
    rep.simCycles = cycles;
    rep.runCommitted = committed;
    rep.sim.set("jobs_per_mcycle", Json(jobThroughput(hill)));
    rep.sim.set("latencies", std::move(latencies));
    rep.layer.set("workload.os.attaches", Json(attaches));
    rep.layer.set("workload.os.max_queue_depth", Json(maxQueue));
    rep.layer.set("workload.os.completed_share",
                  Json(static_cast<double>(completed) /
                       static_cast<double>(scheduled)));
    intervalRates(rep, MachineSnapshot::capture(*checkpoint), hillFinal);
    setSetupShare(rep);
    for (const OpenSystemResult &r : results) {
        rep.fingerprint += r.policyName + ":jobs_per_mcycle=" +
                           exact(jobThroughput(r)) + ",committed=" +
                           std::to_string(r.committedTotal) + ",cycles=" +
                           std::to_string(r.cycles) + " ";
    }
    rep.fingerprint.pop_back();

    if (rep.traced) {
        setLoopShares(rep, loop);
        probeArena(rep, *checkpoint, *lastMachine);
        std::vector<StreamGenerator> streams;
        for (int j = 0; j < machine.numThreads; ++j)
            streams.emplace_back(specProfile(hill.jobs[j].benchmark),
                                 hill.jobs[j].streamSeed);
        probeComponents(rep, machine, std::move(streams));
    }
}

/**
 * Write the traced repetition's span timeline as Perfetto JSON: the
 * profiler's own timeline injected through prof::appendHostSpans
 * (process id = run id) and re-recorded with each span's id, parent
 * (innermost enclosing span on the same thread; -1 at top level) and
 * run id in its args. Also turns span durations into the per-layer
 * timings that have no sampling point of their own.
 */
void
writeSpanTrace(Rep &rep)
{
    EventTrace host(1u << 20);
    prof::appendHostSpans(host, rep.runId);
    const std::vector<SimEvent> events = host.events();

    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < events.size(); ++i)
        if (events[i].ph == 'X')
            order.push_back(i);
    // Parents first: by thread, start, longer first; on a full tie the
    // later-completed (outer) span first.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const SimEvent &x = events[a];
        const SimEvent &y = events[b];
        if (x.tid != y.tid)
            return x.tid < y.tid;
        if (x.ts != y.ts)
            return x.ts < y.ts;
        if (x.dur != y.dur)
            return x.dur > y.dur;
        return a > b;
    });
    std::vector<std::int64_t> parent(events.size(), -1);
    std::vector<std::size_t> stack;
    int stackTid = -1;
    for (std::size_t i : order) {
        const SimEvent &e = events[i];
        if (e.tid != stackTid) {
            stack.clear();
            stackTid = e.tid;
        }
        const Cycle end = e.ts + static_cast<Cycle>(e.dur);
        while (!stack.empty() &&
               events[stack.back()].ts +
                       static_cast<Cycle>(events[stack.back()].dur) <
                   end)
            stack.pop_back();
        if (!stack.empty())
            parent[i] = static_cast<std::int64_t>(stack.back());
        stack.push_back(i);
    }

    static const std::map<std::string, std::pair<std::string, double>>
        kSpanMetrics = {
            {"harness.warm_build", {"harness.warm_build_s", 1e-9}},
            {"harness.solo_build", {"harness.solo_build_s", 1e-9}},
            {"offline.step_epoch", {"core.offline.step_epoch_ms", 1e-6}},
            {"bench.common.export", {"common.export_ms", 1e-6}},
            {"bench.workload.os_make_machine",
             {"workload.os.make_machine_ms", 1e-6}},
            {"bench.workload.os_cell", {"workload.os.cell_run_s", 1e-9}},
        };
    EventTrace out(events.size() + 1);
    for (std::size_t i = 0; i < events.size(); ++i) {
        SimEvent e = events[i];
        if (e.ph == 'X') {
            Json args = Json::object();
            args.set("id", Json(static_cast<std::uint64_t>(i)));
            args.set("parent", Json(parent[i]));
            args.set("run_id", Json(rep.runId));
            e.args = std::move(args);
            auto it = kSpanMetrics.find(e.name);
            if (it != kSpanMetrics.end())
                rep.samples[it->second.first].push_back(
                    it->second.second * static_cast<double>(e.dur));
        }
        out.record(std::move(e));
    }
    const std::string path = fileName(rep, "-run" +
                                               std::to_string(rep.runId) +
                                               ".trace.json");
    std::ofstream file(path, std::ios::binary);
    file << out.toPerfettoJson().dump() << "\n";
    rep.check("trace.written", static_cast<bool>(file));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 6) {
        std::fprintf(stderr,
                     "usage: %s <workload> <seed> <traced 0|1> <run_id> "
                     "<out_dir>\n",
                     argv[0]);
        return 2;
    }
    Rep rep;
    rep.workload = argv[1];
    rep.seed = std::stoull(argv[2]);
    rep.traced = std::string(argv[3]) == "1";
    rep.runId = std::stoi(argv[4]);
    rep.outDir = argv[5];
    prof::setProfilingEnabled(rep.traced);

    static const std::map<std::string, std::function<void(Rep &)>> kWorkloads =
        {{"cli_hill_mem2", runCliHillMem2},
         {"offline_ilp2", runOfflineIlp2},
         {"open_churn4", runOpenChurn4}};
    auto it = kWorkloads.find(rep.workload);
    if (it == kWorkloads.end()) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     rep.workload.c_str());
        return 2;
    }
    rep.start = Clock::now();
    it->second(rep);
    if (rep.traced) {
        writeSpanTrace(rep);
        // -1 when no pool worker ran: the workload has no pool.
        const double efficiency = prof::profileReport().parallelEfficiency;
        rep.layer.set("common.pool.parallel_efficiency",
                      Json(std::max(efficiency, 0.0)));
    }
    std::printf("%s\n", rep.toJson().dump().c_str());
    return 0;
}
