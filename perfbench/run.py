#!/usr/bin/env python3
"""End-to-end benchmark of the smthill simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_hill_mem2 --seed 1 \
        --seconds 20 --trace 0

It builds the simulator library and perfbench/driver.cc with CMake
(into $CARGO_TARGET_DIR, default .bench_build, under perfbench/),
then runs repetitions of the workload, each in a fresh driver
process, for --seconds seconds. With --trace 0 every repetition is
untraced and the result carries the end-to-end metrics; with
--trace 1 untraced and traced repetitions alternate and the result
carries the per-layer metrics. The metric names and units come from
BENCHMARK.json at the checkout root.

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli_hill_mem2", "offline_ilp2", "open_churn4")

# A run measures a suite of inputs, all made from --seed: repetitions
# cycle through them, and an end-to-end metric is the mean over the
# inputs of the median over each input's repetitions, which averages
# out how much the inputs differ as well as host noise. Input i of
# seed s is simulated with seed INPUTS * s + i. offline_ilp2 has
# fewer, because a run holds only about five of its repetitions.
INPUTS = {"cli_hill_mem2": 8, "offline_ilp2": 4, "open_churn4": 8}

# An untraced run covers every input at least once, even when that
# takes longer than --seconds; a traced run makes at least this many
# untraced and traced repetitions.
MIN_TRACED_REPS = 2
REP_TIMEOUT_S = 150

# Per-layer timings: driver sample name -> reported as .p50/.tail/
# .tail_pct/.count.
TIMINGS = (
    "harness.warm_build_s", "harness.solo_build_s", "pipeline.epoch_ms",
    "pipeline.step_ns", "memory.dl1_access_ns", "branch.predict_update_ns",
    "trace.next_inst_ns", "core.learner_epoch_us",
    "core.offline.step_epoch_ms", "core.arena.restore_us",
    "policy.cycle_ns", "common.export_ms", "workload.os.make_machine_ms",
    "workload.os.cell_run_s",
)

# Per-layer scalars the driver reports directly; 0 where a layer is
# not used by the workload. Host-time ratios are medians over the
# traced repetitions; the others are simulated and exact, reported
# for the run's first input.
HOST_SCALARS = ("harness.setup_share", "common.pool.parallel_efficiency")
SIM_SCALARS = (
    "harness.solo_builds", "harness.setup_mcycles",
    "pipeline.idle_cycle_share", "pipeline.useful_fetch_ratio",
    "pipeline.lock_cycle_share", "memory.dl1_mpki", "memory.l2_mpki",
    "branch.mispredict_rate", "core.offline.trials",
    "core.offline.trial_cycle_share", "workload.os.attaches",
    "workload.os.max_queue_depth", "workload.os.completed_share",
)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and (re)build; both are quick when up to date."""
    out = build_dir()
    for cmd in (["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", out, "-j2"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def child_env():
    # SMTHILL_* knobs (profiler, bench scaling) must not leak in.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SMTHILL_")}


def run_rep(driver, args, input_index, traced, run_id, out_dir):
    seed = INPUTS[args.workload] * args.seed + input_index
    cmd = [driver, args.workload, str(seed), "1" if traced else "0",
           str(run_id), out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=child_env(),
                              timeout=REP_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("repetition %d timed out" % run_id)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("repetition %d exited with %d" % (run_id, done.returncode))
    return json.loads(lines[-1])


def suite_mean(reps, value):
    """Mean over the inputs of the median of value(rep) over each
    input's repetitions."""
    by_input = {}
    for r in reps:
        by_input.setdefault(r["seed"], []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def end_to_end(plain):
    """End-to-end metrics from the untraced repetitions."""
    out = {key: suite_mean(plain, lambda r, k=key: r["timings"][k])
           for key in ("total_s", "setup_s", "run_s", "cpu_s",
                       "peak_rss_mb")}
    # Every simulated cycle (warm-up, solo, trial, measured) per CPU
    # second of setup plus run.
    out["sim_mcycles_per_s"] = suite_mean(
        plain, lambda r: 1e-6 * r["sim"]["cycles"] /
        (r["timings"]["setup_cpu_s"] + r["timings"]["run_cpu_s"]))
    # Instructions the measured run commits per CPU second of it.
    out["sim_minst_per_s"] = suite_mean(
        plain, lambda r: 1e-6 * r["sim"]["run_committed"] /
        r["timings"]["run_cpu_s"])
    return out


def per_layer(plain, traced, attempted, failed):
    """Per-layer metrics from the traced repetitions."""
    first = traced[0]
    out = {name: first["layer"].get(name, 0) for name in SIM_SCALARS}
    for name in HOST_SCALARS:
        out[name] = statistics.median(
            r["layer"].get(name, 0) for r in traced)
    for name in TIMINGS:
        pooled = [v for r in traced for v in r["samples"].get(name, [])]
        out.update(benchstats.timing_summary(name, pooled))
    sim = first["sim"]
    latencies = sim.get("latencies", [])
    out["weighted_ipc"] = sim.get("weighted_ipc", 0.0)
    out["jobs_per_mcycle"] = sim.get("jobs_per_mcycle", 0.0)
    out["latency_p50_kcycles"] = (
        benchstats.percentile(latencies, 50) / 1e3 if latencies else 0.0)
    out["latency_p90_kcycles"] = (
        benchstats.percentile(latencies, 90) / 1e3 if latencies else 0.0)
    out["failed_share"] = failed / attempted
    # Tracing overhead: traced minus untraced total_s, median over the
    # pairs of repetitions (each pair simulates one input).
    out["bench.trace_overhead_s"] = statistics.median(
        t["timings"]["total_s"] - p["timings"]["total_s"]
        for p, t in zip(plain, traced))
    return out


def print_self_times(out_dir):
    """Where the traced repetitions' host time went, by span."""
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".trace.json"):
            with open(os.path.join(out_dir, name)) as f:
                spans += benchstats.spans_from_perfetto(json.load(f))
    runs = len({s["run_id"] for s in spans}) or 1
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["dur"]
    print("span self time per traced repetition (ms), from %s:" % out_dir)
    selfs = benchstats.self_times(spans)
    for name in sorted(selfs, key=selfs.get, reverse=True):
        print("  %-36s self %10.3f  total %10.3f" %
              (name, selfs[name] / runs / 1e6, totals[name] / runs / 1e6))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    bad = [n for n in units if not benchstats.valid_metric_name(n)]
    if bad:
        fail("invalid metric names in BENCHMARK.json: %s" % bad)

    driver = build()
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))

    # Untraced runs cycle through the inputs; traced runs alternate
    # untraced and traced repetitions, each pair on one input.
    plain, traced = [], []
    start = time.monotonic()
    run_id = 0
    while True:
        if args.trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACED_REPS
        else:
            enough = len(plain) >= INPUTS[args.workload]
        if enough and time.monotonic() - start >= args.seconds:
            break
        is_traced = bool(args.trace) and run_id % 2 == 1
        pair = run_id // 2 if args.trace else run_id
        run_id += 1
        rep = run_rep(driver, args, pair % INPUTS[args.workload],
                      is_traced, run_id,
                      out_dir)
        (traced if is_traced else plain).append(rep)

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # Simulated results are deterministic: every repetition of an
    # input, traced or not, must reproduce its fingerprint exactly.
    fingerprints = {}
    for r in reps:
        if r["seed"] not in fingerprints:
            fingerprints[r["seed"]] = r["fingerprint"]
            continue
        attempted += 1
        if r["fingerprint"] != fingerprints[r["seed"]]:
            failed += 1
            print("perfbench: run %d (seed %d) fingerprint differs: %s" %
                  (r["run_id"], r["seed"], r["fingerprint"]),
                  file=sys.stderr)

    values = (per_layer(plain, traced, attempted, failed) if args.trace
              else end_to_end(plain))
    if set(values) != set(units):
        fail("metrics out of step with BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(units) - set(values)),
                sorted(set(values) - set(units))))

    print("workload %s seed %d: %d untraced + %d traced repetitions" %
          (args.workload, args.seed, len(plain), len(traced)))
    for seed in sorted(fingerprints):
        print("fingerprint (simulated with seed %d): %s" %
              (seed, fingerprints[seed]))
    if args.trace:
        print_self_times(out_dir)
    for name in sorted(values):
        print("  %-40s %.6g %s" % (name, values[name], units[name]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
