"""Tests of the benchmark's own helpers.

Run from the checkout root:  python3 -m unittest discover -s perfbench
"""

import json
import os
import unittest

import benchstats
import run


class TailRule(unittest.TestCase):
    def test_picks_highest_level_with_ten_beyond(self):
        values = list(range(1, 101))  # 100 samples
        level, value = benchstats.tail(values)
        # p90 is the 90th sample with exactly 10 beyond; p99 has 1.
        self.assertEqual((level, value), (90.0, 90))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_thousand_samples_reach_p99(self):
        level, value = benchstats.tail(range(1000))
        self.assertEqual((level, value), (99.0, 989))

    def test_just_short_of_the_next_level(self):
        # 999 samples: p99 is rank 990 with only 9 beyond, so p90.
        level, _ = benchstats.tail(range(999))
        self.assertEqual(level, 90.0)

    def test_order_does_not_matter(self):
        values = list(range(200))
        self.assertEqual(benchstats.tail(values),
                         benchstats.tail(list(reversed(values))))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(benchstats.tail([3, 1, 2]), (100.0, 3))

    def test_percentile_is_nearest_rank_and_exact(self):
        values = list(range(1, 11))
        self.assertEqual(benchstats.percentile(values, 50), 5)
        self.assertEqual(benchstats.percentile(values, 90), 9)
        self.assertEqual(benchstats.percentile(values, 100), 10)
        # 0.9 * 100 is 90.00000000000001 in binary floating point.
        self.assertEqual(benchstats.percentile(range(1, 101), 90), 90)

    def test_timing_summary_names_and_empty(self):
        got = benchstats.timing_summary("x.y_ns", [])
        self.assertEqual(set(got), {"x.y_ns.p50", "x.y_ns.tail",
                                    "x.y_ns.tail_pct", "x.y_ns.count"})
        self.assertEqual(got["x.y_ns.count"], 0)


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(run_id, sid, parent, name, dur):
        return {"run_id": run_id, "id": sid, "parent": parent,
                "name": name, "dur": dur}

    def test_children_are_subtracted_once(self):
        spans = [
            self.span(1, 0, -1, "run", 100.0),
            self.span(1, 1, 0, "epoch", 30.0),
            self.span(1, 2, 0, "epoch", 20.0),
            self.span(1, 3, 1, "cpu", 25.0),  # grandchild of run
        ]
        got = benchstats.self_times(spans)
        self.assertEqual(got, {"run": 50.0, "epoch": 25.0, "cpu": 25.0})
        # Self times partition the top-level span's duration.
        self.assertEqual(sum(got.values()), 100.0)

    def test_ids_are_scoped_by_run(self):
        spans = [
            self.span(1, 0, -1, "a", 10.0),
            self.span(2, 0, -1, "a", 10.0),
            self.span(2, 1, 0, "b", 4.0),
        ]
        self.assertEqual(benchstats.self_times(spans),
                         {"a": 16.0, "b": 4.0})

    def test_reads_driver_perfetto_events(self):
        doc = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 3, "tid": 0},
            {"ph": "X", "name": "outer", "ts": 0, "dur": 10, "pid": 3,
             "tid": 0, "args": {"id": 1, "parent": -1, "run_id": 3}},
            {"ph": "X", "name": "inner", "ts": 2, "dur": 6, "pid": 3,
             "tid": 0, "args": {"id": 2, "parent": 1, "run_id": 3}},
        ]}
        spans = benchstats.spans_from_perfetto(doc)
        self.assertEqual(benchstats.self_times(spans),
                         {"outer": 4.0, "inner": 6.0})


class MetricNames(unittest.TestCase):
    def test_allowed_characters(self):
        for name in ("total_s", "pipeline.step_ns.p50", "a-b.c_d", "9x"):
            self.assertTrue(benchstats.valid_metric_name(name), name)

    def test_rejected_names(self):
        for name in ("", "_lead", ".lead", "has space", "a/b", "p99%",
                     "x" * 65, "café", None):
            self.assertFalse(benchstats.valid_metric_name(name), name)

    def test_benchmark_json_names_match_the_runner(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(benchstats.valid_metric_name(name), name)
        expected = set(run.SIM_SCALARS) | set(run.HOST_SCALARS) | {
            "weighted_ipc", "jobs_per_mcycle", "latency_p50_kcycles",
            "latency_p90_kcycles", "failed_share", "bench.trace_overhead_s"}
        for timing in run.TIMINGS:
            expected |= set(benchstats.timing_summary(timing, [1.0]))
        self.assertEqual({m["name"] for m in spec["per_layer"]}, expected)


if __name__ == "__main__":
    unittest.main()
