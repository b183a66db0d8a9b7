"""Statistics helpers of the perfbench benchmark (see README.md).

Kept apart from run.py so that test_benchstats.py can check them
without building or running anything.
"""

import math
import re
from collections import defaultdict
from fractions import Fraction

# Percentile levels a timing's tail is reported at, lowest first.
TAIL_LADDER = ("50", "90", "99", "99.9", "99.99")

# Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    """True when name starts with a letter or digit and uses only
    [A-Za-z0-9_.-], at most 64 characters in all."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def percentile(values, level):
    """Nearest-rank percentile: the smallest sample with at least
    level percent of the samples at or below it. level is a number
    or a decimal string ("99.9"), taken exactly."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = math.ceil(Fraction(str(level)) * len(xs) / 100)
    return xs[max(rank, 1) - 1]


def tail(values):
    """The highest TAIL_LADDER percentile with at least MIN_BEYOND
    samples beyond it, as (level, value). With too few samples for
    even the median to qualify, the tail is the maximum, at level 100.
    """
    xs = sorted(values)
    n = len(xs)
    best = (100.0, xs[-1])
    for level in TAIL_LADDER:
        rank = math.ceil(Fraction(level) * n / 100)
        if n - rank >= MIN_BEYOND:
            best = (float(level), xs[rank - 1])
    return best


def timing_summary(name, values):
    """The four metrics a per-layer timing is reported as."""
    if not values:
        return {name + ".p50": 0.0, name + ".tail": 0.0,
                name + ".tail_pct": 0.0, name + ".count": 0}
    level, value = tail(values)
    return {name + ".p50": percentile(values, 50), name + ".tail": value,
            name + ".tail_pct": level, name + ".count": len(values)}


def self_times(spans):
    """Self time by span name: each span's duration minus the
    durations of its direct children.

    spans: dicts with "run_id", "id", "parent" (-1 at top level),
    "name" and "dur". Ids are unique within one run id.
    """
    children = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            children[(s["run_id"], s["parent"])] += s["dur"]
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["dur"] - children[(s["run_id"], s["id"])]
    return dict(out)


def spans_from_perfetto(doc):
    """The complete ('X') events of a Perfetto trace written by the
    driver, as self_times() input."""
    spans = []
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        args = e.get("args") or {}
        spans.append({"run_id": args["run_id"], "id": args["id"],
                      "parent": args["parent"], "name": e["name"],
                      "dur": float(e["dur"])})
    return spans

