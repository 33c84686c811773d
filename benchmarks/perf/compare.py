"""``compare A.json B.json``: did the change (B) move anything?

One row per workload and end-to-end metric.  Every value carries the
seed its run simulated, so runs are compared **in pairs** by seed: the row's
"worse by" is the median over pairs of how much worse B's run is than
A's run of the same seed.  What differs between seeds (a flow draw's
FCT, its event count, its memory) cancels; what is left is run-to-run
noise and the change.  The row's "noise" is the run-to-run spread of one
side, which is what a bound is set against: the inter-quartile distance
of the per-pair figures over sqrt(2), since a pair's difference carries
the noise of both its runs.  The verdicts follow the rules a perf claim in
this repo is judged by:

``regressed``   B is worse than A by more than the bound
``improved``    B wins at least nine pairs in ten (ties count for neither
                side) and is better by more than the noise
``unchanged``   neither
``unresolved``  the noise is wider than the bound, so a move of that size
                could hide in it — unless every run of B beat its
                counterpart (``improved``).  Raise ``--repeats`` and
                measure again; do not read it as "unchanged".

A row whose *exact* metric is not bit-identical on some shared seed is
marked so.  Exit code 1 on any ``regressed`` row or differing exact metric.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from typing import Any, Dict, List, Tuple

from .harness import format_value
from .spec import END_TO_END, Metric


def _worsening(metric: Metric, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if metric.bound == 0.0:            # an absolute metric (a share itself)
        return b - a
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / a if metric.better == "lower" else (a - b) / a


def judge(metric: Metric, a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[float, float, str]:
    """``(worse by, noise, verdict)`` for one metric on one workload."""
    pairs = [_worsening(metric, x, y) for x, y in _paired(a, b)]
    if not pairs:
        # no seed in common: only the medians can be compared
        pairs = [_worsening(metric, a["median"], b["median"])]
    worse = statistics.median(pairs)
    noise = 0.0
    if len(pairs) >= 2:
        q1, _q2, q3 = statistics.quantiles(pairs, n=4)
        noise = (q3 - q1) / math.sqrt(2.0)
    if metric.bound == 0.0:
        verdict = "regressed" if worse > 0 else "improved" if worse < 0 else "unchanged"
    elif noise > metric.bound:
        verdict = "improved" if max(pairs) < 0 else "unresolved"
    elif worse > metric.bound:
        verdict = "regressed"
    elif _wins_nine_in_ten(pairs) and -worse > noise:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return worse, noise, verdict


def _paired(a: Dict[str, Any], b: Dict[str, Any]) -> List[Tuple[float, float]]:
    """``(A's value, B's value)`` for every seed both sides measured."""
    b_by_seed = dict(zip(b["seeds"], b["values"]))
    return [(value, b_by_seed[seed])
            for seed, value in zip(a["seeds"], a["values"]) if seed in b_by_seed]


def _wins_nine_in_ten(pairs: List[float]) -> bool:
    wins = sum(1 for p in pairs if p < 0)
    losses = sum(1 for p in pairs if p > 0)
    return wins > 0 and wins >= 0.9 * (wins + losses)


def rows(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric defined there."""
    out = []
    for workload, report_a in a["workloads"].items():
        report_b = b["workloads"][workload]
        for metric in END_TO_END:
            stats_a = report_a["metrics"].get(metric.name)
            stats_b = report_b["metrics"].get(metric.name)
            if stats_a is None or stats_b is None:
                continue
            worse, noise, verdict = judge(metric, stats_a, stats_b)
            out.append({
                "workload": workload, "metric": metric, "a": stats_a,
                "b": stats_b, "worse": worse, "noise": noise,
                "verdict": verdict,
                "exact_differs": metric.exact and any(
                    x != y for x, y in _paired(stats_a, stats_b)),
            })
    return out


def main(path_a: str, path_b: str) -> int:
    try:
        with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
            a, b = json.load(fa), json.load(fb)
        table = rows(a, b)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot compare {path_a!r} and {path_b!r}: {exc}", file=sys.stderr)
        return 2
    print(f"A = {path_a} (git {a['env'].get('git_rev')}, seed {a['seed']}, "
          f"{a['repeats']} repeats)")
    print(f"B = {path_b} (git {b['env'].get('git_rev')}, seed {b['seed']}, "
          f"{b['repeats']} repeats)")
    if a["quick"] or b["quick"] or a["seed"] != b["seed"]:
        print("warning: --quick or differently seeded runs do not measure "
              "the same work; verdicts below mean little")
    print(f"{'workload':<22}{'metric':<20}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'worse by':>10}{'noise':>8}{'bound':>7}"
          "  verdict")
    for row in table:
        metric = row["metric"]

        def cell(stats):
            return (f"{format_value(stats['median'])} "
                    f"[{format_value(stats['q1'])}, {format_value(stats['q3'])}]")

        note = "  (exact metric differs)" if row["exact_differs"] else ""
        print(f"{row['workload']:<22}{metric.name:<20}{cell(row['a']):>34}"
              f"{cell(row['b']):>34}{row['worse'] * 100:>9.2f}%"
              f"{row['noise'] * 100:>7.2f}%{metric.bound * 100:>6.0f}%"
              f"  {row['verdict']}{note}")
    counts: Dict[str, int] = {}
    for row in table:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())) or "no rows")
    differing = sum(1 for row in table if row["exact_differs"])
    if differing:
        print(f"{differing} exact metric(s) differ")
    return 1 if counts.get("regressed") or differing else 0
