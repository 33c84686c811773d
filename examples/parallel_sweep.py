#!/usr/bin/env python3
"""Parallel, cached sweeps: a suite through repro.runner.

Runs the asymmetric ECMP-vs-Clove load sweep — one scenario matrix of a
:class:`~repro.suite.SuiteSpec` — twice with the same cache directory: the
first pass executes every (scheme, load, seed) point on a pool of worker
processes; the second pass is served entirely from the on-disk result
cache and finishes in milliseconds.  Interrupting the first pass (Ctrl-C)
and re-running demonstrates resume — completed points are never
recomputed.

Run:  python examples/parallel_sweep.py [workers] [cache_dir]
"""

import sys
import time

from repro.harness.report import render_table
from repro.runner import ResultCache, RunnerConfig
from repro.suite import ScenarioSpec, SuiteSpec, run_suite
from repro.suite.figures import line_series

SCHEMES = ["ecmp", "clove-ecn"]
SPEC = SuiteSpec(
    name="asym-sweep",
    seeds=(1, 2),
    scenarios=[ScenarioSpec(
        "asym",
        base={"asymmetric": True, "jobs_per_client": 30},
        matrix={"scheme": SCHEMES, "load": [0.3, 0.5, 0.7]},
    )],
)


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    cache_dir = sys.argv[2] if len(sys.argv) > 2 else ".sweep-cache"
    runner = RunnerConfig(jobs=jobs, cache_dir=cache_dir, progress=True)
    n_points = len(SPEC.jobs())

    print(f"Sweeping {n_points} points on {jobs} workers (cache: {cache_dir})")
    result = run_suite(SPEC, runner=runner)
    lines = [(scheme, "asym", (("scheme", scheme),)) for scheme in SCHEMES]
    print(render_table(line_series(lines, "load", "avg_fct", SPEC.expand(), result)))
    print(f"cold pass: {result.meta['wall_s']:.1f}s")

    start = time.perf_counter()
    run_suite(SPEC, runner=runner)
    warm_s = time.perf_counter() - start
    print(f"warm pass: {warm_s:.3f}s — {len(ResultCache(cache_dir))} cached "
          f"points, nothing re-executed")


if __name__ == "__main__":
    main()
