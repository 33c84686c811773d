"""Parent side: spawn children, take medians, check pins, print.

Nothing here imports ``repro``: every measurement happens in a fresh
child process (one at a time — the box has two cores and suite-batch
uses both), so interpreter start, imports and memory are part of what is
measured and no run warms the next one's caches.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import ROOT, SCRATCH, SRC
from .spec import (
    END_TO_END, METRICS, WORKLOADS, Metric, gated_metrics, ungated_metrics,
)

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: pinned outputs cover these ``--seed`` values (2 is held out: never
#: used while tuning the benchmark or a change)
PINNED_SEEDS = (1, 2)
#: most repeats one (workload, seed) ever gets, so pins can cover them all
MAX_REPEATS = 8
#: a child that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0

_END_TO_END_NAMES = frozenset(m.name for m in END_TO_END)


def sim_seed(seed: int, repeat: int) -> int:
    """The seed repeat ``repeat`` of ``--seed seed`` simulates with.

    Repeats use distinct seeds on purpose: a workload's per-packet cost
    depends on which flows it drew (up to ~10% on edge-clove-ecn-asym),
    and the median over several draws is steadier across ``--seed``
    values than any number of repeats of one draw.
    """
    return seed * 100 + repeat


# ----------------------------------------------------------------------
# Expected outputs
# ----------------------------------------------------------------------
def load_expected() -> Dict[str, Any]:
    if not EXPECTED_PATH.exists():
        return {"sizes": {}, "pins": {}}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def expected_pins(expected, workload: str, seed: int, size: int) -> Optional[Dict[str, Any]]:
    """The pinned outputs of this run, or None when it is not pinned."""
    if expected.get("sizes", {}).get(workload) != size:
        return None
    return expected.get("pins", {}).get(workload, {}).get(str(seed))


def pin_mismatches(pinned: Dict[str, Any], got: Dict[str, Any]) -> List[str]:
    """Human-readable differences between pinned and observed outputs."""
    out = []
    for key in sorted(set(pinned) | set(got)):
        if pinned.get(key) != got.get(key):
            out.append(f"{key}: expected {pinned.get(key)!r}, got {got.get(key)!r}")
    return out


# ----------------------------------------------------------------------
# One child
# ----------------------------------------------------------------------
def run_child(
    workload: str,
    seed: int,
    size: int,
    *,
    expected: Optional[Dict[str, Any]] = None,
    traced: bool = False,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """One run in a fresh process.

    Returns the child's sample with the set-up metrics added and, when
    the run is pinned, ``mismatches``; on a crash, timeout or garbage
    output returns ``{"seed": ..., "error": ...}`` instead.
    """
    SCRATCH.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="child-", dir=SCRATCH)
    pinned = expected_pins(expected or {}, workload, seed, size)
    command = [
        sys.executable, "-m", "benchmarks.perf", "child",
        "--workload", workload, "--seed", str(seed), "--size", str(size),
        "--scratch", str(scratch),
    ]
    if traced:
        command.append("--traced")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"timed out after {CHILD_TIMEOUT_S:g}s"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"seed": seed, "error": f"exit {proc.returncode}: {tail[0]}"}
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"seed": seed, "error": "child printed no JSON result"}
    metrics = sample["metrics"]
    metrics["setup_s"] = sample["t_start"] - spawned
    metrics["harness.import_s"] = sample["t_imported"] - spawned
    metrics["harness.build_s"] = sample["t_start"] - sample["t_imported"]
    if pinned is not None:
        sample["mismatches"] = pin_mismatches(pinned, sample["pins"])
        if sample["mismatches"]:
            # a run that computed something else did not do the work
            sample["failed"] = sample["attempted"]
            metrics["flows_failed_share"] = 1.0
    return sample


# ----------------------------------------------------------------------
# Many children -> one workload report
# ----------------------------------------------------------------------
def summarize(values: List[float], seeds: List[int]) -> Dict[str, Any]:
    """Median, quartiles and count of one metric's samples.

    ``seeds[i]`` is the simulator seed ``values[i]`` was measured on:
    ``compare`` pairs the runs of two files by it.
    """
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values, "seeds": seeds}


def workload_report(
    workload: str,
    quick: bool,
    timed: List[Dict[str, Any]],
    traced: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold the timed samples (and the traced one) into one report.

    End-to-end numbers and counters come from the timed runs only; the
    traced run contributes the metrics nothing else can give, plus
    ``trace.overhead_pct``.
    """
    ok = [s for s in timed if "error" not in s]
    problems = [s["error"] for s in timed if "error" in s]
    for sample in ok:
        problems += [f"seed {sample['seed']}: {m}"
                     for m in sample.get("mismatches", [])]
    # a run that died before reporting failed everything it was to attempt
    lost = WORKLOADS[workload].operations(quick) * (len(timed) - len(ok))
    counted = ok if timed or traced is None or "error" in traced else [traced]
    attempted = sum(s["attempted"] for s in counted) + lost
    failed = sum(s["failed"] for s in counted) + lost

    metrics = {}
    for name in sorted({name for s in ok for name in s["metrics"]}):
        have = [s for s in ok if name in s["metrics"]]
        metrics[name] = summarize([s["metrics"][name] for s in have],
                                  [s["seed"] for s in have])
    if timed:
        # every run counts, also the ones that died before reporting
        metrics["flows_failed_share"] = summarize(
            [1.0 if "error" in s else s["metrics"]["flows_failed_share"]
             for s in timed], [s["seed"] for s in timed])
    if traced is not None:
        if "error" in traced:
            problems.append(f"traced run: {traced['error']}")
        else:
            problems += [f"traced run: {m}" for m in traced.get("mismatches", [])]
            if ok and traced["pins"] != _same_seed(ok, traced).get("pins", traced["pins"]):
                problems.append("traced run computed different outputs "
                                "than the untraced run of the same seed")
            for name, value in traced["metrics"].items():
                # end-to-end numbers never come from a traced run
                if name not in metrics and name not in _END_TO_END_NAMES:
                    metrics[name] = summarize([value], [traced["seed"]])
            rate = WORKLOADS[workload].rate
            if rate in metrics and traced["metrics"].get(rate):
                metrics["trace.overhead_pct"] = summarize([
                    (metrics[rate]["median"] / traced["metrics"][rate] - 1.0) * 100.0
                ], [traced["seed"]])
    return {
        "runs": len(timed), "attempted": attempted, "failed": failed,
        "correct": not problems, "problems": problems,
        "metrics": {name: metrics[name] for name in METRICS if name in metrics},
    }


def _same_seed(samples, other) -> Dict[str, Any]:
    for sample in samples:
        if sample["seed"] == other["seed"]:
            return sample
    return {}


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def format_value(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.2f}"
    return f"{value:.4g}"


def print_report(workload: str, report: Dict[str, Any], out=sys.stdout) -> None:
    status = "ok" if report["correct"] else "INCORRECT"
    print(f"\n== {workload}: {report['runs']} timed run(s), "
          f"{report['failed']}/{report['attempted']} operations failed, "
          f"outputs {status}", file=out)
    for problem in report["problems"]:
        print(f"   ! {problem}", file=out)
    print(f"   {'metric':<40}{'unit':<10}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}",
          file=out)
    for kind, wanted in (("end-to-end", True), ("per-layer", False)):
        print(f"   [{kind}]", file=out)
        for name, stats in report["metrics"].items():
            if (name in _END_TO_END_NAMES) != wanted:
                continue
            print(f"   {name:<40}{METRICS[name].unit:<10}"
                  f"{format_value(stats['median']):>12}"
                  f"{format_value(stats['q1']):>12}"
                  f"{format_value(stats['q3']):>12}{stats['n']:>4}", file=out)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    """Where the numbers were taken; stored in every result file."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5.0, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "git_rev": rev,
        "recorded_unix": time.time(),
    }


def require_program() -> None:
    """Fail fast (no result line) where there is nothing to measure."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(
            f"benchmarks.perf: {SRC / 'repro'} not found — run from a "
            "checkout that holds the program under src/")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def traced_run(workload: str, seed: int, quick: bool, expected) -> Dict[str, Any]:
    """The one traced run of a workload; writes ``trace_<workload>.json``
    into the scratch directory."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    trace_file = SCRATCH / f"trace_{workload}.json"
    sample = run_child(
        workload, sim_seed(seed, 0), WORKLOADS[workload].size(quick),
        expected=expected, traced=True, trace_out=trace_file,
    )
    if "error" not in sample:
        sample["trace_file"] = str(trace_file.relative_to(ROOT))
    return sample


def cmd_run(args) -> int:
    """Every workload ``repeats`` times, round-robin, then one traced run."""
    require_program()
    if args.record_expected:
        return record_expected()
    repeats = 1 if args.quick else args.repeats
    if not 1 <= repeats <= MAX_REPEATS:
        raise SystemExit(f"--repeats must be between 1 and {MAX_REPEATS}")
    expected = load_expected()
    env = environment()
    timed: Dict[str, List[Dict[str, Any]]] = {name: [] for name in WORKLOADS}
    # Round-robin, so a noisy minute hits every workload alike.
    for repeat in range(repeats):
        for name in WORKLOADS:
            print(f"[run {repeat + 1}/{repeats}] {name}", file=sys.stderr)
            timed[name].append(run_child(
                name, sim_seed(args.seed, repeat),
                WORKLOADS[name].size(args.quick), expected=expected))
    reports = {}
    for name in WORKLOADS:
        print(f"[traced] {name}", file=sys.stderr)
        traced = traced_run(name, args.seed, args.quick, expected)
        reports[name] = workload_report(name, args.quick, timed[name], traced)
        reports[name]["trace_file"] = traced.get("trace_file")
        print_report(name, reports[name])
    derived = {}
    ecmp = reports["fabric-ecmp"]["metrics"].get("packets_per_s")
    clove = reports["edge-clove-ecn-asym"]["metrics"].get("packets_per_s")
    if ecmp and clove:      # absent only when every run of one of them died
        derived["edge_cost_ratio"] = ecmp["median"] / clove["median"]
        print(f"\nderived.edge_cost_ratio = {derived['edge_cost_ratio']:.4f} "
              "(packets_per_s fabric-ecmp / edge-clove-ecn-asym, ungated)")
    if args.quick:
        print("\n--quick: one short run per workload, outputs unpinned, "
              "no bounds apply")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema": 1, "env": env, "seed": args.seed, "repeats": repeats,
            "quick": bool(args.quick), "workloads": reports,
            "derived": derived,
        }, indent=1) + "\n", encoding="utf-8")
        print(f"\nresults written to {args.out}")
    return 0 if all(r["correct"] and not r["failed"] for r in reports.values()) else 1


def cmd_trace(args) -> int:
    """Only the traced runs: per-layer numbers and the span files."""
    require_program()
    expected = load_expected()
    status = 0
    for name in WORKLOADS:
        sample = traced_run(name, args.seed, args.quick, expected)
        report = workload_report(name, args.quick, [], sample)
        print_report(name, report)
        if "trace_file" in sample:
            print(f"   spans: {sample['trace_file']}")
        status |= 0 if report["correct"] else 1
    return status


def cmd_bench(args) -> int:
    """The driver's entry: one workload, one seed, one JSON line.

    Repeats run for ``--seconds`` (at most MAX_REPEATS of them), so a
    slower machine measures for as long but over fewer repeats.  With
    ``--trace 1`` half the time goes to untraced repeats (the counters
    and the base of ``trace.overhead_pct``) and one traced run follows.
    """
    require_program()
    name = args.workload
    size = WORKLOADS[name].size()
    expected = load_expected()
    budget = args.seconds / 2.0 if args.trace else float(args.seconds)
    timed: List[Dict[str, Any]] = []
    began = time.perf_counter()
    while len(timed) < MAX_REPEATS:
        timed.append(run_child(
            name, sim_seed(args.seed, len(timed)), size, expected=expected))
        elapsed = time.perf_counter() - began
        # stop when one more repeat would end past the budget
        if elapsed + elapsed / len(timed) > budget:
            break
    traced = None
    if args.trace:
        traced = traced_run(name, args.seed, False, expected)
    report = workload_report(name, False, timed, traced)
    for problem in report["problems"]:
        print(f"benchmarks.perf: {name}: {problem}", file=sys.stderr)
    values = {m.name: driver_value(name, m, report["metrics"])
              for m in (ungated_metrics() if args.trace else gated_metrics())}
    # a gated metric exists on every workload: without it, no result
    missing = [metric for metric, value in values.items()
               if value is None and METRICS[metric].gated]
    if missing:
        print(f"benchmarks.perf: {name}: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            metric: {"value": 0.0 if value is None else value,
                     "unit": METRICS[metric].unit}
            for metric, value in values.items()
        },
    }))
    return 0


def driver_value(workload: str, metric: Metric,
                 metrics: Dict[str, Any]) -> Optional[float]:
    """The median the driver gets for a metric, None where the workload
    has none (printed as 0).

    The driver wants every gated metric on every workload, so on
    suite-batch, which has no packet count to report (pooled jobs return
    scalars only), the ``packets_per_s`` slot carries the workload's own
    rate, ``jobs_per_s``.
    """
    name = metric.name
    if name == "packets_per_s":
        name = WORKLOADS[workload].rate
    stats = metrics.get(name)
    return None if stats is None else stats["median"]


# ----------------------------------------------------------------------
# Recording the pins
# ----------------------------------------------------------------------
def record_expected() -> int:
    """Re-run every pinned (workload, seed, repeat); rewrite expected.json
    and print what changed."""
    old = load_expected()
    sizes = {name: w.size() for name, w in WORKLOADS.items()}
    pins: Dict[str, Dict[str, Any]] = {name: {} for name in WORKLOADS}
    seeds = [sim_seed(s, r) for s in PINNED_SEEDS for r in range(MAX_REPEATS)]
    for name in WORKLOADS:
        for seed in seeds:
            print(f"[record] {name} seed {seed}", file=sys.stderr)
            sample = run_child(name, seed, sizes[name])
            if "error" in sample or sample["failed"]:
                print(f"cannot pin {name} seed {seed}: "
                      f"{sample.get('error', 'operations failed')}",
                      file=sys.stderr)
                return 1
            pins[name][str(seed)] = sample["pins"]
    changed = 0
    for name in WORKLOADS:
        before = old.get("pins", {}).get(name, {})
        if old.get("sizes", {}).get(name) != sizes[name]:
            before = {}
        for key in sorted(set(before) | set(pins[name])):
            for line in pin_mismatches(before.get(key, {}), pins[name].get(key, {})):
                print(f"{name} [{key}] {line}")
                changed += 1
    EXPECTED_PATH.write_text(
        json.dumps({"sizes": sizes, "pins": pins}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"{EXPECTED_PATH}: {changed} pinned value(s) changed")
    return 0
