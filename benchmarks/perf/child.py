"""One timed (or traced) run of one workload, in a fresh process.

The parent spawns ``python3 -m benchmarks.perf child ...`` and reads one
JSON line from stdout.  A timed child carries exactly one wrapper: the
marker that notes when the workload generator's ``start()`` (for
suite-batch: ``run_jobs``) is first entered — the end of set-up and the
start of the timed region.  The layer wrappers of :mod:`layers` exist
only in a traced child.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

#: "module:owner.attr" of the call that ends set-up, per workload
START_MARKERS = {
    "fabric-ecmp": "repro.workloads.generator:PoissonWorkload.start",
    "edge-clove-ecn-asym": "repro.workloads.generator:PoissonWorkload.start",
    "observed-chaos-flap": "repro.workloads.generator:PoissonWorkload.start",
    "incast-fanin": "repro.workloads.incast:IncastWorkload.start",
    "suite-batch": "repro.suite.execute:run_jobs",
}


def install_start_marker(path: str, marks: Dict[str, Any],
                         on_start: Optional[Callable[[], None]]) -> Callable[[], None]:
    """Wrap the call at ``path``; returns the function that removes it.

    The first entry stamps ``marks["t_start"]``, keeps the object the call
    was made on (``workload``) and, for ``run_jobs``, what it returned
    (``job_results``); ``on_start`` arms the tracer in a traced child.
    """
    module_name, dotted = path.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    for name in parents:
        owner = getattr(owner, name)
    original = getattr(owner, attr)

    @functools.wraps(original)
    def marked(*args, **kwargs):
        if "t_start" in marks:
            return original(*args, **kwargs)
        marks["workload"] = args[0] if args else None
        marks["t_start"] = time.perf_counter()
        if on_start is not None:
            on_start()
        marks["job_results"] = original(*args, **kwargs)
        return marks["job_results"]

    setattr(owner, attr, marked)
    return lambda: setattr(owner, attr, original)


def main(args) -> int:
    """Run ``args.workload`` once; print one JSON object; 0 on success."""
    t_main = time.perf_counter()
    from . import workloads
    from .layers import BATCH_TARGETS, SIM_TARGETS, LayerTracer

    for module in workloads.IMPORTS[args.workload]:
        importlib.import_module(module)
    t_imported = time.perf_counter()

    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    tracer: Optional[LayerTracer] = None
    if args.traced:
        tracer = LayerTracer()
        if args.workload == "suite-batch":
            # Pool workers are forked copies: wrapping the sim stack would
            # slow them down and the spans would die with them.
            tracer.install(BATCH_TARGETS, policies=False)
        else:
            tracer.install(SIM_TARGETS)
    marks: Dict[str, Any] = {}
    # After the tracer, so the marker is outermost and arms the tracer
    # before the wrapped call opens its span.
    remove_marker = install_start_marker(
        START_MARKERS[args.workload], marks,
        tracer.arm if tracer is not None else None)
    try:
        outcome = workloads.RUNNERS[args.workload](workloads.Run(
            seed=args.seed, size=args.size, marks=marks, tracer=tracer,
            scratch=scratch,
        ))
    finally:
        remove_marker()
        if tracer is not None:
            tracer.uninstall()

    outcome.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    if tracer is not None and args.trace_out:
        payload = tracer.dump()
        payload.update(workload=args.workload, seed=args.seed, size=args.size)
        Path(args.trace_out).write_text(json.dumps(payload), encoding="utf-8")
    json.dump({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "traced": bool(args.traced),
        # perf_counter is CLOCK_MONOTONIC, one clock for parent and child:
        # the parent subtracts the instant it spawned us
        "t_main": t_main, "t_imported": t_imported, "t_start": marks["t_start"],
        "wall_s": outcome.wall_s,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": outcome.metrics, "pins": outcome.pins,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0
