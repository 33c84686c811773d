"""The traced run: per-layer self time, measured from outside.

``SimProfiler`` books 99% of host time to ``Link._deliver`` because the
whole stack — switch, host, vswitch, policy, TCP — runs nested inside
that one engine callback.  This module instead wraps each layer's public
entry points (and the callbacks a layer hands to the engine) at class
level, *before any object is built* since handlers are bound at
construction.  Every call is a span on a stack; a span's self time is its
duration minus the time its child spans cover.

Wrappers preserve ``__qualname__`` (the audit digest hashes it), schedule
nothing and draw no randomness, so a traced run computes exactly what an
untraced one does.  They cost host time, so end-to-end numbers never come
from a traced run.  The cost of entering and leaving a child span lands
in the *caller's* self time; ``trace.overhead_pct`` says how much there
is in total.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, "module:Class", methods) — the simulation stack
SIM_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine:Simulator", ("run", "schedule", "at")),
    ("sim", "repro.sim.engine:Event", ("cancel",)),
    ("net.link", "repro.net.link:Link", ("send", "_deliver")),
    ("net.switch", "repro.net.switch:Switch", ("receive",)),
    ("hypervisor.host", "repro.hypervisor.host:Host",
     ("receive", "send_from_guest", "deliver_to_guest", "nic_send")),
    ("hypervisor.vswitch", "repro.hypervisor.vswitch:VSwitch",
     ("transmit", "receive_encapsulated", "receive_rewritten",
      "_on_flush_timer")),
    ("core.discovery", "repro.core.discovery:PathDiscovery",
     ("notice_destination", "on_icmp", "on_probe_reply", "start_round",
      "_send_probe", "_finish_round", "_reprobe")),
    ("core.health", "repro.core.health:PathHealthMonitor",
     ("start", "on_probe_reply", "on_echo", "_cycle", "_send_probe",
      "_on_timeout", "_advance_probation", "_rediscover")),
    ("transport.tcp", "repro.transport.tcp:TcpSender",
     ("on_packet", "send", "_on_rto", "_on_tlp")),
    ("transport.tcp", "repro.transport.tcp:TcpReceiver", ("on_packet",)),
    ("workloads", "repro.transport.tcp:Connection", ("start_flow",)),
    ("workloads", "repro.workloads.generator:PoissonWorkload",
     ("_submit_job",)),
    ("workloads", "repro.workloads.incast:IncastWorkload",
     ("_issue_request", "_on_flow_complete")),
    ("metrics", "repro.metrics.collector:MetricsCollector",
     ("job_started", "job_finished", "summary")),
    ("telemetry", "repro.telemetry.events:EventLog", ("emit",)),
    ("telemetry", "repro.telemetry.registry:Counter", ("inc", "set_total")),
    ("telemetry", "repro.telemetry.registry:Gauge", ("set", "inc", "dec")),
    ("telemetry", "repro.telemetry.registry:Histogram", ("observe",)),
    ("telemetry", "repro.telemetry.trace:Tracer",
     ("begin", "end", "instant", "flow_begin", "flow_end", "flowlet",
      "flowlet_bytes", "finish_run")),
    ("telemetry", "repro.telemetry.core:Telemetry",
     ("observe_network", "observe_hosts", "observe_collector")),
    ("audit", "repro.audit.auditor:Auditor",
     ("checkpoint", "finalize", "on_ce_observed", "on_echo_consumed",
      "on_time_regression")),
    ("chaos", "repro.chaos.engine:ChaosEngine", ("_apply", "finish")),
    ("chaos", "repro.chaos.engine:ControlPlaneState",
     ("filter_echo", "drop_probe", "_deliver_late")),
)

#: the ``LoadBalancer`` methods wrapped on whichever subclass defines them
POLICY_BASE = "repro.hypervisor.policy:LoadBalancer"
POLICY_METHODS = ("select_source_port", "on_path_feedback",
                  "all_paths_congested", "set_paths")

#: the batch path (suite-batch); ``fingerprint`` is a property
BATCH_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("runner", "repro.suite.execute:run_jobs", ()),
    ("runner", "repro.runner.cache:ResultCache", ("get", "put")),
    ("runner", "repro.runner.job:JobSpec", ("fingerprint",)),
    ("suite", "repro.suite.spec:SuiteSpec", ("expand",)),
    ("suite", "repro.suite.baseline:baselines_from_result", ()),
    ("suite", "repro.suite.baseline:check_result", ()),
)

#: raw spans are kept for packets whose id is a multiple of this
SAMPLE_EVERY = 64
#: fixed memory cap on raw spans (~100 bytes each)
MAX_RAW_SPANS = 100_000

ROOT_LAYER = "harness"
ROOT_NAME = "harness.run"


def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Name"`` -> (module, "Name")."""
    module_name, attr = path.split(":")
    return importlib.import_module(module_name), attr


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class LayerTracer:
    """Installs the wrappers, keeps the span stack, aggregates as it goes."""

    def __init__(self) -> None:
        self.armed = False
        #: open spans, innermost last: [layer, name, child_ns]
        self._stack: List[List[Any]] = []
        #: (span name, calling layer) -> [calls, self_ns]
        self._agg: Dict[Tuple[str, str], List[int]] = {}
        #: sampled raw spans: (name, packet id, start_ns, end_ns, parent)
        self.raw: List[Tuple[str, int, int, int, str]] = []
        self.raw_dropped = 0
        #: (owner, attribute, original) for uninstall
        self._installed: List[Tuple[Any, str, Any]] = []
        self._armed_at = 0
        self.wall_ns = 0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        stack = self._stack
        agg = self._agg
        raw = self.raw
        now = time.perf_counter_ns
        tracer = self
        packet_arg = _packet_position(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [layer, name, 0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                duration = end - start
                stack.pop()
                parent[2] += duration
                key = (name, parent[0])
                cell = agg.get(key)
                if cell is None:
                    agg[key] = [1, duration - frame[2]]
                else:
                    cell[0] += 1
                    cell[1] += duration - frame[2]
                if packet_arg is not None and len(args) > packet_arg:
                    pid = getattr(args[packet_arg], "pid", 1)
                    if pid % SAMPLE_EVERY == 0:
                        if len(raw) < MAX_RAW_SPANS:
                            raw.append((name, pid, start, end, parent[1]))
                        else:
                            tracer.raw_dropped += 1

        traced.__perf_original__ = fn
        return traced

    def _install_one(self, owner: Any, attr: str, layer: str, name: str) -> None:
        current = inspect.getattr_static(owner, attr)
        is_property = isinstance(current, property)
        fn = current.fget if is_property else current
        if hasattr(fn, "__perf_original__"):
            return
        wrapped = self._wrap(fn, layer, name)
        self._installed.append((owner, attr, current))
        setattr(owner, attr, property(wrapped) if is_property else wrapped)

    def install(self, targets=SIM_TARGETS, policies: bool = True) -> None:
        """Wrap every target (idempotent: an already-wrapped one is left)."""
        for layer, path, methods in targets:
            module, attr = _resolve(path)
            if not methods:       # a module-level function
                self._install_one(module, attr, layer, f"{layer}.{attr}")
                continue
            cls = getattr(module, attr)
            for method in methods:
                self._install_one(cls, method, layer,
                                  f"{layer}.{attr}.{method}")
        if policies:
            # import every scheme first, or its subclass is not yet known
            importlib.import_module("repro.harness.experiment")
            module, attr = _resolve(POLICY_BASE)
            for cls in _subclasses(getattr(module, attr)):
                for method in POLICY_METHODS:
                    if method in vars(cls):
                        self._install_one(
                            cls, method, "core.policy",
                            f"core.policy.{cls.__name__}.{method}")

    def uninstall(self) -> None:
        """Put the original function objects back (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # The traced window
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Open the root span; spans are recorded from here on."""
        self._stack[:] = [[ROOT_LAYER, ROOT_NAME, 0]]
        self._armed_at = time.perf_counter_ns()
        self.armed = True

    def disarm(self) -> None:
        """Close the root span; its self time is the harness's own."""
        if not self.armed:
            return
        self.armed = False
        self.wall_ns = time.perf_counter_ns() - self._armed_at
        root = self._stack[0]
        self._agg[(ROOT_NAME, "")] = [1, self.wall_ns - root[2]]
        del self._stack[:]

    def totals(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """A copy of the running aggregate (phase boundaries diff two)."""
        return {key: (cell[0], cell[1]) for key, cell in self._agg.items()}

    # ------------------------------------------------------------------
    # Reading the result
    # ------------------------------------------------------------------
    def _items(self, totals):
        return (self.totals() if totals is None else totals).items()

    def layer_self_ns(self, totals=None) -> Dict[str, int]:
        """Self time per layer (span name up to its class/function part)."""
        out: Dict[str, int] = {}
        for (name, _parent), (_calls, self_ns) in self._items(totals):
            layer = layer_of(name)
            out[layer] = out.get(layer, 0) + self_ns
        return out

    def calls(self, suffix: str, totals=None, not_from: Optional[str] = None) -> int:
        """Calls of every span whose name ends with ``suffix`` (optionally
        only those not made from layer ``not_from``)."""
        return sum(
            count for (name, parent), (count, _self) in self._items(totals)
            if name.endswith(suffix) and parent != not_from
        )

    def self_ns(self, suffix: str, totals=None) -> int:
        """Self time of every span whose name ends with ``suffix``."""
        return sum(
            self_ns for (name, _parent), (_calls, self_ns) in self._items(totals)
            if name.endswith(suffix)
        )

    def dump(self) -> Dict[str, Any]:
        """Everything, JSON-ready: the ``trace_<workload>.json`` payload."""
        return {
            "wall_ns": self.wall_ns,
            "sample_every": SAMPLE_EVERY,
            "raw_dropped": self.raw_dropped,
            "layers": dict(sorted(self.layer_self_ns().items())),
            "spans": [
                {"name": name, "from": parent, "calls": calls,
                 "self_ns": self_ns}
                for (name, parent), (calls, self_ns)
                in sorted(self.totals().items())
            ],
            "raw": [
                {"name": name, "packet": pid, "start_ns": start,
                 "end_ns": end, "parent": parent}
                for name, pid, start, end, parent in self.raw
            ],
        }


_KNOWN_LAYERS = tuple(sorted(
    {layer for layer, _p, _m in SIM_TARGETS + BATCH_TARGETS}
    | {"core.policy", ROOT_LAYER},
    key=len, reverse=True,
))


def layer_of(span_name: str) -> str:
    """``net.link.Link.send`` -> ``net.link``."""
    for layer in _KNOWN_LAYERS:
        if span_name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span_name!r} belongs to no known layer")


def _packet_position(fn: Callable) -> Optional[int]:
    """Index of the ``packet`` argument, or None when there is none."""
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    for wanted in ("packet", "probe"):
        if wanted in names:
            return names.index(wanted)
    return None
