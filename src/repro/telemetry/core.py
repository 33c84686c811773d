"""The :class:`Telemetry` facade: one scope = one registry + event log +
optional engine profiler + run manifests.

Experiments create one ``Telemetry`` per run (or share one across a sweep),
``instrument()`` it into the assembled fabric, and ``export_jsonl()`` the
whole scope into a single artifact::

    telemetry = Telemetry(profile=True)
    result = run_experiment(config, telemetry=telemetry)
    telemetry.export_jsonl("run.jsonl")

The default scope for instrumented code is :data:`NULL_TELEMETRY` — disabled,
shared, and allocation-free — so uninstrumented runs pay only a handful of
``is not None`` checks on the datapath.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.telemetry.events import EventLog, open_text, read_jsonl
from repro.telemetry.profiler import SimProfiler
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import Tracer

_git_rev_cache: Optional[str] = None
_git_rev_known = False


def git_revision() -> Optional[str]:
    """HEAD of the checkout this package runs from, or None when it is not
    inside one — whatever directory the caller happens to be in."""
    global _git_rev_cache, _git_rev_known
    if not _git_rev_known:
        _git_rev_known = True
        import subprocess  # only the first manifest of a process needs it

        try:
            _git_rev_cache = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True, text=True, timeout=5.0, check=True,
            ).stdout.strip() or None
        except Exception:
            _git_rev_cache = None
    return _git_rev_cache


class Telemetry:
    """One observability scope: metrics + events + profile + manifests."""

    def __init__(
        self,
        enabled: bool = True,
        event_capacity: int = 65536,
        profile: bool = False,
        trace: bool = True,
        trace_capacity: int = 200_000,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.events = EventLog(capacity=event_capacity, enabled=enabled)
        #: causal span tracer (flow/flowlet/reaction/outage timelines)
        self.trace = Tracer(capacity=trace_capacity, enabled=enabled and trace)
        self.profiler: Optional[SimProfiler] = (
            SimProfiler() if (enabled and profile) else None
        )
        #: one manifest dict per run recorded in this scope
        self.manifests: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Run manifests
    # ------------------------------------------------------------------
    def manifest(self, **fields: Any) -> Dict[str, Any]:
        """Record (and return) a run manifest: config, seed, git rev, etc.

        The returned dict is live — callers typically stamp wall time and
        event totals into it when the run finishes.
        """
        entry: Dict[str, Any] = {
            "kind": "manifest",
            "git_rev": git_revision(),
            "recorded_unix": time.time(),
        }
        entry.update(fields)
        if self.enabled:
            self.manifests.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Wiring into an assembled experiment
    # ------------------------------------------------------------------
    def instrument(self, sim=None, net=None, hosts=None) -> None:
        """Attach this scope to an assembled fabric (no-op when disabled).

        ``sim`` gains the profiler (when profiling was requested); every
        link, switch and host (vswitch + policy + weight table) gains bound
        event/counter hooks on its hot paths — so call this before the
        first packet moves.  No link gains a rate estimator: the end-of-run
        ``link.mean_utilization`` gauge is computed from counters at
        scrape time (:meth:`observe_network`).
        """
        if not self.enabled:
            return
        if sim is not None and self.profiler is not None:
            sim.profiler = self.profiler
        if net is not None:
            for switch in net.switches.values():
                switch.attach_telemetry(self)
            for link in net.all_links():
                link.attach_telemetry(self)
        if hosts is not None:
            for host in _values(hosts):
                host.attach_telemetry(self)

    # ------------------------------------------------------------------
    # Scrape-style collection (fold component counters into the registry)
    # ------------------------------------------------------------------
    def observe_network(self, net) -> None:
        """Fold switch/link/queue state into the registry (idempotent).

        Reads counters only, never ``Link.sync()``: an eviction changes
        what a later ``Link.fail()`` loses.  ``link.mean_utilization`` is
        ``tx_bytes`` over what the nominal rate could carry since time 0.
        """
        if not self.enabled:
            return
        reg = self.registry
        for name, switch in net.switches.items():
            reg.counter("switch.rx_packets", switch=name).set_total(switch.rx_packets)
            reg.counter("switch.blackholed", switch=name).set_total(switch.blackholed)
            reg.counter("switch.ttl_expired", switch=name).set_total(switch.ttl_expired)
            reg.counter("switch.icmp_originated", switch=name).set_total(
                switch.icmp_originated
            )
        for link in net.all_links():
            stats = link.queue.stats
            labels = {"link": link.name}
            reg.counter("link.tx_packets", **labels).set_total(link.tx_packets)
            reg.counter("link.tx_bytes", **labels).set_total(link.tx_bytes)
            reg.counter("link.rx_delivered", **labels).set_total(link.rx_delivered)
            reg.counter("link.lost_in_flight", **labels).set_total(link.lost_in_flight)
            reg.counter("link.flushed_packets", **labels).set_total(link.flushed_packets)
            reg.counter("queue.dropped", **labels).set_total(stats.dropped)
            reg.counter("queue.probe_dropped", **labels).set_total(stats.probe_dropped)
            reg.counter("queue.enqueued", **labels).set_total(stats.enqueued)
            reg.counter("queue.dequeued", **labels).set_total(stats.dequeued)
            reg.counter("queue.ecn_marked", **labels).set_total(stats.ecn_marked)
            reg.gauge("queue.peak_packets", **labels).set(stats.peak_packets)
            reg.gauge("queue.depth_packets", **labels).set(len(link.queue))
            elapsed = link.sim.now
            reg.gauge("link.mean_utilization", **labels).set(
                link.tx_bytes * 8 / (link.nominal_rate_bps * elapsed)
                if elapsed > 0 else 0.0)

    def observe_hosts(self, hosts) -> None:
        """Fold hypervisor and guest-TCP counters into the registry."""
        if not self.enabled:
            return
        reg = self.registry
        for name, labels, value in host_counters(hosts):
            reg.counter(name, **labels).set_total(value)
        totals = {
            "tcp.fast_retransmits": 0, "tcp.timeouts": 0, "tcp.ecn_reductions": 0,
            "tcp.tlp_probes": 0, "tcp.packets_sent": 0, "tcp.ooo_packets": 0,
        }
        for host in _values(hosts):
            health = getattr(host, "health", None)
            if health is not None:
                reg.gauge("health.quarantined_paths", host=host.name).set(
                    health.quarantined_now()
                )
            for endpoint in getattr(host, "_endpoints", {}).values():
                if hasattr(endpoint, "fast_retransmits"):  # a TCP sender
                    totals["tcp.fast_retransmits"] += endpoint.fast_retransmits
                    totals["tcp.timeouts"] += endpoint.timeouts
                    totals["tcp.ecn_reductions"] += endpoint.ecn_reductions
                    totals["tcp.tlp_probes"] += getattr(endpoint, "tlp_probes", 0)
                    totals["tcp.packets_sent"] += endpoint.packets_sent
                elif hasattr(endpoint, "ooo_packets"):     # a TCP receiver
                    totals["tcp.ooo_packets"] += endpoint.ooo_packets
        for name, value in totals.items():
            reg.counter(name).set_total(value)

    def observe_collector(self, collector) -> None:
        """Fold flow-completion times into an ``fct_seconds`` histogram."""
        if not self.enabled:
            return
        histogram = self.registry.histogram("fct_seconds")
        for fct in collector.fcts():
            histogram.observe(fct)
        self.registry.counter("jobs.submitted").set_total(len(collector.jobs))
        self.registry.counter("jobs.completed").set_total(
            len(collector.completed())
        )

    # ------------------------------------------------------------------
    # Cross-process merge (repro.runner workers dump, the parent absorbs)
    # ------------------------------------------------------------------
    def dump_state(self) -> Dict[str, Any]:
        """Serialize the whole scope for transport between processes.

        The result is plain JSON-able data (it crosses a pickle boundary in
        :mod:`repro.runner` and could equally be written to disk).  Profiler
        state is not transported — per-worker engine profiles cannot be
        merged meaningfully into the parent's.
        """
        return {
            "manifests": list(self.manifests),
            "registry": self.registry.dump(),
            "events": self.events.dump(),
            "events_dropped": self.events.dropped,
            "trace": self.trace.dump(),
        }

    def absorb(self, state: Dict[str, Any]) -> None:
        """Merge a :meth:`dump_state` from another scope into this one.

        Manifests append, counters add, gauges take the dumped value,
        histograms merge buckets, and events replay into the ring (oldest
        first, so the merged window drops the right end under pressure).
        """
        if not self.enabled:
            return
        self.manifests.extend(state.get("manifests", ()))
        self.registry.absorb(state.get("registry", {}))
        self.events.absorb(
            state.get("events", ()), dropped=state.get("events_dropped", 0)
        )
        self.trace.absorb(state.get("trace", {}))

    # ------------------------------------------------------------------
    # Export / snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The whole scope as one JSON-serializable dict."""
        out: Dict[str, Any] = {"manifests": list(self.manifests)}
        out.update(self.registry.snapshot())
        out["events_by_type"] = dict(self.events.counts_by_type())
        out["events_dropped"] = self.events.dropped
        if self.profiler is not None:
            out["profile"] = self.profiler.summary()
        return out

    def export_jsonl(self, path: str) -> int:
        """Write the scope as a JSONL artifact; returns the line count.

        Line kinds: ``manifest`` (one per recorded run), ``counters`` /
        ``gauges`` / ``histograms`` (one snapshot line each), ``profile``
        (when profiling ran), one ``event`` line per buffered event, then
        one ``span`` line per recorded trace span (canonically ordered).
        Paths ending in ``.gz`` are gzip-compressed.
        """
        lines = 0
        with open_text(path, "w") as fp:
            def _write(record: Dict[str, Any]) -> None:
                nonlocal lines
                fp.write(json.dumps(record, default=str))
                fp.write("\n")
                lines += 1

            for manifest in self.manifests:
                _write(manifest)
            metrics = self.registry.snapshot()
            _write({"kind": "counters", "values": metrics["counters"]})
            _write({"kind": "gauges", "values": metrics["gauges"]})
            _write({"kind": "histograms", "values": metrics["histograms"]})
            if self.profiler is not None:
                _write({"kind": "profile", **self.profiler.summary()})
            if self.events.dropped:
                _write({"kind": "events_dropped", "count": self.events.dropped})
            if self.trace.dropped:
                _write({"kind": "spans_dropped", "count": self.trace.dropped})
            lines += self.events.write_jsonl(fp)
            lines += self.trace.write_jsonl(fp)
        return lines


#: the per-host counters, by the component that keeps them:
#: ``(counter name, attribute)`` rows, one table per component
_HOST_COUNTERS = (
    ("host.rx_packets", "rx_packets"),
    ("host.tx_nic_packets", "tx_nic_packets"),
)
_VSWITCH_COUNTERS = (
    ("vswitch.tx_encapsulated", "tx_encapsulated"),
    ("vswitch.rx_encapsulated", "rx_encapsulated"),
    ("vswitch.echoes_sent", "echoes_sent"),
    ("vswitch.echoes_received", "echoes_received"),
    ("vswitch.echoes_carried", "echoes_carried"),
    ("vswitch.echoes_corrupt_dropped", "echoes_corrupt_dropped"),
    ("vswitch.echoes_stale_rejected", "echoes_stale_rejected"),
    ("vswitch.guest_ecn_injected", "guest_ecn_injected"),
)
_WEIGHTS_COUNTERS = (
    ("clove.weight_reductions", "weight_reductions"),
    ("weights.unknown_port", "unknown_ports"),
    ("weights.stale_echoes", "stale_echoes"),
    ("weights.stale_applied", "stale_applied"),
    ("weights.epoch_bumps", "epoch_bumps"),
)
_CONTROL_FAULT_COUNTERS = (
    ("chaos.echoes_dropped", "echoes_dropped"),
    ("chaos.echoes_delayed", "echoes_delayed"),
    ("chaos.echoes_delivered_late", "echoes_delivered_late"),
    ("chaos.echoes_duplicated", "echoes_duplicated"),
    ("chaos.echoes_corrupted", "echoes_corrupted"),
    ("chaos.probes_dropped", "probes_dropped"),
)
_HEALTH_COUNTERS = (
    ("health.probes_sent", "probes_sent"),
    ("health.probes_suppressed", "probes_suppressed"),
    ("health.probes_lost", "probes_lost"),
    ("health.quarantines", "quarantines"),
    ("health.restores", "restores"),
    ("health.suspect_events", "suspect_events"),
)


def host_counters(hosts) -> Iterator[Tuple[str, Dict[str, str], int]]:
    """Every per-host counter as ``(name, labels, value)``.

    A component's rows appear only when the host has it: weight-table
    counters for policies with a table, ``chaos.*`` for hosts a control
    plane fault plan targets, ``health.*`` for hosts a monitor runs on.
    :meth:`Telemetry.observe_hosts` and the live-run projection of
    :func:`repro.chaos.metrics.run_records` both read this one list.
    """
    for host in _values(hosts):
        labels = {"host": host.name}
        vswitch = host.vswitch
        for component, rows in (
            (host, _HOST_COUNTERS),
            (vswitch, _VSWITCH_COUNTERS),
            (vswitch.weights, _WEIGHTS_COUNTERS),
            (getattr(host, "control_faults", None), _CONTROL_FAULT_COUNTERS),
            (getattr(host, "health", None), _HEALTH_COUNTERS),
        ):
            if component is not None:
                for name, attribute in rows:
                    yield name, labels, getattr(component, attribute)


def _values(hosts) -> Iterable:
    """Accept both ``{name: host}`` mappings and plain host iterables."""
    return hosts.values() if hasattr(hosts, "values") else hosts


#: shared disabled scope — the default for every instrumented component
NULL_TELEMETRY = Telemetry(enabled=False)


def load_jsonl(path: str) -> Dict[str, Any]:
    """Parse a telemetry JSONL artifact back into one structured dict."""
    dump: Dict[str, Any] = {
        "manifests": [], "counters": {}, "gauges": {}, "histograms": {},
        "profile": None, "events": [], "events_dropped": 0,
        "spans": [], "spans_dropped": 0,
    }
    for record in read_jsonl(path):
        kind = record.get("kind")
        if kind == "manifest":
            dump["manifests"].append(record)
        elif kind in ("counters", "gauges", "histograms"):
            dump[kind].update(record.get("values", {}))
        elif kind == "profile":
            dump["profile"] = record
        elif kind == "events_dropped":
            dump["events_dropped"] = record.get("count", 0)
        elif kind == "spans_dropped":
            dump["spans_dropped"] = record.get("count", 0)
        elif kind == "event":
            dump["events"].append(record)
        elif kind == "span":
            dump["spans"].append(record)
    return dump
