"""Causal span tracer: flow/flowlet/path timelines with parent links.

Counters say *how much*, events say *what happened* — spans say *why*.  A
:class:`Tracer` records the causal structure the paper argues about:

* **flow** spans — one per job submitted on a connection, from scheduled
  arrival to the receiver holding the last byte (or timeout at run end);
* **flowlet** spans — one per path decision at the virtual edge, carrying
  the chosen source port, the weight-table fingerprint at decision time,
  the decision trigger (``hash``/``random``/``weights``/``int``/
  ``quarantine``) and, when discovery has run, the physical path; bytes
  are accumulated as the vswitch transmits;
* **reaction** spans — one per consumed STT echo, from the instant the
  destination hypervisor saw CE to the moment the source's weight table
  respread (the detection→reaction latency Clove's argument hinges on);
* **outage** spans — one per path-health incident, from first suspicion
  through quarantine/probation to restore (or remap);
* **instant** spans (``start == end``) — TCP loss/ECN episodes parented to
  their flow, probation stages parented to their outage, chaos injections.

Every span carries a parent id (0 = root), so a flow's full causal tree is
reconstructible offline.  Span ids are *deterministic*: each run gets a
scope (the job fingerprint) and ids are positions in that run's list, so a
parallel sweep merged with :meth:`Tracer.absorb` is bit-identical to the
serial one.  Capacity is per run and **prefix-closed** — when the budget is
hit recording stops rather than wrapping, so a parent is always recorded
before any of its children and no orphan ids can exist.

Export targets: JSONL ``kind: span`` lines inside the telemetry artifact,
and Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``
(:func:`chrome_trace`).  Offline analysis lives in :class:`TraceView` and
the ``repro trace`` CLI.
"""

from __future__ import annotations

import json
import zlib
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional, TextIO, Tuple


class Span:
    """One recorded span.  ``end is None`` while still open."""

    __slots__ = ("sid", "parent", "kind", "name", "start", "end", "fields")

    def __init__(
        self,
        sid: int,
        parent: int,
        kind: str,
        name: str,
        start: float,
        end: Optional[float] = None,
        fields: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sid = sid
        self.parent = parent
        self.kind = kind
        self.name = name
        self.start = start
        self.end = end
        self.fields: Dict[str, Any] = fields if fields is not None else {}

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def row(self) -> List[Any]:
        """The span as a plain ``[sid, parent, kind, name, start, end,
        fields]`` row (the :meth:`Tracer.dump` transport format)."""
        return [self.sid, self.parent, self.kind, self.name,
                self.start, self.end, self.fields]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(#{self.sid}<-{self.parent} {self.kind}:{self.name} "
                f"[{self.start:.6f}, {self.end}] {self.fields})")


def weights_fingerprint(weights: Mapping[int, float]) -> str:
    """A compact 8-hex fingerprint of a ``{port: weight}`` snapshot.

    Cheap enough for the per-flowlet hot path (one crc32 over a short
    string); two flowlets with the same fingerprint saw the same table.
    """
    blob = ",".join(f"{port}:{weights[port]:.6f}" for port in sorted(weights))
    return f"{zlib.crc32(blob.encode('ascii')) & 0xFFFFFFFF:08x}"


def flow_name(key: Any) -> str:
    """Render a transport 5-tuple key as a stable, readable span name."""
    try:
        return (f"{key.src_ip}:{key.src_port}->"
                f"{key.dst_ip}:{key.dst_port}")
    except AttributeError:
        return str(key)


class Tracer:
    """Span recorder with run-scoped deterministic ids.

    A run scope is opened with :meth:`begin_run` (scope = the job's content
    fingerprint); span ids are 1-based positions in the run's span list.
    When the same scope is opened twice (a repeated spec) recording
    continues where the first run stopped — exactly matching what
    :meth:`absorb` does with a worker dump for a duplicate scope, which is
    what makes serial and pooled execution bit-identical.
    """

    #: reachable through the bound tracer, so the datapath layers that
    #: stamp it on spans need not import this module
    weights_fingerprint = staticmethod(weights_fingerprint)

    def __init__(self, capacity: int = 200_000, enabled: bool = True) -> None:
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity  # per-run span budget (prefix-closed)
        self.enabled = enabled
        self._runs: Dict[str, List[Span]] = {}
        self._current: Optional[List[Span]] = None
        self._scope: Optional[str] = None
        self.recorded = 0
        self.dropped = 0
        # per-run working state (reset by begin_run/finish_run)
        self._flows: Dict[Any, Deque[Optional[Span]]] = {}
        self._open_flowlets: Dict[Any, Optional[Span]] = {}

    # ------------------------------------------------------------------
    # Run scoping
    # ------------------------------------------------------------------
    def begin_run(self, scope: str) -> None:
        """Open (or re-open) the run identified by ``scope``.

        Subsequent spans record into this run's list; call
        :meth:`finish_run` when the run's simulated time ends.
        """
        if not self.enabled:
            return
        self._scope = scope
        self._current = self._runs.setdefault(scope, [])
        self._flows = {}
        self._open_flowlets = {}

    def finish_run(self, now: float) -> None:
        """Close every still-open span in the current run at ``now``.

        Open flow spans are marked ``status: unfinished`` (the job never
        completed — a timeout or run-end cutoff); open outage spans get
        ``outcome: open``.  Flowlets simply close: their last path residency
        interval legitimately extends to the end of the run.
        """
        if not self.enabled or self._current is None:
            return
        for span in self._current:
            if span.end is None:
                span.end = now
                if span.kind == "flow":
                    span.fields.setdefault("status", "unfinished")
                elif span.kind == "outage":
                    span.fields.setdefault("outcome", "open")
        self._current = None
        self._scope = None
        self._flows = {}
        self._open_flowlets = {}

    # ------------------------------------------------------------------
    # Recording primitives
    # ------------------------------------------------------------------
    def begin(
        self, kind: str, name: str, now: float, parent: int = 0, **fields: Any
    ) -> Optional[Span]:
        """Open a span; returns None when disabled or over budget."""
        if not self.enabled:
            return None
        run = self._current
        if run is None or len(run) >= self.capacity:
            self.dropped += 1
            return None
        span = Span(len(run) + 1, parent, kind, name, now, None, fields)
        run.append(span)
        self.recorded += 1
        return span

    def end(self, span: Optional[Span], now: float, **fields: Any) -> None:
        """Close ``span`` at ``now`` (None-safe: dropped spans pass through)."""
        if span is None:
            return
        span.end = now
        if fields:
            span.fields.update(fields)

    def instant(
        self, kind: str, name: str, now: float, parent: int = 0, **fields: Any
    ) -> Optional[Span]:
        """Record a zero-duration span (a point event in the causal tree)."""
        span = self.begin(kind, name, now, parent, **fields)
        if span is not None:
            span.end = now
        return span

    # ------------------------------------------------------------------
    # Flow lifecycle helpers (used by the workload generator / transport)
    # ------------------------------------------------------------------
    def flow_begin(self, key: Any, now: float, **fields: Any) -> Optional[Span]:
        """Open a flow span for a job submitted on connection ``key``.

        Jobs on a connection are serialized on its byte stream, so the
        *oldest* open flow per key is the one currently transmitting —
        flowlets and TCP episodes attach to it (see :meth:`current_flow`).
        """
        span = self.begin("flow", flow_name(key), now, **fields)
        self._flows.setdefault(key, deque()).append(span)
        return span

    def flow_end(self, key: Any, now: float, **fields: Any) -> None:
        """Close the oldest open flow span on connection ``key``."""
        stack = self._flows.get(key)
        if stack:
            self.end(stack.popleft(), now, **fields)

    def current_flow(self, key: Any) -> int:
        """Span id of the flow currently transmitting on ``key`` (0 = none).

        ACK-direction keys resolve through ``key.reversed()`` so receiver-
        side decisions attach to the same flow span.
        """
        stack = self._flows.get(key)
        if not stack and hasattr(key, "reversed"):
            stack = self._flows.get(key.reversed())
        if stack and stack[0] is not None:
            return stack[0].sid
        return 0

    def flowlet(self, key: Any, now: float, **fields: Any) -> Optional[Span]:
        """Open a flowlet span on ``key``, closing the previous one.

        Consecutive flowlets on a connection tile its timeline, so per-path
        residency is the sum of flowlet durations/bytes grouped by path.
        """
        previous = self._open_flowlets.get(key)
        if previous is not None:
            self.end(previous, now)
        fields.setdefault("bytes", 0)
        span = self.begin(
            "flowlet", flow_name(key), now,
            parent=self.current_flow(key), **fields,
        )
        self._open_flowlets[key] = span
        return span

    def flowlet_bytes(self, key: Any, nbytes: int) -> None:
        """Charge ``nbytes`` of payload to the open flowlet on ``key``."""
        span = self._open_flowlets.get(key)
        if span is not None:
            span.fields["bytes"] = span.fields.get("bytes", 0) + nbytes

    # ------------------------------------------------------------------
    # Cross-process merge (repro.runner workers dump, the parent absorbs)
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """Serialize all runs as plain JSON-able data for :meth:`absorb`."""
        return {
            "runs": {
                scope: [span.row() for span in spans]
                for scope, spans in self._runs.items()
            },
            "dropped": self.dropped,
        }

    def absorb(self, state: Mapping[str, Any]) -> None:
        """Merge a :meth:`dump` from another tracer into this one.

        A scope this tracer already holds is treated as a *continued* run:
        incoming ids are offset past the existing spans, matching what a
        serial re-execution of the same spec would have recorded.
        """
        if not self.enabled:
            return
        for scope, rows in state.get("runs", {}).items():
            spans = self._runs.setdefault(scope, [])
            offset = len(spans)
            for sid, parent, kind, name, start, end, fields in rows:
                if len(spans) >= self.capacity:
                    self.dropped += 1
                    continue
                spans.append(Span(
                    sid + offset,
                    parent + offset if parent > 0 else 0,
                    kind, name, start, end, dict(fields),
                ))
                self.recorded += 1
        self.dropped += state.get("dropped", 0)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_jsonl(self, fp: TextIO) -> int:
        """Write every span as a ``kind: span`` JSON line; returns count.

        Runs are ordered by scope and spans by id, so the byte stream is a
        canonical function of the recorded content — independent of worker
        completion order.
        """
        n = 0
        for scope in sorted(self._runs):
            for span in self._runs[scope]:
                fp.write(json.dumps({
                    "kind": "span", "run": scope, "id": span.sid,
                    "parent": span.parent, "span": span.kind,
                    "name": span.name, "start": span.start, "end": span.end,
                    "fields": span.fields,
                }, default=str))
                fp.write("\n")
                n += 1
        return n

    def export_jsonl(self, path: str) -> int:
        """Write a standalone span-only JSONL artifact."""
        from repro.telemetry.events import open_text

        with open_text(path, "w") as fp:
            return self.write_jsonl(fp)

    def view(self) -> "TraceView":
        """An analyzer view over the recorded spans."""
        return TraceView(
            {scope: list(spans) for scope, spans in self._runs.items()},
            dropped=self.dropped,
        )


# ----------------------------------------------------------------------
# Offline analysis
# ----------------------------------------------------------------------
class TraceView:
    """Read-only analysis surface over recorded or loaded spans.

    Construct from a live :meth:`Tracer.view` or from a loaded artifact
    with :meth:`from_records` (the ``spans`` list of
    :func:`repro.telemetry.load_jsonl`).
    """

    def __init__(self, runs: Dict[str, List[Span]], dropped: int = 0) -> None:
        self.runs = runs
        self.dropped = dropped

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]],
                     dropped: int = 0) -> "TraceView":
        """Build a view from ``kind: span`` artifact records."""
        runs: Dict[str, List[Span]] = {}
        for record in records:
            runs.setdefault(record.get("run", "?"), []).append(Span(
                record["id"], record.get("parent", 0),
                record.get("span", "?"), record.get("name", ""),
                record.get("start", 0.0), record.get("end"),
                dict(record.get("fields", {})),
            ))
        for spans in runs.values():
            spans.sort(key=lambda s: s.sid)
        return cls(runs, dropped=dropped)

    # -- basic queries --------------------------------------------------
    def scopes(self) -> List[str]:
        """All run scopes in the view, sorted for deterministic output."""
        return sorted(self.runs)

    def spans(self, scope: str, kind: Optional[str] = None) -> List[Span]:
        """The spans of one run, optionally filtered by kind."""
        spans = self.runs.get(scope, [])
        if kind is None:
            return list(spans)
        return [s for s in spans if s.kind == kind]

    def children(self, scope: str, sid: int) -> List[Span]:
        """Direct child spans of ``sid`` within one run."""
        return [s for s in self.runs.get(scope, []) if s.parent == sid]

    def find_flow(self, flow_id: str) -> Tuple[str, Span]:
        """Resolve ``scope:sid`` (scope may be a unique prefix) or a bare
        ``sid`` (single-run artifacts) to a flow span."""
        scope_part, _, sid_part = flow_id.rpartition(":")
        if not scope_part and len(self.runs) == 1:
            scope_part = next(iter(self.runs))
        matches = [s for s in self.runs if s.startswith(scope_part)]
        if len(matches) != 1:
            raise KeyError(f"flow id {flow_id!r}: scope matches {matches}")
        scope = matches[0]
        try:
            sid = int(sid_part)
        except ValueError:
            raise KeyError(f"flow id {flow_id!r}: bad span id {sid_part!r}")
        for span in self.runs[scope]:
            if span.sid == sid:
                return scope, span
        raise KeyError(f"flow id {flow_id!r}: no span #{sid} in {scope[:12]}")

    # -- path residency -------------------------------------------------
    def path_residency(
        self, scope: str, start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Dict[str, Dict[str, float]]:
        """Per-path residency over ``[start, end)``.

        Returns ``{path_key: {"seconds", "bytes", "flowlets"}}`` where
        ``path_key`` is the flowlet's discovered physical path (or
        ``port:<n>`` for policies without one, e.g. ECMP).  Seconds are the
        clipped flowlet durations; bytes are attributed proportionally to
        the clipped fraction of each flowlet.
        """
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans(scope, "flowlet"):
            s_end = span.end if span.end is not None else span.start
            lo = span.start if start is None else max(span.start, start)
            hi = s_end if end is None else min(s_end, end)
            if hi < lo:
                continue
            full = s_end - span.start
            fraction = (hi - lo) / full if full > 0 else 1.0
            key = span.fields.get("path") or f"port:{span.fields.get('port')}"
            cell = out.setdefault(
                key, {"seconds": 0.0, "bytes": 0.0, "flowlets": 0.0})
            cell["seconds"] += hi - lo
            cell["bytes"] += span.fields.get("bytes", 0) * fraction
            cell["flowlets"] += 1.0
        return out

    def first_fault_time(self, scope: str) -> Optional[float]:
        """Time of the first chaos injection in the run, if any."""
        times = [s.start for s in self.spans(scope, "chaos")]
        return min(times) if times else None

    def residency_shift(self, scope: str) -> Optional[Dict[str, Any]]:
        """Byte-residency shift around the run's first chaos injection.

        Splits flowlet byte attribution at the fault time and reports the
        total-variation distance between the before/after share vectors,
        plus the per-path share deltas.  None when the run has no fault or
        no traffic on one side of it.
        """
        fault = self.first_fault_time(scope)
        if fault is None:
            return None
        before = self.path_residency(scope, end=fault)
        after = self.path_residency(scope, start=fault)
        total_b = sum(c["bytes"] for c in before.values())
        total_a = sum(c["bytes"] for c in after.values())
        if total_b <= 0 or total_a <= 0:
            return None
        deltas: Dict[str, float] = {}
        for key in set(before) | set(after):
            share_b = before.get(key, {}).get("bytes", 0.0) / total_b
            share_a = after.get(key, {}).get("bytes", 0.0) / total_a
            deltas[key] = share_a - share_b
        return {
            "fault_time": fault,
            "shift": 0.5 * sum(abs(d) for d in deltas.values()),
            "deltas": deltas,
        }

    # -- aggregates ------------------------------------------------------
    def run_stats(self, scope: str) -> Dict[str, Any]:
        """Headline numbers for one run (feeds ``repro trace summary``)."""
        spans = self.runs.get(scope, [])
        by_kind: Dict[str, int] = {}
        for span in spans:
            by_kind[span.kind] = by_kind.get(span.kind, 0) + 1
        flows = [s for s in spans if s.kind == "flow"]
        unfinished = sum(
            1 for s in flows if s.fields.get("status") == "unfinished")
        reactions = [s for s in spans if s.kind == "reaction"]
        latencies = sorted(s.duration for s in reactions)
        outages = [s for s in spans if s.kind == "outage"]
        outcomes: Dict[str, int] = {}
        for span in outages:
            outcome = span.fields.get("outcome", "open")
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        return {
            "spans": len(spans),
            "by_kind": by_kind,
            "flows": len(flows),
            "flows_unfinished": unfinished,
            "reaction_latency_mean": (
                sum(latencies) / len(latencies) if latencies else None),
            "reaction_latency_max": latencies[-1] if latencies else None,
            "outage_outcomes": outcomes,
        }


# ----------------------------------------------------------------------
# Chrome trace-event export (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def chrome_trace(view: TraceView) -> Dict[str, Any]:
    """Convert a :class:`TraceView` to Chrome trace-event JSON.

    Layout per run (three pids): *flows* — one thread per flow span, its
    TCP episodes as thread-scoped instants; *paths* — one thread per
    connection direction, flowlets as complete events (consecutive by
    construction, so nesting is trivially valid); *control* — reaction and
    outage spans as async events (they overlap freely), their stage
    markers as async instants, chaos injections as global instants.
    """
    events: List[Dict[str, Any]] = []

    def us(t: float) -> float:
        return round(t * 1e6, 3)

    for run_index, scope in enumerate(view.scopes()):
        base = run_index * 3
        flows_pid, paths_pid, control_pid = base + 1, base + 2, base + 3
        tag = scope[:8]
        for pid, label in ((flows_pid, "flows"), (paths_pid, "paths"),
                           (control_pid, "control")):
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": f"{label} {tag}"}})

        spans = view.runs[scope]
        flow_tids: Dict[int, int] = {}
        for span in spans:
            if span.kind != "flow":
                continue
            tid = len(flow_tids) + 1
            flow_tids[span.sid] = tid
            events.append({"ph": "M", "name": "thread_name", "pid": flows_pid,
                           "tid": tid, "args": {"name": span.name}})
            events.append({
                "ph": "X", "cat": "flow", "name": span.name,
                "pid": flows_pid, "tid": tid, "ts": us(span.start),
                "dur": us(max(span.duration, 0.0)),
                "args": {"id": span.sid, **span.fields},
            })

        conn_tids: Dict[str, int] = {}
        async_open = {s.sid for s in spans if s.kind in ("reaction", "outage")}
        for span in spans:
            if span.kind == "flowlet":
                tid = conn_tids.get(span.name)
                if tid is None:
                    tid = len(conn_tids) + 1
                    conn_tids[span.name] = tid
                    events.append({
                        "ph": "M", "name": "thread_name", "pid": paths_pid,
                        "tid": tid, "args": {"name": span.name}})
                path = span.fields.get("path") or f"port:{span.fields.get('port')}"
                events.append({
                    "ph": "X", "cat": "flowlet", "name": path,
                    "pid": paths_pid, "tid": tid, "ts": us(span.start),
                    "dur": us(max(span.duration, 0.0)),
                    "args": {"id": span.sid, "parent": span.parent,
                             **span.fields},
                })
            elif span.kind in ("reaction", "outage"):
                ident = f"{tag}:{span.sid}"
                common = {"cat": span.kind, "name": span.name,
                          "pid": control_pid, "tid": 0, "id": ident}
                events.append({"ph": "b", "ts": us(span.start),
                               "args": {"id": span.sid, **span.fields},
                               **common})
                end = span.end if span.end is not None else span.start
                events.append({"ph": "e", "ts": us(end), "args": {}, **common})
            elif span.kind == "chaos":
                events.append({
                    "ph": "i", "s": "g", "cat": "chaos", "name": span.name,
                    "pid": control_pid, "tid": 0, "ts": us(span.start),
                    "args": {"id": span.sid, **span.fields},
                })
            elif span.kind == "tcp":
                tid = flow_tids.get(span.parent)
                if tid is not None:
                    events.append({
                        "ph": "i", "s": "t", "cat": "tcp", "name": span.name,
                        "pid": flows_pid, "tid": tid, "ts": us(span.start),
                        "args": {"id": span.sid, "parent": span.parent,
                                 **span.fields},
                    })
                else:
                    events.append({
                        "ph": "i", "s": "p", "cat": "tcp", "name": span.name,
                        "pid": flows_pid, "tid": 0, "ts": us(span.start),
                        "args": {"id": span.sid, **span.fields},
                    })
            elif span.parent in async_open:
                # stage markers inside a reaction/outage: async instants
                events.append({
                    "ph": "n", "cat": "stage", "name": span.name,
                    "pid": control_pid, "tid": 0,
                    "id": f"{tag}:{span.parent}", "ts": us(span.start),
                    "args": {"id": span.sid, "parent": span.parent,
                             **span.fields},
                })
            else:
                events.append({
                    "ph": "i", "s": "p", "cat": span.kind, "name": span.name,
                    "pid": control_pid, "tid": 0, "ts": us(span.start),
                    "args": {"id": span.sid, **span.fields},
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome(view: TraceView, path: str) -> int:
    """Write Chrome trace-event JSON for ``view``; returns the event count."""
    from repro.telemetry.events import open_text

    trace = chrome_trace(view)
    with open_text(path, "w") as fp:
        json.dump(trace, fp, default=str)
        fp.write("\n")
    return len(trace["traceEvents"])


# ----------------------------------------------------------------------
# Text rendering (the `repro trace` CLI)
# ----------------------------------------------------------------------
def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def render_summary(view: TraceView) -> str:
    """Per-run headline table: span counts, flows, reaction latencies."""
    lines = ["trace summary:"]
    if not view.runs:
        lines.append("  (no spans)")
        return "\n".join(lines)
    for scope in view.scopes():
        stats = view.run_stats(scope)
        kinds = " ".join(
            f"{kind}={count}"
            for kind, count in sorted(stats["by_kind"].items()))
        lines.append(f"  run {scope[:12]}: {stats['spans']} spans ({kinds})")
        lines.append(
            f"    flows: {stats['flows']} "
            f"({stats['flows_unfinished']} unfinished)")
        if stats["reaction_latency_mean"] is not None:
            lines.append(
                "    reaction latency: mean "
                f"{_fmt_seconds(stats['reaction_latency_mean'])} "
                f"max {_fmt_seconds(stats['reaction_latency_max'])}")
        if stats["outage_outcomes"]:
            outcomes = " ".join(
                f"{k}={v}" for k, v in sorted(stats["outage_outcomes"].items()))
            lines.append(f"    outages: {outcomes}")
    if view.dropped:
        lines.append(f"  (spans dropped over capacity: {view.dropped})")
    return "\n".join(lines)


def render_flow(view: TraceView, flow_id: str) -> str:
    """The causal tree of one flow: flowlets, TCP episodes, reactions."""
    scope, flow = view.find_flow(flow_id)
    lines = [f"flow {scope[:12]}:{flow.sid} {flow.name}"]
    status = flow.fields.get("status", "completed")
    lines.append(
        f"  [{_fmt_seconds(flow.start)} .. {_fmt_seconds(flow.end)}] "
        f"duration {_fmt_seconds(flow.duration)} status={status} "
        f"size={flow.fields.get('bytes', '?')}")

    def _describe(span: Span) -> str:
        extras = {k: v for k, v in span.fields.items()}
        extra = " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
        return (f"{span.kind}:{span.name} @{_fmt_seconds(span.start)} "
                f"dur={_fmt_seconds(span.duration)} {extra}").rstrip()

    def _walk(sid: int, depth: int) -> None:
        for child in view.children(scope, sid):
            lines.append("  " * (depth + 1) + "- " + _describe(child))
            _walk(child.sid, depth + 1)

    _walk(flow.sid, 0)
    if len(lines) == 2:
        lines.append("  (no child spans — was tracing on at the edge?)")
    return "\n".join(lines)


def render_paths(view: TraceView) -> str:
    """Per-run, per-path residency table (seconds, bytes, flowlets)."""
    lines = ["path residency:"]
    if not view.runs:
        lines.append("  (no spans)")
        return "\n".join(lines)
    for scope in view.scopes():
        residency = view.path_residency(scope)
        lines.append(f"  run {scope[:12]}:")
        if not residency:
            lines.append("    (no flowlet spans)")
            continue
        total_bytes = sum(c["bytes"] for c in residency.values()) or 1.0
        ranked = sorted(
            residency.items(), key=lambda kv: (-kv[1]["bytes"], kv[0]))
        for key, cell in ranked:
            share = cell["bytes"] / total_bytes * 100.0
            lines.append(
                f"    {key:<28} {share:5.1f}%  "
                f"{cell['bytes'] / 1e6:8.2f}MB  "
                f"{int(cell['flowlets']):5d} flowlets  "
                f"{_fmt_seconds(cell['seconds'])}")
    return "\n".join(lines)


def render_critical(view: TraceView, top: int = 10) -> str:
    """The slowest detection→reaction chains and longest outages."""
    lines = ["critical chains:"]
    reactions: List[Tuple[str, Span]] = []
    outages: List[Tuple[str, Span]] = []
    for scope in view.scopes():
        for span in view.runs[scope]:
            if span.kind == "reaction":
                reactions.append((scope, span))
            elif span.kind == "outage":
                outages.append((scope, span))
    reactions.sort(key=lambda pair: -pair[1].duration)
    outages.sort(key=lambda pair: -pair[1].duration)
    if reactions:
        lines.append(f"  slowest ECN reaction chains (of {len(reactions)}):")
        for scope, span in reactions[:top]:
            stages = view.children(scope, span.sid)
            chain = " -> ".join(s.name for s in stages) or "(no stages)"
            lines.append(
                f"    {scope[:12]}:{span.sid} {span.name} "
                f"{_fmt_seconds(span.duration)}  {chain}")
    else:
        lines.append("  (no reaction spans)")
    if outages:
        lines.append(f"  longest path outages (of {len(outages)}):")
        for scope, span in outages[:top]:
            outcome = span.fields.get("outcome", "open")
            lines.append(
                f"    {scope[:12]}:{span.sid} {span.name} "
                f"{_fmt_seconds(span.duration)}  outcome={outcome}")
    else:
        lines.append("  (no outage spans)")
    return "\n".join(lines)


def render_diff(view_a: TraceView, view_b: TraceView,
                label_a: str = "A", label_b: str = "B") -> str:
    """Contrast two runs' path residency (and their reaction to faults).

    For runs with a chaos injection the comparison centers on the
    byte-residency shift around the first fault — the load balancer's
    visible reaction.  Without faults it falls back to the overall
    residency share tables side by side.
    """
    lines = [f"trace diff ({label_a} vs {label_b}):"]

    def _one_side(label: str, view: TraceView) -> List[str]:
        out = []
        for scope in view.scopes():
            shift = view.residency_shift(scope)
            if shift is None:
                residency = view.path_residency(scope)
                total = sum(c["bytes"] for c in residency.values()) or 1.0
                shares = " ".join(
                    f"{key}={cell['bytes'] / total * 100:.1f}%"
                    for key, cell in sorted(
                        residency.items(),
                        key=lambda kv: (-kv[1]["bytes"], kv[0]))[:6])
                out.append(f"  {label} run {scope[:12]}: no fault; "
                           f"residency {shares or '(none)'}")
                continue
            out.append(
                f"  {label} run {scope[:12]}: fault at "
                f"{_fmt_seconds(shift['fault_time'])}, residency shift "
                f"{shift['shift'] * 100:.1f}%")
            movers = sorted(
                shift["deltas"].items(), key=lambda kv: kv[1])
            for key, delta in movers[:2]:
                if delta < 0:
                    out.append(f"    moved away from {key}: "
                               f"{delta * 100:+.1f}% of bytes")
            for key, delta in movers[-2:]:
                if delta > 0:
                    out.append(f"    moved onto     {key}: "
                               f"{delta * 100:+.1f}% of bytes")
        return out

    lines.extend(_one_side(label_a, view_a))
    lines.extend(_one_side(label_b, view_b))

    shifts_a = [view_a.residency_shift(s) for s in view_a.scopes()]
    shifts_b = [view_b.residency_shift(s) for s in view_b.scopes()]
    shifts_a = [s["shift"] for s in shifts_a if s is not None]
    shifts_b = [s["shift"] for s in shifts_b if s is not None]
    if shifts_a and shifts_b:
        mean_a = sum(shifts_a) / len(shifts_a)
        mean_b = sum(shifts_b) / len(shifts_b)
        lines.append(
            f"  mean residency shift: {label_a} {mean_a * 100:.1f}% vs "
            f"{label_b} {mean_b * 100:.1f}%")
    return "\n".join(lines)
