"""The :class:`ChaosEngine`: executes a :class:`~repro.chaos.plan.FaultPlan`
against a live fabric.

The engine validates every targeted cable against the
:class:`~repro.topology.network.Network` up front (a typo'd cable name
fails fast with the available cables listed, not mid-run), applies
already-due events immediately on :meth:`start` (a plan whose first events
sit at ``t=0`` reproduces the legacy "fail before traffic" setup exactly)
and schedules the rest on the :class:`~repro.sim.engine.Simulator`.

Each injection is recorded twice:

* a **marker** appended to :attr:`ChaosEngine.markers` — plain dicts
  carrying the action, cable, timestamp and loss accounting (packets
  flushed by a ``link_down``, packets blackholed while the cable was
  down), the in-process source for
  :mod:`repro.chaos.metrics`;
* a ``chaos.inject`` telemetry event (plus a ``chaos.injections``
  counter), so fault windows are recoverable **offline** from any
  ``--telemetry-out`` artifact.

Control-plane events (:data:`~repro.chaos.plan.CONTROL_ACTIONS`) target
hypervisors, which do not exist yet when the engine starts — the harness
calls :meth:`ChaosEngine.attach_hosts` after building them.  Each
targeted host gets a :class:`ControlPlaneState` (its own seeded RNG
stream, armed fault rates, and fault counters) installed on both the
host and its vswitch; a ``vswitch_restart`` snapshots a weight oracle
and watches the table re-converge, emitting ``chaos.reconverge`` when
the divergence falls within 10% total variation.
"""

from __future__ import annotations

import math
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import Cable, FaultEvent, FaultPlan, fault_windows
from repro.net.link import Link
from repro.sim.engine import Simulator
from repro.telemetry import NULL_TELEMETRY
from repro.topology.network import Network

#: a restart counts as re-converged when the total-variation distance
#: between current weights and the pre-fault oracle is at most this
RECONVERGE_TV = 0.1


class ControlPlaneState:
    """Armed control-plane faults + fault counters for one hypervisor.

    Installed as ``host.control_faults`` / ``vswitch.control_faults`` by
    :meth:`ChaosEngine.attach_hosts` — only on targeted hosts, so
    untargeted hosts keep the class-attribute ``None`` and pay nothing.
    All randomness comes from a dedicated per-host RNG stream, keeping
    serial and parallel runs bit-identical.
    """

    def __init__(self, name: str, rng, sim: Simulator) -> None:
        self.name = name
        self.rng = rng
        self.sim = sim
        #: kind -> {event id: (rate, delay)} of currently-armed faults
        self._armed: Dict[str, Dict[int, Tuple[float, float]]] = {}
        # Counters (scraped into telemetry by observe_hosts).
        self.echoes_dropped = 0
        self.echoes_delayed = 0
        self.echoes_delivered_late = 0
        self.echoes_duplicated = 0
        self.echoes_corrupted = 0
        self.probes_dropped = 0

    # -- arming ---------------------------------------------------------
    def arm(self, kind: str, eid: int, rate: float, delay: float = 0.0) -> None:
        """Arm fault ``kind`` at ``rate`` under event id ``eid``."""
        self._armed.setdefault(kind, {})[eid] = (rate, delay)

    def disarm(self, kind: str, eid: int) -> None:
        """Disarm event ``eid``'s contribution to fault ``kind``."""
        entries = self._armed.get(kind)
        if entries is not None:
            entries.pop(eid, None)
            if not entries:
                del self._armed[kind]

    def rate(self, kind: str) -> float:
        """The effective probability of fault ``kind`` (max over armed)."""
        entries = self._armed.get(kind)
        if not entries:
            return 0.0
        return max(rate for rate, _delay in entries.values())

    def delay(self, kind: str) -> float:
        """The effective hold time for ``echo_delay`` (max over armed)."""
        entries = self._armed.get(kind)
        if not entries:
            return 0.0
        return max(delay for _rate, delay in entries.values())

    # -- interception ---------------------------------------------------
    def drop_probe(self) -> bool:
        """Whether an arriving probe/ICMP control packet vanishes."""
        rate = self.rate("probe_loss")
        if rate > 0.0 and self.rng.random() < rate:
            self.probes_dropped += 1
            return True
        return False

    def filter_echo(self, vswitch, args):
        """Apply armed echo faults to one arriving echo.

        ``args`` is the ``(remote, port, ecn, util, epoch, seen)`` tuple
        ``VSwitch._consume_echo`` takes.  Returns the (possibly garbled)
        tuple to consume now, or ``None`` when the echo was dropped or
        stashed for late delivery.  Duplication consumes one extra copy
        synchronously before the original.
        """
        rate = self.rate("echo_loss")
        if rate > 0.0 and self.rng.random() < rate:
            self.echoes_dropped += 1
            return None
        rate = self.rate("echo_delay")
        if rate > 0.0 and self.rng.random() < rate:
            self.echoes_delayed += 1
            self.sim.schedule(
                self.delay("echo_delay"), self._deliver_late, vswitch, args
            )
            return None
        rate = self.rate("echo_duplicate")
        if rate > 0.0 and self.rng.random() < rate:
            self.echoes_duplicated += 1
            vswitch._consume_echo(*args)
        rate = self.rate("echo_corrupt")
        if rate > 0.0 and self.rng.random() < rate:
            self.echoes_corrupted += 1
            args = self._garble(args)
        return args

    def _deliver_late(self, vswitch, args) -> None:
        self.echoes_delivered_late += 1
        vswitch._consume_echo(*args)

    def _garble(self, args):
        """Corrupt the echo's context bits with out-of-range values.

        Real bit-flips can also land *in* range — those are exactly the
        unknown-port stale echoes the policies already count — so the
        injector models the detectable kind the bounds check must catch.
        """
        remote, port, ecn, util, epoch, seen = args
        if self.rng.randrange(2) == 0:
            port = 70000 + self.rng.randrange(1000)
        else:
            util = -1.0 - self.rng.random()
        return (remote, port, ecn, util, epoch, seen)


class _RestartWatcher:
    """Watches one restarted host's weight table re-converge to its
    pre-fault oracle; installed as ``WeightedPathTable.on_respread``."""

    def __init__(self, engine: "ChaosEngine", host, weights,
                 oracle: Dict[int, Dict[object, float]],
                 marker: Dict[str, object]) -> None:
        self.engine = engine
        self.host = host
        self.weights = weights
        self.oracle = oracle
        self.marker = marker
        self.done = False

    def __call__(self, _dst_ip: int) -> None:
        if self.done:
            return
        divergence = self.divergence()
        if divergence <= RECONVERGE_TV:
            self.done = True
            self.weights.on_respread = None
            now = self.engine.sim.now
            self.marker["reconverged_at"] = now
            self.marker["divergence"] = round(divergence, 6)
            tel = self.engine.telemetry
            if tel.enabled:
                tel.events.emit(
                    "chaos.reconverge", now,
                    host=self.host.name,
                    restarted_at=self.marker["time"],
                    reconverge_s=now - float(self.marker["time"]),
                    divergence=round(divergence, 6),
                )
                if tel.trace.enabled:
                    tel.trace.instant(
                        "chaos", "reconverge", now,
                        host=self.host.name, divergence=round(divergence, 6),
                    )

    def divergence(self) -> float:
        """Total-variation distance between the mean per-destination
        weight distributions, rebuilt table vs pre-fault oracle.

        Paths are keyed by their discovered physical trace where known
        (ports are relabelled by re-discovery, traces are stable), by
        port otherwise.  Averaging over destinations is deliberate:
        Clove's per-destination weights are congestion random walks, so
        the instant-of-crash snapshot of any single destination is a
        transient the rebuilt table should *not* chase — but a
        structural skew (a dead or degraded path) shows up in every
        destination and survives the mean.  Any oracle destination still
        missing its paths counts as fully diverged.
        """
        want_mean: Dict[object, float] = {}
        have_mean: Dict[object, float] = {}
        n = len(self.oracle)
        for dst_ip, want in self.oracle.items():
            have = _weight_distribution(self.weights, dst_ip)
            if not have:
                return 1.0
            for key, weight in want.items():
                want_mean[key] = want_mean.get(key, 0.0) + weight / n
            for key, weight in have.items():
                have_mean[key] = have_mean.get(key, 0.0) + weight / n
        keys = set(want_mean) | set(have_mean)
        return 0.5 * sum(
            abs(want_mean.get(key, 0.0) - have_mean.get(key, 0.0))
            for key in keys
        )


def _weight_distribution(weights, dst_ip: int) -> Dict[object, float]:
    """``{trace-or-port: weight}`` for one destination of a weight table."""
    out: Dict[object, float] = {}
    for port, weight in weights.weights_for(dst_ip).items():
        trace = weights.trace_of(dst_ip, port)
        out[trace if trace is not None else port] = weight
    return out


class ChaosEngine:
    """Schedules and applies one fault plan; records injection markers."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        plan: FaultPlan,
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.plan = plan
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        expanded = plan.expanded()
        self._events = [e for e in expanded if not e.is_control]
        #: control-plane events; armed by attach_hosts once hosts exist
        self._control_events = [e for e in expanded if e.is_control]
        for event in self._events:
            net.cable(event.a, event.b, event.index)  # KeyError on a bad cable
        #: one dict per applied injection, in application order
        self.markers: List[Dict[str, object]] = []
        #: queue-drop counters per down cable at fail time (loss attribution)
        self._down_baseline: Dict[Cable, int] = {}
        #: host name -> ControlPlaneState for every targeted host
        self.control_states: Dict[str, ControlPlaneState] = {}
        self._hosts: Dict[str, object] = {}
        self._watchers: Dict[str, _RestartWatcher] = {}
        self.started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Apply already-due events now; schedule the future ones.

        Idempotent.  Events at or before ``sim.now`` (typically ``t=0``
        pre-traffic faults) apply synchronously so the fabric is already
        asymmetric when hosts and workloads attach.  Control-plane events
        wait for :meth:`attach_hosts`.
        """
        if self.started:
            return
        self.started = True
        for event in self._events:
            if event.time <= self.sim.now:
                self._apply(event)
            else:
                self.sim.at(event.time, self._apply, event)

    def attach_hosts(self, hosts, rng) -> None:
        """Wire control-plane faults to the built hosts; arm their events.

        ``hosts`` is the harness's name -> Host mapping, ``rng`` its
        :class:`~repro.sim.rng.RngRegistry` — each targeted host draws
        from its own ``chaos-control-<name>`` stream.  Host patterns that
        match nothing fail fast with the available names listed.
        """
        if not self._control_events:
            return
        self._hosts = dict(hosts)
        names = sorted(self._hosts)
        for i, event in enumerate(self._control_events):
            matched = [n for n in names if fnmatchcase(n, event.host)]
            if not matched:
                raise KeyError(
                    f"chaos event {event.action!r} targets host "
                    f"{event.host!r} which matches no host "
                    f"(available: {', '.join(names)})"
                )
            for name in matched:
                if name not in self.control_states:
                    state = ControlPlaneState(
                        name, rng.stream(f"chaos-control-{name}"), self.sim
                    )
                    self.control_states[name] = state
                    host = self._hosts[name]
                    host.control_faults = state
                    host.vswitch.control_faults = state
            if event.time <= self.sim.now:
                self._apply_control(event, matched, i)
            else:
                self.sim.at(event.time, self._apply_control, event, matched, i)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _links(self, event: FaultEvent) -> Tuple[Link, Link]:
        return self.net.cable(event.a, event.b, event.index)

    def _apply(self, event: FaultEvent) -> None:
        now = self.sim.now
        marker: Dict[str, object] = {
            "time": now, "action": event.action,
            "a": event.a, "b": event.b, "index": event.index,
        }
        if event.action == "link_down":
            fwd, rev = self._links(event)
            self._down_baseline[event.cable] = (
                fwd.queue.stats.dropped + rev.queue.stats.dropped
            )
            flushed = self.net.fail_cable(event.a, event.b, event.index)
            # flushed packets were already counted as queue drops; keep the
            # blackhole baseline net of them so the two counts don't overlap
            self._down_baseline[event.cable] += flushed
            marker["flushed"] = flushed
        elif event.action == "link_up":
            fwd, rev = self._links(event)
            baseline = self._down_baseline.pop(event.cable, None)
            if baseline is not None:
                marker["blackholed"] = (
                    fwd.queue.stats.dropped + rev.queue.stats.dropped - baseline
                )
            self.net.recover_cable(event.a, event.b, event.index)
        elif event.action == "degrade":
            self.net.degrade_cable(event.a, event.b, event.index, event.factor)
            marker["factor"] = event.factor
        elif event.action == "restore":
            self.net.restore_cable(event.a, event.b, event.index)
        else:  # pragma: no cover - plan validation rejects unknown actions
            raise ValueError(f"unknown fault action {event.action!r}")
        self._record_marker(marker, event.action)

    def _apply_control(self, event: FaultEvent, matched: List[str],
                       eid: int) -> None:
        now = self.sim.now
        for name in matched:
            state = self.control_states[name]
            marker: Dict[str, object] = {
                "time": now, "action": event.action, "host": name,
            }
            if event.action == "vswitch_restart":
                marker["wipe"] = sorted(event.wipe_set)
                self._restart_host(name, event, marker)
            else:
                marker["rate"] = event.rate
                if event.action == "echo_delay":
                    marker["delay"] = event.delay
                state.arm(event.action, eid, event.rate, event.delay)
                if event.duration > 0.0:
                    marker["duration"] = event.duration
                    self.sim.schedule(
                        event.duration, state.disarm, event.action, eid
                    )
            self._record_marker(marker, event.action)

    def _record_marker(self, marker: Dict[str, object], action: str) -> None:
        self.markers.append(marker)
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter("chaos.injections", action=action).inc()
            tel.events.emit("chaos.inject", float(marker["time"]), **{
                k: v for k, v in marker.items() if k != "time"
            })
            if tel.trace.enabled:
                tel.trace.instant("chaos", action, float(marker["time"]), **{
                    k: v for k, v in marker.items() if k != "time"
                })

    def _restart_host(self, name: str, event: FaultEvent,
                      marker: Dict[str, object]) -> None:
        """Crash-restart one hypervisor: wipe the selected state, then
        re-bootstrap (re-discover paths, or re-install from a surviving
        discovery cache).  Clove's fallback while the weight table is
        empty is static hashing — exactly a fresh boot."""
        host = self._hosts[name]
        wipe = event.wipe_set
        policy = host.vswitch.policy
        weights = host.vswitch.weights

        oracle: Dict[int, Dict[object, float]] = {}
        if weights is not None and "weights" in wipe:
            for dst_ip in weights.destinations():
                dist = _weight_distribution(weights, dst_ip)
                if dist:
                    oracle[dst_ip] = dist
            # Bumps the epoch of every wiped destination: echoes that left
            # before the crash come back stamped with the old epoch and
            # are rejected instead of poisoning the rebuilt table.
            marker["weights_wiped"] = len(weights.clear())
        flowlets = getattr(policy, "flowlets", None)
        if flowlets is not None and "flowlets" in wipe:
            marker["flowlets_wiped"] = flowlets.clear()
        if "health" in wipe and host.health is not None:
            marker["health_wiped"] = host.health.cold_restart()

        watched: List[int] = []
        if host.prober is not None and "discovery" in wipe:
            watched = host.prober.reset()
            marker["discovery_wiped"] = len(watched)

        # Watcher before any re-install so the very first one already
        # counts towards re-convergence.
        if weights is not None and oracle:
            watcher = _RestartWatcher(self, host, weights, oracle, marker)
            self._watchers[name] = watcher
            weights.on_respread = watcher

        if host.prober is not None:
            if "discovery" in wipe:
                # Re-noticing restarts a discovery round per destination —
                # the cold-boot re-bootstrap path.
                for dst_ip in watched:
                    host.prober.notice_destination(dst_ip)
            elif weights is not None and "weights" in wipe:
                # Discovery cache survived the crash: re-install paths
                # immediately, like a vswitch re-reading its config.
                for dst_ip in oracle:
                    paths = host.prober.paths_for(dst_ip)
                    if paths:
                        policy.set_paths(
                            dst_ip,
                            [port for port, _trace in paths],
                            [trace for _port, trace in paths],
                        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def fault_windows(self, end: float = math.inf) -> List[Tuple[float, float]]:
        """Merged degraded-capacity intervals of the plan (see the plan)."""
        return self.plan.fault_windows(end=end)

    def flushed_packets(self) -> int:
        """Packets flushed out of queues by ``link_down`` injections."""
        return sum(int(m.get("flushed", 0)) for m in self.markers)

    def blackholed_packets(self) -> int:
        """Packets dropped on cables while the plan held them down."""
        return sum(int(m.get("blackholed", 0)) for m in self.markers)

    def finish(self, end: Optional[float] = None) -> None:
        """Close loss accounting for cables still down at the end of a run.

        Appends a synthetic ``chaos.settle`` marker (and telemetry event)
        per still-down cable carrying its blackholed-packet count, so
        runs whose plans never recover (e.g. the paper's permanent
        asymmetry) still attribute their losses.
        """
        now = self.sim.now if end is None else end
        for cable, baseline in list(self._down_baseline.items()):
            a, b, index = cable
            fwd, rev = self.net.cable(a, b, index)
            blackholed = fwd.queue.stats.dropped + rev.queue.stats.dropped - baseline
            marker: Dict[str, object] = {
                "time": now, "action": "settle",
                "a": a, "b": b, "index": index, "blackholed": blackholed,
            }
            self.markers.append(marker)
            if self.telemetry.enabled:
                self.telemetry.events.emit("chaos.settle", now, **{
                    k: v for k, v in marker.items() if k != "time"
                })
        self._down_baseline.clear()


def markers_to_events(markers: List[Dict[str, object]]) -> List[FaultEvent]:
    """Rebuild primitive fault events from injection markers (or from
    ``chaos.inject`` records read back out of a telemetry artifact)."""
    out: List[FaultEvent] = []
    for marker in markers:
        action = str(marker.get("action", ""))
        if action not in ("link_down", "link_up", "degrade", "restore"):
            continue
        out.append(FaultEvent(
            time=float(marker["time"]), action=action,
            a=str(marker["a"]), b=str(marker["b"]),
            index=int(marker.get("index", 0)),
            factor=float(marker.get("factor", 0.25)),
        ))
    return out


def windows_from_markers(
    markers: List[Dict[str, object]], end: float = math.inf
) -> List[Tuple[float, float]]:
    """Fault windows reconstructed from markers / ``chaos.inject`` records."""
    return fault_windows(markers_to_events(markers), end=end)
