"""Path liveness monitoring and self-healing (the closed control loop).

The paper hand-waves fault tolerance as "Clove can detect link failures via
its periodic probing" (Section 4.1).  This module makes that concrete — and
closes the loop the chaos subsystem opens: chaos injects a fault, the
monitor detects it, the weight table respreads traffic, and targeted
re-discovery re-learns the port->path mapping.

Per hypervisor, a :class:`PathHealthMonitor`:

1. sends lightweight liveness probes over every active (destination,
   source-port) path on a fixed cycle, each probe jittered by the seeded
   simulation RNG (never module-level ``random`` — parallel runs must stay
   bit-identical to serial ones);
2. declares a path *suspect* after ``suspect_after`` consecutive probe
   losses — or early, on an RTT spike / ECN-CE anomaly — and *dead* after
   ``dead_after`` consecutive losses;
3. quarantines dead paths in the
   :class:`~repro.core.weights.WeightedPathTable` (weight -> 0, mass
   respread atomically over survivors); the guest never sees the failure
   unless zero paths survive, in which case the policy falls back to
   static hashing and the all-paths-congested ECE rule throttles the guest
   — mirroring the paper's ECN-masking behavior;
4. triggers targeted background re-discovery via
   :meth:`~repro.core.discovery.PathDiscovery.start_round` under
   exponential backoff, so a healed fabric is re-learned without probe
   storms;
5. restores recovered paths through graduated probation weights
   (``probation_stages``, e.g. 10% then 50% of the uniform share) over
   ``probation_window`` seconds per stage, so a flapping cable cannot
   oscillate the table — a re-failure during probation re-quarantines at
   doubled re-discovery backoff.

Data-plane telemetry doubles as a liveness signal: an STT echo about a
path proves packets we sent on it arrived, so echoes reset its loss count
between probes — and (``suppress_with_echoes``) stand in for the probe
itself, so a loaded healthy fabric pays almost no probe overhead while a
dead path, whose echoes stop, regains the full cadence within one cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.discovery import PathDiscovery, next_probe_id
from repro.core.weights import (
    STATE_LIVE,
    STATE_PROBATION,
    STATE_QUARANTINED,
    WeightedPathTable,
)
from repro.net.packet import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.host import Host


@dataclass
class HealthConfig:
    """Tuning for the per-hypervisor path health monitor."""

    #: seconds between probe cycles (every tracked path is probed once per
    #: cycle); detection latency is roughly ``dead_after`` cycles
    probe_interval: float = 5e-3
    #: seconds before an unanswered probe counts as lost
    probe_timeout: float = 1.5e-3
    #: per-probe start jitter, as a fraction of ``probe_interval`` —
    #: drawn from the seeded sim RNG so probes from many hosts desynchronize
    jitter: float = 0.25
    #: consecutive losses before a path turns *suspect*
    suspect_after: int = 2
    #: consecutive losses before a path is declared dead and quarantined
    dead_after: int = 3
    #: consecutive probe successes before a quarantined path re-enters
    #: service on probation
    recover_after: int = 2
    #: probe RTT above this multiple of the smoothed baseline flags an
    #: anomaly (early *suspect*, before losses accumulate)
    rtt_suspect_factor: float = 6.0
    #: EWMA gain for the per-path baseline probe RTT
    rtt_smoothing: float = 0.2
    #: graduated re-admission: fraction of the uniform share per stage;
    #: after the last stage the path is promoted to full weight
    probation_stages: Tuple[float, ...] = (0.1, 0.5)
    #: seconds a path spends at each probation stage
    probation_window: float = 10e-3
    #: initial delay before a targeted re-discovery round for a dst with
    #: quarantined paths; doubles per attempt (and per probation failure)
    rediscovery_backoff: float = 5e-3
    #: backoff ceiling
    rediscovery_max_backoff: float = 80e-3
    #: skip a cycle's probe for a live, unsuspected path whose last
    #: data-plane signal (STT echo or probe reply) is fresher than one
    #: probe interval — loaded fabrics then probe almost nothing, while
    #: dead paths (echoes stop) keep the full cadence
    suppress_with_echoes: bool = True


class _PathHealth:
    """Liveness bookkeeping for one (destination, source-port) path."""

    __slots__ = ("dst_ip", "port", "phase", "suspect", "losses", "successes",
                 "srtt", "probation_stage", "probation_started",
                 "advance_event", "last_anomaly", "last_signal", "span")

    def __init__(self, dst_ip: int, port: int, phase: str) -> None:
        self.dst_ip = dst_ip
        self.port = port
        #: mirrors the weight-table state: live / probation / quarantined
        self.phase = phase
        self.suspect = False
        self.losses = 0
        self.successes = 0
        self.srtt: Optional[float] = None
        self.probation_stage = -1
        self.probation_started = -1.0
        self.advance_event = None
        self.last_anomaly = -1.0
        #: sim time of the last proof of delivery (echo or probe reply)
        self.last_signal = float("-inf")
        #: open "outage" trace span for the current incident (None = healthy)
        self.span = None


@dataclass
class _Marker:
    """One recorded health action (quarantine/restore), for metrics."""

    time: float
    action: str
    dst_ip: int
    port: int
    #: probation duration for ``action == "restore"`` markers
    probation_s: float = field(default=float("nan"))

    def to_dict(self) -> Dict[str, object]:
        """The marker as a JSON-able dict."""
        return {
            "time": self.time, "action": self.action,
            "dst": self.dst_ip, "port": self.port,
            "probation_s": self.probation_s,
        }


class PathHealthMonitor:
    """Per-hypervisor liveness prober driving quarantine and recovery.

    The monitor *pulls* its path set from its host's weight table
    (``host.vswitch.weights``) at the start of every cycle, so re-discovery
    remaps (new ports, carried-over states) are picked up without explicit
    synchronization; it re-discovers through ``host.prober``.
    """

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        rng,
        config: Optional[HealthConfig] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.rng = rng
        self.table: WeightedPathTable = host.vswitch.weights
        self.config = config if config is not None else HealthConfig()
        self.prober: Optional[PathDiscovery] = host.prober
        self._paths: Dict[Tuple[int, int], _PathHealth] = {}
        #: pid -> (dst_ip, port, sent_at) of in-flight probes
        self._outstanding: Dict[int, Tuple[int, int, float]] = {}
        self._backoff: Dict[int, float] = {}
        self._rediscovery_pending: Dict[int, bool] = {}
        self._started = False
        # Counters (scraped into the telemetry registry by observe_hosts).
        self.probes_sent = 0
        self.probes_suppressed = 0
        self.probes_lost = 0
        self.quarantines = 0
        self.restores = 0
        self.suspect_events = 0
        #: quarantine/restore actions with timestamps (chaos.metrics input)
        self.markers: List[_Marker] = []

    #: telemetry hooks; instances overwrite via :meth:`attach_telemetry`
    _tel_events = None
    _tel_trace = None

    def attach_telemetry(self, telemetry) -> None:
        """Bind health.* event emission to a telemetry scope."""
        self._tel_events = telemetry.events
        trace = getattr(telemetry, "trace", None)
        self._tel_trace = trace if (trace is not None and trace.enabled) else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the probe cycle (idempotent)."""
        if self._started:
            return
        self._started = True
        # Desynchronize hosts: each monitor starts at a random phase.
        offset = self.rng.uniform(0, self.config.probe_interval)
        self.sim.schedule(offset, self._cycle)

    def quarantined_now(self) -> int:
        """How many tracked paths are currently quarantined."""
        return sum(
            1 for rec in self._paths.values()
            if rec.phase == STATE_QUARANTINED
        )

    def cold_restart(self) -> int:
        """Crash-restart wipe: forget every path's health history.

        A restart must read as a *cold start*, not a mass-death signal:
        in-flight probe timeouts find no outstanding entry (so they never
        count as losses), loss/RTT history and rediscovery backoff reset,
        and the next cycle re-seeds paths from the weight table exactly as
        on first start.  The probe cycle itself keeps running — it is the
        monitor's heartbeat, not per-path state.  Returns how many tracked
        paths were wiped.
        """
        wiped = len(self._paths)
        for rec in self._paths.values():
            if rec.advance_event is not None:
                rec.advance_event.cancel()
                rec.advance_event = None
            self._outage_end(rec, "restart")
        self._paths.clear()
        self._outstanding.clear()
        self._backoff.clear()
        self._rediscovery_pending.clear()
        return wiped

    # ------------------------------------------------------------------
    # Probe cycle
    # ------------------------------------------------------------------
    def _cycle(self) -> None:
        cfg = self.config
        self._sync()
        span = cfg.jitter * cfg.probe_interval
        now = self.sim.now
        for rec in self._paths.values():
            if (cfg.suppress_with_echoes and rec.phase == STATE_LIVE
                    and not rec.suspect
                    and now - rec.last_signal < cfg.probe_interval):
                # Fresh data-plane proof of delivery: the probe would tell
                # us nothing.  A dying path stops echoing, so it regains
                # the full probe cadence within one interval.
                self.probes_suppressed += 1
                continue
            delay = self.rng.uniform(0, span) if span > 0 else 0.0
            self.sim.schedule(delay, self._send_probe, rec.dst_ip, rec.port)
        self.sim.schedule(cfg.probe_interval, self._cycle)

    def _sync(self) -> None:
        """Reconcile tracked paths with the weight table's current view."""
        current: Dict[Tuple[int, int], str] = {}
        for dst_ip in self.table.destinations():
            for port, state in self.table.path_states(dst_ip):
                current[(dst_ip, port)] = state
        for key in list(self._paths):
            if key not in current:
                rec = self._paths.pop(key)
                if rec.advance_event is not None:
                    rec.advance_event.cancel()
                self._outage_end(rec, "remapped")
        for key, state in current.items():
            if key not in self._paths:
                self._paths[key] = _PathHealth(key[0], key[1], state)

    def _send_probe(self, dst_ip: int, port: int) -> None:
        rec = self._paths.get((dst_ip, port))
        if rec is None:
            return  # path dropped from the table since the cycle started
        pid = next_probe_id(self.sim)
        self._outstanding[pid] = (dst_ip, port, self.sim.now)
        # Same outer 5-tuple shape as data traffic, so fabric ECMP hashes
        # the probe onto exactly the path this port's flowlets take.
        key = self.host.vswitch.outer_key(dst_ip, port)
        probe = Packet(key, payload_bytes=28, created_at=self.sim.now)
        probe.meta["probe"] = pid
        probe.meta["health"] = True
        self.probes_sent += 1
        self.host.nic_send(probe)
        self.sim.schedule(self.config.probe_timeout, self._on_timeout, pid)

    def _on_timeout(self, pid: int) -> None:
        entry = self._outstanding.pop(pid, None)
        if entry is None:
            return  # answered in time
        dst_ip, port, _sent_at = entry
        rec = self._paths.get((dst_ip, port))
        if rec is None:
            return
        self.probes_lost += 1
        self._record_loss(rec)

    # ------------------------------------------------------------------
    # Signals (wired in Host.receive / VSwitch)
    # ------------------------------------------------------------------
    def on_probe_reply(self, packet: Packet) -> bool:
        """Claim a probe reply if its id is ours; returns whether it was."""
        pid = packet.meta.get("probe_reply")
        entry = self._outstanding.pop(pid, None)
        if entry is None:
            return False
        dst_ip, port, sent_at = entry
        rec = self._paths.get((dst_ip, port))
        if rec is not None:
            self._record_success(rec, self.sim.now - sent_at)
        return True

    def on_echo(self, dst_ip: int, port: int, congested: bool) -> None:
        """Data-plane feedback: an echo about a path proves it delivers.

        A CE echo additionally counts as a congestion anomaly (one early
        *suspect* per probe interval, not per packet).
        """
        rec = self._paths.get((dst_ip, port))
        if rec is None:
            return
        rec.losses = 0
        rec.last_signal = self.sim.now
        if congested and rec.phase == STATE_LIVE:
            self._note_anomaly(rec, "ecn_ce")

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _record_loss(self, rec: _PathHealth) -> None:
        cfg = self.config
        rec.successes = 0
        rec.losses += 1
        if rec.phase == STATE_LIVE:
            if not rec.suspect and rec.losses >= cfg.suspect_after:
                rec.suspect = True
                self.suspect_events += 1
                self._emit("health.suspect", dst=rec.dst_ip, port=rec.port,
                           reason="probe_loss", losses=rec.losses)
                self._outage_begin(rec)
                self._outage_mark(rec, "suspect", reason="probe_loss",
                                  losses=rec.losses)
            if rec.losses >= cfg.dead_after:
                self._quarantine(rec)
        elif rec.phase == STATE_PROBATION:
            # Strict probation: a flapping path goes straight back to
            # quarantine (at doubled backoff) before suspect_after losses.
            if rec.losses >= cfg.suspect_after:
                self._quarantine(rec, requarantine=True)
        # Already quarantined: losses are expected; recovery probing goes on.

    def _record_success(self, rec: _PathHealth, rtt: float) -> None:
        cfg = self.config
        rec.losses = 0
        rec.last_signal = self.sim.now
        if rec.phase == STATE_QUARANTINED:
            rec.successes += 1
            if rec.successes >= cfg.recover_after:
                self._begin_probation(rec)
            return
        if rec.suspect and rec.phase == STATE_LIVE:
            self._outage_end(rec, "cleared")
        rec.suspect = False
        if rec.srtt is not None and rec.srtt > 0:
            if rtt > cfg.rtt_suspect_factor * rec.srtt:
                self._note_anomaly(rec, "rtt_spike", rtt=rtt)
            rec.srtt += cfg.rtt_smoothing * (rtt - rec.srtt)
        else:
            rec.srtt = rtt

    def _note_anomaly(self, rec: _PathHealth, reason: str, **fields) -> None:
        now = self.sim.now
        if now - rec.last_anomaly < self.config.probe_interval:
            return  # rate-limit: one anomaly per path per probe interval
        rec.last_anomaly = now
        rec.suspect = True
        self.suspect_events += 1
        self._emit("health.suspect", dst=rec.dst_ip, port=rec.port,
                   reason=reason, **fields)
        self._outage_begin(rec)
        self._outage_mark(rec, "suspect", reason=reason)

    # ------------------------------------------------------------------
    # Quarantine and recovery
    # ------------------------------------------------------------------
    def _quarantine(self, rec: _PathHealth, requarantine: bool = False) -> None:
        try:
            changed = self.table.quarantine(rec.dst_ip, rec.port)
        except KeyError:
            # The table no longer knows this path (remapped mid-flight);
            # the next cycle's _sync drops our record.
            return
        rec.phase = STATE_QUARANTINED
        rec.suspect = False
        rec.successes = 0
        rec.probation_stage = -1
        if rec.advance_event is not None:
            rec.advance_event.cancel()
            rec.advance_event = None
        if not changed:
            return
        now = self.sim.now
        self.quarantines += 1
        self.markers.append(_Marker(now, "quarantine", rec.dst_ip, rec.port))
        self._emit("health.dead", dst=rec.dst_ip, port=rec.port,
                   losses=rec.losses)
        self._emit("health.quarantine", dst=rec.dst_ip, port=rec.port,
                   live_ports=len(self.table.live_ports_for(rec.dst_ip)))
        self._outage_begin(rec)  # probation re-failures arrive unsuspected
        self._outage_mark(
            rec, "requarantine" if requarantine else "quarantine",
            live_ports=len(self.table.live_ports_for(rec.dst_ip)),
        )
        if requarantine:
            # Anti-flapping: each probation failure doubles the backoff.
            cfg = self.config
            current = self._backoff.get(rec.dst_ip, cfg.rediscovery_backoff)
            self._backoff[rec.dst_ip] = min(
                current * 2, cfg.rediscovery_max_backoff
            )
        self._schedule_rediscovery(rec.dst_ip)

    def _begin_probation(self, rec: _PathHealth) -> None:
        cfg = self.config
        stages = cfg.probation_stages or (1.0,)
        try:
            self.table.begin_probation(rec.dst_ip, rec.port, stages[0])
        except KeyError:
            return
        rec.phase = STATE_PROBATION
        rec.losses = 0
        rec.probation_stage = 0
        rec.probation_started = self.sim.now
        self._emit("health.probation", dst=rec.dst_ip, port=rec.port,
                   stage=0, fraction=stages[0])
        self._outage_mark(rec, "probation", stage=0, fraction=stages[0])
        rec.advance_event = self.sim.schedule(
            cfg.probation_window, self._advance_probation, rec.dst_ip, rec.port
        )

    def _advance_probation(self, dst_ip: int, port: int) -> None:
        rec = self._paths.get((dst_ip, port))
        if rec is None or rec.phase != STATE_PROBATION:
            return  # re-quarantined (or remapped away) during the window
        rec.advance_event = None
        cfg = self.config
        stages = cfg.probation_stages or (1.0,)
        next_stage = rec.probation_stage + 1
        if next_stage < len(stages):
            try:
                self.table.begin_probation(dst_ip, port, stages[next_stage])
            except KeyError:
                return
            rec.probation_stage = next_stage
            self._emit("health.probation", dst=dst_ip, port=port,
                       stage=next_stage, fraction=stages[next_stage])
            self._outage_mark(rec, "probation", stage=next_stage,
                              fraction=stages[next_stage])
            rec.advance_event = self.sim.schedule(
                cfg.probation_window, self._advance_probation, dst_ip, port
            )
            return
        try:
            self.table.promote(dst_ip, port)
        except KeyError:
            return
        now = self.sim.now
        rec.phase = STATE_LIVE
        rec.suspect = False
        rec.probation_stage = -1
        probation_s = now - rec.probation_started
        self.restores += 1
        self.markers.append(
            _Marker(now, "restore", dst_ip, port, probation_s=probation_s)
        )
        self._emit("health.restore", dst=dst_ip, port=port,
                   probation_s=probation_s)
        self._outage_mark(rec, "restore", probation_s=probation_s)
        self._outage_end(rec, "restored")
        self._backoff.pop(dst_ip, None)

    # ------------------------------------------------------------------
    # Targeted re-discovery
    # ------------------------------------------------------------------
    def _schedule_rediscovery(self, dst_ip: int) -> None:
        if self.prober is None or self._rediscovery_pending.get(dst_ip):
            return
        delay = self._backoff.setdefault(
            dst_ip, self.config.rediscovery_backoff
        )
        self._rediscovery_pending[dst_ip] = True
        self.sim.schedule(delay, self._rediscover, dst_ip)

    def _rediscover(self, dst_ip: int) -> None:
        self._rediscovery_pending[dst_ip] = False
        still_dead = any(
            state == STATE_QUARANTINED
            for _port, state in self.table.path_states(dst_ip)
        )
        if not still_dead:
            self._backoff.pop(dst_ip, None)
            return
        self.prober.start_round(dst_ip)
        cfg = self.config
        self._backoff[dst_ip] = min(
            self._backoff.get(dst_ip, cfg.rediscovery_backoff) * 2,
            cfg.rediscovery_max_backoff,
        )
        self._schedule_rediscovery(dst_ip)

    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        if self._tel_events is not None:
            self._tel_events.emit(event, self.sim.now,
                                  host=self.host.name, **fields)

    # ------------------------------------------------------------------
    # Outage trace spans (one per incident: suspect ... quarantine ...
    # probation ... restore/cleared/remapped)
    # ------------------------------------------------------------------
    def _outage_begin(self, rec: _PathHealth) -> None:
        trace = self._tel_trace
        if trace is None or rec.span is not None:
            return
        rec.span = trace.begin(
            "outage", f"{rec.dst_ip}:{rec.port}", self.sim.now,
            host=self.host.name, dst=rec.dst_ip, port=rec.port,
        )

    def _outage_mark(self, rec: _PathHealth, mark: str, **fields) -> None:
        trace = self._tel_trace
        if trace is None or rec.span is None:
            return
        trace.instant("health", mark, self.sim.now,
                      parent=rec.span.sid, **fields)

    def _outage_end(self, rec: _PathHealth, outcome: str) -> None:
        trace = self._tel_trace
        if trace is None or rec.span is None:
            return
        trace.end(rec.span, self.sim.now, outcome=outcome)
        rec.span = None
