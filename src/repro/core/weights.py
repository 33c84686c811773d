"""Weighted-round-robin path table with ECN-driven adaptation (Section 3.2).

Per destination hypervisor, Clove keeps a set of encapsulation source ports
(one per discovered path) with weights.  New flowlets rotate through the
ports in weighted round-robin order.  On an ECN echo for a path, its weight
is cut by a fixed proportion (a third by default) and the removed mass is
spread equally over the currently-uncongested paths, so traffic drains away
from hot paths within an RTT or two.

The WRR itself is the "smooth" variant (interleaves choices rather than
emitting runs), which matches rotating "through the ports ... according to
the new set of weights".

Beyond congestion weighting, each path carries a liveness *state* driven by
the :class:`~repro.core.health.PathHealthMonitor`:

* ``live`` — normal WRR/least-utilized member;
* ``quarantined`` — declared dead; weight pinned to zero and excluded from
  selection and normalization (its former share respreads atomically over
  the survivors);
* ``probation`` — recovering: selectable again, but at a graduated fraction
  of its uniform share until the monitor promotes it back to ``live``.

The invariant is that the weights of *selectable* (non-quarantined) paths
always sum to 1, so quarantining never changes aggregate send rate — only
where it lands.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hypervisor.policy import PathTrace

#: weights are never allowed to collapse entirely to zero
_MIN_WEIGHT = 1e-4

#: path liveness states (see the module docstring)
STATE_LIVE = "live"
STATE_PROBATION = "probation"
STATE_QUARANTINED = "quarantined"


class _PathState:
    __slots__ = ("port", "weight", "wrr_current", "congested_until", "util",
                 "util_time", "trace", "state")

    def __init__(self, port: int, weight: float, trace: Optional[PathTrace]) -> None:
        self.port = port
        self.weight = weight
        self.wrr_current = 0.0
        self.congested_until = -1.0
        self.util = 0.0
        self.util_time = -1.0
        self.trace = trace
        self.state = STATE_LIVE


class WeightedPathTable:
    """Path weights + smooth WRR for one source hypervisor.

    ``congestion_expiry`` controls how long a path counts as "congested"
    after an ECN echo — used both for redistribution (only uncongested paths
    gain weight) and for the all-paths-congested guest relay decision.
    """

    def __init__(
        self,
        reduction_factor: float = 1.0 / 3.0,
        congestion_expiry: float = 500e-6,
        util_aging: float = 1e-3,
        tie_epsilon: float = 0.05,
    ) -> None:
        if not 0.0 < reduction_factor < 1.0:
            raise ValueError("reduction factor must be in (0, 1)")
        self.reduction_factor = reduction_factor
        self.congestion_expiry = congestion_expiry
        #: estimates within this absolute margin of the minimum count as
        #: tied in :meth:`least_utilized_port` (scale it to the metric:
        #: ~0.05 for utilization, microseconds for latency)
        self.tie_epsilon = tie_epsilon
        #: time constant for decaying stale utilization estimates.  Without
        #: aging, an abandoned path keeps its last (high) estimate forever
        #: because only paths carrying traffic receive INT echoes.
        self.util_aging = util_aging
        #: dst_ip -> list of path states
        self._paths: Dict[int, List[_PathState]] = {}
        self._int_rotation: Dict[int, int] = {}
        #: dst_ip -> weight-table generation; bumped on every structural
        #: respread (a set_paths that changes an existing install's port
        #: set) and on a restart wipe.  Survives :meth:`clear` so epochs
        #: stay monotonic across a vswitch crash-restart.  Mutated in
        #: place, never rebound: the vswitch reads it per packet.
        self.epochs: Dict[int, int] = {}
        # Counters.
        self.weight_reductions = 0
        self.quarantined_total = 0
        self.restored_total = 0
        #: echoes naming a port this table never installed (stale echoes
        #: after a remap, or echoes for pre-discovery fallback ports)
        self.unknown_ports = 0
        #: stale echoes observed: unknown-port echoes counted by the
        #: policies plus epoch-guard rejections counted by the vswitch
        self.stale_echoes = 0
        #: stale echoes whose weight update was nonetheless applied — only
        #: possible with the vswitch epoch guard disabled; the pinned
        #: acceptance test asserts this stays 0 under chaos with the guard
        self.stale_applied = 0
        #: how many times any destination's epoch advanced
        self.epoch_bumps = 0

    #: telemetry hook; instances overwrite via :meth:`attach_telemetry`
    _tel_events = None
    #: optional ``fn(dst_ip)`` called after any weight change — the chaos
    #: engine's restart re-convergence watcher hangs off this
    on_respread = None

    def attach_telemetry(self, telemetry) -> None:
        """Bind weight-update event emission to a telemetry scope."""
        self._tel_events = telemetry.events

    def _notify_respread(self, dst_ip: int) -> None:
        hook = self.on_respread
        if hook is not None:
            hook(dst_ip)

    # ------------------------------------------------------------------
    # Epoch guard (control-plane chaos defense)
    # ------------------------------------------------------------------
    def epoch_of(self, dst_ip: int) -> int:
        """The current weight-table generation towards ``dst_ip``.

        Stamped into outgoing packets; echoes reflecting an older epoch
        describe a path set that no longer exists and must not be applied.
        """
        return self.epochs.get(dst_ip, 0)

    def bump_epoch(self, dst_ip: int) -> int:
        """Advance ``dst_ip``'s generation; returns the new epoch."""
        epoch = self.epochs.get(dst_ip, 0) + 1
        self.epochs[dst_ip] = epoch
        self.epoch_bumps += 1
        return epoch

    def clear(self) -> List[int]:
        """Crash-restart wipe: forget every installed path set.

        Epochs are bumped, not reset — a restarted vswitch must never
        re-issue an epoch whose echoes may still be in flight.  Returns
        the destinations that were wiped.
        """
        wiped = list(self._paths)
        for dst_ip in wiped:
            self.bump_epoch(dst_ip)
        self._paths.clear()
        self._int_rotation.clear()
        return wiped

    # ------------------------------------------------------------------
    # Discovery interface
    # ------------------------------------------------------------------
    def set_paths(
        self,
        dst_ip: int,
        ports: Sequence[int],
        traces: Sequence[PathTrace] = (),
    ) -> Dict[int, int]:
        """Install/replace the port set towards ``dst_ip``.

        State learned for a *path* survives a remapping of its port
        (Section 3.1's optimization): if a trace in the new mapping matches
        a trace in the old one, its weight and congestion state carry over.
        Returns an ``old_port -> new_port`` remap for flowlet tables.
        """
        if not ports:
            raise ValueError("need at least one port")
        previous_ports = {s.port for s in self._paths.get(dst_ip, [])}
        old = {state.trace: state for state in self._paths.get(dst_ip, []) if state.trace}
        uniform = 1.0 / len(ports)
        states: List[_PathState] = []
        remap: Dict[int, int] = {}
        for i, port in enumerate(ports):
            trace = traces[i] if i < len(traces) else None
            previous = old.get(trace) if trace else None
            if previous is not None:
                state = _PathState(port, previous.weight, trace)
                state.congested_until = previous.congested_until
                state.util = previous.util
                state.state = previous.state
                if previous.port != port:
                    remap[previous.port] = port
            else:
                state = _PathState(port, uniform, trace)
            states.append(state)
        self._normalize(states)
        self._paths[dst_ip] = states
        # A structural respread: echoes about the old port set are now
        # meaningless, so open a new generation.  First installs keep
        # epoch 0 — there is no old state a late echo could clash with.
        if previous_ports and previous_ports != set(ports):
            self.bump_epoch(dst_ip)
        self._notify_respread(dst_ip)
        return remap

    def set_static_weights(self, dst_ip: int, weights: Sequence[float]) -> None:
        """Overwrite weights index-aligned with the installed ports.

        Used by Presto's benefit-of-the-doubt configuration, where an
        (idealized) controller supplies topology-derived path weights.
        """
        states = self._paths.get(dst_ip)
        if not states:
            raise KeyError(f"no paths for destination {dst_ip}")
        for i, state in enumerate(states):
            if i < len(weights):
                state.weight = max(float(weights[i]), _MIN_WEIGHT)
        self._normalize(states)
        self._notify_respread(dst_ip)

    def has_paths(self, dst_ip: int) -> bool:
        """Whether a port set has been installed for ``dst_ip``."""
        return bool(self._paths.get(dst_ip))

    def has_live_paths(self, dst_ip: int) -> bool:
        """Whether at least one non-quarantined path to ``dst_ip`` exists."""
        return any(
            s.state != STATE_QUARANTINED for s in self._paths.get(dst_ip, [])
        )

    def ports_for(self, dst_ip: int) -> List[int]:
        """The installed ports towards ``dst_ip`` (empty if none)."""
        return [state.port for state in self._paths.get(dst_ip, [])]

    def live_ports_for(self, dst_ip: int) -> List[int]:
        """The selectable (non-quarantined) ports towards ``dst_ip``."""
        return [
            s.port for s in self._paths.get(dst_ip, [])
            if s.state != STATE_QUARANTINED
        ]

    def destinations(self) -> List[int]:
        """Every destination with an installed port set (insertion order)."""
        return list(self._paths)

    def weights_for(self, dst_ip: int) -> Dict[int, float]:
        """Current ``{port: weight}`` mapping towards ``dst_ip``."""
        return {s.port: s.weight for s in self._paths.get(dst_ip, [])}

    def state_of(self, dst_ip: int, port: int) -> str:
        """Liveness state of one path (raises ``KeyError`` when unknown)."""
        return self._state(dst_ip, port, "state_of").state

    def trace_of(self, dst_ip: int, port: int) -> Optional[PathTrace]:
        """The discovered physical path behind ``port`` (None when unknown
        — pre-discovery fallback ports have no trace)."""
        for state in self._paths.get(dst_ip, ()):
            if state.port == port:
                return state.trace
        return None

    def path_states(self, dst_ip: int) -> List[Tuple[int, str]]:
        """``(port, state)`` for every installed path towards ``dst_ip``."""
        return [(s.port, s.state) for s in self._paths.get(dst_ip, [])]

    def invariant_violations(self, tolerance: float = 1e-6) -> List[Dict[str, object]]:
        """Structural self-check for :mod:`repro.audit`.

        Verifies, per destination: selectable (non-quarantined) weights sum
        to 1, every weight is non-negative, quarantined paths are pinned at
        exactly zero, and every state is a known liveness state.  Returns
        one ``{"message": ..., **context}`` dict per violation (empty list
        = table is sound; all-quarantined groups have nothing to sum).
        """
        violations: List[Dict[str, object]] = []
        known = (STATE_LIVE, STATE_PROBATION, STATE_QUARANTINED)
        for dst_ip, states in self._paths.items():
            selectable_sum = 0.0
            any_selectable = False
            for s in states:
                if s.state not in known:
                    violations.append({
                        "message": f"port {s.port} towards {dst_ip} in "
                                   f"unknown state {s.state!r}",
                        "dst": dst_ip, "port": s.port,
                    })
                if s.weight < 0:
                    violations.append({
                        "message": f"port {s.port} towards {dst_ip} has "
                                   f"negative weight {s.weight:.9f}",
                        "dst": dst_ip, "port": s.port, "weight": s.weight,
                    })
                if s.state == STATE_QUARANTINED:
                    if s.weight != 0.0:
                        violations.append({
                            "message": f"quarantined port {s.port} towards "
                                       f"{dst_ip} holds weight {s.weight:.9f}"
                                       f" (must be 0)",
                            "dst": dst_ip, "port": s.port, "weight": s.weight,
                        })
                else:
                    any_selectable = True
                    selectable_sum += s.weight
            if any_selectable and abs(selectable_sum - 1.0) > tolerance:
                violations.append({
                    "message": f"selectable weights towards {dst_ip} sum to "
                               f"{selectable_sum:.9f} (expected 1)",
                    "dst": dst_ip, "total": selectable_sum,
                })
        return violations

    # ------------------------------------------------------------------
    # Liveness lifecycle (driven by repro.core.health)
    # ------------------------------------------------------------------
    def _state(self, dst_ip: int, port: int, op: str) -> _PathState:
        states = self._paths.get(dst_ip)
        if not states:
            raise KeyError(
                f"no paths for destination {dst_ip} ({op}); "
                f"known destinations: {sorted(self._paths)}"
            )
        target = next((s for s in states if s.port == port), None)
        if target is None:
            raise KeyError(
                f"no path on port {port} towards {dst_ip} ({op}); "
                f"installed ports: {[s.port for s in states]}"
            )
        return target

    def quarantine(self, dst_ip: int, port: int) -> bool:
        """Declare one path dead: weight to zero, mass respread atomically.

        The removed weight is redistributed over the surviving selectable
        paths in the same call (the guest never sees a partially-updated
        table).  Returns False when the path was already quarantined.
        Raises ``KeyError`` for a destination/port this table never
        installed.
        """
        target = self._state(dst_ip, port, "quarantine")
        if target.state == STATE_QUARANTINED:
            return False
        target.state = STATE_QUARANTINED
        target.weight = 0.0
        target.wrr_current = 0.0
        self.quarantined_total += 1
        self._normalize(self._paths[dst_ip])
        self._notify_respread(dst_ip)
        return True

    def begin_probation(self, dst_ip: int, port: int, fraction: float) -> bool:
        """Readmit a quarantined path at ``fraction`` of its uniform share.

        Also advances an already-probationary path to a new fraction (the
        graduated 10% -> 50% -> full schedule).  Returns False when the path
        is fully live (nothing to do); raises ``KeyError`` when unknown.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("probation fraction must be in (0, 1]")
        target = self._state(dst_ip, port, "begin_probation")
        if target.state == STATE_LIVE:
            return False
        states = self._paths[dst_ip]
        target.state = STATE_PROBATION
        selectable = [s for s in states if s.state != STATE_QUARANTINED]
        target.weight = fraction / max(len(selectable), 1)
        target.wrr_current = 0.0
        self._normalize(states)
        self._notify_respread(dst_ip)
        return True

    def promote(self, dst_ip: int, port: int) -> bool:
        """Probation served: the path becomes a full ``live`` member again.

        Its weight is reset to the uniform share (congestion adaptation
        takes over from there).  Returns False when it was already live.
        """
        target = self._state(dst_ip, port, "promote")
        if target.state == STATE_LIVE:
            return False
        states = self._paths[dst_ip]
        target.state = STATE_LIVE
        selectable = [s for s in states if s.state != STATE_QUARANTINED]
        target.weight = 1.0 / max(len(selectable), 1)
        self.restored_total += 1
        self._normalize(states)
        self._notify_respread(dst_ip)
        return True

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def next_port(self, dst_ip: int) -> int:
        """Smooth-WRR pick for a new flowlet towards ``dst_ip``.

        Quarantined paths never come up; raises ``KeyError`` when no path
        is installed *or* every installed path is quarantined (callers fall
        back to static hashing in that case).
        """
        states = self._paths.get(dst_ip)
        if not states:
            raise KeyError(f"no paths for destination {dst_ip}")
        total = 0.0
        best: Optional[_PathState] = None
        for state in states:
            if state.state == STATE_QUARANTINED:
                continue
            state.wrr_current += state.weight
            total += state.weight
            if best is None or state.wrr_current > best.wrr_current:
                best = state
        if best is None:
            raise KeyError(f"no live paths for destination {dst_ip}")
        best.wrr_current -= total
        return best.port

    def least_utilized_port(
        self,
        dst_ip: int,
        now: Optional[float] = None,
        tie_epsilon: Optional[float] = None,
    ) -> int:
        """Clove-INT pick: the path with the lowest echoed utilization.

        Estimates are exponentially aged with ``util_aging`` so an abandoned
        path becomes attractive again once its last echo goes stale.  Paths
        whose estimates are within ``tie_epsilon`` of the minimum count as
        tied and are taken round-robin — deterministic tie-breaking would
        herd every source onto one path whenever estimates equalize (e.g.
        when a shared last-hop link dominates all of them).
        """
        states = [
            s for s in self._paths.get(dst_ip, ())
            if s.state != STATE_QUARANTINED
        ]
        if not states:
            raise KeyError(f"no live paths for destination {dst_ip}")
        epsilon = tie_epsilon if tie_epsilon is not None else self.tie_epsilon
        utils = [self._aged_util(s, now) for s in states]
        lowest = min(utils)
        tied = [i for i, u in enumerate(utils) if u <= lowest + epsilon]
        if len(tied) == 1:
            return states[tied[0]].port
        rotation = self._int_rotation.get(dst_ip, 0)
        self._int_rotation[dst_ip] = rotation + 1
        return states[tied[rotation % len(tied)]].port

    def _aged_util(self, state: _PathState, now: Optional[float]) -> float:
        if now is None or state.util_time < 0 or self.util_aging <= 0:
            return state.util
        return state.util * math.exp(-(now - state.util_time) / self.util_aging)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def mark_congested(self, dst_ip: int, port: int, now: float) -> None:
        """ECN echo for ``port``: cut its weight, spread mass elsewhere.

        Raises a descriptive ``KeyError`` (mirroring the
        ``Network.cable()`` convention) when the destination or port was
        never installed — stale echoes arrive legitimately after a
        remapping or for pre-discovery fallback ports, so policies catch
        it; the ``unknown_ports`` counter (surfaced as the
        ``weights.unknown_port`` telemetry counter) records how often.
        """
        states = self._paths.get(dst_ip)
        if not states:
            self.unknown_ports += 1
            raise KeyError(
                f"echo for unknown destination {dst_ip} (port {port}); "
                f"known destinations: {sorted(self._paths)}"
            )
        for target in states:
            if target.port == port:
                break
        else:
            target = None
        if target is None:
            self.unknown_ports += 1
            raise KeyError(
                f"echo for unknown port {port} towards {dst_ip}; "
                f"installed ports: {[s.port for s in states]}"
            )
        target.congested_until = now + self.congestion_expiry
        if target.state == STATE_QUARANTINED:
            return  # weight already zero; nothing to cut or respread
        removed = target.weight * self.reduction_factor
        target.weight -= removed
        selectable = [s for s in states if s.state != STATE_QUARANTINED]
        beneficiaries = [
            s for s in selectable if s is not target and s.congested_until <= now
        ]
        if not beneficiaries:
            beneficiaries = [s for s in selectable if s is not target]
        if beneficiaries:
            share = removed / len(beneficiaries)
            for state in beneficiaries:
                state.weight += share
        else:
            target.weight += removed  # single-path destination: no-op
        self._normalize(states)
        self.weight_reductions += 1
        self._notify_respread(dst_ip)
        if self._tel_events is not None:
            self._tel_events.emit(
                "clove.weight_update", now,
                dst=dst_ip, port=port,
                weights={str(s.port): round(s.weight, 6) for s in states},
            )

    def util_of(self, dst_ip: int, port: int) -> float:
        """Latest recorded utilization for one path (0.0 when unknown)."""
        for state in self._paths.get(dst_ip, []):
            if state.port == port:
                return state.util
        return 0.0

    def record_util(
        self, dst_ip: int, port: int, util: float, now: Optional[float] = None
    ) -> None:
        """INT echo: remember the latest max path utilization."""
        states = self._paths.get(dst_ip)
        if not states:
            return
        for state in states:
            if state.port == port:
                state.util = util
                if now is not None:
                    state.util_time = now
                return

    def all_congested(self, dst_ip: int, now: float) -> bool:
        """True when every path to ``dst_ip`` is congested *or* quarantined.

        A quarantined path counts as congested: when the health monitor has
        taken every path out of service the guest must be throttled via the
        same ECE-injection rule the paper uses for all-paths-congested.
        """
        states = self._paths.get(dst_ip)
        if not states:
            return False
        for state in states:
            if not (state.state == STATE_QUARANTINED
                    or state.congested_until > now):
                return False
        return True

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(states: List[_PathState]) -> None:
        """Re-establish the invariant: selectable weights sum to 1.

        Quarantined paths are pinned at zero and excluded; when *every*
        path is quarantined there is nothing to normalize (selection falls
        back to static hashing at the policy layer).
        """
        selectable = [s for s in states if s.state != STATE_QUARANTINED]
        if not selectable:
            return
        for state in selectable:
            if state.weight < _MIN_WEIGHT:
                state.weight = _MIN_WEIGHT
        total = sum([state.weight for state in selectable])
        for state in selectable:
            state.weight /= total
