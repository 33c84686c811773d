"""The Clove edge load balancers (Sections 3.2-3.3).

Three policies in increasing order of congestion awareness:

* :class:`EdgeFlowletPolicy` — congestion-oblivious: a fresh random outer
  source port per flowlet.  Indirectly congestion-aware because congestion
  delays ACK clocking, opens inter-packet gaps, and so *creates* flowlets
  that then hop to new random paths.
* :class:`CloveEcnPolicy` — congestion-aware: weighted round-robin over the
  discovered ports with weights cut by a third on each reflected ECN mark.
* :class:`CloveIntPolicy` — utilization-aware: routes every new flowlet to
  the least-utilized path as echoed via In-band Network Telemetry.

All three consult the same :class:`~repro.core.flowlet.FlowletTable` so the
only experimental variable is the path-selection rule, mirroring the
paper's controlled comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.flowlet import FlowletTable
from repro.core.weights import WeightedPathTable
from repro.hypervisor.policy import LoadBalancer, PathFeedback, PathTrace
from repro.net.hashing import EcmpHasher
from repro.net.packet import FlowKey, Packet

#: ephemeral source-port range used for fallback hashing
_PORT_LO, _PORT_SPAN = 49152, 16384


@dataclass
class CloveParams:
    """Tunable parameters shared by the Clove variants (Section 4).

    ``flowlet_gap`` — idle time that opens a new flowlet (1xRTT was the
    testbed optimum; 2xRTT the conservative recommendation).
    ``weight_reduction`` — fraction of a congested path's weight removed per
    ECN echo.
    ``congestion_expiry`` — how long a path stays "congested" for the
    redistribution rule and the all-paths-congested guest relay.
    """

    flowlet_gap: float = 400e-6
    weight_reduction: float = 1.0 / 3.0
    congestion_expiry: float = 500e-6
    #: decay constant for stale INT utilization estimates (Clove-INT)
    util_aging: float = 1e-3


class _FlowletPolicyBase(LoadBalancer):
    """Shared machinery: flowlet table + fallback hashing before discovery."""

    def __init__(self, params: Optional[CloveParams] = None, hash_seed: int = 0) -> None:
        self.params = params if params is not None else CloveParams()
        self.flowlets = FlowletTable(self.params.flowlet_gap)
        self._hasher = EcmpHasher(hash_seed)

    @classmethod
    def from_site(cls, site) -> "_FlowletPolicyBase":
        return cls(site.params, hash_seed=site.seed)

    def _fallback_port(self, inner: FlowKey) -> int:
        """Pre-discovery behaviour: static hash of the inner 5-tuple (ECMP)."""
        return _PORT_LO + self._hasher.select(inner, _PORT_SPAN)

    def needs_discovery(self) -> bool:
        return True


class EdgeFlowletPolicy(_FlowletPolicyBase):
    """Edge-Flowlet: a new random source port per flowlet (Section 3.2).

    Uses the full ephemeral range by default (no discovery needed); pass
    ``use_discovered=True`` to restrict picks to the discovered port set,
    matching the NS2 variant.
    """

    def __init__(
        self,
        rng: random.Random,
        params: Optional[CloveParams] = None,
        use_discovered: bool = False,
        hash_seed: int = 0,
    ) -> None:
        super().__init__(params, hash_seed)
        self.rng = rng
        self.use_discovered = use_discovered
        self._ports: Dict[int, List[int]] = {}

    @classmethod
    def from_site(cls, site) -> "EdgeFlowletPolicy":
        return cls(site.rng.stream(f"edge-flowlet-{site.index}"), site.params,
                   hash_seed=site.seed)

    def needs_discovery(self) -> bool:
        return self.use_discovered

    def set_paths(self, dst_ip: int, ports: Sequence[int], traces: Sequence[PathTrace] = ()) -> None:
        self._ports[dst_ip] = list(ports)

    def ports_for(self, dst_ip: int) -> List[int]:
        return list(self._ports.get(dst_ip, []))

    def select_source_port(self, inner: FlowKey, packet: Packet, now: float) -> int:
        port, _flowlet_id = self.flowlets.lookup(inner, now)
        if port is not None:
            return port
        candidates = self._ports.get(inner.dst_ip) if self.use_discovered else None
        if candidates:
            choice = self.rng.choice(candidates)
        else:
            choice = self.rng.randrange(_PORT_LO, _PORT_LO + _PORT_SPAN)
        self.flowlets.assign(inner, choice, now)
        self._emit_flowlet(inner, choice, now, trigger="random")
        return choice


class _TablePolicyBase(_FlowletPolicyBase):
    """Clove-ECN and Clove-INT: new flowlets placed over one
    :class:`~repro.core.weights.WeightedPathTable`."""

    reports_all_congested = True

    def __init__(self, params: Optional[CloveParams], hash_seed: int) -> None:
        super().__init__(params, hash_seed)
        self.weights = WeightedPathTable(
            reduction_factor=self.params.weight_reduction,
            congestion_expiry=self.params.congestion_expiry,
        )

    def set_paths(self, dst_ip: int, ports: Sequence[int], traces: Sequence[PathTrace] = ()) -> None:
        remap = self.weights.set_paths(dst_ip, ports, traces)
        if remap:
            self.flowlets.reassign_ports(remap)

    def ports_for(self, dst_ip: int) -> List[int]:
        return self.weights.ports_for(dst_ip)

    def all_paths_congested(self, dst_ip: int, now: float) -> bool:
        return self.weights.all_congested(dst_ip, now)

    def _note_stale_echo(
        self, feedback: PathFeedback, now: float, reason: str
    ) -> None:
        """A stale echo was rejected: count it and leave an audit trail.

        ``reason`` is ``unknown_port`` (the path was remapped away, or the
        echo names a pre-discovery fallback port) — epoch rejections are
        counted by the vswitch before feedback is ever built.
        """
        self.weights.stale_echoes += 1
        events = self._tel_events
        if events is not None:
            events.emit(
                "clove.stale_echo", now,
                dst=feedback.dst_ip, port=feedback.port, reason=reason,
            )
        trace = self._tel_trace
        if trace is not None:
            trace.instant(
                "clove", "stale_echo", now,
                dst=feedback.dst_ip, port=feedback.port, reason=reason,
            )

    def _apply_congestion(self, feedback: PathFeedback, now: float) -> None:
        """Apply a congestion echo to the weight table, stale-echo safe."""
        try:
            self.weights.mark_congested(feedback.dst_ip, feedback.port, now)
        except KeyError:
            self._note_stale_echo(feedback, now, "unknown_port")
            return
        if (
            feedback.epoch is not None
            and feedback.epoch != self.weights.epoch_of(feedback.dst_ip)
        ):
            # Only reachable with the vswitch epoch guard disabled: a
            # previous-generation echo just moved weight.  The pinned
            # acceptance test asserts this stays 0 under guarded chaos.
            self.weights.stale_applied += 1


class CloveEcnPolicy(_TablePolicyBase):
    """Clove-ECN: WRR over discovered paths, weights adapted by ECN echoes.

    ``adaptive_gap`` is Section 7's "flowlet optimization": scale the
    flowlet gap with the measured spread of per-path one-way delays, so the
    gap automatically grows when paths diverge (requires latency echoes;
    enables ``wants_latency``).
    """

    wants_ecn = True

    def __init__(
        self,
        params: Optional[CloveParams] = None,
        hash_seed: int = 0,
        adaptive_gap: bool = False,
    ) -> None:
        super().__init__(params, hash_seed)
        self.adaptive_gap = adaptive_gap
        if adaptive_gap:
            self.wants_latency = True
        #: per-dst latest per-path delays (adaptive gap input)
        self._delays: Dict[int, Dict[int, float]] = {}

    def select_source_port(self, inner: FlowKey, packet: Packet, now: float) -> int:
        if self.adaptive_gap:
            self.flowlets.gap = self._adapted_gap(inner.dst_ip)
        port, _flowlet_id = self.flowlets.lookup(inner, now)
        if port is not None:
            return port
        if not self.weights.has_live_paths(inner.dst_ip):
            # Pre-discovery, or every discovered path quarantined: fall
            # back to static hashing (the guest is throttled through the
            # all-paths-congested ECE rule meanwhile).
            choice = self._fallback_port(inner)
            trigger = "quarantine" if self.weights.has_paths(inner.dst_ip) else "hash"
        else:
            choice = self.weights.next_port(inner.dst_ip)
            trigger = "weights"
        self.flowlets.assign(inner, choice, now)
        self._emit_flowlet(inner, choice, now, trigger=trigger)
        return choice

    def _adapted_gap(self, dst_ip: int) -> float:
        """Base gap plus the current spread of per-path one-way delays.

        A new flowlet only reorders if it overtakes in-flight packets on a
        slower path; the worst case is exactly the max-min delay spread, so
        adding it to the gap keeps reordering probability low regardless of
        how unbalanced the paths momentarily are (Section 7's proposal).
        """
        delays = self._delays.get(dst_ip)
        base = self.params.flowlet_gap
        if not delays or len(delays) < 2:
            return base
        spread = max(delays.values()) - min(delays.values())
        return base + max(0.0, spread)

    def on_path_feedback(self, feedback: PathFeedback, now: float) -> None:
        if feedback.congested:
            self._apply_congestion(feedback, now)
        if self.adaptive_gap and feedback.util is not None:
            self._delays.setdefault(feedback.dst_ip, {})[feedback.port] = feedback.util


class CloveIntPolicy(_TablePolicyBase):
    """Clove-INT: new flowlets go to the least-utilized discovered path.

    ``local_bump`` counters the herding that pure echo-driven selection
    suffers from: between INT echoes every source would steer every new
    flowlet at the one currently-least-utilized path.  Bumping the local
    utilization estimate of the chosen path by a small amount accounts for
    the source's own just-added traffic until the next echo overwrites the
    estimate with ground truth (the edge analogue of CONGA's local DRE).
    """

    wants_ecn = True   # keeps the ECN safety net for the all-congested case
    wants_int = True

    def __init__(
        self,
        params: Optional[CloveParams] = None,
        hash_seed: int = 0,
        local_bump: float = 0.05,
    ) -> None:
        super().__init__(params, hash_seed)
        self.weights.util_aging = self.params.util_aging
        self.local_bump = local_bump

    def select_source_port(self, inner: FlowKey, packet: Packet, now: float) -> int:
        port, _flowlet_id = self.flowlets.lookup(inner, now)
        if port is not None:
            return port
        if not self.weights.has_live_paths(inner.dst_ip):
            choice = self._fallback_port(inner)
            trigger = "quarantine" if self.weights.has_paths(inner.dst_ip) else "hash"
        else:
            choice = self.weights.least_utilized_port(inner.dst_ip, now)
            trigger = "int"
            if self.local_bump > 0.0:
                current = self.weights.util_of(inner.dst_ip, choice)
                self.weights.record_util(
                    inner.dst_ip, choice, current + self.local_bump, now
                )
        self.flowlets.assign(inner, choice, now)
        self._emit_flowlet(inner, choice, now, trigger=trigger)
        return choice

    def on_path_feedback(self, feedback: PathFeedback, now: float) -> None:
        if feedback.util is not None:
            self.weights.record_util(feedback.dst_ip, feedback.port, feedback.util, now)
        if feedback.congested:
            self._apply_congestion(feedback, now)
