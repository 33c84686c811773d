"""The load-balancer plug-in interface of the virtual switch.

Every edge-based scheme — ECMP hashing, Edge-Flowlet, Clove-ECN, Clove-INT,
Presto — is a :class:`LoadBalancer` implementation.  The virtual switch asks
the policy for an outer (encapsulation-header) source port per packet and
feeds it the telemetry reflected back by destination hypervisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.net.packet import FlowKey, Packet

#: A discovered physical path: the ordered tuple of link names it traverses.
PathTrace = Tuple[str, ...]


@dataclass
class PathFeedback:
    """One piece of reflected telemetry about a forward path.

    ``dst_ip``   — the remote hypervisor the path leads to;
    ``port``     — the encapsulation source port identifying the path;
    ``congested``— True when the remote echoed an ECN CE observation;
    ``util``     — max path utilization echoed by Clove-INT (None for ECN);
    ``epoch``    — the sender's weight-table epoch the echoed state was
    learned under (None when the data path carried no epoch, e.g. a
    non-Clove policy); lets epoch-aware policies spot feedback that
    predates a respread or restart.
    """

    dst_ip: int
    port: int
    congested: bool
    util: Optional[float] = None
    epoch: Optional[int] = None


class LoadBalancer:
    """Base class: a congestion-oblivious single-port placeholder.

    Subclasses override :meth:`select_source_port` at minimum.  All
    callbacks run inline on the simulated datapath, mirroring the paper's
    in-kernel OVS implementation.
    """

    #: whether the vswitch should set ECT on outer headers for this policy
    wants_ecn: bool = False
    #: whether the vswitch should request INT telemetry on forward packets
    wants_int: bool = False
    #: whether the destination should measure one-way latency and reflect
    #: it back (the Section 7 NIC-timestamping alternative)
    wants_latency: bool = False
    #: the policy's :class:`~repro.core.weights.WeightedPathTable`, or None
    #: for a policy without one; a path health monitor runs only on a table
    weights = None
    #: whether the receive side must run Presto-style flowcell reassembly
    needs_reassembly: bool = False
    #: whether the outer source port is a pure function of the inner key
    #: (no state, time or feedback enters it): the vswitch then asks
    #: :meth:`select_source_port` once per inner key and caches the answer
    static_ports: bool = False
    #: whether :meth:`all_paths_congested` can ever answer True: the
    #: vswitch asks it on each received ACK only when this is set
    reports_all_congested: bool = False
    #: bound event log of the attached telemetry scope (None = uninstrumented)
    _tel_events = None
    #: bound span tracer of the attached scope (None = tracing off)
    _tel_trace = None

    @classmethod
    def from_site(cls, site) -> "LoadBalancer":
        """One host's policy for a run, built from its
        :class:`~repro.harness.schemes.PolicySite` (the scheme table's
        factory); by default a policy whose one knob is its hash seed."""
        return cls(hash_seed=site.seed)

    def select_source_port(self, inner: FlowKey, packet: Packet, now: float) -> int:
        """Return the outer source port for this packet (the path choice)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        """Bind this policy's decision events, and its weight table's
        update events, to a telemetry scope."""
        self._tel_events = telemetry.events
        trace = getattr(telemetry, "trace", None)
        self._tel_trace = trace if (trace is not None and trace.enabled) else None
        if self.weights is not None:
            self.weights.attach_telemetry(telemetry)

    def _emit_flowlet(
        self, inner: FlowKey, port: int, now: float, trigger: str = "new"
    ) -> None:
        """Record a path decision for a newly created flowlet (no-op when no
        telemetry scope is attached; called per flowlet, not per packet).

        ``trigger`` names why the decision came out this way: ``hash``
        (static/fallback hashing), ``random`` (edge-flowlet), ``weights``
        (the WRR table), ``int`` (least-utilized), ``quarantine`` (every
        live path was quarantined, fell back to hashing).
        """
        events = self._tel_events
        if events is not None:
            events.emit(
                "flowlet.new", now,
                src=inner.src_ip, dst=inner.dst_ip,
                sport=inner.src_port, port=port,
            )
        trace = self._tel_trace
        if trace is not None:
            fields = {"port": port, "trigger": trigger}
            weights = self.weights
            if weights is not None:
                snapshot = weights.weights_for(inner.dst_ip)
                if snapshot:
                    fields["weights"] = trace.weights_fingerprint(snapshot)
                path = weights.trace_of(inner.dst_ip, port)
                if path:
                    fields["path"] = ">".join(path)
            trace.flowlet(inner, now, **fields)

    # ------------------------------------------------------------------
    # Path discovery plumbing
    # ------------------------------------------------------------------
    def set_paths(
        self,
        dst_ip: int,
        ports: Sequence[int],
        traces: Sequence[PathTrace] = (),
    ) -> None:
        """Install the discovered port->path mapping towards ``dst_ip``.

        Called by the traceroute daemon after (re)discovery.  ``traces[i]``
        is the physical path that ``ports[i]`` maps to, so policies can
        carry per-path state across remappings (Section 3.1's optimization).
        """

    def needs_discovery(self) -> bool:
        """Whether this policy consumes discovered paths (Clove does,
        plain ECMP hashing does not)."""
        return False

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def on_path_feedback(self, feedback: PathFeedback, now: float) -> None:
        """Reflected ECN/INT telemetry from a destination hypervisor."""

    def all_paths_congested(self, dst_ip: int, now: float) -> bool:
        """True when every known path to ``dst_ip`` is currently congested.

        The vswitch relays ECN to the guest only in this case (Section 3.2),
        and asks only a policy that declares ``reports_all_congested``.
        """
        return False

    # ------------------------------------------------------------------
    # Introspection helpers used by tests/benchmarks
    # ------------------------------------------------------------------
    def ports_for(self, dst_ip: int) -> List[int]:
        """Currently usable ports towards ``dst_ip`` (may be empty)."""
        return []
