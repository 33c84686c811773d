"""ECMP baseline at the virtual edge (Section 5, "ECMP").

The outer TCP source port is a static hash of the inner 5-tuple, so every
packet of a flow follows one fixed physical path for the flow's lifetime —
congestion-oblivious, coarse-grained, and exactly what standard overlay
encapsulation (STT/VXLAN) does today.
"""

from __future__ import annotations

from repro.hypervisor.policy import LoadBalancer
from repro.net.hashing import EcmpHasher
from repro.net.packet import FlowKey, Packet

_PORT_LO, _PORT_SPAN = 49152, 16384


class EcmpPolicy(LoadBalancer):
    """Outer source port = hash(inner 5-tuple); never changes mid-flow."""

    static_ports = True

    def __init__(self, hash_seed: int = 0) -> None:
        self._hasher = EcmpHasher(hash_seed)
        self._cache = {}

    def select_source_port(self, inner: FlowKey, packet: Packet, now: float) -> int:
        port = self._cache.get(inner)
        if port is None:
            port = _PORT_LO + self._hasher.select(inner, _PORT_SPAN)
            self._cache[inner] = port
            # One sticky "flowlet" per flow: ECMP never re-decides, but
            # recording the single decision gives traces a per-path
            # residency baseline to compare adaptive schemes against.
            self._emit_flowlet(inner, port, now, trigger="hash")
        return port
