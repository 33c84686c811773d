"""Presto baseline, adapted to L3 ECMP as the paper's authors did (Section 5).

The source vswitch sprays fixed-size flowcells (64KB of a flow's bytes) over
a pre-computed set of encapsulation source ports in weighted round-robin
order.  There is no congestion feedback: for asymmetric topologies the
experiments hand Presto "ideal" static path weights, reproducing the
benefit-of-the-doubt configuration in Section 5 (weights 0.33/0.33/0.17/0.17
after the S2-L2 failure).

Receiver-side flowcell reassembly (merging out-of-order flowcells before
delivery to the guest) is implemented in the virtual switch and enabled via
``needs_reassembly``.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.weights import WeightedPathTable
from repro.hypervisor.policy import LoadBalancer, PathTrace
from repro.net.hashing import EcmpHasher
from repro.net.packet import MSS, FlowKey, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.network import Network

_PORT_LO, _PORT_SPAN = 49152, 16384

#: Presto's flowcell size: one maximum TSO segment.
FLOWCELL_BYTES = 64 * 1024


class _FlowState:
    __slots__ = ("port", "remaining", "flowcell_id")

    def __init__(self) -> None:
        self.port: Optional[int] = None
        self.remaining = 0
        self.flowcell_id = -1


class PrestoPolicy(LoadBalancer):
    """Congestion-oblivious flowcell spraying with static weights."""

    needs_reassembly = True

    def __init__(
        self,
        flowcell_bytes: int = FLOWCELL_BYTES,
        static_weights: Optional[Sequence[float]] = None,
        weight_fn=None,
        hash_seed: int = 0,
    ) -> None:
        if flowcell_bytes <= 0:
            raise ValueError("flowcell size must be positive")
        self.flowcell_bytes = flowcell_bytes
        #: optional per-path weights (index-aligned with the discovered
        #: ports); None means uniform spraying.
        self.static_weights = list(static_weights) if static_weights else None
        #: optional callable(traces) -> weights, used to model the paper's
        #: "ideal statically configured path weights" under asymmetry.
        self.weight_fn = weight_fn
        self._paths = WeightedPathTable()
        self._flows: Dict[FlowKey, _FlowState] = {}
        self._hasher = EcmpHasher(hash_seed)
        self.flowcells_started = 0

    @classmethod
    def from_site(cls, site) -> "PrestoPolicy":
        """Presto under the ideal controller, its flowcells scaled with the
        flow sizes so the flowcells-per-flow ratio matches the paper's."""
        net = site.net
        return cls(
            flowcell_bytes=max(MSS, int(FLOWCELL_BYTES * site.config.flow_scale)),
            weight_fn=lambda traces: ideal_path_weights(net, traces),
            hash_seed=site.seed,
        )

    def needs_discovery(self) -> bool:
        return True

    def set_paths(self, dst_ip: int, ports: Sequence[int], traces: Sequence[PathTrace] = ()) -> None:
        self._paths.set_paths(dst_ip, ports, traces)
        if self.static_weights:
            self._paths.set_static_weights(dst_ip, self.static_weights)
        elif self.weight_fn is not None and traces:
            self._paths.set_static_weights(dst_ip, self.weight_fn(traces))

    def ports_for(self, dst_ip: int) -> List[int]:
        return self._paths.ports_for(dst_ip)

    def select_source_port(self, inner: FlowKey, packet: Packet, now: float) -> int:
        state = self._flows.get(inner)
        if state is None:
            state = _FlowState()
            self._flows[inner] = state
        if state.port is None or state.remaining <= 0:
            state.port = self._next_port(inner)
            state.remaining = self.flowcell_bytes
            state.flowcell_id += 1
            self.flowcells_started += 1
        state.remaining -= max(packet.payload_bytes, 1)
        packet.flowcell_id = state.flowcell_id
        packet.flowcell_seq = packet.seq
        return state.port

    def _next_port(self, inner: FlowKey) -> int:
        if self._paths.has_paths(inner.dst_ip):
            return self._paths.next_port(inner.dst_ip)
        return _PORT_LO + self._hasher.select(inner, _PORT_SPAN)


def ideal_path_weights(net: "Network", traces: Sequence[PathTrace]) -> List[float]:
    """Topology-derived path weights (Presto's idealized controller).

    Each path's capacity is the minimum over its links of (link rate /
    number of selected paths sharing that link); weights are proportional
    to those capacities.  Under the paper's asymmetry this yields exactly
    (0.33, 0.33, 0.17, 0.17).
    """
    rates = {link.name: link.rate_bps for link in net.all_links()}
    sharing = Counter(name for trace in traces for name in set(trace))
    # Links every path traverses (the host's own access link) scale all
    # capacities equally and must not flatten the ratios.
    on_every_path = {name for name, n in sharing.items() if n == len(traces) > 1}
    capacities = [
        min((rates[name] / sharing[name] for name in trace
             if name in rates and name not in on_every_path), default=1.0)
        for trace in traces
    ]
    total = sum(capacities)
    if total <= 0:
        return [1.0 / len(traces)] * len(traces)
    return [cap / total for cap in capacities]
