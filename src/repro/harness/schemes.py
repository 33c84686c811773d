"""The scheme table: one row per load-balancing scheme.

A row names code as ``"module:attr"`` strings, resolved only for the scheme
a run selects, so the CLI and ``repro schemes`` read the table without
loading the simulator.  A new scheme is one module plus one row.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.clove import CloveParams
    from repro.harness.config import ExperimentConfig
    from repro.sim.rng import RngRegistry
    from repro.topology.network import Network

SWITCH = "repro.net.switch:Switch"
ECMP = "repro.baselines.ecmp:EcmpPolicy"


class Scheme(NamedTuple):
    """One row: what a run of the scheme builds, code named by string."""

    name: str
    summary: str
    #: a LoadBalancer class; ``cls.from_site(site: PolicySite)`` per host
    policy: str
    leaf_switch: str = SWITCH
    spine_switch: str = SWITCH
    #: ``hook(net, flowlet_gap)`` on the built fabric: in-switch flowlets
    fabric_hook: Optional[str] = None
    #: whether fabric switches stamp INT utilization on forward packets
    int_fabric: bool = False
    #: ``opener(config) -> open(src_host, dst_host, src_port, dst_port)``
    opener: str = "repro.transport.tcp:connection_opener"


class PolicySite(NamedTuple):
    """What ``from_site`` may read: the run, and the host's position in
    sorted host-name order and hash seed (one ``policy-seeds`` draw)."""

    config: ExperimentConfig
    params: CloveParams
    net: Network
    rng: RngRegistry
    index: int
    seed: int


def resolve(ref: str) -> Any:
    """``"pkg.mod:attr"`` -> the object, importing its module on first use."""
    module, _, attr = ref.partition(":")
    return getattr(import_module(module), attr)


CONGA, LETFLOW = "repro.baselines.conga", "repro.baselines.letflow"
SCHEMES = {row.name: row for row in (
    Scheme("ecmp", "static hashing at the edge", ECMP),
    Scheme("edge-flowlet", "random source port per flowlet",
           "repro.core.clove:EdgeFlowletPolicy"),
    Scheme("clove-ecn", "WRR + ECN-driven weights (the headline Clove)",
           "repro.core.clove:CloveEcnPolicy"),
    Scheme("clove-int", "least-utilized path via INT",
           "repro.core.clove:CloveIntPolicy", int_fabric=True),
    Scheme("clove-latency", "least one-way delay via receiver timestamps",
           "repro.core.latency:CloveLatencyPolicy"),
    Scheme("presto", "64KB flowcell spraying, ideal static weights",
           "repro.baselines.presto:PrestoPolicy"),
    Scheme("mptcp", "guest MPTCP over edge ECMP", ECMP,
           opener="repro.transport.mptcp:connection_opener"),
    Scheme("conga", "in-network utilization-aware flowlets (leaf switches)", ECMP,
           f"{CONGA}:CongaLeafSwitch", f"{CONGA}:CongaSpineSwitch", f"{CONGA}:set_flowlet_gaps"),
    Scheme("letflow", "in-switch flowlets, random choice (extra baseline)", ECMP,
           f"{LETFLOW}:LetFlowSwitch", f"{LETFLOW}:LetFlowSwitch", f"{LETFLOW}:set_flowlet_gaps"),
)}
