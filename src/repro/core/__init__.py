"""Clove itself: the paper's primary contribution.

* :mod:`repro.core.flowlet` — software flowlet detection (Section 3.2);
* :mod:`repro.core.discovery` — encapsulation-header traceroute and greedy
  disjoint path selection (Section 3.1);
* :mod:`repro.core.weights` — the weighted-round-robin path table with
  ECN-driven weight adaptation (Section 3.2, Figure 2);
* :mod:`repro.core.health` — per-hypervisor path liveness monitoring with
  quarantine, graduated probation, and targeted re-discovery;
* :mod:`repro.core.clove` — the three edge policies: Edge-Flowlet,
  Clove-ECN and Clove-INT.
"""

from repro import lazy_exports

_EXPORTS = {
    "FlowletTable": "flowlet",
    "WeightedPathTable": "weights",
    "PathDiscovery": "discovery",
    "DiscoveryConfig": "discovery",
    "HealthConfig": "health",
    "PathHealthMonitor": "health",
    "EdgeFlowletPolicy": "clove",
    "CloveEcnPolicy": "clove",
    "CloveIntPolicy": "clove",
    "CloveParams": "clove",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
