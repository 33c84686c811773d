"""Baseline load balancers the paper compares Clove against.

* :mod:`repro.baselines.ecmp` — static hashing at the edge (the default
  every datacenter ships with);
* :mod:`repro.baselines.presto` — edge flowcell spraying with static
  weights and receiver reassembly;
* :mod:`repro.baselines.conga` — in-network, utilization-aware flowlet
  routing at leaf switches (the hardware high bar);
* :mod:`repro.baselines.letflow` — in-switch flowlets with random path
  choice (discussed in Section 8).

MPTCP, the host-based baseline, lives in :mod:`repro.transport.mptcp`.
"""

from repro import lazy_exports

_EXPORTS = {}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
