"""What a run can be told: :class:`ExperimentConfig` and the incast point.

Each knob is one :func:`repro.knobs.knob` field declaring its bound, help
line and flag.  Nothing here loads the simulator, so the CLI builds its
flags from these declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.harness.schemes import SCHEMES
from repro.knobs import (
    COUNT, FRACTION, NON_NEGATIVE, POSITIVE, Choices, check, knob, knobs)
from repro.workloads.distributions import WORKLOADS

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.plan import FaultPlan
    from repro.core.discovery import DiscoveryConfig
    from repro.core.health import HealthConfig
    from repro.topology.leafspine import LeafSpineConfig
    from repro.workloads.incast import IncastConfig


@dataclass
class ExperimentConfig:
    """One experiment point."""

    scheme: str = knob("clove-ecn", "load-balancing scheme",
                       Choices("scheme", SCHEMES), "--scheme")
    load: float = knob(0.5, "offered load as a fraction of bisection "
                            "bandwidth", POSITIVE, "--load")
    seed: int = knob(1, "seed of the run's random streams", None, "--seed")
    asymmetric: bool = knob(False, "fail one S2-L2 cable (the paper's "
                            "scenario)", None, "--asymmetric")
    jobs_per_client: int = knob(30, "jobs per client (run horizon)", COUNT,
                                "--jobs-per-client")
    # six (the NS2 setup used three) keep the ECMP hash-placement variance
    # low enough that the asymmetric bottleneck is reliably overloaded
    connections_per_client: int = knob(6, "persistent connections per "
                                       "client", COUNT)
    pairing: str = knob("permutation", "client-server pairing: balanced "
                        "permutation or random (the paper's protocol)",
                        Choices("pairing", ("permutation", "random")))
    topology: Optional[LeafSpineConfig] = knob(
        None, "fabric (switch classes: the scheme row's); None = default")
    # 0.1 keeps the elephant/mice mix meaningful against the fabric BDP at
    # CI speed
    flow_scale: float = knob(0.1, "flow-size scale vs the paper's web-search "
                                  "CDF", POSITIVE, "--flow-scale")
    workload: str = knob("web-search", "flow-size distribution",
                         Choices("workload", WORKLOADS))
    flowlet_gap_rtt: float = knob(1.0, "flowlet gap (RTTs)", POSITIVE)
    congestion_expiry_rtt: float = knob(
        3.0, "how long an ECN echo marks its path congested (RTTs)", POSITIVE)
    ecn_relay_interval_rtt: float = knob(
        0.5, "least time between ECN relays of one path (RTTs)", NON_NEGATIVE)
    weight_reduction: float = knob(1.0 / 3.0, "factor by which an ECN echo "
                                   "cuts its path's weight", FRACTION)
    mptcp_subflows: int = knob(4, "subflows per MPTCP connection", COUNT)
    min_rto: float = knob(5e-3, "guest TCP's minimum RTO (s)", POSITIVE)
    clients_per_leaf: Optional[int] = knob(
        None, "clients (and servers) per leaf; None = all leaf-1 hosts",
        COUNT)
    warmup: float = knob(0.02, "seconds before traffic starts", NON_NEGATIVE)
    max_sim_time: float = knob(60.0, "hard stop (simulated s)", POSITIVE)
    discovery: Optional[DiscoveryConfig] = knob(
        None, "path discovery; None = RTT-derived")
    chaos: Optional[FaultPlan] = knob(
        None, "fault schedule; composes with `asymmetric`")
    health: bool = knob(
        False, "run the per-hypervisor path health monitor (liveness "
               "probing, quarantine, re-discovery) on every policy with a "
               "weight table", None, "--health", negatable=True)
    health_config: Optional[HealthConfig] = knob(
        None, "health tuning; None = RTT-derived")
    failover_delay_s: float = knob(
        0.0, "how long switches keep a dead link in their ECMP groups "
             "(0 = idealized instant failover)", NON_NEGATIVE,
        "--failover-delay", "SECONDS")
    # repro.audit.report.MODES, which a run that is not audited never loads
    audit: Optional[str] = knob(
        None, "run under the invariant auditor: 'strict' raises on the "
              "first violation, 'report' collects them; None = off",
        Choices("audit mode", ("strict", "report")), "--audit", "MODE")

    def __post_init__(self) -> None:
        check(self)

    def fault_plan(self) -> Optional[FaultPlan]:
        """The effective fault plan: ``chaos`` merged with the
        ``asymmetric`` sugar (one L2-S2 cable down from t=0)."""
        plan = self.chaos
        if self.asymmetric:
            from repro.chaos.plan import single_cable

            asym = single_cable()
            plan = asym if plan is None else plan + asym
        return plan if plan else None


def incast_configs(seed: int = 1, **params: Any
                   ) -> Tuple[ExperimentConfig, IncastConfig]:
    """The fabric and workload configs of one incast point, ``params``
    being :data:`~repro.workloads.incast.INCAST_AXES` keywords;
    ``ValueError`` on another name or on a value outside its bound."""
    # here, not at module level: only incast runs and suites use it
    from repro.workloads.incast import INCAST_AXES, IncastConfig

    unknown = set(params) - set(INCAST_AXES)
    if unknown:
        raise ValueError(f"unknown incast knob(s) {sorted(unknown)} "
                         f"(valid: {', '.join(INCAST_AXES)})")
    workload = {f.name: params.pop(f.name) for f in knobs(IncastConfig)
                if f.name in params}
    return (ExperimentConfig(seed=seed, **params),
            IncastConfig(start_time=0.02, **workload))
