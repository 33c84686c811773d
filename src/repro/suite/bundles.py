"""Bundled suites: the scenario matrices the repo itself gates on.

Six suites ship with the reproduction:

=================  =========================================================
``paper-smoke``    CI-speed slice of the paper grid (committed baselines;
                   CI's ``suites`` job runs ``check`` against them)
``paper-figures``  every figure and ablation of Sections 5/6 (schemes x
                   loads sym/asym, Fig 6 knobs, Fig 7 incast); the grid
                   ``repro figure`` renders (~9 min cold on two workers)
``chaos``          scheme x fault-preset recovery matrix
``control-plane``  Clove vs ECMP under echo-loss sweeps and vswitch restart
                   storms (committed baselines; CI's ``suites`` job runs
                   ``check`` against them)
``health``         self-healing on/off under a flap, with and without the
                   stale-ECMP failover window
``workloads``      scheme x flow-size-distribution matrix
=================  =========================================================

Each is a plain :class:`~repro.suite.spec.SuiteSpec` built through the
same validation as file-loaded specs; ``repro suite show <name>`` prints
one as JSON to use as a starting point for custom suites.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.suite.spec import ScenarioSpec, SuiteSpec

#: overrides that keep a scenario CI-sized (seconds, not minutes)
_SMOKE_BASE = {
    "jobs_per_client": 10,
    "clients_per_leaf": 2,
    "connections_per_client": 2,
}


def paper_smoke() -> SuiteSpec:
    """CI-speed slice of the paper grid, gated by committed baselines."""
    return SuiteSpec(
        name="paper-smoke",
        description=(
            "CI-speed slice of the paper's scheme x load grid, symmetric "
            "and asymmetric; gated by committed baselines"
        ),
        seeds=(1, 2),
        metrics=("avg_fct", "p99_fct"),
        scenarios=[
            ScenarioSpec(
                name="sym",
                base=dict(_SMOKE_BASE),
                matrix={
                    "scheme": ["ecmp", "clove-ecn"],
                    "load": [0.3, 0.5],
                },
            ),
            ScenarioSpec(
                name="asym",
                # Full client and connection counts: with only two clients
                # per leaf the failed cable never bottlenecks and every
                # scheme looks identical (and with few connections the
                # seed-to-seed variance swamps the signal), which would
                # leave the regression gate blind.
                base={
                    "jobs_per_client": 10,
                    "asymmetric": True,
                },
                matrix={"scheme": ["ecmp", "clove-ecn"]},
                pin={"load": 0.7},
            ),
        ],
    )


def _ablation(name: str, knob: str, values: List[float]) -> ScenarioSpec:
    """One Clove-ECN design knob swept on the asymmetric fabric at 70%."""
    base = {"scheme": "clove-ecn", "asymmetric": True, "load": 0.7,
            "jobs_per_client": 60}
    return ScenarioSpec(name, base=base, matrix={knob: values})


def paper_figures() -> SuiteSpec:
    """Every figure and ablation of the evaluation (``repro figure``).

    Figs 4c, 5a-c and 8b all read ``asym``, so each point runs once; a
    longer horizon or another load is an edit of this spec.
    """
    loads = [0.3, 0.5, 0.7]
    grid = {"scheme": ["ecmp", "edge-flowlet", "clove-ecn", "mptcp", "presto",
                       "clove-int", "conga"], "load": loads}
    fig6 = {"jobs_per_client": 200, "scheme": "clove-ecn", "asymmetric": True}
    return SuiteSpec(
        name="paper-figures",
        description="every figure and ablation of the paper's evaluation; "
                    "`repro figure NAME|all` renders it",
        seeds=(1,),
        metrics=("avg_fct", "p99_fct", "mice_avg_fct", "elephant_avg_fct",
                 "goodput_bps"),
        scenarios=[
            ScenarioSpec("sym", base={"jobs_per_client": 200}, matrix=grid),
            ScenarioSpec("asym", base={"jobs_per_client": 200,
                                       "asymmetric": True}, matrix=grid),
            # Fig 6: the recommended (1xRTT gap, 20-packet ECN threshold)
            # setting and one mis-tuned knob at a time
            ScenarioSpec("fig6-gap", base={
                **fig6, "topology": {"ecn_threshold_packets": 20}},
                matrix={"flowlet_gap_rtt": [1.0, 0.2, 5.0], "load": loads}),
            ScenarioSpec("fig6-threshold", base={
                **fig6, "flowlet_gap_rtt": 1.0,
                "topology": {"ecn_threshold_packets": 40}},
                matrix={"load": loads}),
            # Fig 7: 2 MB requests (the paper's 10 MB, scaled) x 8 rounds
            ScenarioSpec("incast", kind="incast",
                         base={"n_requests": 8, "total_bytes": 2_000_000},
                         matrix={"scheme": ["clove-ecn", "edge-flowlet", "mptcp"],
                                 "fanout": [1, 2, 4, 8]}),
            _ablation("ablation-weight-reduction", "weight_reduction",
                      [1 / 6, 1 / 3, 1 / 2, 2 / 3]),
            _ablation("ablation-flowlet-gap", "flowlet_gap_rtt",
                      [0.2, 1.0, 2.0, 5.0]),
            _ablation("ablation-congestion-expiry", "congestion_expiry_rtt",
                      [1.0, 3.0, 10.0]),
            _ablation("ablation-ecn-relay", "ecn_relay_interval_rtt",
                      [0.0, 0.5, 2.0]),
        ],
    )


def chaos_suite() -> SuiteSpec:
    """Scheme x fault-preset recovery matrix."""
    return SuiteSpec(
        name="chaos",
        description="scheme x fault-preset recovery matrix",
        seeds=(1, 2),
        metrics=("avg_fct", "p99_fct", "completion_rate"),
        scenarios=[
            ScenarioSpec(
                name="recovery",
                base={
                    "jobs_per_client": 20,
                    "clients_per_leaf": 2,
                    "connections_per_client": 1,
                    "load": 0.5,
                },
                matrix={
                    "scheme": ["ecmp", "clove-ecn"],
                    "chaos": ["single-cable", "degrade", "flap"],
                },
            ),
        ],
    )


def health_suite() -> SuiteSpec:
    """Self-healing on/off under a cable flap (absolute gates only)."""
    return SuiteSpec(
        name="health",
        description=(
            "self-healing on/off under a cable flap, with and without the "
            "stale-ECMP failover window"
        ),
        seeds=(1, 2),
        metrics=("avg_fct", "p99_fct", "completion_rate"),
        baseline_scheme=None,
        scenarios=[
            ScenarioSpec(
                name="flap",
                base={
                    "scheme": "clove-ecn",
                    "jobs_per_client": 20,
                    "clients_per_leaf": 2,
                    "connections_per_client": 1,
                    "load": 0.5,
                    "chaos": "flap",
                },
                matrix={
                    "health": [False, True],
                    "failover_delay_s": [0.0, 0.01],
                },
            ),
        ],
    )


def _echo_loss_plan(rate: float) -> Dict[str, object]:
    """A plan dict dropping ``rate`` of every hypervisor's echoes from t=0."""
    return {"events": [
        {"time": 0.0, "action": "echo_loss", "host": "*", "rate": rate},
    ]}


#: staggered crash-restarts across the client edge (the "restart storm");
#: same-host repeats spaced by more than the re-bootstrap window
_RESTART_STORM = {"events": [
    {"time": 0.01, "action": "vswitch_restart", "host": "h1_0", "wipe": "all"},
    {"time": 0.015, "action": "vswitch_restart", "host": "h1_1",
     "wipe": "weights,flowlets"},
    {"time": 0.035, "action": "vswitch_restart", "host": "h1_0",
     "wipe": "all"},
]}


def control_plane_suite() -> SuiteSpec:
    """Clove vs ECMP under echo-loss sweeps and restart storms."""
    base = {
        "jobs_per_client": 20,
        "clients_per_leaf": 2,
        "connections_per_client": 1,
        "load": 0.5,
    }
    return SuiteSpec(
        name="control-plane",
        description=(
            "Clove vs ECMP goodput under echo-loss sweeps (0-50%) and "
            "vswitch restart storms; epoch-guard regression gate"
        ),
        seeds=(1, 2),
        metrics=("avg_fct", "p99_fct", "completion_rate"),
        scenarios=[
            # Echo-loss sweep: one scenario per loss level so ids stay
            # readable (a dict-valued matrix axis renders as "custom").
            ScenarioSpec(
                name="echo-loss-0",
                base=dict(base),
                matrix={"scheme": ["ecmp", "clove-ecn"]},
            ),
            ScenarioSpec(
                name="echo-loss-10",
                base={**base, "chaos": _echo_loss_plan(0.1)},
                matrix={"scheme": ["ecmp", "clove-ecn"]},
            ),
            ScenarioSpec(
                name="echo-loss-30",
                base={**base, "chaos": _echo_loss_plan(0.3)},
                matrix={"scheme": ["ecmp", "clove-ecn"]},
            ),
            ScenarioSpec(
                name="echo-loss-50",
                base={**base, "chaos": _echo_loss_plan(0.5)},
                matrix={"scheme": ["ecmp", "clove-ecn"]},
            ),
            ScenarioSpec(
                name="restart-storm",
                base={**base, "chaos": _RESTART_STORM, "health": True},
                matrix={"scheme": ["ecmp", "clove-ecn"]},
            ),
        ],
    )


def workloads_suite() -> SuiteSpec:
    """Scheme x flow-size-distribution matrix."""
    return SuiteSpec(
        name="workloads",
        description="scheme x flow-size-distribution matrix",
        seeds=(1, 2),
        metrics=("avg_fct", "p99_fct", "mice_avg_fct"),
        scenarios=[
            ScenarioSpec(
                name="mix",
                base={**_SMOKE_BASE, "load": 0.5},
                matrix={
                    "scheme": ["ecmp", "clove-ecn"],
                    "workload": ["web-search", "data-mining", "enterprise"],
                },
                # The data-mining tail reaches 1GB flows; a smaller scale
                # keeps the elephants meaningful but CI-sized.
                pin={"flow_scale": 0.02},
            ),
        ],
    )


_BUNDLES = {
    "paper-smoke": paper_smoke,
    "paper-figures": paper_figures,
    "chaos": chaos_suite,
    "control-plane": control_plane_suite,
    "health": health_suite,
    "workloads": workloads_suite,
}


def bundled_suite(name: str) -> SuiteSpec:
    """The bundled suite called ``name`` (KeyError with the valid list)."""
    if name not in _BUNDLES:
        valid = ", ".join(sorted(_BUNDLES))
        raise KeyError(
            f"unknown suite {name!r} (bundled suites: {valid}; or pass a "
            f"spec file with --spec)"
        )
    return _BUNDLES[name]()


def iter_bundles() -> List[Tuple[str, SuiteSpec]]:
    """Every bundled suite, name-sorted, freshly built."""
    return [(name, _BUNDLES[name]()) for name in sorted(_BUNDLES)]


def bundle_names() -> Dict[str, str]:
    """Name -> description of every bundled suite."""
    return {name: spec.description for name, spec in iter_bundles()}
