"""Tests for control-plane chaos: fault plans, epoch-guarded Clove state,
vswitch crash-restart, and the ControlPlaneReport metric paths.

Covers the control-plane fault model end to end: FaultEvent validation and
JSON round-trips for the new actions, the ``control_plane`` knob of
:func:`random_plan` (including the same-host restart spacing guarantee),
the epoch bookkeeping on :class:`WeightedPathTable`, the behavioural
pinned claims — epoch-guarded Clove-ECN beats ECMP under 30% echo loss
with zero stale-echo weight applications, and a ``vswitch_restart``
re-converges with the re-convergence time reported identically in-process
and offline — plus serial vs ``-j 2`` bit-identity under combined echo
and restart faults.
"""

import math

import pytest

from repro.chaos import (
    CONTROL_ACTIONS,
    FaultEvent,
    FaultPlan,
    PRESETS,
    controlplane_from_records,
    echo_storm,
    preset,
    random_plan,
    restart_plan,
    run_records,
    split_brain,
)
from repro.chaos.plan import REBOOTSTRAP_WINDOW, WIPE_TARGETS
from repro.core.weights import WeightedPathTable
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.metrics import standard_metrics
from repro.runner import JobSpec, RunnerConfig, run_jobs
from repro.telemetry import Telemetry, load_jsonl


def _quick(scheme="clove-ecn", **overrides) -> ExperimentConfig:
    defaults = dict(
        scheme=scheme,
        load=0.5,
        jobs_per_client=6,
        clients_per_leaf=2,
        connections_per_client=1,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _controlplane(result):
    """The control-plane report of a live run, through its artifact
    projection."""
    return controlplane_from_records(*run_records(result))


def _metrics_equal(a, b) -> bool:
    """Bit-exact dict equality where NaN == NaN."""
    if set(a) != set(b):
        return False
    for key, value in a.items():
        other = b[key]
        if isinstance(value, float) and math.isnan(value):
            if not (isinstance(other, float) and math.isnan(other)):
                return False
        elif value != other:
            return False
    return True


# ----------------------------------------------------------------------
# Plan model
# ----------------------------------------------------------------------
class TestControlEvents:
    def test_control_event_needs_a_host(self):
        with pytest.raises(ValueError, match="host"):
            FaultPlan((FaultEvent(0.01, "echo_loss", rate=0.3),))

    def test_control_event_rejects_cable_endpoints(self):
        with pytest.raises(ValueError, match="cable"):
            FaultPlan((
                FaultEvent(0.01, "echo_loss", a="L2", b="S2",
                           host="h1_0", rate=0.3),
            ))

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
    def test_rates_must_be_a_probability(self, rate):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan((
                FaultEvent(0.01, "echo_loss", host="*", rate=rate),
            ))

    def test_echo_delay_needs_a_positive_delay(self):
        with pytest.raises(ValueError, match="delay"):
            FaultPlan((
                FaultEvent(0.01, "echo_delay", host="*", rate=0.5),
            ))

    def test_restart_rejects_unknown_wipe_targets(self):
        with pytest.raises(ValueError, match="wipe"):
            FaultPlan((
                FaultEvent(0.01, "vswitch_restart", host="h1_0",
                           wipe="weights,junk"),
            ))

    def test_wipe_set_expands_all(self):
        event = FaultEvent(0.01, "vswitch_restart", host="h1_0")
        assert event.wipe_set == frozenset(WIPE_TARGETS)
        partial = FaultEvent(0.01, "vswitch_restart", host="h1_0",
                             wipe="weights,health")
        assert partial.wipe_set == frozenset({"weights", "health"})

    def test_control_events_have_no_cable(self):
        event = FaultEvent(0.01, "probe_loss", host="h1_0", rate=0.2)
        assert event.is_control
        with pytest.raises(ValueError):
            event.cable

    def test_plan_partitions_control_from_link_events(self):
        plan = FaultPlan((
            FaultEvent(0.0, "link_down", "L2", "S2"),
            FaultEvent(0.01, "echo_loss", host="*", rate=0.3),
        ))
        assert len(plan.control_events()) == 1
        assert len(plan.cables()) == 1  # only the link event has a cable
        # control events never carve capacity windows
        only_control = FaultPlan((
            FaultEvent(0.01, "echo_loss", host="*", rate=0.3),
        ))
        assert only_control.fault_windows(end=1.0) == []

    def test_presets_registered_and_round_trip(self):
        for name in ("echo-storm", "restart", "split-brain"):
            assert name in PRESETS
            plan = preset(name)
            clone = FaultPlan.from_json(plan.to_json())  # re-validates
            assert clone.to_json() == plan.to_json()

    def test_factories_validate(self):
        for plan in (echo_storm(), restart_plan(), split_brain()):
            assert plan.control_events()


class TestRandomPlanKnob:
    def test_knob_off_means_no_control_events_and_unchanged_draws(self):
        baseline = random_plan(seed=7, n_faults=12)
        explicit = random_plan(seed=7, n_faults=12, control_plane=0.0)
        assert [e.to_dict() for e in baseline.events] == [
            e.to_dict() for e in explicit.events
        ]
        assert not baseline.control_events()

    def test_knob_on_mixes_in_control_faults(self):
        plan = random_plan(seed=7, n_faults=40, control_plane=0.5)
        control = plan.control_events()
        assert control
        assert {e.action for e in control} <= set(CONTROL_ACTIONS)

    @pytest.mark.parametrize("seed", [1, 2, 3, 11])
    def test_restarts_respect_the_rebootstrap_window(self, seed):
        plan = random_plan(seed=seed, n_faults=80, control_plane=0.8)
        last = {}
        for event in plan.expanded():
            if event.action != "vswitch_restart":
                continue
            if event.host in last:
                assert event.time - last[event.host] > REBOOTSTRAP_WINDOW
            last[event.host] = event.time


# ----------------------------------------------------------------------
# Epoch bookkeeping on the weight table
# ----------------------------------------------------------------------
class TestEpochs:
    def test_first_install_keeps_epoch_zero(self):
        table = WeightedPathTable()
        table.set_paths(10, [1, 2, 3])
        assert table.epoch_of(10) == 0
        assert table.epoch_bumps == 0

    def test_respread_with_changed_ports_bumps_the_epoch(self):
        table = WeightedPathTable()
        table.set_paths(10, [1, 2, 3])
        table.set_paths(10, [1, 2, 3])        # same set: no bump
        assert table.epoch_of(10) == 0
        table.set_paths(10, [4, 5, 6])        # relabelled: bump
        assert table.epoch_of(10) == 1
        assert table.epoch_bumps == 1

    def test_congestion_marks_never_bump(self):
        table = WeightedPathTable()
        table.set_paths(10, [1, 2, 3])
        table.mark_congested(10, 1, 0.001)
        assert table.epoch_of(10) == 0

    def test_clear_bumps_every_destination_and_preserves_epochs(self):
        table = WeightedPathTable()
        table.set_paths(10, [1, 2])
        table.set_paths(20, [3, 4])
        wiped = table.clear()
        assert sorted(wiped) == [10, 20]
        assert table.epoch_of(10) == 1 and table.epoch_of(20) == 1
        assert table.weights_for(10) == {}
        # a re-install after the wipe must not reuse the stale epoch
        table.set_paths(10, [1, 2])
        assert table.epoch_of(10) == 1


# ----------------------------------------------------------------------
# Behaviour under injected control-plane faults
# ----------------------------------------------------------------------
def _goodput_bps(result) -> float:
    """Completed bytes over the actual transfer window (first arrival to
    last completion) — ``sim_duration`` also counts the drain tail, which
    is scheme-independent and would mask the comparison."""
    done = [j for j in result.collector.jobs if j.completion is not None]
    assert done
    window = max(j.completion for j in done) - min(j.arrival for j in done)
    return sum(j.size for j in done) * 8.0 / window


def _echo_loss(rate: float) -> FaultPlan:
    return FaultPlan((
        FaultEvent(0.0, "echo_loss", host="*", rate=rate),
    ))


def _busy(scheme="clove-ecn", **overrides) -> ExperimentConfig:
    """A config heavy enough to generate CE marks (and therefore echoes):
    keeps the default client and connection counts, unlike :func:`_quick`.
    """
    defaults = dict(scheme=scheme, load=0.5, jobs_per_client=8, seed=5)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestBehaviour:
    def test_clove_beats_ecmp_under_30pct_echo_loss(self):
        """The pinned claim: with the epoch guard on and health enabled,
        Clove-ECN under 30% echo loss still sustains strictly higher
        goodput than ECMP on the asymmetric fabric, and no stale echo is
        ever applied to a weight table."""
        goodput = {}
        for scheme in ("clove-ecn", "ecmp"):
            cfg = ExperimentConfig(
                scheme=scheme, seed=1, load=0.7, asymmetric=True,
                jobs_per_client=10, chaos=_echo_loss(0.3), health=True,
            )
            result = run_experiment(cfg)
            goodput[scheme] = _goodput_bps(result)
            if scheme == "clove-ecn":
                # ECMP carries no overlay echoes, so the echo assertions
                # only make sense for the Clove run.
                report = _controlplane(result)
                assert report is not None
                assert report.echoes_dropped > 0
                assert report.stale_applied == 0
        assert goodput["clove-ecn"] > goodput["ecmp"]

    def test_echo_storm_survives_a_strict_audit(self):
        """Dropped/delayed/duplicated/corrupted control packets must not
        unbalance the conservation ledger."""
        # start=0: the storm must be armed while traffic actually flows
        cfg = _busy(chaos=echo_storm(start=0.0), audit="strict")
        result = run_experiment(cfg)
        assert result.audit is not None and result.audit.ok
        report = _controlplane(result)
        assert report.echoes_dropped > 0
        assert report.echoes_corrupt_dropped == report.echoes_corrupted

    def test_probe_loss_drops_probes_but_flows_complete(self):
        plan = FaultPlan((
            FaultEvent(0.0, "probe_loss", host="*", rate=0.4),
        ))
        cfg = _quick(jobs_per_client=6, chaos=plan, health=True)
        result = run_experiment(cfg)
        assert result.collector.completion_rate == pytest.approx(1.0)
        assert _controlplane(result).probes_dropped > 0

    def test_restart_reconverges_and_reports_identically_offline(self, tmp_path):
        """A vswitch_restart re-converges (weights back within 10% TV of
        the pre-fault oracle) and the re-convergence time is recomputable
        bit-identically from the telemetry artifact alone.  The armed
        echo_delay makes pre-restart echoes arrive after the wipe, so the
        epoch guard demonstrably rejects them instead of applying them."""
        plan = FaultPlan((
            FaultEvent(0.0, "echo_delay", host="*", rate=0.5, delay=0.005),
            FaultEvent(0.03, "vswitch_restart", host="h1_0", wipe="all"),
        ))
        tel = Telemetry()
        cfg = _busy(jobs_per_client=30, seed=5, chaos=plan, health=True)
        result = run_experiment(cfg, telemetry=tel)
        in_process = _controlplane(result)
        assert in_process.restarts == 1
        assert in_process.reconverged == 1
        assert not math.isnan(in_process.reconverge_s)
        assert in_process.divergence <= 0.1
        assert in_process.echoes_stale_rejected > 0

        path = tmp_path / "tel.jsonl"
        tel.export_jsonl(str(path))
        dump = load_jsonl(str(path))
        offline = controlplane_from_records(
            dump["events"], counters=dump["counters"]
        )
        assert offline is not None
        assert _metrics_equal(offline.to_dict(), in_process.to_dict())

    def test_stale_echo_counter_fires_without_chaos(self):
        """Satellite 1: the policies count unknown-port echoes instead of
        silently swallowing them (discovery respreads race in-flight
        echoes, so plain runs already exercise the path)."""
        result = run_experiment(_quick(jobs_per_client=10, seed=2))
        stale = sum(
            host.vswitch.policy.weights.stale_echoes
            for host in result.hosts.values()
            if getattr(host.vswitch.policy, "weights", None) is not None
        )
        # not asserting > 0: a race-free seed is legal — the invariant is
        # that the counter exists and the run never crashes on stale echoes
        assert stale >= 0

    def test_serial_and_parallel_runs_agree_under_control_chaos(self):
        """Bit-identity: echo faults and restarts draw from per-host RNG
        streams, so -j 2 must reproduce serial metrics exactly."""
        storm = FaultPlan(
            tuple(echo_storm().events) + tuple(restart_plan(time=0.02).events)
        )
        specs = [
            JobSpec.experiment(
                _quick(scheme=scheme, jobs_per_client=8,
                       chaos=storm, health=True))
            for scheme in ("clove-ecn", "ecmp")
        ]
        serial = run_jobs(specs, runner=RunnerConfig(jobs=1, progress=False))
        parallel = run_jobs(specs, runner=RunnerConfig(jobs=2, progress=False))
        for s, p in zip(serial, parallel):
            assert _metrics_equal(s.metrics, p.metrics)

    def test_control_faults_change_the_fingerprint(self):
        base = JobSpec.experiment(_quick()).fingerprint
        storm = JobSpec.experiment(_quick(chaos=echo_storm())).fingerprint
        hotter = JobSpec.experiment(
            _quick(chaos=echo_storm(loss=0.4))).fingerprint
        assert len({base, storm, hotter}) == 3

    def test_standard_metrics_carry_controlplane_keys(self):
        cfg = _busy(jobs_per_client=6, chaos=echo_storm(start=0.0))
        metrics = standard_metrics(run_experiment(cfg))
        assert metrics["controlplane_echo_delivery_ratio"] < 1.0
        assert metrics["controlplane_stale_applied"] == 0.0
        # fault-free runs report NaN across the controlplane_* keys
        clean = standard_metrics(run_experiment(_quick(jobs_per_client=4)))
        assert math.isnan(clean["controlplane_restarts"])


class TestReportShape:
    def test_delivery_ratio_nan_without_echoes(self):
        from repro.chaos.metrics import ControlPlaneReport

        report = ControlPlaneReport(
            echoes_carried=0, echoes_received=0, echoes_dropped=0,
            echoes_delayed=0, echoes_delivered_late=0, echoes_duplicated=0,
            echoes_corrupted=0, echoes_corrupt_dropped=0,
            echoes_stale_rejected=0, stale_echoes=0, stale_applied=0,
            epoch_bumps=0, probes_dropped=0, restarts=0, reconverged=0,
            reconverge_s=float("nan"), divergence=float("nan"),
        )
        assert math.isnan(report.echo_delivery_ratio)
        payload = report.to_dict()
        assert payload["echoes_carried"] == 0
        assert math.isnan(payload["echo_delivery_ratio"])

    def test_armed_control_faults_report_without_any_fault(self):
        """Control events armed on a host (its ``chaos.*`` counters exist)
        make a report of zeros even when no fault fired and no defense
        counter moved."""
        counters = {"chaos.echoes_dropped{host=h1_0}": 0.0,
                    "vswitch.echoes_carried{host=h1_0}": 40.0,
                    "vswitch.echoes_received{host=h1_0}": 40.0}
        report = controlplane_from_records([], counters)
        assert report is not None
        assert report.echoes_dropped == report.restarts == 0
        assert report.echo_delivery_ratio == 1.0
        assert controlplane_from_records(
            [], {"vswitch.echoes_carried{host=h1_0}": 40.0}) is None
