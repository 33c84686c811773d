"""Tests for repro.chaos: plans, engine, recovery metrics, cache interplay.

Covers the fault-injection subsystem end to end: FaultPlan validation and
JSON round-trips, fingerprint stability across processes, warm-cache
invalidation on a schema bump, ChaosEngine application semantics (flush
accounting, exact rate restoration, KeyError on unknown cables), the
recovery-metric core, offline/in-process metric parity, and the headline
behavioural claim — Clove-ECN rides out a flap that makes ECMP's goodput
dip.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import (
    ChaosEngine,
    FaultEvent,
    FaultPlan,
    PRESETS,
    compute_recovery,
    degraded,
    fault_windows,
    flap,
    FlowSample,
    multi_failure_plan,
    preset,
    random_plan,
    recovery_from_records,
    recovery_from_result,
    single_cable,
)
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.metrics import METRIC_KEYS, standard_metrics
from repro.runner import JobSpec, ResultCache, RunnerConfig, run_jobs
from repro.telemetry import Telemetry


def _metrics_equal(a, b) -> bool:
    """Bit-exact dict equality where NaN == NaN (empty buckets are NaN, and
    NaN never compares equal to itself under plain ``==``)."""
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


def _quick(scheme="ecmp", **overrides) -> ExperimentConfig:
    defaults = dict(
        scheme=scheme,
        load=0.3,
        jobs_per_client=4,
        clients_per_leaf=2,
        connections_per_client=1,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ----------------------------------------------------------------------
# FaultPlan model
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_events_sort_by_time_stably(self):
        plan = FaultPlan((
            FaultEvent(0.5, "link_up", "L2", "S2"),
            FaultEvent(0.1, "link_down", "L2", "S2"),
            FaultEvent(0.1, "link_down", "L1", "S1"),
        ))
        assert [e.time for e in plan.events] == [0.1, 0.1, 0.5]
        # same-instant events keep authored order
        assert plan.events[0].a == "L2" and plan.events[1].a == "L1"

    def test_validation_rejects_bad_events(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan((FaultEvent(0.0, "explode", "L2", "S2"),))
        with pytest.raises(ValueError, match="distinct endpoints"):
            FaultPlan((FaultEvent(0.0, "link_down", "L2", "L2"),))
        with pytest.raises(ValueError, match="factor"):
            FaultPlan((FaultEvent(0.0, "degrade", "L2", "S2", factor=1.5),))
        with pytest.raises(ValueError, match="factor"):
            degraded("L2", "S2", 0, factor=0.0)
        with pytest.raises(ValueError, match="downtime < period"):
            FaultPlan((FaultEvent(0.0, "flap", "L2", "S2",
                                  period=0.1, downtime=0.2, count=2),))

    def test_flap_expands_to_down_up_pairs(self):
        plan = flap("L2", "S2", start=1.0, period=0.5, downtime=0.2, flaps=2)
        prims = plan.expanded()
        assert [(e.time, e.action) for e in prims] == [
            (1.0, "link_down"), (1.2, "link_up"),
            (1.5, "link_down"), (1.7, "link_up"),
        ]

    def test_json_round_trip_is_lossless(self):
        plan = (flap("L2", "S2", start=0.03)
                + degraded("L1", "S1", factor=0.5, time=0.01, duration=0.02)
                + single_cable("L2", "S1", index=1, time=0.005))
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        # and a second round trip is byte-identical (stable serialization)
        assert restored.to_json() == plan.to_json()

    def test_from_json_rejects_malformed_input(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ValueError, match="events"):
            FaultPlan.from_json('{"other": 1}')
        with pytest.raises(ValueError, match="unknown fault event field"):
            FaultPlan.from_json(
                '{"events": [{"time": 0, "action": "link_down",'
                ' "a": "L2", "b": "S2", "bogus": 1}]}'
            )

    def test_plans_compose_with_plus(self):
        combined = single_cable(time=0.2) + single_cable("L1", "S1", time=0.1)
        assert [e.time for e in combined.events] == [0.1, 0.2]

    def test_fault_windows_merge_overlaps(self):
        events = [
            FaultEvent(1.0, "link_down", "L2", "S2"),
            FaultEvent(2.0, "link_down", "L1", "S1"),
            FaultEvent(3.0, "link_up", "L2", "S2"),
            FaultEvent(4.0, "link_up", "L1", "S1"),
            FaultEvent(10.0, "degrade", "L2", "S1", factor=0.5),
            FaultEvent(11.0, "restore", "L2", "S1"),
        ]
        assert fault_windows(events) == [(1.0, 4.0), (10.0, 11.0)]

    def test_open_window_closes_at_end(self):
        assert single_cable(time=1.0).fault_windows(end=5.0) == [(1.0, 5.0)]

    def test_full_rate_degrade_is_not_a_fault(self):
        events = [FaultEvent(1.0, "degrade", "L2", "S2", factor=1.0)]
        assert fault_windows(events, end=2.0) == []

    def test_every_preset_builds_and_round_trips(self):
        for name in PRESETS:
            plan = preset(name)
            assert plan, name
            assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_preset_lists_available(self):
        with pytest.raises(KeyError, match="single-cable"):
            preset("nope")


class TestRandomPlan:
    def test_same_seed_same_plan(self):
        assert random_plan(seed=7) == random_plan(seed=7)
        assert random_plan(seed=7) != random_plan(seed=8)

    def test_never_partitions_a_node(self):
        """At every instant each node keeps >= min_live_per_node live cables."""
        for seed in range(12):
            plan = random_plan(seed=seed, n_faults=8)
            prims = plan.expanded()
            per_node = {}
            for a, b in (
                ("L1", "S1"), ("L1", "S1"), ("L1", "S2"), ("L1", "S2"),
                ("L2", "S1"), ("L2", "S1"), ("L2", "S2"), ("L2", "S2"),
            ):
                per_node[a] = per_node.get(a, 0) + 1
                per_node[b] = per_node.get(b, 0) + 1
            down = {}
            for event in prims:
                nodes = (event.a, event.b)
                if event.action in ("link_down", "degrade"):
                    for node in nodes:
                        down[node] = down.get(node, 0) + 1
                        assert per_node[node] - down[node] >= 1, (
                            f"seed {seed} left {node} without a live cable"
                        )
                elif event.action in ("link_up", "restore"):
                    for node in nodes:
                        down[node] -= 1


# ----------------------------------------------------------------------
# ChaosEngine against a live fabric
# ----------------------------------------------------------------------
class TestChaosEngine:
    def test_unknown_cable_fails_fast(self, fabric):
        sim, net, _hosts = fabric
        with pytest.raises(KeyError, match="connected pairs"):
            ChaosEngine(sim, net, single_cable("L2", "S9"))
        with pytest.raises(KeyError, match="out of range"):
            ChaosEngine(sim, net, single_cable("L2", "S2", index=9))

    def test_due_events_apply_synchronously_on_start(self, fabric):
        sim, net, _hosts = fabric
        engine = ChaosEngine(sim, net, single_cable("L2", "S2"))
        engine.start()
        fwd, rev = net.cable("L2", "S2")
        assert not fwd.up and not rev.up
        assert [m["action"] for m in engine.markers] == ["link_down"]

    def test_single_cable_down_costs_a_quarter_of_bisection(self, fabric):
        sim, net, _hosts = fabric
        before = net.bisection_bandwidth_bps()
        ChaosEngine(sim, net, single_cable("L2", "S2")).start()
        assert net.bisection_bandwidth_bps() == pytest.approx(before * 0.75)

    def test_spine_losing_both_downlinks_halves_bisection(self, fabric):
        sim, net, _hosts = fabric
        plan = multi_failure_plan((("L2", "S2", 0), ("L2", "S2", 1)))
        ChaosEngine(sim, net, plan).start()
        assert not any(link.up for link in net.links[("S2", "L2")])
        # S2 is now fully cut off from L2; S1 still has both cables.
        assert net.bisection_bandwidth_bps() == pytest.approx(2 * 40e9)

    def test_future_events_apply_at_their_time(self, fabric):
        sim, net, _hosts = fabric
        plan = flap("L2", "S2", start=0.01, period=0.02, downtime=0.005, flaps=1)
        ChaosEngine(sim, net, plan).start()
        fwd, _rev = net.cable("L2", "S2")
        assert fwd.up
        sim.run(until=0.012)
        assert not fwd.up
        sim.run(until=0.02)
        assert fwd.up

    def test_flush_accounting_counts_queued_packets(self, fabric):
        from repro.net.packet import FlowKey, Packet

        sim, net, _hosts = fabric
        fwd, _rev = net.cable("L2", "S2")
        key = FlowKey(1, 2, 1000, 80)
        for i in range(5):
            fwd.send(Packet(key, payload_bytes=1460, seq=i))
        queued = len(fwd.queue)
        assert queued > 0
        engine = ChaosEngine(sim, net, single_cable("L2", "S2"))
        engine.start()
        assert engine.flushed_packets() == queued
        assert engine.markers[0]["flushed"] == queued

    def test_degrade_and_restore_return_exact_rate(self, fabric):
        sim, net, _hosts = fabric
        fwd, rev = net.cable("L2", "S2")
        original = fwd.rate_bps
        plan = degraded("L2", "S2", factor=0.25, time=0.0, duration=0.01)
        ChaosEngine(sim, net, plan).start()
        assert fwd.rate_bps == pytest.approx(original * 0.25)
        # degrading twice must not compound
        net.degrade_cable("L2", "S2", 0, factor=0.25)
        assert fwd.rate_bps == pytest.approx(original * 0.25)
        sim.run(until=0.02)
        assert fwd.rate_bps == original and rev.rate_bps == original

    def test_injections_emit_telemetry_events(self, fabric):
        sim, net, _hosts = fabric
        tel = Telemetry()
        net.cable("L2", "S2")[0].attach_telemetry(tel)
        plan = flap("L2", "S2", start=0.01, period=0.02, downtime=0.005, flaps=1)
        ChaosEngine(sim, net, plan, telemetry=tel).start()
        sim.run(until=0.05)
        types = [e.type for e in tel.events]
        assert types.count("chaos.inject") == 2
        # the link itself reports the transition too (satellite: legacy
        # helpers get timelines without an engine)
        assert "link.down" in types and "link.up" in types

    def test_finish_attributes_blackholes_on_permanent_faults(self, fabric):
        from repro.net.packet import FlowKey, Packet

        sim, net, _hosts = fabric
        engine = ChaosEngine(sim, net, single_cable("L2", "S2"))
        engine.start()
        fwd, _rev = net.cable("L2", "S2")
        key = FlowKey(1, 2, 1000, 80)
        for i in range(3):
            fwd.send(Packet(key, payload_bytes=1460, seq=i))
        engine.finish()
        assert engine.blackholed_packets() == 3
        assert engine.markers[-1]["action"] == "settle"

    def test_legacy_link_events_rebuild_windows(self, fabric):
        """A run instrumented only at the Link level (legacy scenario
        helpers) still yields windows offline."""
        sim, net, _hosts = fabric
        tel = Telemetry()
        fwd, rev = net.cable("L2", "S2")
        fwd.attach_telemetry(tel)
        rev.attach_telemetry(tel)
        sim.at(0.01, net.fail_cable, "L2", "S2")
        sim.at(0.03, net.recover_cable, "L2", "S2")
        sim.run(until=0.05)
        records = [e.to_dict() for e in tel.events]
        report = recovery_from_records(records, end_time=0.05)
        assert report is not None
        assert report.windows == [(0.01, 0.03)]


# ----------------------------------------------------------------------
# Recovery metric core
# ----------------------------------------------------------------------
class TestRecoveryMetrics:
    @staticmethod
    def _steady_flows(rate_per_s=1000, size=1500, start=0.0, end=1.0,
                      skip=lambda t: False):
        step = 1.0 / rate_per_s
        flows = []
        t = start
        while t < end:
            if not skip(t):
                flows.append(FlowSample(size=size, arrival=t,
                                        completion=t + step / 2))
            t += step
        return flows

    def test_never_dipped_reports_zero(self):
        flows = self._steady_flows()
        report = compute_recovery(flows, [(0.4, 0.5)], end_time=1.0)
        assert report.time_to_recover_s == 0.0

    def test_recovery_time_is_first_bin_back_over_threshold(self):
        # completions stop entirely in [0.4, 0.6): dips during the fault
        # window [0.4, 0.5) and stays low one bin past it
        flows = self._steady_flows(skip=lambda t: 0.4 <= t < 0.6)
        report = compute_recovery(flows, [(0.4, 0.5)], end_time=1.0,
                                  bin_width=0.1)
        assert report.time_to_recover_s == pytest.approx(0.2)

    def test_never_recovered_is_nan(self):
        flows = self._steady_flows(skip=lambda t: t >= 0.4)
        report = compute_recovery(flows, [(0.4, 0.5)], end_time=1.0)
        assert math.isnan(report.time_to_recover_s)

    def test_fault_at_t0_has_no_baseline(self):
        flows = self._steady_flows()
        report = compute_recovery(flows, [(0.0, 0.5)], end_time=1.0)
        assert math.isnan(report.pre_fault_goodput_bps)
        assert math.isnan(report.time_to_recover_s)

    def test_fct_inflation_compares_faulted_to_baseline(self):
        flows = [FlowSample(1500, t / 100, t / 100 + 0.001) for t in range(40)]
        flows += [FlowSample(1500, 0.41, 0.414)]  # 4x the baseline FCT
        report = compute_recovery(flows, [(0.405, 0.43)], end_time=1.0)
        assert report.fct_inflation == pytest.approx(4.0)
        assert report.fault_flows == 1

    def test_windows_clamp_to_run_end(self):
        flows = self._steady_flows(end=0.5)
        report = compute_recovery(flows, [(0.4, 2.0)], end_time=0.5)
        assert report.windows == [(0.4, 0.5)]
        assert report.fault_window_s == pytest.approx(0.1)


# ----------------------------------------------------------------------
# Experiment integration + offline parity
# ----------------------------------------------------------------------
class TestExperimentIntegration:
    def test_asymmetric_flag_is_single_cable_sugar(self):
        plan = _quick(asymmetric=True).fault_plan()
        assert plan == single_cable("L2", "S2", 0, time=0.0)

    def test_chaos_plan_composes_with_asymmetric(self):
        cfg = _quick(asymmetric=True, chaos=single_cable("L1", "S1", time=0.01))
        plan = cfg.fault_plan()
        assert len(plan.events) == 2

    def test_run_with_chaos_produces_recovery_report(self):
        cfg = _quick(scheme="clove-ecn", jobs_per_client=10,
                     chaos=flap(start=0.022, period=0.01,
                                downtime=0.004, flaps=1))
        result = run_experiment(cfg)
        report = recovery_from_result(result)
        assert report is not None
        assert len(report.windows) == 1
        assert report.fault_window_s == pytest.approx(0.004)
        metrics = standard_metrics(result)
        assert metrics["chaos_fault_window_s"] == pytest.approx(0.004)

    def test_no_chaos_yields_nan_chaos_metrics(self):
        metrics = standard_metrics(run_experiment(_quick()))
        assert math.isnan(metrics["chaos_time_to_recover"])
        assert math.isnan(metrics["chaos_fault_window_s"])
        assert set(METRIC_KEYS) == set(metrics)

    def test_offline_report_matches_in_process(self, tmp_path):
        """The acceptance criterion: the CLI numbers are recomputable from
        the telemetry artifact alone."""
        tel = Telemetry()
        cfg = _quick(scheme="clove-ecn", load=0.5, jobs_per_client=40,
                     chaos=flap(start=0.022, period=0.01,
                                downtime=0.004, flaps=1))
        result = run_experiment(cfg, telemetry=tel)
        in_process = recovery_from_result(result)
        path = tmp_path / "tel.jsonl"
        tel.export_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        offline = recovery_from_records(records)
        assert offline is not None
        assert not math.isnan(in_process.fct_inflation)
        assert offline.windows == pytest.approx(in_process.windows)
        assert offline.pre_fault_goodput_bps == pytest.approx(
            in_process.pre_fault_goodput_bps)
        assert offline.fct_inflation == pytest.approx(in_process.fct_inflation)
        assert offline.time_to_recover_s == pytest.approx(
            in_process.time_to_recover_s, nan_ok=True)
        assert offline.lost_packets == in_process.lost_packets

    def test_multi_failure_with_live_path_completes_discovery(self):
        """A storm that leaves >= 1 path up must not deadlock Clove's
        path discovery (the run finishes and flows complete)."""
        cfg = _quick(scheme="clove-ecn", jobs_per_client=6,
                     chaos=multi_failure_plan(
                         (("L2", "S1", 0), ("L2", "S2", 0), ("L1", "S1", 0))))
        result = run_experiment(cfg)
        assert result.collector.completion_rate == pytest.approx(1.0)

    def test_clove_survives_degraded_cable(self):
        """Traffic over a cable at quarter rate (heterogeneous equipment,
        not a failure): ECMP still treats it as equal cost."""
        cfg = ExperimentConfig(scheme="clove-ecn", load=0.5, seed=3,
                               jobs_per_client=6, clients_per_leaf=3,
                               connections_per_client=1,
                               chaos=degraded("L2", "S2", 0, factor=0.25))
        assert run_experiment(cfg).collector.completion_rate == 1.0

    def test_clove_recovers_faster_than_ecmp_under_flap(self):
        """The headline behavioural claim, at a pinned configuration: a
        single 8 ms outage at 95% load makes ECMP's goodput dip below the
        recovery threshold while Clove-ECN reroutes around it (TTR 0)."""
        plan = flap(start=0.03, period=0.02, downtime=0.008, flaps=1)
        ttr = {}
        inflation = {}
        for scheme in ("clove-ecn", "ecmp"):
            cfg = ExperimentConfig(scheme=scheme, load=0.95, seed=1,
                                   jobs_per_client=260, chaos=plan)
            report = recovery_from_result(run_experiment(cfg), bin_width=0.002)
            ttr[scheme] = report.time_to_recover_s
            inflation[scheme] = report.fct_inflation
        assert not math.isnan(ttr["clove-ecn"])
        assert ttr["clove-ecn"] < ttr["ecmp"]
        assert inflation["clove-ecn"] < inflation["ecmp"]


# ----------------------------------------------------------------------
# Runner / cache interplay
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_chaos_changes_the_fingerprint(self):
        base = JobSpec.experiment(_quick()).fingerprint
        with_chaos = JobSpec.experiment(
            _quick(chaos=single_cable())).fingerprint
        assert with_chaos != base
        # ... and any event change changes it again
        shifted = JobSpec.experiment(
            _quick(chaos=single_cable(time=0.001))).fingerprint
        assert shifted not in (base, with_chaos)
        other_cable = JobSpec.experiment(
            _quick(chaos=single_cable("L1", "S1"))).fingerprint
        assert other_cable not in (base, with_chaos, shifted)

    def test_identical_plans_fingerprint_identically(self):
        a = JobSpec.experiment(_quick(chaos=flap(start=0.03)))
        b = JobSpec.experiment(_quick(chaos=flap(start=0.03)))
        assert a.fingerprint == b.fingerprint
        # a JSON round trip of the plan preserves the fingerprint too
        c = JobSpec.experiment(_quick(
            chaos=FaultPlan.from_json(flap(start=0.03).to_json())))
        assert c.fingerprint == a.fingerprint

    def test_fingerprint_stable_across_processes(self):
        """The cache key must not depend on interpreter state (hash seeds,
        dict order): a fresh process computes the same fingerprint."""
        code = (
            "from repro.runner import JobSpec\n"
            "from repro.harness.experiment import ExperimentConfig\n"
            "from repro.chaos import flap\n"
            "spec = JobSpec.experiment(ExperimentConfig(\n"
            "    scheme='ecmp', load=0.3, jobs_per_client=4,\n"
            "    clients_per_leaf=2, connections_per_client=1, seed=5,\n"
            "    chaos=flap(start=0.03)))\n"
            "print(spec.fingerprint)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": src, "PYTHONHASHSEED": "321"},
        )
        here = JobSpec.experiment(_quick(chaos=flap(start=0.03))).fingerprint
        assert out.stdout.strip() == here

    def test_chaos_jobs_cache_and_replay(self, tmp_path):
        spec = JobSpec.experiment(
            _quick(scheme="clove-ecn", jobs_per_client=6,
                   chaos=flap(start=0.022, period=0.01,
                              downtime=0.004, flaps=1)))
        runner = RunnerConfig(cache_dir=tmp_path, progress=False)
        (first,) = run_jobs([spec], runner=runner)
        (second,) = run_jobs([spec], runner=runner)
        assert not first.cached and second.cached
        assert _metrics_equal(first.metrics, second.metrics)
        assert "chaos" in spec.label

    def test_schema_bump_invalidates_warm_cache(self, tmp_path, monkeypatch):
        from repro.runner import cache as cache_module
        from repro.runner import job as job_module

        spec = JobSpec.experiment(_quick(jobs_per_client=4))
        runner = RunnerConfig(cache_dir=tmp_path, progress=False)
        (first,) = run_jobs([spec], runner=runner)
        assert not first.cached
        # same code, warm cache: served from disk
        assert run_jobs([spec], runner=runner)[0].cached
        # simulate the next schema bump: old lines must be ignored
        monkeypatch.setattr(job_module, "SCHEMA_VERSION",
                            job_module.SCHEMA_VERSION + 1)
        monkeypatch.setattr(cache_module, "SCHEMA_VERSION",
                            cache_module.SCHEMA_VERSION + 1)
        cache = ResultCache(tmp_path)
        assert cache.get(spec.fingerprint) is None
        assert cache.stale_entries == 1

    def test_v1_cache_lines_are_stale_after_this_bump(self, tmp_path):
        """Lines written by the pre-chaos schema (v1) are never served."""
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps({
            "schema": 1, "fingerprint": "abc", "kind": "experiment",
            "metrics": {"avg_fct": 1.0},
        }) + "\n")
        cache = ResultCache(tmp_path)
        assert cache.get("abc") is None
        assert cache.stale_entries == 1

    def test_serial_and_parallel_chaos_runs_agree(self, tmp_path):
        specs = [
            JobSpec.experiment(
                _quick(scheme=scheme, jobs_per_client=6,
                       chaos=flap(start=0.022, period=0.01,
                                  downtime=0.004, flaps=1)))
            for scheme in ("ecmp", "clove-ecn")
        ]
        serial = run_jobs(specs, runner=RunnerConfig(jobs=1, progress=False))
        parallel = run_jobs(specs, runner=RunnerConfig(jobs=2, progress=False))
        for s, p in zip(serial, parallel):
            assert _metrics_equal(s.metrics, p.metrics)
