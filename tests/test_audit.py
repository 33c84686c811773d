"""Acceptance tests for repro.audit: the invariant checker must catch each
seeded corruption by name, report nothing on clean runs, and produce a
determinism digest that is stable across processes and execution modes.

Fault seeding uses ``run_experiment``'s ``on_ready`` hook to schedule an
in-simulation corruption of live state (a queue counter, a weight table, a
conservation counter); the auditor's next checkpoint or the final ledger
must then report exactly that invariant.
"""

import json
import math

import pytest

from repro.audit import (
    Auditor,
    AuditError,
    AuditReport,
    MODE_REPORT,
    MODE_STRICT,
    StreamDigest,
    audit_artifact,
    diff_digests,
    digest_events,
    parse_digest,
    render_digest,
)
from repro.chaos import FaultEvent, FaultPlan
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.metrics import standard_metrics
from repro.runner import JobSpec, RunnerConfig, run_jobs
from repro.sim.engine import Simulator
from repro.telemetry import Telemetry


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        scheme="clove-ecn", load=0.5, seed=1, jobs_per_client=8,
        clients_per_leaf=2, connections_per_client=1, audit=MODE_REPORT,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


#: a fault plan that exercises flush/blackhole accounting: one fabric cable
#: down mid-run, then restored
_CABLE_BOUNCE = FaultPlan((
    FaultEvent(0.030, "link_down", "L1", "S1"),
    FaultEvent(0.045, "link_up", "L1", "S1"),
))


# ----------------------------------------------------------------------
# Clean runs: zero findings across the paper configs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("overrides", [
    {},                                          # clove-ecn
    {"scheme": "ecmp"},                          # no weight table / echoes
    {"chaos": _CABLE_BOUNCE},                    # flush + blackhole paths
    {"health": True, "chaos": _CABLE_BOUNCE},    # quarantine transitions
])
def test_clean_run_has_zero_findings(overrides):
    result = run_experiment(_config(**overrides))
    report = result.audit
    assert report is not None
    assert report.ok, report.summary()
    assert report.findings == []
    assert report.digest is not None
    # Every layer's invariant was actually exercised, not skipped.
    for invariant in ("queue.occupancy", "transport.sequence",
                      "conservation.global", "engine.monotonic-time"):
        assert report.checked.get(invariant, 0) > 0, invariant


def test_strict_clean_run_does_not_raise():
    result = run_experiment(_config(audit=MODE_STRICT))
    assert result.audit is not None and result.audit.ok


def test_unaudited_run_has_no_report_and_nan_metric():
    result = run_experiment(_config(audit=None))
    assert result.audit is None
    assert math.isnan(standard_metrics(result)["audit_violations"])


def test_audited_metrics_count_violations():
    result = run_experiment(_config())
    assert standard_metrics(result)["audit_violations"] == 0.0


# ----------------------------------------------------------------------
# Fault seeding: each corruption is caught and named
# ----------------------------------------------------------------------
def _corrupting(mutate):
    """An on_ready hook scheduling ``mutate(net, hosts)`` mid-run."""
    def on_ready(sim, net, hosts):
        sim.schedule(0.025, mutate, net, hosts)
    return on_ready


def test_seeded_queue_corruption_is_caught():
    def mutate(net, hosts):
        next(iter(net.all_links())).queue.byte_count += 1499

    result = run_experiment(_config(), on_ready=_corrupting(mutate))
    report = result.audit
    finding = report.first("queue.occupancy")
    assert finding is not None, report.summary()
    assert "byte counter" in finding.message


def test_seeded_weight_corruption_is_caught():
    def mutate(net, hosts):
        for host in hosts.values():
            table = getattr(host.vswitch.policy, "weights", None)
            if table is not None and table._paths:
                states = next(iter(table._paths.values()))
                states[0].weight += 0.5
                return
        raise AssertionError("no populated weight table to corrupt")

    result = run_experiment(_config(), on_ready=_corrupting(mutate))
    assert result.audit.first("weights.sum") is not None, (
        result.audit.summary()
    )


def test_seeded_drop_miscount_breaks_conservation():
    def mutate(net, hosts):
        host = next(iter(hosts.values()))
        host.tx_nic_packets += 7          # phantom injected packets

    result = run_experiment(_config(), on_ready=_corrupting(mutate))
    report = result.audit
    finding = report.first("conservation.global")
    assert finding is not None, report.summary()
    assert "unaccounted" in finding.message
    assert finding.severity == "critical"


def test_fabricated_echo_violates_ecn_causality():
    auditor = Auditor(mode=MODE_REPORT)
    auditor.on_echo_consumed("10.0.1.1", "10.0.2.1", 4242)
    finding = auditor.report.first("ecn.causality")
    assert finding is not None
    assert finding.context["port"] == 4242
    # ...while an echo preceded by its CE observation is legal.
    auditor2 = Auditor(mode=MODE_REPORT)
    auditor2.on_ce_observed("10.0.2.1", "10.0.1.1", 4242)
    auditor2.on_echo_consumed("10.0.1.1", "10.0.2.1", 4242)
    assert auditor2.report.ok


def test_heap_corruption_surfaces_as_time_regression():
    sim = Simulator()
    auditor = Auditor(mode=MODE_REPORT)
    auditor.attach(sim, net=None, hosts=())
    fired = []
    sim.schedule(0.1, fired.append, "early")
    sim.schedule(0.5, fired.append, "late")
    # Violate the heap property behind the engine's back: with the later
    # event moved to the root, the earlier one pops *after* it.
    sim._queue.reverse()
    sim.run()
    assert fired == ["late", "early"]
    finding = auditor.report.first("engine.monotonic-time")
    assert finding is not None
    assert finding.severity == "critical"


def test_strict_mode_raises_on_seeded_fault():
    def mutate(net, hosts):
        next(iter(net.all_links())).queue.byte_count -= 100

    with pytest.raises(AuditError) as excinfo:
        run_experiment(_config(audit=MODE_STRICT),
                       on_ready=_corrupting(mutate))
    assert excinfo.value.finding.invariant == "queue.occupancy"


# ----------------------------------------------------------------------
# Determinism digest
# ----------------------------------------------------------------------
def test_profiler_and_auditor_observe_the_same_run():
    """`--audit report --profile`: the profiler records the run and the
    digest is the unprofiled one (the parent's audited loop skipped the
    profiler: "0 events in 0.000s wall")."""
    plain = run_experiment(_config())
    tel = Telemetry(profile=True)
    both = run_experiment(_config(), telemetry=tel)
    assert tel.profiler.events == both.wall_events > 0
    assert tel.profiler.top_callbacks(1)[0]["count"] > 0
    assert both.audit.ok
    assert both.audit.digest == plain.audit.digest


def test_step_is_audited():
    sim = Simulator()
    auditor = Auditor().attach(sim, net=None, hosts=())
    sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    assert sim.step()
    assert auditor.digest.count == 1
    sim.run()
    reference = StreamDigest()
    reference.mix(0.1, "test_step_is_audited.<locals>.<lambda>")
    reference.mix(0.2, "test_step_is_audited.<locals>.<lambda>")
    assert auditor.digest.render() == reference.render()


def test_run_vs_rerun_digest_identical():
    a = run_experiment(_config()).audit.digest
    b = run_experiment(_config()).audit.digest
    assert a == b
    assert diff_digests(a, b).startswith("identical")


def test_different_seeds_diverge():
    a = run_experiment(_config(seed=1)).audit.digest
    b = run_experiment(_config(seed=2)).audit.digest
    assert a != b
    assert diff_digests(a, b).startswith("DIVERGED")


def test_digest_render_parse_roundtrip():
    digest = StreamDigest()
    digest.mix(0.25, "x")
    digest.mix(0.5, "y")
    state, count = parse_digest(digest.render())
    assert count == 2
    assert render_digest(state, count) == digest.render()


# ----------------------------------------------------------------------
# Runner integration: serial vs parallel, cache round-trip
# ----------------------------------------------------------------------
def test_parallel_digest_matches_serial():
    specs = [JobSpec.experiment(_config(seed=seed)) for seed in (1, 2)]
    serial = run_jobs(specs, runner=RunnerConfig(jobs=1))
    parallel = run_jobs(
        [JobSpec.experiment(_config(seed=seed)) for seed in (1, 2)],
        runner=RunnerConfig(jobs=2),
    )
    for s, p in zip(serial, parallel):
        assert s.ok and p.ok
        assert s.audit is not None and p.audit is not None
        assert s.audit["digest"] == p.audit["digest"]
        assert s.audit["ok"] and p.audit["ok"]


def test_cache_round_trips_audit_report(tmp_path):
    runner = RunnerConfig(jobs=1, cache_dir=str(tmp_path))
    (first,) = run_jobs([JobSpec.experiment(_config())], runner=runner)
    (second,) = run_jobs([JobSpec.experiment(_config())], runner=runner)
    assert not first.cached and second.cached
    assert second.audit == first.audit
    report = AuditReport.from_dict(second.audit)
    assert report.ok and report.digest == first.audit["digest"]


# ----------------------------------------------------------------------
# Offline replay
# ----------------------------------------------------------------------
def test_offline_replay_matches_in_process_verdict(tmp_path):
    tel = Telemetry()
    result = run_experiment(_config(), telemetry=tel)
    path = tmp_path / "run.jsonl.gz"
    tel.export_jsonl(str(path))

    offline = audit_artifact(str(path))
    assert offline.source == "offline"
    assert offline.ok == result.audit.ok
    assert offline.ok, offline.summary()
    # The in-process engine digest rides the manifest into the replay.
    assert offline.digest == result.audit.digest


def test_offline_replay_catches_corrupted_counters(tmp_path):
    tel = Telemetry()
    run_experiment(_config(), telemetry=tel)
    path = tmp_path / "run.jsonl"
    tel.export_jsonl(str(path))
    # Corrupt one conservation counter inside the artifact itself.
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("kind") == "counters":
            key = next(k for k in record["values"]
                       if k.startswith("host.tx_nic_packets"))
            record["values"][key] = int(record["values"][key]) + 11
            lines[i] = json.dumps(record)
            break
    else:
        raise AssertionError("artifact carries no counters snapshot")
    path.write_text("\n".join(lines) + "\n")

    offline = audit_artifact(str(path))
    assert not offline.ok
    assert any(f.invariant.startswith("conservation") for f in offline.findings)


def test_digest_events_artifact_fallback(tmp_path):
    records = [{"time": 0.1, "type": "a"}, {"time": 0.2, "type": "b"}]
    assert digest_events(records) == digest_events(list(records))
    assert digest_events(records) != digest_events(records[::-1])


def test_offline_rejects_unreadable_artifact(tmp_path):
    with pytest.raises(OSError):
        audit_artifact(str(tmp_path / "missing.jsonl"))
    bad = tmp_path / "bad.jsonl.gz"
    bad.write_bytes(b"not gzip at all")
    with pytest.raises((OSError, ValueError)):
        audit_artifact(str(bad))
