"""Self-tests of the benchmark harness.

Run explicitly (``testpaths`` keeps them out of tier-1; the quick run
they share takes about half a minute)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py -q
"""

from __future__ import annotations

import inspect
import json
import re
import subprocess
import sys

import pytest

from benchmarks.perf import ROOT, compare, harness, layers, spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One ``run --quick`` shared by the tests that need real output."""
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--quick",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(out.read_text())
    traces = {name: json.loads((ROOT / report["trace_file"]).read_text())
              for name, report in result["workloads"].items()}
    return proc.stdout, result, traces


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _targets():
    for _layer, path, methods in layers.SIM_TARGETS + layers.BATCH_TARGETS:
        module, attr = layers._resolve(path)
        if not methods:
            yield module, attr
        for method in methods:
            yield getattr(module, attr), method


def test_wrappers_install_and_uninstall_idempotently():
    before = {(owner, attr): inspect.getattr_static(owner, attr)
              for owner, attr in _targets()}
    tracer = layers.LayerTracer()
    for _ in range(2):
        tracer.install(layers.SIM_TARGETS)
        tracer.install(layers.BATCH_TARGETS, policies=False)
    for (owner, attr), original in before.items():
        wrapped = inspect.getattr_static(owner, attr)
        inner = wrapped.fget if isinstance(wrapped, property) else wrapped
        unwrapped = original.fget if isinstance(original, property) else original
        # wrapped exactly once, however often install() ran
        assert inner.__perf_original__ is unwrapped, (owner, attr)
        assert inner.__qualname__ == unwrapped.__qualname__
    for _ in range(2):
        tracer.uninstall()
    for (owner, attr), original in before.items():
        assert inspect.getattr_static(owner, attr) is original, (owner, attr)


def test_policy_subclasses_are_wrapped_and_restored():
    from repro.baselines.ecmp import EcmpPolicy
    from repro.core.clove import CloveEcnPolicy

    originals = (vars(EcmpPolicy)["select_source_port"],
                 vars(CloveEcnPolicy)["on_path_feedback"])
    tracer = layers.LayerTracer()
    tracer.install(())
    assert vars(EcmpPolicy)["select_source_port"].__perf_original__ is originals[0]
    assert vars(CloveEcnPolicy)["on_path_feedback"].__perf_original__ is originals[1]
    tracer.uninstall()
    assert vars(EcmpPolicy)["select_source_port"] is originals[0]
    assert vars(CloveEcnPolicy)["on_path_feedback"] is originals[1]


def test_self_time_is_duration_minus_children():
    tracer = layers.LayerTracer()
    spin = tracer._wrap(lambda n: sum(range(n)), "net.link", "net.link.spin")
    outer = tracer._wrap(lambda: [spin(20_000) for _ in range(5)],
                         "sim", "sim.outer")
    outer()                              # not armed: nothing recorded
    assert tracer.totals() == {}
    tracer.arm()
    outer()
    tracer.disarm()
    totals = tracer.totals()
    assert totals[("net.link.spin", "sim")][0] == 5
    assert totals[("sim.outer", "harness")][0] == 1
    assert sum(self_ns for _calls, self_ns in totals.values()) == tracer.wall_ns
    assert set(tracer.layer_self_ns()) == {"sim", "net.link", "harness"}


# ----------------------------------------------------------------------
# The tables and BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [
        w.why for w in spec.WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.gated_metrics()]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.ungated_metrics()]
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m["name"] for m in doc["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    # set-up gets the largest bound; nothing is ever looser than 15%
    assert max(m.bound for m in spec.END_TO_END) == spec.METRICS["setup_s"].bound == 0.15


def test_run_prints_every_declared_metric_and_no_other(quick_run):
    stdout, result, _traces = quick_run
    declared = set(spec.METRICS)
    reported = {name for report in result["workloads"].values()
                for name in report["metrics"]}
    assert reported == declared
    printed = set(re.findall(r"^   ([A-Za-z0-9_.-]+) ", stdout, re.MULTILINE))
    assert printed - {"metric"} == declared
    assert "derived.edge_cost_ratio" in stdout
    assert set(result["workloads"]) == set(spec.WORKLOADS)
    for key in ("nproc", "loadavg_at_start", "python", "git_rev"):
        assert key in result["env"]
    assert result["seed"] == 1 and result["repeats"] == 1 and result["quick"]


def test_metrics_exist_only_where_they_are_defined(quick_run):
    _stdout, result, _traces = quick_run
    metrics = {name: set(report["metrics"])
               for name, report in result["workloads"].items()}
    assert "sim_goodput_gbps" in metrics["incast-fanin"]
    assert "offline_s" in metrics["observed-chaos-flap"]
    assert {"jobs_per_s", "warm_rerun_s"} <= metrics["suite-batch"]
    for name, present in metrics.items():
        assert ("sim_goodput_gbps" in present) == (name == "incast-fanin")
        assert ("offline_s" in present) == (name == "observed-chaos-flap")
        assert ("jobs_per_s" in present) == (name == "suite-batch")
        assert ("packets_per_s" in present) == (name != "suite-batch")
        assert ("events_per_packet" in present) == (name != "suite-batch")
        assert {"setup_s", "peak_rss_mb", "flows_failed_share",
                "trace.overhead_pct"} <= present
    for report in result["workloads"].values():
        assert report["failed"] == 0 and report["correct"]


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def test_layer_self_times_add_up_to_the_traced_wall(quick_run):
    _stdout, result, traces = quick_run
    for name, trace in traces.items():
        total = sum(trace["layers"].values())
        assert abs(total - trace["wall_ns"]) <= 0.02 * trace["wall_ns"], name
        assert sum(s["self_ns"] for s in trace["spans"]) == total
        coverage = result["workloads"][name]["metrics"]["trace.coverage_pct"]
        assert coverage["median"] >= 98.0, name


def test_link_deliver_no_longer_hides_the_stack(quick_run):
    _stdout, _result, traces = quick_run
    trace = traces["fabric-ecmp"]
    share = {layer: ns / trace["wall_ns"] for layer, ns in trace["layers"].items()}
    assert share["net.link"] < 0.5
    for layer in ("sim", "net.switch", "hypervisor.host",
                  "hypervisor.vswitch", "transport.tcp"):
        assert share[layer] > 0.03, layer
    # sampled packets keep their raw spans, grouped by packet id
    packets = {span["packet"] for span in trace["raw"]}
    assert packets and all(p % layers.SAMPLE_EVERY == 0 for p in packets)


def test_idle_layers_record_zero_calls(quick_run):
    _stdout, _result, traces = quick_run
    for name, workload in spec.WORKLOADS.items():
        busy = {layers.layer_of(span["name"]) for span in traces[name]["spans"]}
        assert not busy & set(workload.idle_layers), name
    chaos = traces["observed-chaos-flap"]
    busy = {layers.layer_of(span["name"]) for span in chaos["spans"]}
    assert {"telemetry", "audit", "chaos", "core.health"} <= busy


# ----------------------------------------------------------------------
# Small pure pieces
# ----------------------------------------------------------------------
def _stats(*values, seeds=None):
    return harness.summarize(list(values), list(seeds or range(len(values))))


def test_compare_verdicts():
    def verdict(metric, a, b):
        return compare.judge(spec.METRICS[metric], a, b)[2]

    steady = _stats(100, 101, 99, 100, 100)
    assert verdict("packets_per_s", steady, _stats(100, 100, 101, 99, 100)) == "unchanged"
    assert verdict("packets_per_s", steady, _stats(80, 81, 79, 80, 80)) == "regressed"
    assert verdict("packets_per_s", steady, _stats(120, 121, 119, 120, 120)) == "improved"
    noisy = _stats(70, 100, 130, 85, 115)
    assert verdict("packets_per_s", steady, noisy) == "unresolved"
    assert verdict("packets_per_s", noisy, _stats(200, 210, 190, 205, 195)) == "improved"
    assert verdict("setup_s", _stats(1.0, 1.0, 1.0), _stats(1.2, 1.2, 1.2)) == "regressed"
    assert verdict("flows_failed_share", _stats(0.0, 0.0), _stats(0.0, 0.0)) == "unchanged"
    assert verdict("flows_failed_share", _stats(0.0, 0.0), _stats(0.5, 0.5)) == "regressed"
    # repeats simulate different seeds: what differs between seeds cancels
    # in the pairing, so a wide but identical sample is not "unresolved"
    by_seed = _stats(0.69, 1.21, 0.78, 2.4, 0.74)
    assert verdict("sim_fct_avg_ms", by_seed, by_seed) == "unchanged"
    worse, noise, _ = compare.judge(spec.METRICS["sim_fct_avg_ms"], by_seed, by_seed)
    assert worse == 0.0 and noise == 0.0
    # runs are paired by seed, not by position: B lost its first run
    a = _stats(100, 50, 200, seeds=(7, 8, 9))
    worse, noise, _ = compare.judge(
        spec.METRICS["packets_per_s"], a, _stats(50, 200, seeds=(8, 9)))
    assert worse == 0.0 and noise == 0.0
    # no seed in common: the medians are compared
    assert verdict("packets_per_s", a, _stats(80, 40, 160, seeds=(1, 2, 3))) == "regressed"


def test_compare_exits_nonzero_on_a_regression_or_an_exact_difference(tmp_path):
    def result(pps, events_per_packet=(4.0, 4.1, 4.2)):
        return {"env": {"git_rev": None}, "seed": 1, "repeats": 3, "quick": False,
                "workloads": {"fabric-ecmp": {"metrics": {
                    "packets_per_s": _stats(*pps),
                    "events_per_packet": _stats(*events_per_packet)}}}}

    a, same, slow, other = (tmp_path / n for n in (
        "a.json", "same.json", "slow.json", "other.json"))
    a.write_text(json.dumps(result([100, 101, 99])))
    same.write_text(json.dumps(result([100, 100, 101])))
    slow.write_text(json.dumps(result([70, 71, 69])))
    # within the 1% bound, but the simulator computed something else
    other.write_text(json.dumps(result([100, 100, 101], (4.0, 4.1, 4.2001))))
    assert compare.main(str(a), str(same)) == 0
    assert compare.main(str(a), str(slow)) == 1
    assert compare.main(str(a), str(other)) == 1
    assert compare.main(str(a), str(tmp_path / "missing.json")) == 2


def test_driver_gets_medians_and_the_workloads_own_rate():
    metrics = {"packets_per_s": _stats(100.0, 80.0, 102.0, 101.0, 99.0),
               "setup_s": _stats(0.2, 0.5, 0.3)}
    pps = spec.METRICS["packets_per_s"]
    assert harness.driver_value("fabric-ecmp", pps, metrics) == 100.0
    assert harness.driver_value("fabric-ecmp", spec.METRICS["setup_s"], metrics) == 0.3
    assert harness.driver_value("fabric-ecmp", spec.METRICS["offline_s"], metrics) is None
    # suite-batch has no packet count: the slot carries jobs_per_s
    batch = {"jobs_per_s": _stats(6.0, 5.0, 7.0)}
    assert harness.driver_value("suite-batch", pps, batch) == 6.0
    assert {w.rate for w in spec.WORKLOADS.values()} == {"packets_per_s", "jobs_per_s"}


def test_pin_mismatches_and_seed_scheme():
    pinned = {"packets": 10, "events": 40, "sim_fct_avg_ms": 1.25}
    assert harness.pin_mismatches(pinned, dict(pinned)) == []
    assert harness.pin_mismatches(pinned, {**pinned, "events": 41}) == [
        "events: expected 40, got 41"]
    assert harness.pin_mismatches(pinned, {"packets": 10, "events": 40})
    seeds = {harness.sim_seed(s, r) for s in range(1, 40)
             for r in range(harness.MAX_REPEATS)}
    assert len(seeds) == 39 * harness.MAX_REPEATS


def test_expected_json_covers_every_pinned_run():
    expected = harness.load_expected()
    assert expected["sizes"] == {n: w.size() for n, w in spec.WORKLOADS.items()}
    for name in spec.WORKLOADS:
        assert set(expected["pins"][name]) == {
            str(harness.sim_seed(s, r)) for s in harness.PINNED_SEEDS
            for r in range(harness.MAX_REPEATS)}
    assert "audit_digest" in expected["pins"]["observed-chaos-flap"]["100"]
    # suite-batch's seed only orders the submission: the work is the same
    batch = list(expected["pins"]["suite-batch"].values())
    assert all(pins == batch[0] for pins in batch)


def test_tail_percentile_needs_ten_samples_beyond():
    from benchmarks.perf.workloads import tail_percentile

    assert tail_percentile(list(range(50))) == (None, 0, 0)
    assert tail_percentile(list(range(100)))[1:] == (90, 10)
    assert tail_percentile(list(range(480)))[1:] == (95, 24)
    assert tail_percentile(list(range(2000)))[1:] == (99, 20)


def test_bench_refuses_to_run_without_the_program(tmp_path):
    """The driver also runs the command where only the benchmark exists."""
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    subprocess.run(["cp", "-r", str(ROOT / "benchmarks" / "perf"),
                    str(bare / "benchmarks" / "perf")], check=True)
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "bench", "--workload",
         "fabric-ecmp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
