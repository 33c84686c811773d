"""Unit tests for the telemetry subsystem (registry, events, profiler,
manifests, JSONL round-trips, rendering)."""

import json
import os
import subprocess

import pytest

from repro.sim.engine import Simulator
from repro.telemetry import core as telemetry_core
from repro.telemetry import (
    NULL_INSTRUMENT,
    NULL_TELEMETRY,
    EventLog,
    MetricsRegistry,
    SimProfiler,
    Telemetry,
    callback_name,
    format_key,
    git_revision,
    load_jsonl,
    read_jsonl,
)
from repro.telemetry.registry import DEFAULT_BUCKETS
from repro.telemetry.render import render_dump


class TestRegistry:
    def test_counter_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("drops", link="L1")
        b = reg.counter("drops", link="L1")
        c = reg.counter("drops", link="L2")
        assert a is b
        assert a is not c
        a.inc()
        a.inc(2.0)
        assert a.value == 3.0
        assert c.value == 0.0

    def test_counter_set_total_is_idempotent(self):
        reg = MetricsRegistry()
        counter = reg.counter("rx")
        counter.set_total(10)
        counter.set_total(10)
        assert counter.value == 10.0

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 4.0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)

    def test_format_key(self):
        reg = MetricsRegistry()
        counter = reg.counter("drops", link="L1", reason="full")
        assert format_key(counter.key) == "drops{link=L1,reason=full}"
        assert format_key(reg.counter("plain").key) == "plain"

    def test_disabled_registry_hands_out_null_instrument(self):
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("drops", link="L1")
        assert counter is NULL_INSTRUMENT
        assert reg.gauge("g") is NULL_INSTRUMENT
        assert reg.histogram("h") is NULL_INSTRUMENT
        # all mutators are no-ops
        counter.inc()
        counter.set_total(5)
        counter.observe(1.0)
        assert len(reg) == 0
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_histogram_observe_and_quantiles(self):
        hist = MetricsRegistry().histogram("lat", bounds=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.05):
            hist.observe(value)
        assert hist.count == 4
        assert hist.mean == pytest.approx(0.0605 / 4)
        assert hist.maximum == 0.05
        assert hist.quantile(0.5) == 0.01  # 2nd obs falls in the 0.01 bucket
        assert hist.quantile(1.0) == 0.1   # bucket-resolution upper bound
        hist.observe(0.5)                  # beyond the last bound -> +inf
        assert hist.quantile(1.0) == 0.5   # +inf bucket reports the true max

    def test_histogram_empty_quantile_and_bounds_check(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_histogram_default_buckets_to_dict(self):
        hist = MetricsRegistry().histogram("fct_seconds")
        hist.observe(0.002)
        d = hist.to_dict()
        assert d["count"] == 1
        assert set(d["buckets"]) == {str(b) for b in DEFAULT_BUCKETS} | {"+inf"}
        assert sum(d["buckets"].values()) == 1

    def test_snapshot_renders_keys(self):
        reg = MetricsRegistry()
        reg.counter("drops", link="L1").inc()
        reg.gauge("util", link="L1").set(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"drops{link=L1}": 1.0}
        assert snap["gauges"] == {"util{link=L1}": 0.5}


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit("flowlet.new", 0.1, src=1, dst=2)
        log.emit("switch.drop", 0.2, link="L1")
        log.emit("flowlet.new", 0.3, src=3, dst=4)
        assert len(log) == 3
        assert log.emitted == 3
        assert log.dropped == 0
        assert [e.type for e in log.events("flowlet.new")] == ["flowlet.new"] * 2
        assert log.counts_by_type() == {"flowlet.new": 2, "switch.drop": 1}
        assert [e.type for e in log.tail(2)] == ["switch.drop", "flowlet.new"]

    def test_ring_buffer_drops_oldest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("tick", float(i), i=i)
        assert len(log) == 3
        assert log.emitted == 5
        assert log.dropped == 2
        assert [e.fields["i"] for e in log] == [2, 3, 4]

    def test_disabled_log_is_noop(self):
        log = EventLog(enabled=False)
        log.emit("tick", 0.0)
        assert len(log) == 0
        assert log.emitted == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("flowlet.new", 0.25, src=1, port=42)
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fp:
            assert log.write_jsonl(fp) == 1
        records = read_jsonl(str(path))
        assert records == [
            {"kind": "event", "time": 0.25, "type": "flowlet.new",
             "src": 1, "port": 42}
        ]


class TestProfiler:
    def test_callback_name(self):
        assert callback_name(TestProfiler.test_callback_name).endswith(
            "TestProfiler.test_callback_name"
        )

    def test_record_and_rank(self):
        prof = SimProfiler()
        prof.record_callback("a", 0.2)
        prof.record_callback("a", 0.2)
        prof.record_callback("b", 0.5)
        prof.record_run(3, 1.0)
        assert prof.events_per_sec == pytest.approx(3.0)
        top = prof.top_callbacks(1)
        assert top[0]["callback"] == "b"
        assert prof.callbacks["a"].mean_us == pytest.approx(0.2e6)

    def test_engine_integration(self):
        sim = Simulator()
        sim.profiler = SimProfiler()
        fired = []
        for _ in range(4):
            sim.schedule(0.1, fired.append, 1)
        cancelled = sim.schedule(0.2, fired.append, 2)
        cancelled.cancel()
        sim.run(until=1.0)
        assert len(fired) == 4
        prof = sim.profiler
        assert prof.events == 4  # cancelled events are not counted
        assert prof.runs == 1
        assert prof.heap_high_water == 5
        assert sum(s.count for s in prof.callbacks.values()) == 4
        assert "events/s" in prof.format_summary()

    def test_profiled_run_respects_max_events_interrupt(self):
        sim = Simulator()
        sim.profiler = SimProfiler()
        for i in range(10):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run(until=5.0, max_events=4)
        assert sim.now == pytest.approx(0.4)
        assert sim.profiler.events == 4


class TestTelemetryScope:
    def test_null_telemetry_is_disabled_and_inert(self):
        assert not NULL_TELEMETRY.enabled
        NULL_TELEMETRY.events.emit("tick", 0.0)
        manifest = NULL_TELEMETRY.manifest(run="x")
        assert len(NULL_TELEMETRY.events) == 0
        assert NULL_TELEMETRY.manifests == []
        assert manifest["run"] == "x"  # still returned for caller convenience

    def test_manifest_records_provenance(self):
        tel = Telemetry()
        manifest = tel.manifest(run="experiment", scheme="clove-ecn", seed=3)
        assert tel.manifests == [manifest]
        assert manifest["kind"] == "manifest"
        assert manifest["scheme"] == "clove-ecn"
        assert manifest["git_rev"] == git_revision()
        assert "recorded_unix" in manifest

    def test_git_revision_is_this_checkout_whatever_the_cwd(
            self, tmp_path, monkeypatch):
        here = os.path.dirname(os.path.abspath(__file__))
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=here, capture_output=True,
                text=True, timeout=5.0, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pytest.skip("not running from a git checkout")
        # tmp_path is outside any repository: asking git there says nothing
        # about the code that is running
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(telemetry_core, "_git_rev_known", False)
        monkeypatch.setattr(telemetry_core, "_git_rev_cache", None)
        assert git_revision() == head

    def test_profiler_only_when_requested(self):
        assert Telemetry().profiler is None
        assert Telemetry(profile=True).profiler is not None
        assert Telemetry(enabled=False, profile=True).profiler is None

    def test_export_and_load_round_trip(self, tmp_path):
        tel = Telemetry(profile=True)
        tel.manifest(run="test", scheme="ecmp", seed=1)
        tel.registry.counter("drops", link="L1").inc(7)
        tel.registry.gauge("util", link="L1").set(0.25)
        tel.registry.histogram("fct_seconds").observe(0.004)
        tel.events.emit("flowlet.new", 0.1, src=1)
        tel.profiler.record_run(100, 0.5)
        path = tmp_path / "run.jsonl"
        tel.export_jsonl(str(path))

        dump = load_jsonl(str(path))
        assert len(dump["manifests"]) == 1
        assert dump["counters"]["drops{link=L1}"] == 7.0
        assert dump["gauges"]["util{link=L1}"] == 0.25
        assert dump["histograms"]["fct_seconds"]["count"] == 1
        assert dump["profile"]["events"] == 100
        assert dump["events_dropped"] == 0
        assert [e["type"] for e in dump["events"]] == ["flowlet.new"]

    def test_export_serializes_non_json_config_values(self, tmp_path):
        tel = Telemetry()
        tel.manifest(run="x", config={"switch_class": Simulator})
        path = tmp_path / "run.jsonl"
        tel.export_jsonl(str(path))
        with open(path) as fp:
            record = json.loads(fp.readline())
        assert "Simulator" in record["config"]["switch_class"]

    def test_export_records_dropped_events(self, tmp_path):
        tel = Telemetry(event_capacity=2)
        for i in range(5):
            tel.events.emit("tick", float(i))
        path = tmp_path / "run.jsonl"
        tel.export_jsonl(str(path))
        dump = load_jsonl(str(path))
        assert dump["events_dropped"] == 3
        assert len(dump["events"]) == 2

    def test_render_dump_all_sections(self, tmp_path):
        tel = Telemetry(profile=True)
        tel.manifest(run="test", scheme="ecmp", seed=1, load=0.7)
        tel.registry.counter("drops", link="L1").inc(3)
        tel.registry.histogram("fct_seconds").observe(0.01)
        tel.events.emit("switch.drop", 0.2, link="L1")
        tel.profiler.record_run(10, 0.1)
        path = tmp_path / "run.jsonl"
        tel.export_jsonl(str(path))
        text = render_dump(load_jsonl(str(path)))
        assert "scheme=ecmp" in text
        assert "drops{link=L1}" in text
        assert "fct_seconds" in text
        assert "switch.drop" in text
        assert "profile:" in text

    def test_render_dump_empty(self):
        text = render_dump(
            {"manifests": [], "counters": {}, "gauges": {}, "histograms": {},
             "profile": None, "events": [], "events_dropped": 0}
        )
        assert "(no manifests)" in text
        assert "(events: none)" in text
