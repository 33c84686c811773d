"""End-to-end telemetry: instrumented experiments and the CLI artifact flow."""

import pytest

from repro.cli import main
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.incast import run_incast
from repro.harness.sweep import average_over_seeds
from repro.telemetry import Telemetry, load_jsonl


def _small_config(**overrides):
    defaults = dict(scheme="clove-ecn", load=0.7, seed=1, jobs_per_client=6,
                    flow_scale=0.05, max_sim_time=5.0)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestInstrumentedExperiment:
    def test_run_collects_events_counters_and_manifest(self):
        tel = Telemetry()
        result = run_experiment(_small_config(), telemetry=tel)

        assert result.telemetry is tel
        manifest = result.manifest
        assert manifest is not None and manifest in tel.manifests
        assert manifest["scheme"] == "clove-ecn"
        assert manifest["seed"] == 1
        assert manifest["wall_s"] > 0
        assert manifest["sim_events"] == result.wall_events
        assert manifest["config"]["jobs_per_client"] == 6

        # The acceptance bar: at least four distinct event types, spanning
        # hypervisor (flowlet), Clove control (weights/echo) and the fabric.
        types = set(tel.events.counts_by_type())
        assert "run.start" in types
        assert "flowlet.new" in types
        assert "clove.weight_update" in types
        assert "clove.ecn_echo" in types
        assert "switch.ecn_mark" in types

        counters = tel.registry.snapshot()["counters"]
        assert any(k.startswith("link.tx_packets") for k in counters)
        assert any(k.startswith("vswitch.tx_encapsulated") for k in counters)
        assert counters["jobs.completed"] > 0
        histograms = tel.registry.snapshot()["histograms"]
        assert histograms["fct_seconds"]["count"] > 0

    def test_uninstrumented_run_carries_no_telemetry(self):
        result = run_experiment(_small_config())
        assert result.telemetry is None
        assert result.manifest is None

    def test_profiled_run_accounts_engine_time(self):
        tel = Telemetry(profile=True)
        result = run_experiment(_small_config(), telemetry=tel)
        prof = tel.profiler
        assert prof.events == result.wall_events
        assert prof.heap_high_water > 0
        assert prof.events_per_sec > 0
        assert prof.callbacks  # per-callback-type breakdown exists

    def test_sweep_shares_one_scope_across_seeds(self):
        tel = Telemetry()
        average_over_seeds(_small_config(), seeds=(1, 2), telemetry=tel)
        assert len(tel.manifests) == 2
        assert {m["seed"] for m in tel.manifests} == {1, 2}
        assert len(tel.events.events("run.start")) == 2

    def test_incast_reports_into_scope(self):
        tel = Telemetry()
        goodput = run_incast(scheme="clove-ecn", fanout=2, n_requests=2,
                             total_bytes=200_000, telemetry=tel)
        assert goodput > 0
        (manifest,) = tel.manifests
        assert manifest["run"] == "incast"
        assert manifest["fanout"] == 2
        assert manifest["goodput_bps"] == goodput
        assert len(tel.events) > 0


class TestCliTelemetry:
    def test_run_telemetry_out_then_inspect(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        rc = main(["run", "clove-ecn", "--jobs-per-client", "6", "--flow-scale", "0.05",
                   "--telemetry-out", str(out)])
        assert rc == 0
        assert out.exists()

        dump = load_jsonl(str(out))
        assert len(dump["manifests"]) == 1
        assert dump["counters"]
        assert len({e["type"] for e in dump["events"]}) >= 4

        capsys.readouterr()
        assert main(["telemetry", str(out)]) == 0
        text = capsys.readouterr().out
        assert "scheme=clove-ecn" in text
        assert "counters" in text
        assert "flowlet.new" in text

    def test_run_profile_flag_prints_summary(self, tmp_path, capsys):
        rc = main(["run", "ecmp", "--jobs-per-client", "4", "--flow-scale", "0.05",
                   "--profile"])
        assert rc == 0
        assert "events/s" in capsys.readouterr().err

    def test_incast_telemetry_out(self, tmp_path):
        out = tmp_path / "incast.jsonl"
        rc = main(["incast", "--fanouts", "2", "--requests", "2",
                   "--bytes", "200000", "--telemetry-out", str(out)])
        assert rc == 0
        dump = load_jsonl(str(out))
        assert dump["manifests"][0]["run"] == "incast"

    def test_telemetry_missing_file_errors(self, capsys):
        # unreadable input is a usage error: exit 2 (see test_cli_errors.py)
        assert main(["telemetry", "/nonexistent/run.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_telemetry_corrupt_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json {\n")
        assert main(["telemetry", str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unwritable_telemetry_out_fails_before_running(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "ecmp", "--telemetry-out", "/nonexistent-dir/x.jsonl"])
        assert excinfo.value.code == 2
        assert "cannot write" in capsys.readouterr().err
