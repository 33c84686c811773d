"""What an import loads: the demand-driven import graph, pinned.

Every row runs in a fresh interpreter (``sys.modules`` of the test process
is already full) and prints the modules it ended up with.  The limits are
the ones DESIGN.md's "Import layering" section states: a package import
loads nothing, the run path stays free of observers, unselected schemes
and the process-pool machinery, offline CLI commands never load the
simulator, and no import lands between ``workload.start()`` and the end
of a run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _python(code, *argv, flags=()):
    """Run ``code`` in a fresh interpreter with ``src/`` on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _modules_after(code, *argv):
    """``sys.modules`` (names) of a fresh interpreter that ran ``code``."""
    proc = _python(
        "import sys, json\n" + code
        + "\nprint(json.dumps(sorted(sys.modules)))", *argv)
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _repro(modules):
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def test_importing_the_package_loads_no_submodule():
    assert _repro(_modules_after("import repro")) == {"repro"}


def test_importing_a_submodule_loads_only_its_ancestors():
    assert _repro(_modules_after("import repro.sim.engine")) == {
        "repro", "repro.sim", "repro.sim.engine"}


def test_import_is_silent_under_warnings_as_errors():
    proc = _python("import repro", flags=("-W", "error"))
    assert proc.stdout == "" and proc.stderr == ""


def test_submodules_resolve_as_attributes_of_a_bare_package_import():
    proc = _python("import repro; print(repro.sim.engine.Simulator.__name__)")
    assert proc.stdout.strip() == "Simulator"


#: what a run that does not select them must never load
OFF_THE_RUN_PATH = (
    "repro.audit", "repro.chaos.engine", "repro.chaos.metrics",
    "repro.core.health", "repro.baselines.conga", "repro.baselines.letflow",
    "repro.baselines.presto", "repro.transport.mptcp", "repro.runner.pool",
    "repro.suite", "repro.cli", "multiprocessing", "concurrent.futures",
    "subprocess", "socket", "pickle", "argparse",
)


def test_run_path_imports_only_what_every_run_touches():
    modules = _modules_after(
        "import repro.harness.experiment, repro.harness.metrics")
    assert len(_repro(modules)) <= 45, sorted(_repro(modules))
    loaded = [m for m in modules
              if any(m == off or m.startswith(off + ".")
                     for off in OFF_THE_RUN_PATH)]
    assert loaded == []
    # benchmarks/perf/layers.py finds the policies to trace through
    # LoadBalancer.__subclasses__() right after this import.
    assert {"repro.baselines.ecmp", "repro.core.clove"} <= modules


@pytest.mark.parametrize("argv", [
    ["schemes"],
    ["cache", "list", "--cache-dir", "{tmp}"],
    ["chaos", "presets"],
    ["--help"],
])
def test_offline_cli_commands_do_not_load_the_simulator(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    modules = _modules_after(
        "import repro.cli\n"
        "try:\n"
        "    status = repro.cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"      # --help
        "    status = exc.code\n"
        "assert status == 0, status", *argv)
    assert not {"repro.sim.engine", "repro.net.link"} & modules


#: run one config; report sys.modules at workload.start() and at the end
_TIMED_REGION = """
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.workloads.generator import PoissonWorkload

overrides = json.loads(sys.argv[1])
telemetry = None
if overrides.pop("observed", False):
    from repro.chaos.plan import preset
    from repro.telemetry import Telemetry
    overrides["chaos"] = preset("flap")
    telemetry = Telemetry(trace=True)

at_start = []
start = PoissonWorkload.start
def marked(self):
    at_start.append(set(sys.modules))
    return start(self)
PoissonWorkload.start = marked

result = run_experiment(ExperimentConfig(**overrides), telemetry=telemetry)
events = telemetry.events.counts_by_type() if telemetry else {}
print(json.dumps({
    "imported_after_start": sorted(set(sys.modules) - at_start[0]),
    "completed": len(result.collector.completed()),
    "injections": len(result.chaos.markers) if result.chaos else 0,
    "suspects": events.get("health.suspect", 0),
}))
"""

_SMALL = {"load": 0.7, "seed": 1, "jobs_per_client": 12, "clients_per_leaf": 4}


@pytest.mark.parametrize("overrides", [
    pytest.param({"scheme": "ecmp"}, id="ecmp"),
    pytest.param({"scheme": "clove-ecn", "asymmetric": True},
                 id="clove-ecn-asymmetric"),
    # benchmarks/perf's observed-chaos-flap, shortened: every observer on
    pytest.param({"scheme": "clove-ecn", "observed": True, "health": True,
                  "failover_delay_s": 0.01, "audit": "report"},
                 id="observed-chaos-flap"),
])
def test_no_import_lands_in_the_timed_region(overrides):
    proc = _python("import sys, json\n" + _TIMED_REGION,
                   json.dumps({**_SMALL, **overrides}))
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["imported_after_start"] == []
    assert seen["completed"] > 0
    if "observed" in overrides:
        # short, but still long enough for the flap to fire (link down/up
        # twice) and for the path health monitors to notice it
        assert seen["injections"] == 4
        assert seen["suspects"] > 0
    elif overrides.get("asymmetric"):
        assert seen["injections"] > 0   # the cable failure went through chaos
