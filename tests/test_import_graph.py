"""What an import loads: the demand-driven import graph, pinned.

Every row runs in a fresh interpreter (``sys.modules`` of the test process
is already full) and prints the modules it ended up with.  The limits are
the ones DESIGN.md's "Import layering" section states: a package import
loads nothing, the run path stays free of observers, unselected schemes
and the process-pool machinery, offline CLI commands never load the
simulator, and no import lands between ``workload.start()`` and the end
of a run.  One static check closes the file: every module is reachable
from the CLI or the scheme table.
"""

import ast
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
    "repro.core.health", "repro.core.latency", "repro.baselines.conga",
    "repro.baselines.letflow", "repro.baselines.presto",
    "repro.transport.mptcp", "repro.runner.pool",
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


def test_fault_free_payload_loads_no_chaos_engine_or_plan():
    # the reports load the engine (windows_from_markers) only for markers
    modules = _modules_after(
        "from repro.harness.experiment import ExperimentConfig, run_experiment\n"
        "from repro.harness.metrics import standard_metrics\n"
        "standard_metrics(run_experiment(ExperimentConfig(\n"
        "    scheme='ecmp', jobs_per_client=2, clients_per_leaf=2)))")
    assert "repro.chaos.metrics" in modules
    assert not {"repro.chaos.engine", "repro.chaos.plan"} & modules


def test_suite_setup_path_loads_no_figure_or_incast_harness():
    # what `repro suite run|check` (and benchmarks.perf's suite-batch) load
    # before the runner starts: figure rows and the incast harness are for
    # `repro figure` and for batches that hold incast jobs
    modules = _modules_after("import repro.suite.bundles, repro.suite.execute")
    assert not {"repro.suite.figures", "repro.harness.incast"} & modules


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


def _help_argvs():
    from repro.cli import COMMANDS

    return [pytest.param([*row.words, "--help"], id=" ".join(row.words))
            for row in COMMANDS]


@pytest.mark.parametrize("argv", _help_argvs())
def test_every_leaf_help_exits_0_and_loads_no_simulator(argv):
    modules = _modules_after(
        "import repro.cli, contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        repro.cli.main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "    else:\n"
        "        raise AssertionError('--help did not exit')", *argv)
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


_IN_A_WORKER = """
args = json.loads(sys.argv[1])
from repro.harness.config import ExperimentConfig
from repro.runner.job import JobSpec
from repro.runner.pool import load_before_fork
from repro.runner.worker import pool_worker

spec = (JobSpec.incast(**args) if args.pop("incast", False)
        else JobSpec.experiment(ExperimentConfig(**args)))
load_before_fork([spec])        # what the parent imports before it forks
before = set(sys.modules)
pool_worker(spec, False, False)
print(json.dumps(sorted(set(sys.modules) - before)))
"""

_TINY = {"jobs_per_client": 2, "clients_per_leaf": 2}


@pytest.mark.parametrize("args", [
    pytest.param({**_TINY, "scheme": "clove-ecn", "asymmetric": True},
                 id="clove-ecn-asymmetric"),
    pytest.param({**_TINY, "scheme": "mptcp", "health": True,
                  "audit": "report"}, id="mptcp-health-audit"),
    pytest.param({"incast": True, "scheme": "conga", "fanout": 2,
                  "n_requests": 1, "total_bytes": 100_000}, id="incast-conga"),
])
def test_a_pooled_job_loads_nothing_its_parent_did_not(args):
    # a module a worker imports itself is compiled again in every worker
    proc = _python("import sys, json\n" + _IN_A_WORKER, json.dumps(args))
    assert _repro(json.loads(proc.stdout.strip().splitlines()[-1])) == set()


#: modules that no import reaches by design, each with its reason
UNREACHED_BY_DESIGN = {
    # the ``python -m repro`` entry point: the interpreter runs it, nothing
    # imports it
    "repro.__main__",
}


def _module_files():
    """Every ``src/repro`` module name -> its file."""
    root = Path(SRC)
    files = {}
    for path in (root / "repro").rglob("*.py"):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _static_imports(module, path):
    """The modules ``path`` names in its import statements (type-only
    imports under ``if TYPE_CHECKING:`` load nothing and do not count),
    plus the submodules of a package's ``_EXPORTS`` table."""
    named = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.If)
                    and getattr(child.test, "id", None) == "TYPE_CHECKING"):
                continue
            if isinstance(child, ast.Import):
                named.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                named.add(child.module)
                # ``from pkg import submodule``
                named.update(f"{child.module}.{alias.name}"
                             for alias in child.names)
            visit(child)

    tree = ast.parse(path.read_text())
    visit(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "_EXPORTS"):
            named.update(f"{module}.{sub}"
                         for sub in ast.literal_eval(node.value).values())
    return named


def test_every_module_is_reachable_from_the_cli_or_a_table():
    # A module that no command, scheme row or import of theirs reaches is
    # code that no run selects: wire it into a table or delete it.
    from repro.cli import COMMANDS
    from repro.harness.schemes import SCHEMES

    files = _module_files()
    roots = {"repro.cli"}
    roots.update(field.partition(":")[0] for row in SCHEMES.values()
                 for field in row if isinstance(field, str) and ":" in field)
    roots.update(row.handler.__module__ for row in COMMANDS)
    reached, todo = set(), sorted(roots)
    while todo:
        module = todo.pop()
        if module in reached or module not in files:
            continue
        reached.add(module)
        parts = module.split(".")
        todo.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        todo.extend(_static_imports(module, files[module]))
    assert set(files) - reached == UNREACHED_BY_DESIGN
