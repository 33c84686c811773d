"""The public surface of the 16 packages, resolved on demand.

Each package ``__init__`` exports its names through one ``_EXPORTS`` table
and :func:`repro.lazy_exports` instead of importing its submodules.  These
tests hold the surface: the ``__all__`` pinned below, every name the very
object its defining module holds, cached after first use, picklable
through the package, and the standard errors for a name that does not
exist.
"""

import importlib
import pickle
import pkgutil

import pytest

import repro

#: ``__all__`` of every package: the names something imports through the
#: package (``src/``, ``tests/``, ``examples/``, ``benchmarks/`` or a
#: README/DESIGN code sample); ``repro`` adds ``__version__``
PUBLIC_API = {
    "repro": (
        "Simulator RngRegistry ExperimentConfig run_experiment Host "
        "LeafSpineConfig __version__"
    ),
    "repro.audit": (
        "Auditor AuditError AuditReport MODE_REPORT MODE_STRICT "
        "StreamDigest audit_artifact diff_digests digest_events "
        "parse_digest render_digest"
    ),
    "repro.baselines": "",
    "repro.chaos": (
        "CONTROL_ACTIONS PRESETS ChaosEngine FaultEvent FaultPlan "
        "FlowSample compute_recovery controlplane_from_records degraded "
        "echo_storm fault_windows flap format_health_report format_report "
        "health_from_records multi_failure_plan preset random_plan "
        "recovery_from_records restart_plan run_records single_cable "
        "split_brain"
    ),
    "repro.core": "",
    "repro.harness": "ExperimentConfig",
    "repro.hypervisor": "",
    "repro.metrics": "",
    "repro.net": "",
    "repro.runner": (
        "JobSpec ResultCache RunnerConfig SCHEMA_VERSION canonicalize "
        "fingerprint_payload run_jobs"
    ),
    "repro.sim": "",
    "repro.suite": (
        "ScenarioSpec SuiteSpec TOPOLOGIES baselines_from_result "
        "bootstrap_mean_ci build_config bundle_names bundled_suite "
        "check_result cliffs_delta compare_by_seed compare_paired "
        "diff_results iter_bundles load_baselines load_result load_suite "
        "mann_whitney_u render_markdown report_dict results_equal run_suite "
        "save_baselines sign_test worsening"
    ),
    "repro.telemetry": (
        "Telemetry NULL_TELEMETRY git_revision load_jsonl EventLog "
        "read_jsonl SimProfiler callback_name MetricsRegistry "
        "NULL_INSTRUMENT format_key"
    ),
    "repro.topology": "",
    "repro.transport": "",
    "repro.workloads": "",
}

PUBLIC_API = {package: names.split() for package, names in PUBLIC_API.items()}


@pytest.fixture(params=sorted(PUBLIC_API))
def package(request):
    return importlib.import_module(request.param)


def test_all_is_unchanged(package):
    assert list(package.__all__) == PUBLIC_API[package.__name__]
    assert set(package.__all__) <= set(dir(package))


def test_every_export_is_the_object_its_module_defines(package):
    """Also what keeps a stale table entry (module or attribute gone) from
    reaching a user: it fails here."""
    table = package._EXPORTS
    assert set(table) == set(package.__all__) - {"__version__"}
    for name, module in table.items():
        vars(package).pop(name, None)       # force a first-use resolution
        home = importlib.import_module(f"{package.__name__}.{module}")
        assert getattr(package, name) is getattr(home, name)


def test_exports_do_not_shadow_submodules(package):
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)
                  if not info.name.startswith("_")}    # not repro.__main__
    assert not submodules & set(package._EXPORTS)
    for name in submodules:                 # `import repro; repro.sim.engine`
        assert getattr(package, name) is importlib.import_module(
            f"{package.__name__}.{name}")


def test_resolved_names_are_cached_as_plain_globals(package, monkeypatch):
    resolved = {name: getattr(package, name) for name in package.__all__}

    def reentered(name):
        raise AssertionError(f"{package.__name__}.{name} was not cached")

    monkeypatch.setitem(vars(package), "__getattr__", reentered)
    for name, value in resolved.items():
        assert vars(package)[name] is value
        assert getattr(package, name) is value


def test_star_import(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_classes_reached_through_a_package_pickle_to_the_same_class():
    # the runner ships configs to pool workers
    assert pickle.loads(pickle.dumps(repro.ExperimentConfig)) is repro.ExperimentConfig
    config = repro.ExperimentConfig(scheme="ecmp", topology=repro.LeafSpineConfig())
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config and type(clone) is repro.harness.ExperimentConfig


def test_unknown_attribute_is_a_plain_attribute_error(package):
    with pytest.raises(AttributeError) as caught:
        package.Nope
    assert type(caught.value) is AttributeError
    assert str(caught.value) == (
        f"module {package.__name__!r} has no attribute 'Nope'")
    # not a KeyError from the table or a failed submodule import showing through
    assert caught.value.__cause__ is None and caught.value.__context__ is None
    assert not hasattr(package, "_private") and not hasattr(package, "__wrapped__")


def test_unknown_name_is_a_plain_import_error():
    with pytest.raises(ImportError) as caught:
        from repro.chaos import flapp  # noqa: F401
    assert type(caught.value) is ImportError
    assert "'flapp'" in str(caught.value) and "'repro.chaos'" in str(caught.value)
    assert caught.value.__cause__ is None


def test_a_broken_submodule_import_is_not_mistaken_for_a_missing_attribute(
        tmp_path, monkeypatch):
    """Only "no such submodule" becomes AttributeError; a submodule that
    exists but fails to import a dependency says so."""
    (tmp_path / "needs_missing_dep.py").write_text("import not_installed_anywhere\n")
    monkeypatch.setattr(repro.metrics, "__path__",
                        [*repro.metrics.__path__, str(tmp_path)])
    with pytest.raises(ModuleNotFoundError, match="not_installed_anywhere"):
        repro.metrics.needs_missing_dep
