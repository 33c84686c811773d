"""Declarative scenario suites with statistical regression gates.

``repro.suite`` is the correctness-tooling layer the reproduction's
experiments run through when they need to be *compared* rather than just
executed:

* :mod:`repro.suite.spec` — typed, JSON/TOML-loadable
  :class:`SuiteSpec`/:class:`ScenarioSpec` whose axis matrices expand to
  :class:`~repro.harness.config.ExperimentConfig` grids (with
  ``exclude``/``pin`` rules and ``chaos``/``topology`` sugar axes);
* :mod:`repro.suite.execute` — :func:`run_suite`, lowering a spec onto
  the cached parallel runner and collecting per-seed metric payloads into
  a serializable :class:`SuiteResult` artifact;
* :mod:`repro.suite.stats` — paired-by-seed comparisons: bootstrap
  confidence intervals, exact sign test, Mann-Whitney U, Cliff's delta;
* :mod:`repro.suite.baseline` — golden baselines (``record``) and the
  statistical regression gate (``check``/``diff``);
* :mod:`repro.suite.bundles` — the bundled suites (``paper-smoke``,
  ``paper-figures``, ``chaos``, ``control-plane``, ``health``,
  ``workloads``);
* :mod:`repro.suite.report` — markdown/JSON reports with paired
  scheme-vs-baseline significance tables;
* :mod:`repro.suite.figures` — the paper's figures and claims as rows
  over ``paper-figures`` (``repro figure``).

Entry point: the ``repro suite list|show|run|record|check|diff|report``
CLI, or programmatically::

    from repro.suite import bundled_suite, run_suite
    result = run_suite(bundled_suite("paper-smoke"),
                       runner=RunnerConfig(jobs=4, cache_dir=".cache"))
"""

from repro import lazy_exports

_EXPORTS = {
    "ScenarioSpec": "spec",
    "SuiteSpec": "spec",
    "TOPOLOGIES": "spec",
    "baselines_from_result": "baseline",
    "bootstrap_mean_ci": "stats",
    "build_config": "spec",
    "bundle_names": "bundles",
    "bundled_suite": "bundles",
    "check_result": "baseline",
    "cliffs_delta": "stats",
    "compare_by_seed": "stats",
    "compare_paired": "stats",
    "diff_results": "baseline",
    "iter_bundles": "bundles",
    "load_baselines": "baseline",
    "load_result": "execute",
    "load_suite": "spec",
    "mann_whitney_u": "stats",
    "render_markdown": "report",
    "report_dict": "report",
    "results_equal": "execute",
    "run_suite": "execute",
    "save_baselines": "baseline",
    "sign_test": "stats",
    "worsening": "stats",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
