"""Unified telemetry: metrics registry, structured events, sim profiling.

Public surface::

    from repro.telemetry import Telemetry, NULL_TELEMETRY

    telemetry = Telemetry(profile=True)
    result = run_experiment(config, telemetry=telemetry)
    telemetry.export_jsonl("run.jsonl")

See :mod:`repro.telemetry.core` for the facade, :mod:`~.registry` /
:mod:`~.events` / :mod:`~.profiler` / :mod:`~.trace` for the building
blocks, and :mod:`~.render` for the ``repro telemetry`` text views.
"""

from repro import lazy_exports

_EXPORTS = {
    "Telemetry": "core",
    "NULL_TELEMETRY": "core",
    "git_revision": "core",
    "load_jsonl": "core",
    "EventLog": "events",
    "read_jsonl": "events",
    "SimProfiler": "profiler",
    "callback_name": "profiler",
    "MetricsRegistry": "registry",
    "NULL_INSTRUMENT": "registry",
    "format_key": "registry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
