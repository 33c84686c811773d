"""Command-line interface: ``python -m repro ...`` (``--help`` lists the
commands).

Every leaf command is one row of :data:`COMMANDS`: its words, its handler,
its help text and the argument groups it takes.  A handler returns its exit
status: 0 (or None) when the work ran and passed, 1 when it ran and failed
or found a regression.

Bad input from outside the program — an unreadable or malformed file, an
unwritable output, an unknown name, a malformed command line — raises
:class:`UsageError`, which :func:`main` turns into one stderr line and exit
status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple,
                    Optional, Tuple)

# The parser needs only the knob declarations and the scheme table; each
# handler imports what it runs, so ``repro --help`` or ``repro cache list``
# never loads the simulator (DESIGN.md, "Import layering").
from repro.harness.config import ExperimentConfig, incast_configs
from repro.harness.schemes import SCHEMES
from repro.knobs import Choices, knobs
from repro.workloads.incast import INCAST_AXES, IncastConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.plan import FaultPlan
    from repro.runner.pool import RunnerConfig
    from repro.suite.execute import SuiteResult
    from repro.suite.spec import SuiteSpec
    from repro.telemetry.core import Telemetry
    from repro.telemetry.trace import TraceView


class UsageError(Exception):
    """Bad input from outside the program: one stderr line, exit status 2."""


def _file(path: str, use: Callable[[str], Any], verb: str = "read",
          errors: Tuple[type, ...] = (OSError, ValueError)) -> Any:
    """``use(path)``; a file it cannot read, parse or write is a
    :class:`UsageError` (``cannot <verb> <path>: <why>``)."""
    try:
        return use(path)
    except errors as exc:
        raise UsageError(f"cannot {verb} {path!r}: {exc}") from exc


def _lookup(table: Callable[[str], Any], name: str) -> Any:
    """``table(name)``; an unknown name is a :class:`UsageError` carrying
    the KeyError's text (which lists the valid names)."""
    try:
        return table(name)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc


def _arg(*flags: str, **kwargs: Any) -> Callable[[argparse.ArgumentParser], Any]:
    """One argument as a group a row can list."""
    return lambda parser: parser.add_argument(*flags, **kwargs)


def _telemetry_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry-out", metavar="FILE", default=None,
                        help="write a telemetry artifact (JSONL) to FILE; "
                             "inspect it with `repro telemetry FILE`")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write the run's causal spans as Chrome "
                             "trace-event JSON to FILE (implies telemetry; "
                             "open in Perfetto or chrome://tracing)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the simulator loop (implies telemetry; "
                             "summary printed to stderr; per-worker profiles "
                             "are not merged when -j > 1)")


def _runner_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="parallel worker processes for the experiment "
                             "grid (default: 1 = serial)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache completed points as JSONL under DIR and "
                             "skip them on re-runs (resumable sweeps); "
                             "inspect with `repro cache list --cache-dir DIR`")


#: flag defaults that are not the field's own.  A `repro run|sweep` point
#: is a 70%-load run of 150 jobs per client, long enough to tell schemes
#: apart (suites and tests build shorter points on the field defaults);
#: `repro incast` runs the Fig 7 point of `paper-figures`.
CLI_DEFAULTS = {"load": 0.7, "jobs_per_client": 150,
                "n_requests": 8, "total_bytes": 2_000_000}
#: every knob by name (the two classes share no field name)
_KNOBS = {f.name: f for config in (ExperimentConfig, IncastConfig)
          for f in knobs(config)}


def _knob_flags(parser: argparse.ArgumentParser, names) -> None:
    """The flags of the knobs ``names`` that have one, each built from its
    declaration; a flag's help ends with its bound."""
    for name in names:
        knob = _KNOBS[name]
        meta, bound = knob.metadata, knob.metadata["bound"]
        if meta["flag"] is None:
            continue
        suffix = f" ({bound})" if bound is not None else ""
        kwargs = dict(dest=name, default=CLI_DEFAULTS.get(name, knob.default),
                      help=meta["help"] + suffix)
        if isinstance(knob.default, bool):
            kwargs["action"] = (argparse.BooleanOptionalAction
                                if meta["negatable"] else "store_true")
        elif isinstance(bound, Choices):
            kwargs.update(choices=bound.options, metavar=meta["metavar"])
        else:
            kwargs.update(type=type(knob.default), metavar=meta["metavar"]
                          or meta["flag"][2:].replace("-", "_").upper())
        parser.add_argument(meta["flag"], **kwargs)


def _knob_args(args) -> Dict[str, Any]:
    """The value of every knob whose flag the parsed command has."""
    return {name: getattr(args, name) for name, knob in _KNOBS.items()
            if knob.metadata["flag"] is not None and hasattr(args, name)}


def _run_flags(parser: argparse.ArgumentParser) -> None:
    """The ExperimentConfig flags of ``run`` and ``sweep`` (the scheme is
    ``run``'s positional and ``sweep``'s axis)."""
    _knob_flags(parser, [f.name for f in knobs(ExperimentConfig)
                         if f.name != "scheme"])
    chaos = parser.add_mutually_exclusive_group()
    chaos.add_argument("--chaos", metavar="FILE", default=None,
                       help="inject the FaultPlan serialized in FILE (JSON); "
                            "see `repro chaos presets` for starting points")
    chaos.add_argument("--chaos-preset", metavar="NAME", default=None,
                       help="inject a named built-in fault plan "
                            "(`repro chaos presets` lists them)")


def _suite_target(parser: argparse.ArgumentParser) -> None:
    """The suite a ``suite run|record|check`` executes, and how."""
    parser.add_argument("name", nargs="?", default=None,
                        help="bundled suite name (`repro suite list`)")
    parser.add_argument("--spec", metavar="FILE", default=None,
                        help="load the suite from a JSON/TOML spec file "
                             "instead of a bundled name")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also save the result artifact as JSON "
                             "(consumed by `suite diff`/`suite report`)")
    _runner_opts(parser)
    _telemetry_opts(parser)


_ARTIFACT = _arg("file", help="JSONL(.gz) file written by --telemetry-out")
_ARTIFACT_A = _arg("file_a", help="first telemetry artifact")
_ARTIFACT_B = _arg("file_b", help="second telemetry artifact")


def comma_separated_floats(text: str) -> List[float]:
    """argparse ``type=`` for ``--loads``; a bad item is a usage error."""
    return [float(item) for item in text.split(",")]


def comma_separated_ints(text: str) -> List[int]:
    """argparse ``type=`` for ``--fanouts``; a bad item is a usage error."""
    return [int(item) for item in text.split(",")]


def _make_runner(args, progress: bool = True) -> RunnerConfig:
    """Build the RunnerConfig a subcommand's flags describe."""
    from repro.runner.pool import RunnerConfig

    return RunnerConfig(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        progress=progress and (args.jobs > 1 or args.cache_dir is not None),
    )


def _make_telemetry(args) -> Optional[Telemetry]:
    """The telemetry scope the flags ask for (or None); an unwritable
    ``--telemetry-out``/``--trace-out`` fails before the run starts."""
    if args.telemetry_out is None and args.trace_out is None and not args.profile:
        return None
    from repro.telemetry.core import Telemetry
    from repro.telemetry.events import open_text

    for path in (args.telemetry_out, args.trace_out):
        if path is not None:
            _file(path, lambda p: open_text(p, "w").close(), "write")
    return Telemetry(profile=args.profile)


def _finish_telemetry(tel: Optional[Telemetry], args) -> None:
    """Export / print whatever the run's telemetry scope gathered."""
    if tel is None:
        return
    if args.telemetry_out is not None:
        tel.export_jsonl(args.telemetry_out)
        print(f"telemetry written to {args.telemetry_out}", file=sys.stderr)
    if args.trace_out is not None:
        from repro.telemetry.trace import export_chrome

        n = export_chrome(tel.trace.view(), args.trace_out)
        print(f"chrome trace ({n} events) written to {args.trace_out}",
              file=sys.stderr)
    if tel.profiler is not None:
        print(tel.profiler.format_summary(), file=sys.stderr)


def _chaos_plan(args) -> Optional[FaultPlan]:
    """The fault plan ``--chaos FILE`` or ``--chaos-preset NAME`` names."""
    if args.chaos is not None:
        from repro.chaos.plan import FaultPlan

        def load(path: str) -> FaultPlan:
            return FaultPlan.from_json(Path(path).read_text(encoding="utf-8"))

        # an event of the wrong shape can fail as KeyError or TypeError
        return _file(args.chaos, load, "load fault plan",
                     errors=(OSError, ValueError, KeyError, TypeError))
    if args.chaos_preset is not None:
        from repro.chaos.plan import preset

        return _lookup(preset, args.chaos_preset)
    return None


def cmd_run(args) -> int:
    """``repro run``: one experiment point, print its summary."""
    from repro.runner.job import JobSpec
    from repro.runner.pool import run_jobs

    try:
        config = ExperimentConfig(chaos=_chaos_plan(args), **_knob_args(args))
    except ValueError as exc:
        raise UsageError(f"invalid run: {exc}") from exc
    tel = _make_telemetry(args)
    (result,) = run_jobs(
        [JobSpec.experiment(config)],
        runner=_make_runner(args, progress=False),
        telemetry=tel,
    )
    _finish_telemetry(tel, args)
    if not result.ok:
        print(f"run failed: {result.error}", file=sys.stderr)
        return 1
    m = result.metrics
    if not m["count"]:
        print("no jobs completed", file=sys.stderr)
        return 1
    print(f"scheme       : {args.scheme}"
          f"{' (cached)' if result.cached else ''}")
    print(f"load         : {args.load:.0%}"
          f"{' (asymmetric)' if args.asymmetric else ''}")
    print(f"jobs         : {m['count']:.0f}"
          f" ({m['completion_rate']:.0%} completed)")
    print(f"avg FCT      : {m['avg_fct'] * 1000:.3f} ms")
    print(f"p50 / p95 / p99 : {m['p50_fct']*1000:.3f} / "
          f"{m['p95_fct']*1000:.3f} / {m['p99_fct']*1000:.3f} ms")
    print(f"sim duration : {m['sim_duration']:.3f} s"
          f" ({m['wall_events']:.0f} events)")
    if args.chaos is not None or args.chaos_preset is not None:
        _print_chaos_metrics(m)
        _print_controlplane_metrics(m)
    if args.health:
        _print_health_metrics(m)
    if result.audit is not None:
        from repro.audit.report import AuditReport

        # result is a JobResult: its audit block is the serialized report.
        report = AuditReport.from_dict(result.audit)
        print(report.summary())
        return 0 if report.ok else 1
    return 0


def _fmt_chaos(value: float, unit: str = "", scale: float = 1.0,
               digits: int = 3) -> str:
    """One chaos metric, NaN rendered as n/a (no baseline / never recovered)."""
    if math.isnan(value):
        return "n/a"
    return f"{value * scale:.{digits}f}{unit}"


def _print_chaos_metrics(m) -> None:
    """The fault-recovery lines of ``repro run`` under --chaos[-preset]."""
    print(f"fault window : {_fmt_chaos(m['chaos_fault_window_s'], ' ms', 1e3)}")
    print(f"time-to-recover : "
          f"{_fmt_chaos(m['chaos_time_to_recover'], ' ms', 1e3)}")
    print(f"fault FCT inflation : "
          f"{_fmt_chaos(m['chaos_fct_inflation'], 'x', digits=2)}")
    print(f"lost packets : {m['chaos_lost_packets']:.0f}"
          f" ({m['chaos_flushed_packets']:.0f} flushed)")


def _print_controlplane_metrics(m) -> None:
    """The control-plane lines of ``repro run``; silent when the run saw
    no control-plane faults and no defense counter fired."""
    if math.isnan(m["controlplane_echo_delivery_ratio"]) and math.isnan(
        m["controlplane_restarts"]
    ):
        return
    print(f"echo delivery : "
          f"{_fmt_chaos(m['controlplane_echo_delivery_ratio'], '%', 100, 1)}"
          f" ({m['controlplane_stale_rejected']:.0f} stale rejected, "
          f"{m['controlplane_corrupt_dropped']:.0f} corrupt dropped, "
          f"{m['controlplane_stale_applied']:.0f} stale applied)")
    print(f"probes dropped : {m['controlplane_probes_dropped']:.0f}")
    print(f"vswitch restarts : {m['controlplane_restarts']:.0f}"
          f" (mean re-convergence "
          f"{_fmt_chaos(m['controlplane_reconverge_s'], ' ms', 1e3)})")


def _print_health_metrics(m) -> None:
    """The self-healing lines of ``repro run`` under --health."""
    if math.isnan(m["health_paths_quarantined"]):
        print("health       : enabled, but the scheme has no path table "
              "(no monitor ran)")
        return
    print(f"health       : {m['health_paths_quarantined']:.0f} quarantined, "
          f"{m['health_paths_restored']:.0f} restored")
    print(f"detection    : "
          f"{_fmt_chaos(m['health_detection_latency_s'], ' ms', 1e3)}"
          f" (probation {_fmt_chaos(m['health_probation_s'], ' ms', 1e3)})")
    print(f"health probes: {m['health_probes_lost']:.0f} lost / "
          f"{m['health_probes_sent']:.0f} sent")


def cmd_sweep(args) -> None:
    """``repro sweep``: scheme x load grid as a text table."""
    from repro.harness.report import render_table
    from repro.suite.execute import run_suite
    from repro.suite.figures import line_series
    from repro.suite.spec import ScenarioSpec, SuiteSpec

    schemes = args.schemes.split(",")
    base = dict(_knob_args(args), chaos=_chaos_plan(args))
    del base["load"], base["seed"]
    spec = SuiteSpec(
        name="sweep",
        seeds=tuple(args.seed + i for i in range(args.n_seeds)),
        scenarios=[ScenarioSpec(
            "sweep", base=base, matrix={"scheme": schemes, "load": args.loads},
        )],
    )
    try:
        spec.expand()
    except ValueError as exc:
        raise UsageError(f"invalid sweep: {exc}") from exc
    tel = _make_telemetry(args)
    result = run_suite(spec, runner=_make_runner(args), telemetry=tel)
    _finish_telemetry(tel, args)
    lines = [(scheme, "sweep", (("scheme", scheme),)) for scheme in schemes]
    print(render_table(line_series(lines, "load", "avg_fct", spec.expand(), result)))


def cmd_figure(args) -> int:
    """``repro figure``: render figures and score the paper's claims."""
    from repro.suite import figures
    from repro.suite.spec import SuiteSpec

    names = list(figures.FIGURES) if args.name == "all" else [args.name]
    if names[0] not in figures.FIGURES:
        raise UsageError(f"unknown figure {args.name!r} (valid: "
                         f"{', '.join(figures.FIGURES)}, all)")
    try:
        if args.result is not None:
            result = _suite_result(args.result)
            spec = SuiteSpec.from_dict(result.spec)
        else:
            from repro.suite.bundles import paper_figures
            from repro.suite.execute import run_suite

            spec = paper_figures()
            needed = figures.suite_for(names, spec)
            result = None
            if needed.scenarios:
                result = run_suite(needed, runner=_make_runner(args))
        print(figures.report(names, spec, result))
    except (KeyError, ValueError) as exc:  # an artifact lacking its points
        raise UsageError(f"cannot render {args.name}: {exc}") from exc
    return 1 if result is not None and result.failed_runs else 0


def cmd_incast(args) -> int:
    """``repro incast``: the Figure 7 fan-in experiment."""
    from repro.harness.report import render_bar_chart
    from repro.runner.job import JobSpec
    from repro.runner.pool import run_jobs

    points = [dict(_knob_args(args), fanout=fanout) for fanout in args.fanouts]
    try:
        for point in points:
            incast_configs(**point)
    except ValueError as exc:
        raise UsageError(f"invalid incast: {exc}") from exc
    tel = _make_telemetry(args)
    specs = [JobSpec.incast(**point) for point in points]
    job_results = run_jobs(specs, runner=_make_runner(args), telemetry=tel)
    _finish_telemetry(tel, args)
    results = {}
    for fanout, job in zip(args.fanouts, job_results):
        if not job.ok:
            print(f"fanout {fanout} failed: {job.error}", file=sys.stderr)
            return 1
        results[f"fanout {fanout}"] = job.metrics["goodput_bps"] / 1e9
    print(render_bar_chart(results, unit=" Gbps"))
    return 0


def cmd_schemes(_args) -> None:
    """``repro schemes``: one line per scheme-table row."""
    width = max(map(len, SCHEMES))
    for row in SCHEMES.values():
        print(f"{row.name:<{width}}  {row.summary}")


def _artifact(path: str) -> Dict[str, Any]:
    """A ``--telemetry-out`` artifact, loaded."""
    from repro.telemetry.core import load_jsonl

    return _file(path, load_jsonl)


def cmd_telemetry(args) -> None:
    """``repro telemetry``: render a JSONL telemetry artifact."""
    from repro.telemetry.render import render_dump

    print(render_dump(_artifact(args.file), top=args.top, sample=args.sample))


def _trace_view(path: str) -> TraceView:
    """The spans of a ``--telemetry-out`` artifact; exits 1 on a readable
    artifact that simply holds none."""
    from repro.telemetry.trace import TraceView

    dump = _artifact(path)
    view = TraceView.from_records(dump["spans"], dump.get("spans_dropped", 0))
    if not view.scopes():
        print(f"{path}: no trace spans found (was the run recorded with "
              "--telemetry-out and tracing enabled?)", file=sys.stderr)
        raise SystemExit(1)
    return view


def _print_trace(render: str, path: str, *args: Any, **kwargs: Any) -> None:
    """Print ``repro.telemetry.trace.<render>(view, ...)`` over the spans
    of the artifact at ``path``."""
    from repro.telemetry import trace

    print(getattr(trace, render)(_trace_view(path), *args, **kwargs))


def trace_diff(args) -> None:
    """``repro trace diff``."""
    from repro.telemetry.trace import render_diff

    view_a, view_b = _trace_view(args.file_a), _trace_view(args.file_b)
    print(render_diff(view_a, view_b, label_a=args.file_a, label_b=args.file_b))


def trace_chrome(args) -> None:
    """``repro trace chrome``."""
    from repro.telemetry.trace import export_chrome

    n = export_chrome(_trace_view(args.file), args.out)
    print(f"chrome trace ({n} events) written to {args.out}")


def chaos_presets(_args) -> None:
    """``repro chaos presets``."""
    from repro.chaos.plan import iter_presets

    for name, description in iter_presets():
        print(f"{name:<14} {description}")


def chaos_show(args) -> None:
    """``repro chaos show``."""
    from repro.chaos.plan import preset

    print(_lookup(preset, args.name).to_json(indent=2))


def chaos_report(args) -> int:
    """``repro chaos report``: the recovery, health and control-plane
    reports, recomputed from a telemetry artifact."""
    from repro.chaos.metrics import (
        controlplane_from_records,
        format_controlplane_report,
        format_health_report,
        format_report,
        health_from_records,
        recovery_from_records,
    )

    dump = _artifact(args.file)
    records = dump["events"] + dump["manifests"]
    report = recovery_from_records(records)
    control = controlplane_from_records(records, counters=dump["counters"])
    if report is None and control is None:
        print(f"{args.file}: no chaos events found (was the run injected "
              "with --chaos/--chaos-preset and --telemetry-out?)",
              file=sys.stderr)
        return 1
    blocks = [format_report(report)] if report is not None else []
    health = health_from_records(records, counters=dump["counters"])
    if health is not None:
        blocks.append(format_health_report(health))
    if control is not None:
        blocks.append(format_controlplane_report(control))
    print("\n\n".join(blocks))
    return 0


def audit_check(args) -> int:
    """``repro audit check``: the offline invariant report of an artifact."""
    from repro.audit.offline import audit_artifact
    from repro.audit.report import MODE_REPORT, MODE_STRICT, AuditError

    mode = MODE_STRICT if args.strict else MODE_REPORT
    try:
        report = _file(args.file, lambda path: audit_artifact(path, mode=mode))
    except AuditError as exc:
        print(f"audit violation (strict): {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0 if report.ok else 1


def audit_diff(args) -> int:
    """``repro audit diff``: compare two artifacts' determinism digests —
    the audited run's engine digest when the manifest carries one, else a
    digest over the recorded events."""
    from repro.audit.digest import diff_digests, digest_events, manifest_digest

    digests = [
        manifest_digest(dump["manifests"]) or digest_events(dump["events"])
        for dump in map(_artifact, (args.file_a, args.file_b))
    ]
    verdict = diff_digests(*digests)
    print(verdict)
    return 0 if verdict.startswith("identical") else 1


def _suite_result(path: str) -> SuiteResult:
    from repro.suite.execute import load_result

    return _file(path, load_result, "read suite result")


def _suite_text(result: SuiteResult, fmt: str) -> str:
    """A suite result rendered as markdown (``md``) or JSON."""
    from repro import suite

    if fmt == "json":
        return json.dumps(suite.report_dict(result), indent=2, sort_keys=True)
    return suite.render_markdown(result)


def _run_suite(args) -> Tuple[SuiteSpec, SuiteResult]:
    """Resolve the suite a ``run|record|check`` names (bundled or --spec),
    run it and save ``--out``."""
    # the package resolves each name on first use: a subcommand loads only
    # the suite modules it calls into
    from repro import suite

    if (args.name is None) == (args.spec is None):
        raise UsageError("name a bundled suite (see `repro suite list`) or "
                         "pass --spec FILE, not both")
    if args.spec is not None:
        spec = _file(args.spec, suite.load_suite, "load suite spec")
    else:
        spec = _lookup(suite.bundled_suite, args.name)
    tel = _make_telemetry(args)
    result = suite.run_suite(spec, runner=_make_runner(args), telemetry=tel)
    _finish_telemetry(tel, args)
    print(f"suite {spec.name}: {result.run_summary()}", file=sys.stderr)
    if args.out:
        result.save(args.out)
        print(f"suite result written to {args.out}", file=sys.stderr)
    return spec, result


def suite_list(_args) -> None:
    """``repro suite list``."""
    from repro import suite

    for name, spec in suite.iter_bundles():
        scenarios = spec.expand()
        points = len(scenarios) * len(spec.seeds)
        print(f"{name:<14} {len(scenarios):>3} scenario(s) x "
              f"{len(spec.seeds)} seed(s) = {points:>3} point(s)  "
              f"{spec.description}")


def suite_show(args) -> None:
    """``repro suite show``."""
    from repro import suite

    print(json.dumps(_lookup(suite.bundled_suite, args.name).to_dict(), indent=2))


def suite_run(args) -> int:
    """``repro suite run``: run a suite and print its report."""
    _, result = _run_suite(args)
    text = _suite_text(result, args.report)
    print(text)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.report_out}", file=sys.stderr)
    return 1 if result.failed_runs else 0


def suite_record(args) -> int:
    """``repro suite record``: run a suite and snapshot its baselines."""
    from repro import suite

    spec, result = _run_suite(args)
    try:
        baselines = suite.baselines_from_result(spec, result)
    except ValueError as exc:
        print(f"record failed: {exc}", file=sys.stderr)
        return 1
    path = args.baselines or f"suites/{spec.name}.baseline.json"
    suite.save_baselines(baselines, path)
    print(f"recorded baselines for {len(result.results)} scenario(s) "
          f"to {path}")
    return 0


def suite_check(args) -> int:
    """``repro suite check``: re-run a suite and gate it on its baselines."""
    from repro import suite

    spec, result = _run_suite(args)
    path = args.baselines or f"suites/{spec.name}.baseline.json"
    baselines = _file(path, suite.load_baselines, "load baselines")
    report = suite.check_result(
        spec, result, baselines,
        tolerance_pct=args.tolerance, alpha=args.alpha,
    )
    print(report.summary())
    return 0 if report.ok else 1


def suite_diff(args) -> int:
    """``repro suite diff``: gate a candidate artifact on a reference."""
    from repro import suite

    report = suite.diff_results(
        _suite_result(args.file_a), _suite_result(args.file_b),
        metrics=args.metrics.split(",") if args.metrics else None,
        tolerance_pct=args.tolerance, alpha=args.alpha,
    )
    print(report.summary())
    return 0 if report.ok else 1


def suite_report(args) -> None:
    """``repro suite report``."""
    print(_suite_text(_suite_result(args.file), args.format))


def cache_list(args) -> None:
    """``repro cache list``."""
    from repro.runner.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    entries = cache.entries()
    if not entries:
        print(f"(cache {cache.path} is empty)")
    for entry in entries:
        metrics = entry.get("metrics", {})
        if "avg_fct" in metrics:
            value = f"avg_fct={metrics['avg_fct'] * 1000:.3f}ms"
        elif "goodput_bps" in metrics:
            value = f"goodput={metrics['goodput_bps'] / 1e9:.3f}Gbps"
        else:
            value = ""
        print(f"{entry['fingerprint'][:12]}  {entry.get('kind', '?'):<10} "
              f"{entry.get('label', ''):<40} {value}")
    print(f"{len(entries)} cached point(s)"
          + (f", {cache.stale_entries} stale" if cache.stale_entries else ""))


def cache_clear(args) -> None:
    """``repro cache clear``."""
    from repro.runner.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    print(f"removed {cache.clear()} cached result(s) from {cache.path}")


class Command(NamedTuple):
    """One leaf command, ``repro <words...>``: the handler it runs, its
    help line and the argument groups it takes."""

    words: Tuple[str, ...]
    handler: Callable[[argparse.Namespace], Optional[int]]
    help: str
    args: Tuple[Callable[[argparse.ArgumentParser], Any], ...] = ()


#: help lines of the words that only group leaf commands
GROUP_HELP = {
    "trace": "analyze causal flow/flowlet/path spans from a "
             "--telemetry-out artifact",
    "chaos": "fault-plan presets and reports",
    "audit": "offline invariant checks of artifacts and determinism "
             "digest diffs (audited runs: `repro run --audit MODE`)",
    "suite": "declarative scenario matrices with statistical regression "
             "gates (repro.suite)",
    "cache": "inspect or clear a result cache",
}

_CACHE_DIR = _arg("--cache-dir", metavar="DIR", required=True,
                  help="cache directory used by run/sweep/incast")

COMMANDS = (
    Command(("run",), cmd_run, "run one experiment point", (
        _arg("scheme", choices=SCHEMES),
        _run_flags, _runner_opts, _telemetry_opts)),
    Command(("sweep",), cmd_sweep, "scheme x load sweep", (
        _arg("--schemes", default="ecmp,edge-flowlet,clove-ecn"),
        _arg("--loads", type=comma_separated_floats, default="0.3,0.5,0.7"),
        _arg("--n-seeds", type=int, default=1),
        _run_flags, _runner_opts, _telemetry_opts)),
    Command(("figure",), cmd_figure,
            "render paper figures and score the paper's claims "
            "(the paper-figures suite)", (
        _arg("name", help="fig4b ... fig9, ablation-..., or all "
                          "(an unknown name lists them)"),
        _arg("--result", metavar="FILE", default=None,
             help="render from a saved `suite run --out` artifact "
                  "instead of running the suite"),
        _runner_opts)),
    Command(("incast",), cmd_incast, "Figure 7 incast experiment", (
        lambda parser: _knob_flags(parser, (*INCAST_AXES, "seed")),
        _arg("--fanouts", type=comma_separated_ints, default="1,2,4,8"),
        _runner_opts, _telemetry_opts)),
    Command(("schemes",), cmd_schemes, "list available schemes"),
    Command(("telemetry",), cmd_telemetry, "inspect a telemetry artifact", (
        _ARTIFACT,
        _arg("--top", type=int, default=40,
             help="max counters/gauges to list per section"),
        _arg("--sample", type=int, default=8,
             help="sample events to print per section"))),
    Command(("trace", "summary"),
            lambda args: _print_trace("render_summary", args.file),
            "per-run span/flow/reaction overview", (_ARTIFACT,)),
    Command(("trace", "flow"),
            lambda args: _print_trace("render_flow", args.file, args.flow_id),
            "print one flow's causal tree (flowlets, TCP events)", (
        _ARTIFACT,
        _arg("flow_id", help="flow span id: '<run-prefix>:<sid>' as printed "
                             "by `trace summary`, or a bare sid when the "
                             "artifact holds a single run"))),
    Command(("trace", "paths"),
            lambda args: _print_trace("render_paths", args.file),
            "path residency table (bytes/flowlets/seconds per path)",
            (_ARTIFACT,)),
    Command(("trace", "critical"),
            lambda args: _print_trace("render_critical", args.file, top=args.top),
            "slowest congestion reaction chains and outages", (
        _ARTIFACT,
        _arg("--top", type=int, default=10, help="how many chains to print"))),
    Command(("trace", "diff"), trace_diff,
            "compare path-residency shifts between two artifacts "
            "(e.g. clove-ecn vs ecmp under the same fault plan)",
            (_ARTIFACT_A, _ARTIFACT_B)),
    Command(("trace", "chrome"), trace_chrome,
            "export spans as Chrome trace-event JSON "
            "(open in Perfetto or chrome://tracing)", (
        _ARTIFACT, _arg("out", help="output .json (or .json.gz) path"))),
    Command(("chaos", "presets"), chaos_presets, "list built-in fault plans"),
    Command(("chaos", "show"), chaos_show,
            "print a preset's plan as JSON (editable starting point for "
            "--chaos)", (
        _arg("name", help="preset name (see `chaos presets`)"),)),
    Command(("chaos", "report"), chaos_report,
            "recompute recovery metrics offline from a --telemetry-out "
            "artifact", (_ARTIFACT,)),
    Command(("audit", "check"), audit_check,
            "replay a --telemetry-out artifact through the offline "
            "invariant checks", (
        _ARTIFACT,
        _arg("--strict", action="store_true",
             help="raise on the first violation instead of collecting a "
                  "report"))),
    Command(("audit", "diff"), audit_diff,
            "compare the determinism digests of two artifacts "
            "(proves serial-vs-parallel / run-vs-rerun identity)",
            (_ARTIFACT_A, _ARTIFACT_B)),
    Command(("suite", "list"), suite_list, "list bundled suites"),
    Command(("suite", "show"), suite_show,
            "print a bundled suite's spec as JSON (starting point for "
            "custom --spec files)", (
        _arg("name", help="bundled suite name"),)),
    Command(("suite", "run"), suite_run, "run a suite and print its report", (
        _suite_target,
        _arg("--report", choices=("md", "json"), default="md",
             help="report format printed to stdout"),
        _arg("--report-out", metavar="FILE", default=None,
             help="also write the report to FILE (CI artifact)"))),
    Command(("suite", "record"), suite_record,
            "run a suite and snapshot per-scenario golden baselines", (
        _suite_target,
        _arg("--baselines", metavar="FILE", default=None,
             help="baseline file to write "
                  "(default: suites/<name>.baseline.json)"))),
    Command(("suite", "check"), suite_check,
            "re-run a suite and exit nonzero on statistically significant "
            "regressions vs recorded baselines", (
        _suite_target,
        _arg("--baselines", metavar="FILE", default=None,
             help="baseline file to check against "
                  "(default: suites/<name>.baseline.json)"),
        _arg("--tolerance", type=float, default=None, metavar="PCT",
             help="override the suite's tolerance band "
                  "(percent mean worsening)"),
        _arg("--alpha", type=float, default=None,
             help="override the suite's significance level"))),
    Command(("suite", "diff"), suite_diff,
            "compare two saved suite-result artifacts offline "
            "(first = reference); exit 1 on regressions", (
        _arg("file_a", help="reference result artifact"),
        _arg("file_b", help="candidate result artifact"),
        _arg("--metrics", metavar="K1,K2", default=None,
             help="gate on these metric keys (default: the candidate "
                  "artifact's recorded protocol)"),
        _arg("--tolerance", type=float, default=10.0, metavar="PCT",
             help="tolerance band (percent mean worsening)"),
        _arg("--alpha", type=float, default=0.05,
             help="significance level for the paired tests"))),
    Command(("suite", "report"), suite_report,
            "render a saved suite-result artifact", (
        _arg("file", help="result artifact from `suite run --out`"),
        _arg("--format", choices=("md", "json"), default="md"))),
    Command(("cache", "list"), cache_list, "list cached experiment points",
            (_CACHE_DIR,)),
    Command(("cache", "clear"), cache_clear, "clear cached experiment points",
            (_CACHE_DIR,)),
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors take the one usage-error path."""

    def error(self, message):
        """``<prog>: error: <message>`` as a :class:`UsageError`."""
        raise UsageError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of :data:`COMMANDS`."""
    parser = _Parser(
        prog="repro",
        description="Clove (CoNEXT'17) reproduction toolkit",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for row in COMMANDS:
        group, leaf = row.words[:-1], row.words[-1]
        if group not in subparsers:
            (name,) = group
            parent = subparsers[()].add_parser(name, help=GROUP_HELP[name])
            subparsers[group] = parent.add_subparsers(
                dest=f"{name}_command", required=True)
        command = subparsers[group].add_parser(leaf, help=row.help)
        for add in row.args:
            add(command)
        command.set_defaults(handler=row.handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = _warn_on_one_line
            return args.handler(args) or 0
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


def _warn_on_one_line(message, category, filename, lineno, file=None,
                      line=None) -> None:
    """A warning (e.g. a partial artifact) as one stderr line: no source
    location and no echoed source line."""
    print(f"{category.__name__}: {message}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
