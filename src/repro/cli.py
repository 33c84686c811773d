"""Command-line interface: ``python -m repro ...``.

Subcommands:

* ``run``       — one experiment point, prints the FCT summary;
* ``sweep``     — scheme x load grid (an ad-hoc suite), prints the
  figure-style table;
* ``figure``    — render one or all of the paper's figures, and the
  verdict on each of the paper's claims, from the ``paper-figures`` suite
  (run on demand, or a saved ``suite run --out`` artifact);
* ``incast``    — the Figure 7 fan-in experiment;
* ``schemes``   — list the available load-balancing schemes;
* ``telemetry`` — inspect a ``--telemetry-out`` JSONL artifact;
* ``trace``     — analyze the causal flow/flowlet/path spans inside a
  telemetry artifact (summary, per-flow trees, path residency, slowest
  reaction chains, A/B diffs, Chrome/Perfetto export);
* ``cache``     — list or clear a ``--cache-dir`` result cache;
* ``chaos``     — list/show fault-plan presets, or recompute recovery
  metrics offline from a telemetry artifact;
* ``audit``     — runtime invariant checking (:mod:`repro.audit`):
  ``audit run`` executes one audited point and prints the invariant
  report, ``audit check`` replays a telemetry artifact through the
  offline checks, ``audit diff`` compares the determinism digests of
  two artifacts;
* ``suite``     — declarative scenario matrices with statistical
  regression gates (:mod:`repro.suite`): ``suite run`` executes a bundled
  or file-loaded suite through the cached parallel runner, ``suite
  record``/``suite check`` maintain golden baselines and gate on
  statistically significant regressions, ``suite diff`` compares two
  result artifacts offline, ``suite report`` renders markdown/JSON.

``run`` and ``sweep`` accept ``--chaos FILE`` (a serialized
:class:`~repro.chaos.plan.FaultPlan`) or ``--chaos-preset NAME`` to inject
faults mid-run; ``run`` then also reports time-to-recover and fault-window
FCT inflation (:mod:`repro.chaos.metrics`).  They also accept
``--audit strict|report`` to run under the invariant auditor.

``run``, ``sweep``, ``figure``, ``incast`` and ``suite`` take ``-j/--jobs``
(parallel worker processes) and ``--cache-dir`` (resumable result cache)
— the :mod:`repro.runner` execution layer.

A usage error is one line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from typing import TYPE_CHECKING, Any, Dict, List, Optional

# The parser needs only these two leaf modules (scheme names, audit modes);
# each ``cmd_*`` imports what it runs, so ``repro --help`` or ``repro cache
# list`` never loads the simulator (DESIGN.md, "Import layering").
from repro.audit.report import (
    MODE_REPORT,
    MODE_STRICT,
    MODES,
    AuditError,
    AuditReport,
)
from repro.harness.schemes import SCHEMES

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.plan import FaultPlan
    from repro.harness.experiment import ExperimentConfig
    from repro.runner.pool import RunnerConfig
    from repro.telemetry.core import Telemetry
    from repro.telemetry.trace import TraceView


def _add_telemetry_opts(parser: argparse.ArgumentParser) -> None:
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


def _add_runner_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="parallel worker processes for the experiment "
                             "grid (default: 1 = serial)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache completed points as JSONL under DIR and "
                             "skip them on re-runs (resumable sweeps); "
                             "inspect with `repro cache list --cache-dir DIR`")


def _make_runner(args, progress: bool = True) -> RunnerConfig:
    """Build the RunnerConfig a subcommand's flags describe."""
    from repro.runner.pool import RunnerConfig

    return RunnerConfig(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        progress=progress and (args.jobs > 1 or args.cache_dir is not None),
    )


def _make_telemetry(args) -> Optional[Telemetry]:
    """Build the telemetry scope a subcommand asked for (or None).

    Fails fast (exit 2) when ``--telemetry-out`` / ``--trace-out`` is
    unwritable, instead of discovering that after minutes of simulation.
    """
    trace_out = getattr(args, "trace_out", None)
    if args.telemetry_out is None and trace_out is None and not args.profile:
        return None
    from repro.telemetry.core import Telemetry
    from repro.telemetry.events import open_text

    for path in (args.telemetry_out, trace_out):
        if path is None:
            continue
        try:
            with open_text(path, "w"):
                pass
        except OSError as exc:
            print(f"cannot write {path!r}: {exc}", file=sys.stderr)
            raise SystemExit(2)
    return Telemetry(profile=args.profile)


def _finish_telemetry(tel: Optional[Telemetry], args) -> None:
    """Export / print whatever the run's telemetry scope gathered."""
    if tel is None:
        return
    if args.telemetry_out is not None:
        tel.export_jsonl(args.telemetry_out)
        print(f"telemetry written to {args.telemetry_out}", file=sys.stderr)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None:
        from repro.telemetry.trace import export_chrome

        n = export_chrome(tel.trace.view(), trace_out)
        print(f"chrome trace ({n} events) written to {trace_out}",
              file=sys.stderr)
    if tel.profiler is not None:
        print(tel.profiler.format_summary(), file=sys.stderr)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--load", type=float, default=0.7,
                        help="offered load as a fraction of bisection bandwidth")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs-per-client", type=int, default=150,
                        help="jobs per client (run horizon)")
    parser.add_argument("--asymmetric", action="store_true",
                        help="fail one S2-L2 cable (the paper's scenario)")
    parser.add_argument("--flow-scale", type=float, default=0.1,
                        help="flow-size scale vs the paper's web-search CDF")
    chaos = parser.add_mutually_exclusive_group()
    chaos.add_argument("--chaos", metavar="FILE", default=None,
                       help="inject the FaultPlan serialized in FILE (JSON); "
                            "see `repro chaos presets` for starting points")
    chaos.add_argument("--chaos-preset", metavar="NAME", default=None,
                       help="inject a named built-in fault plan "
                            "(`repro chaos presets` lists them)")
    parser.add_argument("--health", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="run the per-hypervisor path health monitor "
                             "(liveness probing, quarantine, re-discovery)")
    parser.add_argument("--failover-delay", type=float, default=0.0,
                        metavar="SECONDS",
                        help="how long switches keep a dead link in their "
                             "ECMP groups (0 = idealized instant failover)")
    parser.add_argument("--audit", choices=MODES, default=None,
                        metavar="MODE",
                        help="run under the invariant auditor: 'strict' "
                             "raises on the first violation, 'report' "
                             "collects them (see `repro audit`)")


def _chaos_plan(args) -> Optional[FaultPlan]:
    """The fault plan the chaos flags describe (or None).

    Exits 2 on an unreadable/invalid plan file or unknown preset name —
    before any simulation time is spent.
    """
    if getattr(args, "chaos", None) is not None:
        from repro.chaos.plan import FaultPlan

        try:
            with open(args.chaos, "r", encoding="utf-8") as fh:
                return FaultPlan.from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"cannot load fault plan {args.chaos!r}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2)
    if getattr(args, "chaos_preset", None) is not None:
        from repro.chaos.plan import preset

        try:
            return preset(args.chaos_preset)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            raise SystemExit(2)
    return None


def _config_fields(args) -> Dict[str, Any]:
    """The ExperimentConfig fields the common flags set (all but scheme)."""
    return dict(
        load=args.load,
        seed=args.seed,
        jobs_per_client=args.jobs_per_client,
        asymmetric=args.asymmetric,
        flow_scale=args.flow_scale,
        chaos=_chaos_plan(args),
        health=args.health,
        failover_delay_s=args.failover_delay,
        audit=getattr(args, "audit", None),
    )


def _config(args) -> ExperimentConfig:
    from repro.harness.experiment import ExperimentConfig

    return ExperimentConfig(scheme=args.scheme, **_config_fields(args))


def cmd_run(args) -> int:
    """Handle ``repro run``: one experiment point, print its summary."""
    from repro.runner.job import JobSpec
    from repro.runner.pool import run_jobs

    tel = _make_telemetry(args)
    (result,) = run_jobs(
        [JobSpec.experiment(_config(args))],
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
        # result is a JobResult: its audit block is the serialized report.
        report = AuditReport.from_dict(result.audit)
        if report.ok:
            print(f"audit        : ok (digest {report.digest})")
        else:
            first = report.findings[0]
            print(f"audit        : {report.violations} violation(s); "
                  f"first [{first.invariant}] {first.message}")
            return 1
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


def cmd_sweep(args) -> int:
    """Handle ``repro sweep``: scheme x load grid as a text table."""
    from repro.harness.report import render_table
    from repro.suite.execute import run_suite
    from repro.suite.figures import line_series
    from repro.suite.spec import ScenarioSpec, SuiteSpec

    schemes = args.schemes.split(",")
    for scheme in schemes:
        if scheme not in SCHEMES:
            print(f"unknown scheme {scheme!r}; see `schemes`", file=sys.stderr)
            return 2
    base = _config_fields(args)
    del base["load"], base["seed"]
    spec = SuiteSpec(
        name="sweep",
        seeds=tuple(args.seed + i for i in range(args.n_seeds)),
        scenarios=[ScenarioSpec(
            "sweep", base=base, matrix={"scheme": schemes, "load": args.loads},
        )],
    )
    tel = _make_telemetry(args)
    result = run_suite(spec, runner=_make_runner(args), telemetry=tel)
    _finish_telemetry(tel, args)
    lines = [(scheme, "sweep", (("scheme", scheme),)) for scheme in schemes]
    print(render_table(line_series(lines, "load", "avg_fct", spec.expand(), result)))
    return 0


def cmd_figure(args) -> int:
    """Handle ``repro figure``: render figures and score the paper's claims."""
    from repro.suite import figures
    from repro.suite.spec import SuiteSpec

    names = list(figures.FIGURES) if args.name == "all" else [args.name]
    if names[0] not in figures.FIGURES:
        print(f"unknown figure {args.name!r} (valid: "
              f"{', '.join(figures.FIGURES)}, all)", file=sys.stderr)
        return 2
    try:
        if args.result is not None:
            result = _load_suite_result(args.result)
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
        print(f"cannot render {args.name}: {exc}", file=sys.stderr)
        return 2
    return 1 if result is not None and result.failed_runs else 0


def cmd_incast(args) -> int:
    """Handle ``repro incast``: the Figure 7 fan-in experiment."""
    from repro.harness.report import render_bar_chart
    from repro.runner.job import JobSpec
    from repro.runner.pool import run_jobs

    tel = _make_telemetry(args)
    specs = [
        JobSpec.incast(
            scheme=args.scheme, fanout=fanout, seed=args.seed,
            n_requests=args.requests, total_bytes=args.bytes,
        )
        for fanout in args.fanouts
    ]
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


def cmd_schemes(_args) -> int:
    """Handle ``repro schemes``: list available scheme names."""
    for scheme in SCHEMES:
        print(scheme)
    return 0


def cmd_telemetry(args) -> int:
    """Handle ``repro telemetry``: render a JSONL telemetry artifact."""
    from repro.telemetry.core import load_jsonl
    from repro.telemetry.render import render_dump

    try:
        dump = load_jsonl(args.file)
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON
        print(f"cannot read {args.file!r}: {exc}", file=sys.stderr)
        return 2
    print(render_dump(dump, top=args.top, sample=args.sample))
    return 0


def _load_trace_view(path: str) -> TraceView:
    """TraceView from a ``--telemetry-out`` artifact.

    Exits 2 on an unreadable/malformed artifact (usage error), 1 on a
    readable artifact that simply holds no spans.
    """
    from repro.telemetry.core import load_jsonl
    from repro.telemetry.trace import TraceView

    try:
        dump = load_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    view = TraceView.from_records(dump["spans"], dump.get("spans_dropped", 0))
    if not view.scopes():
        print(f"{path}: no trace spans found (was the run recorded with "
              "--telemetry-out and tracing enabled?)", file=sys.stderr)
        raise SystemExit(1)
    return view


def cmd_trace(args) -> int:
    """Handle ``repro trace``: offline analysis of causal span artifacts."""
    from repro.telemetry.trace import (
        export_chrome,
        render_critical,
        render_diff,
        render_flow,
        render_paths,
        render_summary,
    )

    if args.trace_command == "diff":
        view_a = _load_trace_view(args.file_a)
        view_b = _load_trace_view(args.file_b)
        print(render_diff(view_a, view_b,
                          label_a=args.file_a, label_b=args.file_b))
        return 0
    view = _load_trace_view(args.file)
    if args.trace_command == "summary":
        print(render_summary(view))
    elif args.trace_command == "flow":
        print(render_flow(view, args.flow_id))
    elif args.trace_command == "paths":
        print(render_paths(view))
    elif args.trace_command == "critical":
        print(render_critical(view, top=args.top))
    else:  # chrome
        n = export_chrome(view, args.out)
        print(f"chrome trace ({n} events) written to {args.out}")
    return 0


def cmd_chaos(args) -> int:
    """Handle ``repro chaos``: presets, plan dumps, offline reports."""
    from repro.chaos.plan import iter_presets, preset

    if args.chaos_command == "presets":
        for name, description in iter_presets():
            print(f"{name:<14} {description}")
        return 0
    if args.chaos_command == "show":
        try:
            plan = preset(args.name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print(plan.to_json(indent=2))
        return 0
    # report: recompute recovery metrics from a telemetry JSONL artifact.
    from repro.chaos.metrics import (
        controlplane_from_records,
        format_controlplane_report,
        format_health_report,
        format_report,
        health_from_records,
        recovery_from_records,
    )
    from repro.telemetry.core import load_jsonl

    try:
        dump = load_jsonl(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.file!r}: {exc}", file=sys.stderr)
        return 2
    records = dump["events"] + dump["manifests"]
    report = recovery_from_records(records)
    control = controlplane_from_records(records, counters=dump.get("counters"))
    if report is None and control is None:
        print(f"{args.file}: no chaos events found (was the run injected "
              "with --chaos/--chaos-preset and --telemetry-out?)",
              file=sys.stderr)
        return 1
    if report is not None:
        print(format_report(report))
    health = health_from_records(records, counters=dump.get("counters"))
    if health is not None:
        if report is not None:
            print()
        print(format_health_report(health))
    if control is not None:
        if report is not None or health is not None:
            print()
        print(format_controlplane_report(control))
    return 0


def cmd_audit(args) -> int:
    """Handle ``repro audit``: audited runs, offline checks, digest diffs."""
    if args.audit_command == "run":
        return _audit_run(args)
    if args.audit_command == "check":
        from repro.audit.offline import audit_artifact

        mode = MODE_STRICT if args.strict else MODE_REPORT
        try:
            report = audit_artifact(args.file, mode=mode)
        except AuditError as exc:
            print(f"audit violation (strict): {exc}", file=sys.stderr)
            return 1
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.file!r}: {exc}", file=sys.stderr)
            return 2
        print(report.summary())
        return 0 if report.ok else 1
    # diff: compare the determinism digests of two artifacts.
    from repro.audit.digest import diff_digests
    from repro.telemetry.core import load_jsonl

    digests = []
    for path in (args.file_a, args.file_b):
        try:
            dump = load_jsonl(path)
        except (OSError, ValueError) as exc:
            print(f"cannot read {path!r}: {exc}", file=sys.stderr)
            return 2
        digests.append(_artifact_digest(dump))
    verdict = diff_digests(digests[0], digests[1])
    print(verdict)
    return 0 if verdict.startswith("identical") else 1


def _artifact_digest(dump) -> str:
    """An artifact's determinism digest: the audited-run digest stamped in
    its manifest when present, else a digest over the recorded events."""
    from repro.audit.digest import digest_events

    digest = None
    for manifest in dump.get("manifests", ()):
        audit_info = manifest.get("audit")
        if isinstance(audit_info, dict) and audit_info.get("digest"):
            digest = audit_info["digest"]
    return digest if digest is not None else digest_events(dump.get("events", ()))


def _audit_run(args) -> int:
    """``repro audit run``: one audited point, full invariant report."""
    from repro.harness.experiment import run_experiment

    tel = _make_telemetry(args)
    try:
        result = run_experiment(_config(args), telemetry=tel)
    except AuditError as exc:
        _finish_telemetry(tel, args)
        print(f"audit violation (strict): {exc}", file=sys.stderr)
        return 1
    _finish_telemetry(tel, args)
    report = result.audit
    if report is None:  # cannot happen: the subparser defaults audit mode
        print("run was not audited", file=sys.stderr)
        return 1
    print(report.summary())
    return 0 if report.ok else 1


def _suite_spec(args):
    """Resolve the suite a subcommand names (bundled or --spec FILE).

    Exits 2 — before any simulation time is spent — on a missing name, an
    unreadable/invalid spec file or an unknown bundled suite.
    """
    from repro import suite

    name = getattr(args, "name", None)
    spec_file = getattr(args, "spec", None)
    if (name is None) == (spec_file is None):
        print("name a bundled suite (see `repro suite list`) or pass "
              "--spec FILE, not both", file=sys.stderr)
        raise SystemExit(2)
    if spec_file is not None:
        try:
            return suite.load_suite(spec_file)
        except (OSError, ValueError) as exc:
            print(f"cannot load suite spec {spec_file!r}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2)
    try:
        return suite.bundled_suite(name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        raise SystemExit(2)


def _suite_baseline_path(args, spec) -> str:
    """The baseline file a suite record/check uses (default: suites/)."""
    if getattr(args, "baselines", None):
        return args.baselines
    return f"suites/{spec.name}.baseline.json"


def _load_suite_result(path: str):
    from repro.suite.execute import load_result

    try:
        return load_result(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read suite result {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_suite(args) -> int:
    """Handle ``repro suite``: scenario matrices and regression gates."""
    # the package resolves each name on first use: a subcommand loads only
    # the suite modules it calls into
    from repro import suite
    import json as _json

    if args.suite_command == "list":
        for name, spec in suite.iter_bundles():
            scenarios = spec.expand()
            points = len(scenarios) * len(spec.seeds)
            print(f"{name:<14} {len(scenarios):>3} scenario(s) x "
                  f"{len(spec.seeds)} seed(s) = {points:>3} point(s)  "
                  f"{spec.description}")
        return 0
    if args.suite_command == "show":
        try:
            spec = suite.bundled_suite(args.name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print(_json.dumps(spec.to_dict(), indent=2))
        return 0
    if args.suite_command == "report":
        result = _load_suite_result(args.file)
        if args.format == "json":
            print(_json.dumps(suite.report_dict(result), indent=2, sort_keys=True))
        else:
            print(suite.render_markdown(result))
        return 0
    if args.suite_command == "diff":
        result_a = _load_suite_result(args.file_a)
        result_b = _load_suite_result(args.file_b)
        metrics = args.metrics.split(",") if args.metrics else None
        report = suite.diff_results(
            result_a, result_b, metrics=metrics,
            tolerance_pct=args.tolerance, alpha=args.alpha,
        )
        print(report.summary())
        return 0 if report.ok else 1

    # run / record / check all execute the suite first.
    spec = _suite_spec(args)
    tel = _make_telemetry(args)
    result = suite.run_suite(spec, runner=_make_runner(args), telemetry=tel)
    _finish_telemetry(tel, args)
    if getattr(args, "out", None):
        result.save(args.out)
        print(f"suite result written to {args.out}", file=sys.stderr)

    if args.suite_command == "run":
        if args.report == "json":
            text = _json.dumps(suite.report_dict(result), indent=2, sort_keys=True)
        else:
            text = suite.render_markdown(result)
        print(text)
        if getattr(args, "report_out", None):
            with open(args.report_out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"report written to {args.report_out}", file=sys.stderr)
        return 1 if result.failed_runs else 0

    if args.suite_command == "record":
        try:
            baselines = suite.baselines_from_result(spec, result)
        except ValueError as exc:
            print(f"record failed: {exc}", file=sys.stderr)
            return 1
        path = _suite_baseline_path(args, spec)
        suite.save_baselines(baselines, path)
        print(f"recorded baselines for {len(result.results)} scenario(s) "
              f"to {path}")
        return 0

    # check: gate against the recorded baselines.
    path = _suite_baseline_path(args, spec)
    try:
        baselines = suite.load_baselines(path)
    except (OSError, ValueError) as exc:
        print(f"cannot load baselines {path!r}: {exc}", file=sys.stderr)
        return 2
    report = suite.check_result(
        spec, result, baselines,
        tolerance_pct=args.tolerance, alpha=args.alpha,
    )
    print(report.summary())
    return 0 if report.ok else 1


def cmd_cache(args) -> int:
    """Handle ``repro cache``: list or clear a result-cache directory."""
    from repro.runner.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.path}")
        return 0
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
    return 0


def comma_separated_floats(text: str) -> List[float]:
    """argparse ``type=`` for ``--loads``; a bad item is a usage error."""
    return [float(item) for item in text.split(",")]


def comma_separated_ints(text: str) -> List[int]:
    """argparse ``type=`` for ``--fanouts``; a bad item is a usage error."""
    return [int(item) for item in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line."""

    def error(self, message):
        """Exit 2 with ``<prog>: error: <message>`` (no usage dump)."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for the `repro` CLI."""
    parser = _Parser(
        prog="repro",
        description="Clove (CoNEXT'17) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment point")
    p_run.add_argument("scheme", choices=SCHEMES)
    _add_common(p_run)
    _add_runner_opts(p_run)
    _add_telemetry_opts(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="scheme x load sweep")
    p_sweep.add_argument("--schemes", default="ecmp,edge-flowlet,clove-ecn")
    p_sweep.add_argument("--loads", type=comma_separated_floats,
                         default="0.3,0.5,0.7")
    p_sweep.add_argument("--n-seeds", type=int, default=1)
    _add_common(p_sweep)
    _add_runner_opts(p_sweep)
    _add_telemetry_opts(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep, scheme="ecmp")

    p_fig = sub.add_parser(
        "figure", help="render paper figures and score the paper's claims "
                       "(the paper-figures suite)")
    p_fig.add_argument("name", help="fig4b ... fig9, ablation-..., or all "
                                    "(an unknown name lists them)")
    p_fig.add_argument("--result", metavar="FILE", default=None,
                       help="render from a saved `suite run --out` artifact "
                            "instead of running the suite")
    _add_runner_opts(p_fig)
    p_fig.set_defaults(fn=cmd_figure)

    p_incast = sub.add_parser("incast", help="Figure 7 incast experiment")
    p_incast.add_argument("--scheme", default="clove-ecn", choices=SCHEMES)
    p_incast.add_argument("--fanouts", type=comma_separated_ints,
                          default="1,2,4,8")
    p_incast.add_argument("--requests", type=int, default=8)
    p_incast.add_argument("--bytes", type=int, default=2_000_000)
    p_incast.add_argument("--seed", type=int, default=1)
    _add_runner_opts(p_incast)
    _add_telemetry_opts(p_incast)
    p_incast.set_defaults(fn=cmd_incast)

    p_schemes = sub.add_parser("schemes", help="list available schemes")
    p_schemes.set_defaults(fn=cmd_schemes)

    p_tel = sub.add_parser("telemetry", help="inspect a telemetry artifact")
    p_tel.add_argument("file", help="JSONL file written by --telemetry-out")
    p_tel.add_argument("--top", type=int, default=40,
                       help="max counters/gauges to list per section")
    p_tel.add_argument("--sample", type=int, default=8,
                       help="sample events to print per section")
    p_tel.set_defaults(fn=cmd_telemetry)

    p_trace = sub.add_parser(
        "trace", help="analyze causal flow/flowlet/path spans from a "
                      "--telemetry-out artifact")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser("summary",
                                  help="per-run span/flow/reaction overview")
    p_tsum.add_argument("file", help="JSONL file written by --telemetry-out")
    p_tsum.set_defaults(fn=cmd_trace)
    p_tflow = trace_sub.add_parser(
        "flow", help="print one flow's causal tree (flowlets, TCP events)")
    p_tflow.add_argument("file", help="JSONL file written by --telemetry-out")
    p_tflow.add_argument("flow_id",
                         help="flow span id: '<run-prefix>:<sid>' as printed "
                              "by `trace summary`, or a bare sid when the "
                              "artifact holds a single run")
    p_tflow.set_defaults(fn=cmd_trace)
    p_tpaths = trace_sub.add_parser(
        "paths", help="path residency table (bytes/flowlets/seconds per path)")
    p_tpaths.add_argument("file", help="JSONL file written by --telemetry-out")
    p_tpaths.set_defaults(fn=cmd_trace)
    p_tcrit = trace_sub.add_parser(
        "critical", help="slowest congestion reaction chains and outages")
    p_tcrit.add_argument("file", help="JSONL file written by --telemetry-out")
    p_tcrit.add_argument("--top", type=int, default=10,
                         help="how many chains to print")
    p_tcrit.set_defaults(fn=cmd_trace)
    p_tdiff = trace_sub.add_parser(
        "diff", help="compare path-residency shifts between two artifacts "
                     "(e.g. clove-ecn vs ecmp under the same fault plan)")
    p_tdiff.add_argument("file_a", help="first telemetry artifact")
    p_tdiff.add_argument("file_b", help="second telemetry artifact")
    p_tdiff.set_defaults(fn=cmd_trace)
    p_tchrome = trace_sub.add_parser(
        "chrome", help="export spans as Chrome trace-event JSON "
                       "(open in Perfetto or chrome://tracing)")
    p_tchrome.add_argument("file", help="JSONL file written by --telemetry-out")
    p_tchrome.add_argument("out", help="output .json (or .json.gz) path")
    p_tchrome.set_defaults(fn=cmd_trace)

    p_chaos = sub.add_parser("chaos", help="fault-plan presets and reports")
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)
    p_presets = chaos_sub.add_parser("presets",
                                     help="list built-in fault plans")
    p_presets.set_defaults(fn=cmd_chaos)
    p_show = chaos_sub.add_parser("show",
                                  help="print a preset's plan as JSON "
                                       "(editable starting point for --chaos)")
    p_show.add_argument("name", help="preset name (see `chaos presets`)")
    p_show.set_defaults(fn=cmd_chaos)
    p_report = chaos_sub.add_parser(
        "report", help="recompute recovery metrics offline from a "
                       "--telemetry-out artifact")
    p_report.add_argument("file", help="JSONL file written by --telemetry-out")
    p_report.set_defaults(fn=cmd_chaos)

    p_audit = sub.add_parser(
        "audit", help="runtime invariant checks: audited runs, offline "
                      "artifact replay, determinism digest diffs")
    audit_sub = p_audit.add_subparsers(dest="audit_command", required=True)
    p_arun = audit_sub.add_parser(
        "run", help="run one audited experiment point and print the "
                    "invariant report (exit 1 on violations)")
    p_arun.add_argument("scheme", choices=SCHEMES)
    _add_common(p_arun)
    _add_telemetry_opts(p_arun)
    p_arun.set_defaults(fn=cmd_audit, audit=MODE_REPORT)
    p_acheck = audit_sub.add_parser(
        "check", help="replay a --telemetry-out artifact through the "
                      "offline invariant checks")
    p_acheck.add_argument("file", help="JSONL(.gz) file written by "
                                       "--telemetry-out")
    p_acheck.add_argument("--strict", action="store_true",
                          help="raise on the first violation instead of "
                               "collecting a report")
    p_acheck.set_defaults(fn=cmd_audit)
    p_adiff = audit_sub.add_parser(
        "diff", help="compare the determinism digests of two artifacts "
                     "(proves serial-vs-parallel / run-vs-rerun identity)")
    p_adiff.add_argument("file_a", help="first telemetry artifact")
    p_adiff.add_argument("file_b", help="second telemetry artifact")
    p_adiff.set_defaults(fn=cmd_audit)

    p_suite = sub.add_parser(
        "suite", help="declarative scenario matrices with statistical "
                      "regression gates (repro.suite)")
    suite_sub = p_suite.add_subparsers(dest="suite_command", required=True)

    def _suite_target(p, with_runner=True):
        p.add_argument("name", nargs="?", default=None,
                       help="bundled suite name (`repro suite list`)")
        p.add_argument("--spec", metavar="FILE", default=None,
                       help="load the suite from a JSON/TOML spec file "
                            "instead of a bundled name")
        if with_runner:
            _add_runner_opts(p)
            _add_telemetry_opts(p)

    p_slist = suite_sub.add_parser("list", help="list bundled suites")
    p_slist.set_defaults(fn=cmd_suite)
    p_sshow = suite_sub.add_parser(
        "show", help="print a bundled suite's spec as JSON (starting point "
                     "for custom --spec files)")
    p_sshow.add_argument("name", help="bundled suite name")
    p_sshow.set_defaults(fn=cmd_suite)
    p_srun = suite_sub.add_parser(
        "run", help="run a suite and print its report")
    _suite_target(p_srun)
    p_srun.add_argument("--out", metavar="FILE", default=None,
                        help="also save the result artifact as JSON "
                             "(consumed by `suite diff`/`suite report`)")
    p_srun.add_argument("--report", choices=("md", "json"), default="md",
                        help="report format printed to stdout")
    p_srun.add_argument("--report-out", metavar="FILE", default=None,
                        help="also write the report to FILE (CI artifact)")
    p_srun.set_defaults(fn=cmd_suite)
    p_srec = suite_sub.add_parser(
        "record", help="run a suite and snapshot per-scenario golden "
                       "baselines")
    _suite_target(p_srec)
    p_srec.add_argument("--baselines", metavar="FILE", default=None,
                        help="baseline file to write "
                             "(default: suites/<name>.baseline.json)")
    p_srec.add_argument("--out", metavar="FILE", default=None,
                        help="also save the result artifact as JSON")
    p_srec.set_defaults(fn=cmd_suite)
    p_scheck = suite_sub.add_parser(
        "check", help="re-run a suite and exit nonzero on statistically "
                      "significant regressions vs recorded baselines")
    _suite_target(p_scheck)
    p_scheck.add_argument("--baselines", metavar="FILE", default=None,
                          help="baseline file to check against "
                               "(default: suites/<name>.baseline.json)")
    p_scheck.add_argument("--out", metavar="FILE", default=None,
                          help="also save the result artifact as JSON")
    p_scheck.add_argument("--tolerance", type=float, default=None,
                          metavar="PCT",
                          help="override the suite's tolerance band "
                               "(percent mean worsening)")
    p_scheck.add_argument("--alpha", type=float, default=None,
                          help="override the suite's significance level")
    p_scheck.set_defaults(fn=cmd_suite)
    p_sdiff = suite_sub.add_parser(
        "diff", help="compare two saved suite-result artifacts offline "
                     "(first = reference); exit 1 on regressions")
    p_sdiff.add_argument("file_a", help="reference result artifact")
    p_sdiff.add_argument("file_b", help="candidate result artifact")
    p_sdiff.add_argument("--metrics", metavar="K1,K2", default=None,
                         help="gate on these metric keys (default: the "
                              "candidate artifact's recorded protocol)")
    p_sdiff.add_argument("--tolerance", type=float, default=10.0,
                         metavar="PCT",
                         help="tolerance band (percent mean worsening)")
    p_sdiff.add_argument("--alpha", type=float, default=0.05,
                         help="significance level for the paired tests")
    p_sdiff.set_defaults(fn=cmd_suite)
    p_srep = suite_sub.add_parser(
        "report", help="render a saved suite-result artifact")
    p_srep.add_argument("file", help="result artifact from `suite run --out`")
    p_srep.add_argument("--format", choices=("md", "json"), default="md")
    p_srep.set_defaults(fn=cmd_suite)

    p_cache = sub.add_parser("cache", help="inspect or clear a result cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for cache_command in ("list", "clear"):
        p_sub = cache_sub.add_parser(
            cache_command,
            help=f"{cache_command} cached experiment points",
        )
        p_sub.add_argument("--cache-dir", metavar="DIR", required=True,
                           help="cache directory used by run/sweep/incast")
        p_sub.set_defaults(fn=cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warn_on_one_line
        return args.fn(args)


def _warn_on_one_line(message, category, filename, lineno, file=None,
                      line=None) -> None:
    """A warning (e.g. a partial artifact) as one stderr line: no source
    location and no echoed source line."""
    print(f"{category.__name__}: {message}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
