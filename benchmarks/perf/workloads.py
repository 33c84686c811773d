"""Child-side: run one workload once and report what happened.

Imported only inside a child process (it needs ``repro`` on the path).
Each ``run_*`` returns an :class:`Outcome`:

* ``metrics`` — every number this run can produce, by its final name;
* ``pins`` — the simulated outputs ``expected.json`` pins for this
  (workload, seed): a speed-up must leave them identical;
* ``attempted`` / ``failed`` — operations (flows, requests, jobs);
* ``wall_s`` — the timed region, for the tracing-overhead figure.

The timed region opens when the workload generator's ``start()`` is
entered (``marks["t_start"]``, set by the marker in :mod:`child`) and
closes when the simulation has drained.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.metrics.collector import percentile
from repro.telemetry import Telemetry

from .layers import LayerTracer
from .spec import BATCH_WORKERS


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: Dict[str, float]
    pins: Dict[str, Any]
    attempted: int
    failed: int
    wall_s: float


#: how often the warm (all cache hits) batch is repeated inside one run.
#: One rerun takes ~3 ms, so a scheduler hiccup doubles it: the fastest of
#: several is the cost of the cache path itself.
WARM_REPEATS = 15


def peak_rss_mb() -> float:
    """High-water resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail_percentile(sorted_values) -> Tuple[Optional[float], int, int]:
    """The highest of p99/p95/p90 with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``; value None when even
    p90 is not supported by the sample.
    """
    n = len(sorted_values)
    for q in (99, 95, 90):
        beyond = n - max(1, -(-q * n // 100))
        if beyond >= 10:
            return percentile(sorted_values, q), q, beyond
    return None, 0, 0


# ----------------------------------------------------------------------
# Counters read off public attributes after the run
# ----------------------------------------------------------------------
def fabric_counters(net, hosts: Iterable, packets: int) -> Dict[str, float]:
    """Per-layer counters of one finished simulation."""
    hosts = list(hosts)
    offered = dropped = marked = dequeued = 0
    queue_delay = 0.0
    peak = 0
    for link in net.all_links():
        stats = link.queue.stats
        drops = stats.dropped + stats.probe_dropped
        offered += stats.enqueued + drops
        dropped += drops
        marked += stats.ecn_marked
        dequeued += stats.dequeued
        queue_delay += stats.total_queue_delay
        peak = max(peak, stats.peak_packets)
    switches = net.switches.values()
    rx_encap = sum(h.vswitch.rx_encapsulated for h in hosts)
    probes = sum(h.prober.probes_sent for h in hosts if h.prober is not None)
    # TCP senders are reachable only through the telemetry scrape, the one
    # public reader of guest-transport totals.
    scrape = Telemetry(trace=False)
    scrape.observe_hosts(hosts)
    tcp = scrape.registry.snapshot()["counters"]
    sent = tcp["tcp.packets_sent"]
    retransmits = (tcp["tcp.fast_retransmits"] + tcp["tcp.timeouts"]
                   + tcp["tcp.tlp_probes"])
    return {
        "net.link.drop_share": dropped / offered if offered else 0.0,
        "net.link.ecn_mark_share": marked / offered if offered else 0.0,
        "net.queue.wait_us_mean": (
            queue_delay / dequeued * 1e6 if dequeued else 0.0),
        "net.queue.peak_packets": float(peak),
        "net.switch.blackholed": float(sum(s.blackholed for s in switches)),
        "net.switch.ttl_expired": float(sum(s.ttl_expired for s in switches)),
        "hypervisor.vswitch.echo_share": (
            sum(h.vswitch.echoes_sent for h in hosts) / rx_encap
            if rx_encap else 0.0),
        "hypervisor.vswitch.echoes_rejected": float(sum(
            h.vswitch.echoes_stale_rejected + h.vswitch.echoes_corrupt_dropped
            for h in hosts)),
        "core.discovery.probes_per_kpacket": probes / packets * 1e3,
        "core.health.probes_sent": float(sum(
            h.health.probes_sent for h in hosts if h.health is not None)),
        "transport.tcp.retransmit_share": retransmits / sent if sent else 0.0,
        "transport.tcp.timeouts": float(tcp["tcp.timeouts"]),
        "transport.tcp.ecn_reductions": float(tcp["tcp.ecn_reductions"]),
    }


def traced_metrics(tracer: LayerTracer, packets: int, flows: int) -> Dict[str, float]:
    """The per-layer numbers only a traced run of the sim stack gives."""
    layers = tracer.layer_self_ns()

    def per_packet(layer: str) -> float:
        return layers.get(layer, 0) / packets

    schedule_ns = (tracer.self_ns("Simulator.schedule")
                   + tracer.self_ns("Simulator.at"))
    schedule_calls = (tracer.calls("Simulator.schedule")
                      + tracer.calls("Simulator.at"))
    named = sum(ns for layer, ns in layers.items() if layer != "harness")
    return {
        "sim.dispatch_ns_per_packet": tracer.self_ns("Simulator.run") / packets,
        "sim.schedule_ns_per_packet": schedule_ns / packets,
        "sim.schedule_calls_per_packet": schedule_calls / packets,
        "sim.cancels_per_kpacket": tracer.calls("Event.cancel") / packets * 1e3,
        "net.link.self_ns_per_packet": per_packet("net.link"),
        "net.link.sends_per_packet": tracer.calls("Link.send") / packets,
        "net.switch.self_ns_per_packet": per_packet("net.switch"),
        "net.switch.receives_per_packet": tracer.calls("Switch.receive") / packets,
        "hypervisor.host.self_ns_per_packet": per_packet("hypervisor.host"),
        "hypervisor.vswitch.self_ns_per_packet": per_packet("hypervisor.vswitch"),
        "core.policy.self_ns_per_packet": per_packet("core.policy"),
        # a subclass calling super() is one decision, not two
        "core.policy.decisions_per_packet": tracer.calls(
            "select_source_port", not_from="core.policy") / packets,
        "core.policy.feedback_per_kpacket": tracer.calls(
            "on_path_feedback", not_from="core.policy") / packets * 1e3,
        "core.discovery.self_ns_per_packet": per_packet("core.discovery"),
        "core.health.self_ns_per_packet": per_packet("core.health"),
        "transport.tcp.self_ns_per_packet": per_packet("transport.tcp"),
        "workloads.self_us_per_flow": layers.get("workloads", 0) / flows / 1e3,
        "metrics.self_us_per_flow": layers.get("metrics", 0) / flows / 1e3,
        "telemetry.self_ns_per_packet": per_packet("telemetry"),
        "audit.self_ns_per_packet": per_packet("audit"),
        "chaos.self_ns_per_packet": per_packet("chaos"),
        "trace.coverage_pct": named / tracer.wall_ns * 100.0,
    }


# ----------------------------------------------------------------------
# The four simulation workloads
# ----------------------------------------------------------------------
@dataclass
class Run:
    """What the child hands a workload: inputs and the shared marks."""

    seed: int
    size: int
    #: filled by the marker in :mod:`child`: ``t_start`` when the
    #: generator's ``start()`` (or ``run_jobs``) is first entered, plus
    #: ``workload`` (the generator) or ``job_results`` (what that first
    #: ``run_jobs`` returned)
    marks: Dict[str, Any]
    #: None in a timed run
    tracer: Optional[LayerTracer]
    #: the one directory this run may write to
    scratch: Path

    def close_timed_region(self) -> float:
        """Stop the clock (and the tracer); returns the timed wall."""
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.disarm()
        return end - self.marks["t_start"]


def _sim_metrics(run: Run, wall, packets, events, attempted, completed,
                 net, hosts) -> Dict[str, float]:
    """The metrics every simulation run shares."""
    metrics = {
        "packets_per_s": packets / wall,
        "events_per_packet": events / packets,
        "flows_failed_share": 1.0 - completed / attempted,
    }
    metrics.update(fabric_counters(net, hosts, packets))
    if run.tracer is not None:
        metrics.update(traced_metrics(run.tracer, packets, attempted))
    return metrics


def _run_experiment(run: Run, config, telemetry=None) -> Tuple[Any, Outcome]:
    from repro.harness.experiment import run_experiment
    from repro.harness.metrics import standard_metrics

    result = run_experiment(config, telemetry=telemetry)
    wall = run.close_timed_region()
    collector = result.collector
    packets = sum(h.tx_nic_packets for h in result.hosts.values())
    attempted = len(collector.jobs)
    fcts = collector.fcts()
    metrics = _sim_metrics(
        run, wall, packets, result.wall_events, attempted, len(fcts),
        result.net, result.hosts.values(),
    )
    mean_ms = sum(fcts) / len(fcts) * 1e3
    tail, tail_q, tail_n = tail_percentile(fcts)
    metrics["sim_fct_avg_ms"] = mean_ms
    pins: Dict[str, Any] = {
        "packets": packets, "events": result.wall_events,
        "flows_attempted": attempted, "flows_completed": len(fcts),
        "sim_fct_avg_ms": mean_ms,
    }
    if tail is not None:
        metrics["sim_fct_tail_ms"] = tail * 1e3
        pins["sim_fct_tail_ms"] = tail * 1e3
        pins["sim_fct_tail"] = f"p{tail_q} n={len(fcts)} beyond={tail_n}"
    if result.chaos is not None:
        metrics["chaos.injections"] = float(len(result.chaos.markers))
    started = time.perf_counter()
    standard_metrics(result)
    metrics["harness.standard_metrics_ms"] = (
        time.perf_counter() - started) * 1e3
    return result, Outcome(metrics, pins, attempted, attempted - len(fcts), wall)


def run_fabric_ecmp(run: Run) -> Outcome:
    from repro.harness.experiment import ExperimentConfig

    return _run_experiment(run, ExperimentConfig(
        scheme="ecmp", load=0.7, jobs_per_client=run.size, seed=run.seed))[1]


def run_edge_clove(run: Run) -> Outcome:
    from repro.harness.experiment import ExperimentConfig

    return _run_experiment(run, ExperimentConfig(
        scheme="clove-ecn", asymmetric=True, load=0.7,
        jobs_per_client=run.size, seed=run.seed))[1]


def run_incast_fanin(run: Run) -> Outcome:
    from repro.harness.incast import run_incast

    stats: Dict[str, float] = {}
    goodput = run_incast(
        scheme="clove-ecn", fanout=8, seed=run.seed, n_requests=run.size,
        total_bytes=2_000_000, stats_out=stats)
    wall = run.close_timed_region()
    workload = run.marks["workload"]
    packets, events = int(stats["packets"]), int(stats["events"])
    completed = workload.requests_completed
    metrics = _sim_metrics(
        run, wall, packets, events, run.size, completed,
        workload.client.net, [workload.client] + workload.servers,
    )
    # closed loop, no think time: requests run back to back
    mean_ms = (workload.finished_at - workload.started_at) / run.size * 1e3
    metrics["sim_fct_avg_ms"] = mean_ms
    metrics["sim_goodput_gbps"] = goodput / 1e9
    pins = {
        "packets": packets, "events": events,
        "flows_attempted": run.size, "flows_completed": completed,
        "sim_fct_avg_ms": mean_ms, "sim_goodput_gbps": goodput / 1e9,
    }
    return Outcome(metrics, pins, run.size, run.size - completed, wall)


def run_observed_chaos(run: Run) -> Outcome:
    from repro.audit import audit_artifact
    from repro.chaos.metrics import (
        controlplane_from_records,
        health_from_records,
        recovery_from_records,
    )
    from repro.chaos.plan import preset
    from repro.harness.experiment import ExperimentConfig
    from repro.telemetry import load_jsonl
    from repro.telemetry.trace import TraceView, render_critical, render_summary

    config = ExperimentConfig(
        scheme="clove-ecn", load=0.7, jobs_per_client=run.size, seed=run.seed,
        chaos=preset("flap"), health=True, failover_delay_s=0.01,
        audit="report")
    telemetry = Telemetry(trace=True)
    result, outcome = _run_experiment(run, config, telemetry)

    # The offline round-trip a user runs on the artifact afterwards:
    # repro telemetry | audit check | chaos report | trace summary/critical.
    artifact = str(run.scratch / "artifact.jsonl")
    t0 = time.perf_counter()
    telemetry.export_jsonl(artifact)
    t1 = time.perf_counter()
    dump = load_jsonl(artifact)
    t2 = time.perf_counter()
    offline_audit = audit_artifact(artifact)
    t3 = time.perf_counter()
    records = dump["events"] + dump["manifests"]
    counters = dump.get("counters")
    recovery = recovery_from_records(records)
    health = health_from_records(records, counters=counters)
    controlplane_from_records(records, counters=counters)
    t4 = time.perf_counter()
    view = TraceView.from_records(dump["spans"], dump.get("spans_dropped", 0))
    render_summary(view)
    render_critical(view)
    t5 = time.perf_counter()

    violations = result.audit.violations + offline_audit.violations
    outcome.metrics.update({
        "offline_s": t5 - t0,
        "telemetry.export_s": t1 - t0,
        "telemetry.load_s": t2 - t1,
        "audit.offline_replay_s": t3 - t2,
        "chaos.report_s": t4 - t3,
        "telemetry.events_emitted": float(telemetry.events.emitted),
        "telemetry.events_dropped": float(telemetry.events.dropped),
        "telemetry.spans_recorded": float(len(dump["spans"])),
        "audit.violations": float(violations),
    })
    outcome.pins["audit_digest"] = result.audit.digest
    outcome.pins["events_emitted"] = telemetry.events.emitted
    # An audit finding, a lost event or a report that cannot be rebuilt
    # offline fails the whole run, not one flow.
    if (violations or telemetry.events.dropped
            or recovery is None or health is None):
        outcome.failed = outcome.attempted
        outcome.metrics["flows_failed_share"] = 1.0
    return outcome


# ----------------------------------------------------------------------
# suite-batch
# ----------------------------------------------------------------------
def run_suite_batch(run: Run) -> Outcome:
    """Cold batch, baselines, warm rerun, check — what ``repro suite
    check`` waits on.

    The batch is always the paper-smoke grid over suite seeds
    ``1..size``, so every run computes the same thing.  ``seed`` sets the
    order the suite seeds are submitted in, which changes how the pool
    packs them but not the work.  Pooled jobs return scalars only, no
    packet count, so there is no ``packets_per_s`` here.
    """
    from repro.runner import RunnerConfig
    from repro.suite import baseline
    from repro.suite.bundles import paper_smoke
    from repro.suite.execute import run_suite

    suite_seeds = list(range(1, run.size + 1))
    random.Random(run.seed).shuffle(suite_seeds)
    spec = replace(paper_smoke(), seeds=tuple(suite_seeds))
    runner = RunnerConfig(
        jobs=BATCH_WORKERS, cache_dir=str(run.scratch / "cache"))
    tracer = run.tracer

    cold_result = run_suite(spec, runner)
    cold_wall = time.perf_counter() - run.marks["t_start"]
    cold_totals = tracer.totals() if tracer is not None else {}
    cold = run.marks["job_results"]
    baselines = baseline.baselines_from_result(spec, cold_result)
    warm_walls = []
    for _ in range(WARM_REPEATS):
        started = time.perf_counter()
        warm = run_suite(spec, runner)
        warm_walls.append(time.perf_counter() - started)
    started = time.perf_counter()
    report = baseline.check_result(spec, warm, baselines)
    check_s = time.perf_counter() - started
    wall = run.close_timed_region()

    n_jobs = len(cold)
    done = [r for r in cold if r.ok]
    workers = min(BATCH_WORKERS, n_jobs)
    metrics = {
        "jobs_per_s": n_jobs / cold_wall,
        "warm_rerun_s": min(warm_walls),
        "flows_failed_share": 1.0 - len(done) / n_jobs,
        "runner.dispatch_overhead_share": (
            1.0 - sum(r.wall_s for r in cold) / (workers * cold_wall)),
        "runner.retries": float(sum(max(0, r.attempts - 1) for r in cold)),
        "runner.failed_jobs": float(n_jobs - len(done)),
        "suite.check_ms": check_s * 1e3,
        "suite.regressions_flagged": float(len(report.regressions)),
    }
    events = int(sum(r.metrics["wall_events"] for r in done))
    # what the batch computed, whatever order it was submitted in
    digest = hashlib.sha256(json.dumps(
        sorted((r.spec.fingerprint, r.metrics) for r in done), sort_keys=True,
    ).encode("utf-8")).hexdigest()[:32]
    pins: Dict[str, Any] = {
        "jobs": n_jobs, "events": events, "batch_digest": digest,
        "flows_completed": int(sum(r.metrics["count"] for r in done)),
    }
    if tracer is not None:
        warm_totals = _since(tracer.totals(), cold_totals)
        gets = tracer.calls("ResultCache.get", warm_totals)
        puts = tracer.calls("ResultCache.put", cold_totals)
        metrics.update({
            "runner.fingerprint_us_per_job": tracer.self_ns(
                "JobSpec.fingerprint", cold_totals) / n_jobs / 1e3,
            "runner.cache_put_us_per_job": tracer.self_ns(
                "ResultCache.put", cold_totals) / max(puts, 1) / 1e3,
            "runner.cache_get_us_per_job": tracer.self_ns(
                "ResultCache.get", warm_totals) / max(gets, 1) / 1e3,
            "suite.expand_ms": tracer.self_ns("SuiteSpec.expand")
            / max(tracer.calls("SuiteSpec.expand"), 1) / 1e6,
            "trace.coverage_pct": 100.0 - tracer.layer_self_ns().get(
                "harness", 0) / tracer.wall_ns * 100.0,
        })
    failed = n_jobs - len(done)
    # A flagged regression or a warm rerun that missed the cache means
    # the batch machinery is broken: every job counts as failed.
    if not report.ok or warm.meta["cached_points"] != n_jobs:
        failed = n_jobs
        metrics["flows_failed_share"] = 1.0
    return Outcome(metrics, pins, n_jobs, failed, wall)


def _since(after, before):
    """Aggregate accumulated between two ``LayerTracer.totals()`` calls."""
    out = {}
    for key, (calls, self_ns) in after.items():
        base = before.get(key, (0, 0))
        if calls != base[0]:
            out[key] = (calls - base[0], self_ns - base[1])
    return out


RUNNERS: Dict[str, Callable[[Run], Outcome]] = {
    "fabric-ecmp": run_fabric_ecmp,
    "edge-clove-ecn-asym": run_edge_clove,
    "incast-fanin": run_incast_fanin,
    "observed-chaos-flap": run_observed_chaos,
    "suite-batch": run_suite_batch,
}

#: what a child imports before its set-up clock splits into
#: ``harness.import_s`` and ``harness.build_s``
IMPORTS: Dict[str, Tuple[str, ...]] = {
    "fabric-ecmp": ("repro.harness.experiment", "repro.harness.metrics"),
    "edge-clove-ecn-asym": ("repro.harness.experiment", "repro.harness.metrics"),
    "incast-fanin": ("repro.harness.incast",),
    "observed-chaos-flap": (
        "repro.harness.experiment", "repro.harness.metrics", "repro.audit",
        "repro.chaos.metrics", "repro.telemetry.trace"),
    "suite-batch": ("repro.suite", "repro.runner"),
}
