"""Time-series sampling of network state.

The paper's Section 7 leaves a "rigorous study of the stability
characteristics of Clove's control loop" to future work; this module
provides the instrumentation for exactly that study: a sampler that
periodically records link utilizations, queue depths and (optionally)
Clove path weights, plus summary statistics (oscillation amplitude,
imbalance) used by the stability example and the ablation benches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.net.link import Link
from repro.sim.engine import Simulator


@dataclass
class SeriesStats:
    """Summary of one sampled series."""

    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def oscillation(self) -> float:
        """Coefficient of variation — the stability example's headline."""
        if self.mean == 0:
            return 0.0
        return self.std / self.mean


def summarize(values: Sequence[float]) -> SeriesStats:
    """Mean/std/min/max of a series (population std)."""
    if not values:
        raise ValueError("cannot summarize an empty series")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return SeriesStats(mean=mean, std=math.sqrt(variance),
                       minimum=min(values), maximum=max(values))


class NetworkSampler:
    """Samples named scalar probes at a fixed simulated interval."""

    def __init__(self, sim: Simulator, interval: float) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.interval = interval
        self._probes: Dict[str, Callable[[], float]] = {}
        self.samples: Dict[str, List[float]] = {}
        self.timestamps: List[float] = []
        self._running = False

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def add_probe(self, name: str, probe: Callable[[], float]) -> None:
        """Register a named scalar probe sampled every interval."""
        if name in self._probes:
            raise ValueError(f"duplicate probe {name!r}")
        self._probes[name] = probe
        self.samples[name] = []

    def watch_link_utilization(self, link: Link, name: Optional[str] = None) -> None:
        """Probe a link's DRE utilization (attaching the estimator: watch
        before traffic starts)."""
        link.track_utilization()
        self.add_probe(name or f"util:{link.name}", link.utilization)

    def watch_queue_depth(self, link: Link, name: Optional[str] = None) -> None:
        """Probe a link's egress queue occupancy (packets)."""
        self.add_probe(name or f"queue:{link.name}", lambda: float(len(link.queue)))

    def watch_path_weights(self, table, dst_ip: int, prefix: str = "w") -> None:
        """Track each path weight of a :class:`WeightedPathTable` row."""
        for port in table.ports_for(dst_ip):
            self.add_probe(
                f"{prefix}:{port}",
                lambda p=port: table.weights_for(dst_ip).get(p, 0.0),
            )

    # ------------------------------------------------------------------
    # Sampling loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        """Stop sampling; recorded series remain available."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self.timestamps.append(self.sim.now)
        for name, probe in self._probes.items():
            self.samples[name].append(probe())
        self.sim.schedule(self.interval, self._tick)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def stats(self, name: str) -> SeriesStats:
        """Summary statistics of one recorded series."""
        return summarize(self.samples[name])

    def imbalance(self, names: Sequence[str]) -> List[float]:
        """Per-sample max/mean ratio across a group of series.

        1.0 = perfectly balanced; the mean of this series over time is a
        standard load-balancing quality metric.
        """
        series = [self.samples[name] for name in names]
        if not series or not series[0]:
            return []
        out = []
        for values in zip(*series):
            mean = sum(values) / len(values)
            out.append(max(values) / mean if mean > 0 else 1.0)
        return out
