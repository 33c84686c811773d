"""Flow-size distributions.

The paper's experiments draw flow sizes from the empirical web-search
workload of the DCTCP paper ("obtained from production datacenters of
Microsoft"): heavy-tailed, most flows small, most *bytes* in a small number
of large flows.  We use the standard piecewise CDF approximation of that
distribution circulated with the DCTCP/CONGA simulation artifacts, with
log-linear interpolation between knots and an optional size scale so
CI-speed runs can shrink flows while preserving the shape.

Two further workloads conventional in the datacenter load-balancing
literature (used by DCTCP/CONGA/LetFlow follow-ons) let experiments probe
how Clove behaves when the elephant/mice mix shifts:

* **data-mining** — far heavier tail: >80% of flows under 10KB but a few
  flows reach 1GB; most bytes in a handful of giant flows.  Hash collisions
  between elephants persist for a very long time, favouring flowlet schemes.
* **enterprise** — milder mix, most flows small, tail ends near 30MB.

Every named workload is registered in :data:`WORKLOADS`, the choices of
``ExperimentConfig.workload``.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Callable, Dict, List, Sequence, Tuple

#: (flow size in bytes, cumulative probability) knots of the web-search CDF.
_WEB_SEARCH_KNOTS: List[Tuple[float, float]] = [
    (1_000, 0.00),
    (6_000, 0.15),
    (13_000, 0.20),
    (19_000, 0.30),
    (33_000, 0.40),
    (53_000, 0.53),
    (133_000, 0.60),
    (667_000, 0.70),
    (1_333_000, 0.80),
    (3_333_000, 0.90),
    (6_667_000, 0.97),
    (20_000_000, 1.00),
]


class EmpiricalCdf:
    """Inverse-transform sampler over a piecewise CDF.

    Interpolation between knots is log-linear in size, which matches how
    heavy-tailed flow-size distributions are conventionally resampled.
    """

    def __init__(self, knots: Sequence[Tuple[float, float]], scale: float = 1.0) -> None:
        if len(knots) < 2:
            raise ValueError("need at least two CDF knots")
        sizes = [k[0] for k in knots]
        probs = [k[1] for k in knots]
        if sorted(sizes) != list(sizes) or sorted(probs) != list(probs):
            raise ValueError("CDF knots must be sorted in size and probability")
        if probs[-1] != 1.0:
            raise ValueError("last knot must have cumulative probability 1.0")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self._sizes = [s * scale for s in sizes]
        self._probs = list(probs)

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size in bytes (always >= 1)."""
        u = rng.random()
        index = bisect.bisect_left(self._probs, u)
        if index == 0:
            return max(1, int(self._sizes[0]))
        if index >= len(self._probs):
            return max(1, int(self._sizes[-1]))
        p0, p1 = self._probs[index - 1], self._probs[index]
        s0, s1 = self._sizes[index - 1], self._sizes[index]
        if p1 <= p0:
            return max(1, int(s1))
        fraction = (u - p0) / (p1 - p0)
        log_size = math.log(s0) + fraction * (math.log(s1) - math.log(s0))
        return max(1, int(math.exp(log_size)))

    def mean(self, samples: int = 200_000, seed: int = 7) -> float:
        """Monte-Carlo estimate of the mean flow size (cached by callers)."""
        rng = random.Random(seed)
        total = 0
        for _ in range(samples):
            total += self.sample(rng)
        return total / samples

    def analytic_mean(self) -> float:
        """Closed-form mean of the log-linear interpolated distribution."""
        total = 0.0
        for i in range(1, len(self._probs)):
            p0, p1 = self._probs[i - 1], self._probs[i]
            s0, s1 = self._sizes[i - 1], self._sizes[i]
            mass = p1 - p0
            if mass <= 0:
                continue
            if abs(s1 - s0) < 1e-9:
                total += mass * s0
                continue
            # E[size | segment] for size = exp(ln s0 + f (ln s1 - ln s0)),
            # f ~ U(0,1):  (s1 - s0) / (ln s1 - ln s0)
            total += mass * (s1 - s0) / (math.log(s1) - math.log(s0))
        return total


#: data-mining (VL2-style) flow sizes: extreme elephants.
_DATA_MINING_KNOTS: List[Tuple[float, float]] = [
    (100, 0.00),
    (1_000, 0.50),
    (10_000, 0.80),
    (100_000, 0.85),
    (1_000_000, 0.90),
    (10_000_000, 0.95),
    (100_000_000, 0.98),
    (1_000_000_000, 1.00),
]

#: enterprise traffic: mostly mice, moderate tail.
_ENTERPRISE_KNOTS: List[Tuple[float, float]] = [
    (250, 0.00),
    (1_000, 0.30),
    (5_000, 0.60),
    (25_000, 0.80),
    (100_000, 0.92),
    (1_000_000, 0.97),
    (30_000_000, 1.00),
]


def web_search_distribution(scale: float = 1.0) -> EmpiricalCdf:
    """The DCTCP web-search flow-size distribution, optionally rescaled."""
    return EmpiricalCdf(_WEB_SEARCH_KNOTS, scale=scale)


def data_mining_distribution(scale: float = 1.0) -> EmpiricalCdf:
    """The heavy-tailed data-mining workload, optionally rescaled."""
    return EmpiricalCdf(_DATA_MINING_KNOTS, scale=scale)


def enterprise_distribution(scale: float = 1.0) -> EmpiricalCdf:
    """The milder enterprise workload, optionally rescaled."""
    return EmpiricalCdf(_ENTERPRISE_KNOTS, scale=scale)


#: every named workload an :class:`~repro.harness.config.ExperimentConfig`
#: (and a suite spec's ``workload`` axis) may reference
WORKLOADS: Dict[str, Callable[..., EmpiricalCdf]] = {
    "web-search": web_search_distribution,
    "data-mining": data_mining_distribution,
    "enterprise": enterprise_distribution,
}

