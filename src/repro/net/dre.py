"""Discounting Rate Estimator (DRE).

CONGA measures link load with a DRE: a register ``x`` incremented by each
packet's size and multiplicatively decremented every ``t_dre`` with factor
``alpha``.  ``x / (rate * t_dre / alpha)`` then approximates link
utilization over a window of roughly ``t_dre / alpha``.

We reuse the same estimator for the INT utilization that Clove-INT consumes,
so both schemes observe the network through identical eyes (as the paper's
NS2 setup effectively did).

A link carries an estimator only when something reads it
(:meth:`repro.net.link.Link.track_utilization`): CONGA's switches on every
switch egress link, INT-capable switches on their route links and the
time-series sampler.  The telemetry ``link.mean_utilization`` gauge is an
end-of-run average computed from ``tx_bytes`` and needs no estimator.

The decay is applied lazily on access instead of with a periodic timer, so
idle links cost nothing.  Samples may also be *scheduled*: the virtual-clock
link transmitter computes serialization start times ahead of the simulation
clock, so :meth:`record` buffers samples and folds them into the register —
in timestamp order — only when a reader catches up to them.  Readers (CONGA
leaves call :meth:`utilization` / :meth:`quantized` directly) therefore see
bit-identical values to an estimator fed strictly in real time.  When a
rate change re-plans waiting packets, the link drops their buffered samples
(:meth:`drop_pending_after`) and records them again at their new start.
"""

from __future__ import annotations

import math
from collections import deque

#: buffered samples beyond this are folded in eagerly, up to the newest one.
#: Only a link read rarely gets there — one whose sole reader is a sparse
#: sampler, with a deep queue.  A later read at or after the newest folded
#: sample still sees the real-time value; an earlier one sees those bytes
#: early, and a rate change cannot move their samples any more.
_PENDING_CAP = 512


class DiscountingRateEstimator:
    """Lazily-decayed DRE over a link of ``rate_bps`` bits/second."""

    __slots__ = ("rate_bps", "t_dre", "alpha", "_x", "_last_decay", "_pending")

    def __init__(self, rate_bps: float, t_dre: float = 40e-6, alpha: float = 0.1) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.rate_bps = rate_bps
        self.t_dre = t_dre
        self.alpha = alpha
        self._x = 0.0
        self._last_decay = 0.0
        #: (nbytes, timestamp) samples not yet folded into ``_x``;
        #: timestamps are non-decreasing (the link's serializer clock)
        self._pending: deque = deque()

    def _decay_to(self, now: float) -> None:
        elapsed = now - self._last_decay
        if elapsed <= 0:
            return
        periods = elapsed / self.t_dre
        # x <- x * (1 - alpha)^periods, computed in closed form.
        self._x *= math.pow(1.0 - self.alpha, periods)
        self._last_decay = now
        if self._x < 1e-9:
            self._x = 0.0

    def record(self, nbytes: int, now: float) -> None:
        """Account for ``nbytes`` transmitted at time ``now`` (which may lie
        ahead of the simulation clock — see module docstring)."""
        pending = self._pending
        pending.append((nbytes, now))
        if len(pending) > _PENDING_CAP:
            self._drain(pending[-1][1])

    def _drain(self, up_to: float) -> None:
        """Fold buffered samples with timestamp <= ``up_to`` into ``x``."""
        pending = self._pending
        while pending and pending[0][1] <= up_to:
            nbytes, when = pending.popleft()
            self._decay_to(when)
            self._x += nbytes

    def drop_pending_after(self, now: float) -> int:
        """Discard buffered samples scheduled after ``now`` (their
        transmissions were cancelled by a link failure, or re-planned by a
        rate change); returns how many were dropped."""
        pending = self._pending
        dropped = 0
        while pending and pending[-1][1] > now:
            pending.pop()
            dropped += 1
        return dropped

    def utilization(self, now: float) -> float:
        """Estimated utilization in [0, ~saturation]; ~1.0 means line rate."""
        if self._pending:
            self._drain(now)
        self._decay_to(now)
        window_bytes = self.rate_bps * self.t_dre / self.alpha / 8.0
        return self._x / window_bytes

    def quantized(self, now: float, bits: int = 3) -> int:
        """Utilization quantized to ``bits`` bits, as CONGA carries on-wire."""
        levels = (1 << bits) - 1
        value = int(self.utilization(now) * levels)
        return min(levels, max(0, value))
