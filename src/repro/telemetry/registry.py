"""A process-wide but explicitly-scoped metrics registry.

Every experiment owns one :class:`MetricsRegistry` (usually via
:class:`repro.telemetry.Telemetry`).  Instruments are created on first use
and identified by ``(name, labels)`` — Prometheus-style, so the same metric
name can fan out per switch, per link or per scheme::

    drops = registry.counter("switch.drop", switch="L1")
    drops.inc()
    registry.gauge("link.mean_utilization", link="L1->S1#0").set(0.42)

Design constraints (the reason this is not a thin dict):

* **Near-zero overhead when disabled.**  A disabled registry hands out one
  shared :data:`NULL_INSTRUMENT` whose mutators are no-ops, so instrumented
  code never needs an ``if telemetry:`` branch of its own.
* **Snapshot, not stream.**  Instruments accumulate in memory; a run
  serializes one :meth:`MetricsRegistry.snapshot` at the end (or at any
  checkpoint) rather than emitting per-update samples.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

#: default histogram bucket upper bounds (seconds-flavoured, log-spaced)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)

#: the key an instrument is registered under
InstrumentKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def instrument_key(name: str, labels: Dict[str, object]) -> InstrumentKey:
    """The key ``name`` with ``labels`` is registered under."""
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def format_key(key: InstrumentKey) -> str:
    """Render ``(name, labels)`` as ``name{k=v,...}`` (Prometheus style)."""
    name, labels = key
    if not labels:
        return name
    inside = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inside}}}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`format_key`: ``name{k=v,...}`` -> (name, labels)."""
    name, brace, rest = key.partition("{")
    if not brace:
        return name, {}
    labels: Dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        label, _, value = pair.partition("=")
        if label:
            labels[label] = value
    return name, labels


def totals_by_name(values: Dict[str, float]) -> Dict[str, float]:
    """A rendered snapshot (``name{labels}`` -> value) summed across label
    sets: ``{name: total}``, with a name present iff some instrument of it
    exists (zero-valued or not)."""
    totals: Dict[str, float] = {}
    for key, value in values.items():
        name = key.partition("{")[0]
        totals[name] = totals.get(name, 0) + value
    return totals


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("key", "value")

    def __init__(self, key: InstrumentKey) -> None:
        self.key = key
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite the total — for scrape-style collection, where the
        instrumented object keeps its own cumulative counter and the
        registry folds it in at snapshot time (idempotent across scrapes)."""
        self.value = float(value)


class Gauge:
    """A point-in-time scalar (queue depth, utilization, weight)."""

    __slots__ = ("key", "value")

    def __init__(self, key: InstrumentKey) -> None:
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Raise the current value by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Lower the current value by ``amount``."""
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram with fixed upper bounds."""

    __slots__ = ("key", "bounds", "bucket_counts", "count", "total", "maximum")

    def __init__(self, key: InstrumentKey, bounds: Sequence[float]) -> None:
        self.key = key
        self.bounds: List[float] = sorted(bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)  # +inf
        self.count = 0
        self.total = 0.0
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample into its bucket."""
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the q-th observation); ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, round(q * self.count))
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.maximum
        return self.maximum

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (count, mean, quantiles, buckets)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "max": self.maximum if self.count else 0.0,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": {
                str(bound): n
                for bound, n in zip(list(self.bounds) + ["+inf"], self.bucket_counts)
            },
        }


class _NullInstrument:
    """Shared no-op stand-in for every instrument of a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: the single instance handed out by disabled registries
NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create instrument store for one telemetry scope."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[InstrumentKey, Counter] = {}
        self._gauges: Dict[InstrumentKey, Gauge] = {}
        self._histograms: Dict[InstrumentKey, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object):
        """Get or create the counter ``name`` with the given label set."""
        if not self.enabled:
            return NULL_INSTRUMENT
        key = instrument_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(key)
        return instrument

    def gauge(self, name: str, **labels: object):
        """Get or create the gauge ``name`` with the given label set."""
        if not self.enabled:
            return NULL_INSTRUMENT
        key = instrument_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(key)
        return instrument

    def histogram(
        self,
        name: str,
        bounds: Optional[Sequence[float]] = None,
        **labels: object,
    ):
        """Get or create the histogram ``name`` with the given label set."""
        if not self.enabled:
            return NULL_INSTRUMENT
        key = instrument_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                key, bounds if bounds is not None else DEFAULT_BUCKETS
            )
        return instrument

    # ------------------------------------------------------------------
    # Cross-process merge (see repro.runner: workers dump, the parent absorbs)
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, List[Dict[str, object]]]:
        """Raw, JSON-serializable instrument state for :meth:`absorb`.

        Unlike :meth:`snapshot` (rendered keys, for humans and artifacts)
        this keeps names and labels structured so another registry can merge
        the values losslessly — the transport format worker processes hand
        back to the parent sweep.
        """
        return {
            "counters": [
                {"name": k[0], "labels": dict(k[1]), "value": c.value}
                for k, c in self._counters.items()
            ],
            "gauges": [
                {"name": k[0], "labels": dict(k[1]), "value": g.value}
                for k, g in self._gauges.items()
            ],
            "histograms": [
                {
                    "name": k[0],
                    "labels": dict(k[1]),
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "total": h.total,
                    "max": h.maximum,
                }
                for k, h in self._histograms.items()
            ],
        }

    def absorb(self, state: Dict[str, List[Dict[str, object]]]) -> None:
        """Merge a :meth:`dump` from another registry into this one.

        Counters add, gauges take the dumped value (last writer wins) and
        histograms merge bucket-by-bucket; a histogram whose bounds disagree
        with an existing instrument of the same key is rejected loudly.
        """
        if not self.enabled:
            return
        for record in state.get("counters", ()):
            self.counter(record["name"], **record["labels"]).inc(record["value"])
        for record in state.get("gauges", ()):
            self.gauge(record["name"], **record["labels"]).set(record["value"])
        for record in state.get("histograms", ()):
            histogram = self.histogram(
                record["name"], bounds=record["bounds"], **record["labels"]
            )
            if list(histogram.bounds) != sorted(record["bounds"]):
                raise ValueError(
                    f"histogram {record['name']!r} bounds mismatch: "
                    f"{histogram.bounds} vs {record['bounds']}"
                )
            dumped_counts = record["bucket_counts"]
            histogram.bucket_counts = [
                a + b for a, b in zip(histogram.bucket_counts, dumped_counts)
            ]
            histogram.count += record["count"]
            histogram.total += record["total"]
            histogram.maximum = max(histogram.maximum, record["max"])

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All instrument values keyed by their rendered name."""
        return {
            "counters": {
                format_key(k): c.value for k, c in sorted(self._counters.items())
            },
            "gauges": {
                format_key(k): g.value for k, g in sorted(self._gauges.items())
            },
            "histograms": {
                format_key(k): h.to_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
