"""Structured event log: a bounded ring buffer of typed, timestamped events.

Counters say *how much*; the event log says *what happened, when* — which
flowlet went where, which path's weight was cut, which queue marked CE.  The
log is a ``deque(maxlen=capacity)`` so a long run keeps the most recent
window instead of growing without bound; ``emitted`` minus ``len`` tells you
how many fell off the front.

Events are plain data (time, type, field dict) so they serialize straight
to JSONL (see :meth:`EventLog.write_jsonl`) and can be re-read for offline
analysis with :func:`read_jsonl`.
"""

from __future__ import annotations

import gzip
import json
import warnings
from collections import Counter as TallyCounter
from collections import deque
from typing import (
    Any, Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional, TextIO,
)


class TelemetryEvent(NamedTuple):
    """One structured event."""

    time: float
    type: str
    fields: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """The event as one flat JSONL-ready record (``kind: event``)."""
        return {"kind": "event", "time": self.time, "type": self.type, **self.fields}


class EventLog:
    """Ring-buffered event sink shared by every instrumented layer."""

    def __init__(self, capacity: int = 65536, enabled: bool = True) -> None:
        if capacity <= 0:
            raise ValueError("event log capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        self._buffer: Deque[TelemetryEvent] = deque(maxlen=capacity)
        self.emitted = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def emit(self, etype: str, time: float, **fields: Any) -> None:
        """Append one event (drops the oldest when the ring is full)."""
        if not self.enabled:
            return
        self.emitted += 1
        self._buffer.append(TelemetryEvent(time, etype, fields))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TelemetryEvent]:
        return iter(self._buffer)

    @property
    def dropped(self) -> int:
        """Events pushed off the front of the ring."""
        return self.emitted - len(self._buffer)

    def events(self, etype: Optional[str] = None) -> List[TelemetryEvent]:
        """Buffered events, optionally filtered to one type."""
        if etype is None:
            return list(self._buffer)
        return [event for event in self._buffer if event.type == etype]

    def counts_by_type(self) -> TallyCounter:
        """{event type: occurrences} over the buffered window."""
        return TallyCounter(event.type for event in self._buffer)

    def tail(self, n: int = 20) -> List[TelemetryEvent]:
        """The most recent ``n`` events."""
        if n <= 0:
            return []
        return list(self._buffer)[-n:]

    def clear(self) -> None:
        """Empty the buffer (the ``emitted`` total keeps counting)."""
        self._buffer.clear()
        self.emitted = len(self._buffer)

    # ------------------------------------------------------------------
    # Cross-process merge (see repro.runner)
    # ------------------------------------------------------------------
    def dump(self) -> List[List[Any]]:
        """Buffered events as ``[time, type, fields]`` rows for :meth:`absorb`."""
        return [[e.time, e.type, e.fields] for e in self._buffer]

    def absorb(self, rows: List[List[Any]], dropped: int = 0) -> None:
        """Replay a :meth:`dump` from another log into this one.

        ``dropped`` carries the source log's ring overflow so the merged
        scope's :attr:`dropped` accounting stays honest.
        """
        if not self.enabled:
            return
        for time_, etype, fields in rows:
            self.emit(etype, time_, **fields)
        self.emitted += dropped

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def write_jsonl(self, fp: TextIO) -> int:
        """Write buffered events to ``fp`` as JSON lines; returns the count."""
        n = 0
        for event in self._buffer:
            fp.write(json.dumps(event.to_dict(), default=str))
            fp.write("\n")
            n += 1
        return n


def open_text(path: str, mode: str = "r"):
    """Open a text file, transparently gzip-compressing ``*.gz`` paths.

    The single chokepoint for artifact IO: every telemetry/trace reader and
    writer goes through here, so ``--telemetry-out run.jsonl.gz`` and
    ``repro trace summary run.jsonl.gz`` both just work.
    """
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


_NUMBER = (int, float)


def _numbers(values: Iterable[Any]) -> bool:
    return all(isinstance(value, _NUMBER) for value in values)


def _well_formed(record: Dict[str, Any]) -> bool:
    """Whether a decoded line has the shape its ``kind`` promises; unknown
    kinds pass."""
    kind = record.get("kind")
    if kind == "event":
        return (isinstance(record.get("time"), _NUMBER)
                and isinstance(record.get("type"), str))
    if kind == "span":
        return (isinstance(record.get("id"), int)
                and isinstance(record.get("parent", 0), int)
                and isinstance(record.get("start", 0.0), _NUMBER)
                and isinstance(record.get("end"), (*_NUMBER, type(None)))
                and isinstance(record.get("fields", {}), dict))
    values = record.get("values", {})
    if kind in ("counters", "gauges"):
        return isinstance(values, dict) and _numbers(values.values())
    if kind == "histograms":
        stats = ("count", "mean", "p50", "p99", "max")
        return isinstance(values, dict) and all(
            isinstance(h, dict) and _numbers(h.get(stat, 0) for stat in stats)
            for h in values.values())
    if kind in ("events_dropped", "spans_dropped"):
        return isinstance(record.get("count", 0), int)
    if kind == "manifest":
        config = record.get("config", {})
        return (isinstance(record.get("sim_duration"), (*_NUMBER, type(None)))
                and isinstance(config, dict)
                and isinstance(config.get("chaos"), (dict, type(None))))
    return True


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a telemetry JSONL file into raw record dicts (any ``kind``).

    Robust to crash-interrupted runs: corrupt lines are skipped (counted in
    one warning) and a truncated gzip stream yields the records decoded so
    far instead of raising — the partial artifact is still analyzable.  A
    line is corrupt when it does not decode, or decodes to anything but a
    well-formed record of its kind.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    truncated = False
    with open_text(path) as fp:
        try:
            for line in fp:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    record = None
                if isinstance(record, dict) and _well_formed(record):
                    records.append(record)
                else:
                    skipped += 1
        except (EOFError, OSError):  # truncated/corrupt gzip mid-stream
            truncated = True
    if skipped or truncated:
        detail = []
        if skipped:
            detail.append(f"skipped {skipped} corrupt line(s)")
        if truncated:
            detail.append("stream truncated")
        if not records:
            # Nothing recoverable: the file isn't a damaged artifact, it
            # just isn't one — fail loudly rather than render emptiness.
            raise ValueError(f"{path}: {', '.join(detail)}; no valid records")
        warnings.warn(
            f"{path}: {', '.join(detail)}; returning partial artifact "
            f"({len(records)} records)",
            RuntimeWarning,
            stacklevel=2,
        )
    return records
