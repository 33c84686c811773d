"""Simulator self-profiling: where does the engine's wall time go?

The profiler hooks into :meth:`repro.sim.engine.Simulator.run` (assign it to
``sim.profiler``, or let :meth:`repro.telemetry.Telemetry.instrument` do it)
and records, per callback type:

* how many events of that type fired, and
* their cumulative wall-clock time,

plus run-level aggregates: total events, total wall time, events/second and
the heap-depth high-water mark.  When no profiler is attached the engine's
run loop calls nothing here, so profiling costs nothing unless requested.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List


class CallbackStats:
    """Count + cumulative wall seconds for one callback type."""

    __slots__ = ("count", "total_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0

    @property
    def mean_us(self) -> float:
        return (self.total_s / self.count) * 1e6 if self.count else 0.0


def callback_name(fn: Callable[..., Any]) -> str:
    """Stable display name for an event callback."""
    name = getattr(fn, "__qualname__", None)
    if name:
        module = getattr(fn, "__module__", "")
        return f"{module}.{name}" if module else name
    return repr(fn)


class SimProfiler:
    """Accumulates engine-level performance telemetry across run() calls."""

    def __init__(self) -> None:
        #: callback display name -> stats
        self.callbacks: Dict[str, CallbackStats] = {}
        self.events = 0
        self.wall_s = 0.0
        self.heap_high_water = 0
        self.runs = 0

    # ------------------------------------------------------------------
    # Engine-facing recording API (hot; called once per event)
    # ------------------------------------------------------------------
    def fire(self, fn: Callable[..., Any], args: tuple, heap_depth: int) -> None:
        """Run one event callback under the clock; ``heap_depth`` is the
        engine's queue length as the event was popped."""
        if heap_depth > self.heap_high_water:
            self.heap_high_water = heap_depth
        started = perf_counter()
        fn(*args)
        self.record_callback(callback_name(fn), perf_counter() - started)

    def record_callback(self, name: str, elapsed_s: float) -> None:
        """Account one fired event to its callback type."""
        stats = self.callbacks.get(name)
        if stats is None:
            stats = self.callbacks[name] = CallbackStats()
        stats.count += 1
        stats.total_s += elapsed_s

    def record_run(self, events: int, wall_s: float) -> None:
        """Account one completed :meth:`Simulator.run` invocation."""
        self.runs += 1
        self.events += events
        self.wall_s += wall_s

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def top_callbacks(self, n: int = 10) -> List[Dict[str, Any]]:
        """The ``n`` callback types with the largest cumulative time."""
        ranked = sorted(
            self.callbacks.items(), key=lambda item: item[1].total_s, reverse=True
        )
        return [
            {
                "callback": name,
                "count": stats.count,
                "total_s": stats.total_s,
                "mean_us": stats.mean_us,
            }
            for name, stats in ranked[:n]
        ]

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable profile snapshot."""
        return {
            "runs": self.runs,
            "events": self.events,
            "wall_s": self.wall_s,
            "events_per_sec": self.events_per_sec,
            "heap_high_water": self.heap_high_water,
            "callbacks": self.top_callbacks(n=len(self.callbacks)),
        }

    def format_summary(self, top: int = 10) -> str:
        """Human-readable profile table."""
        lines = [
            f"{self.events} events in {self.wall_s:.3f}s wall "
            f"({self.events_per_sec:,.0f} events/s), "
            f"heap high-water {self.heap_high_water}",
        ]
        for row in self.top_callbacks(top):
            lines.append(
                f"  {row['count']:>9}  {row['total_s']:>8.3f}s  "
                f"{row['mean_us']:>8.2f}us  {row['callback']}"
            )
        return "\n".join(lines)
