"""Core discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Everything in
the repository — link transmissions, switch forwarding, TCP timers, the Clove
traceroute daemon — is expressed as callbacks scheduled on a single
:class:`Simulator` instance.

Design notes
------------
* Time is a ``float`` in **seconds**.  Datacenter RTTs are tens to hundreds
  of microseconds, so double precision gives sub-nanosecond resolution over
  the simulated horizons used here (tens of seconds).
* Events carry a monotonically increasing sequence number so that events
  scheduled for the same instant fire in FIFO order.  This keeps runs
  deterministic for a given seed regardless of heap tie-breaking.
* An :class:`Event` is its own heap entry — a ``(time, seq, fn, args)``
  tuple, so the heap orders entries with C-level tuple comparison and,
  ``seq`` being unique, never looks past it — and its own cancel handle.
  :meth:`Simulator.schedule` and :meth:`Simulator.at` build them, and so
  does one place outside this module: ``Link.send``
  (:mod:`repro.net.link`) pushes each packet's delivery event itself, with
  the same ``(time, next(_seq))`` ordering, to keep a frame off every hop.
* Events may be cancelled in O(1) (lazy deletion): cancellation marks the
  entry and the run loop skips it when popped.  Cancels are rare
  (TCP's deadline timers re-arm without them; about one event in 200 is
  ever cancelled), so dead entries do not accumulate.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.audit.auditor import Auditor
    from repro.telemetry.profiler import SimProfiler

_INFINITY = float("inf")
_NO_BUDGET = sys.maxsize


class Event(tuple):
    """A scheduled callback: the heap entry ``(time, seq, fn, args)``.

    Instances are returned by :meth:`Simulator.schedule` / :meth:`Simulator.at`
    and can be cancelled via :meth:`cancel`.  An event fires exactly once.
    """

    # No __slots__: the one mutable bit, ``cancelled``, lives in an instance
    # dict that only a cancelled event ever allocates.

    #: whether :meth:`cancel` was called
    cancelled = False
    time = property(itemgetter(0), doc="The simulation time the event is due at.")

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self[0]:.9f}, fn={getattr(self[2], '__name__', self[2])!r}, {state})"


class Simulator:
    """Single-threaded discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(0.001, lambda: print("one millisecond in"))
        sim.run(until=1.0)
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        #: when set (see :class:`repro.telemetry.SimProfiler`), every event
        #: callback is timed and every ``run`` accounted; None costs nothing.
        self.profiler: Optional["SimProfiler"] = None
        #: when set (see :class:`repro.audit.Auditor`), every event is
        #: checked for timestamp monotonicity and folded into the auditor's
        #: determinism digest before it fires; None costs nothing.
        self.auditor: Optional["Auditor"] = None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative (NaN is rejected too); a zero delay
        runs the callback after all events already scheduled for the
        current instant.
        """
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = Event((self.now + delay, next(self._seq), fn, args))
        heapq.heappush(self._queue, event)
        return event

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if not time >= self.now:
            raise ValueError(f"cannot schedule at t={time} < now={self.now}")
        event = Event((time, next(self._seq), fn, args))
        heapq.heappush(self._queue, event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` events have been processed.

        When ``until`` is given and the loop ran to its horizon (queue
        drained or only future-of-``until`` events remain), ``now`` is
        advanced to exactly ``until`` on return, mirroring NS2 semantics.
        When the loop was cut short instead — by ``max_events`` or
        :meth:`stop` — ``now`` stays at the last processed event, so events
        still queued at or after ``now`` remain valid for a later ``run()``.

        Whether an :attr:`auditor` and/or :attr:`profiler` observes the
        events is decided once per call; an unobserved run pays one test
        per event for the possibility.  The auditor's time check and digest
        fold run inline on locals, written back however the loop exits
        (``stop()``, ``max_events``, a callback that raises).
        """
        limit = _INFINITY if until is None else until
        budget = _NO_BUDGET if max_events is None else max_events
        auditor = self.auditor
        profiler = self.profiler
        observed = auditor is not None or profiler is not None
        if auditor is not None:
            digest = auditor.digest
            state = digest.state
            count = digest.count
            last = auditor.last_event_time
            token_of = digest.token_of
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        started = perf_counter()
        self._running = True
        try:
            while queue and self._running:
                event = queue[0]
                time = event[0]
                if time > limit:
                    break
                pop(queue)
                if event.cancelled:
                    continue
                self.now = time
                if not observed:
                    event[2](*event[3])
                else:
                    fn = event[2]
                    if auditor is not None:
                        if time < last:
                            auditor.on_time_regression(
                                time, last, getattr(fn, "__qualname__", "?"))
                        last = time
                        tok = token_of.get(getattr(fn, "__func__", fn))
                        if tok is None:
                            tok = digest.token(fn)
                        state = hash((state, time, tok))
                        count += 1
                    if profiler is None:
                        fn(*event[3])
                    else:
                        # +1: the event being fired has already been popped
                        profiler.fire(fn, event[3], len(queue) + 1)
                processed += 1
                if processed >= budget:
                    self._running = False  # leave exactly as stop() would
            interrupted = not self._running
        finally:
            self._running = False
            self._events_processed += processed
            if auditor is not None:
                digest.state = state
                digest.count = count
                auditor.last_event_time = last
            if profiler is not None:
                profiler.record_run(processed, perf_counter() - started)
        if not interrupted and until is not None and self.now < until:
            self.now = until

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` when the queue is empty."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed > before

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total events executed since construction."""
        return self._events_processed

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None
