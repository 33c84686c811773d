"""The engine against a deliberately naive reference scheduler.

``ReferenceScheduler`` keeps a plain list sorted by ``(time, insertion
order)`` — no heap, no lazy deletion, a cancel removes the entry on the
spot.  Hypothesis generates small programs (schedule, at, cancel before and
after firing, cancel twice, scheduling / cancelling / ``stop()`` from inside
a callback, ``run`` with ``until`` and ``max_events``, resumed runs,
``step``) and both schedulers execute them in lock-step.  They must agree on
the firing order, ``now``, ``events_processed`` and ``peek_time()`` after
every operation: unobserved, audited, profiled, and both at once.  The
audited digest must equal ``StreamDigest.mix`` folded over what the
reference fired.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit import Auditor, StreamDigest
from repro.sim.engine import Simulator
from repro.telemetry import SimProfiler


class _Handle:
    """What ``ReferenceScheduler.schedule`` returns: eager cancellation."""

    def __init__(self, scheduler, entry):
        self.scheduler = scheduler
        self.entry = entry

    def cancel(self):
        if self.entry in self.scheduler.queue:
            self.scheduler.queue.remove(self.entry)


class ReferenceScheduler:
    """The semantics of ``Simulator``, written the slow and obvious way."""

    def __init__(self):
        self.now = 0.0
        self.queue = []          # (time, insertion order, fn, args), sorted
        self.inserted = 0
        self.events_processed = 0
        self.stopped = False

    def schedule(self, delay, fn, *args):
        return self.at(self.now + delay, fn, *args)

    def at(self, time, fn, *args):
        entry = (time, self.inserted, fn, args)
        self.inserted += 1
        self.queue.append(entry)
        self.queue.sort(key=lambda e: (e[0], e[1]))
        return _Handle(self, entry)

    def stop(self):
        self.stopped = True

    def peek_time(self):
        return self.queue[0][0] if self.queue else None

    def run(self, until=None, max_events=None):
        self.stopped = False
        fired = 0
        while self.queue and not self.stopped:
            time, _order, fn, args = self.queue[0]
            if until is not None and time > until:
                break
            del self.queue[0]
            self.now = time
            fn(*args)
            self.events_processed += 1
            fired += 1
            if max_events is not None and fired >= max_events:
                self.stopped = True
        if not self.stopped and until is not None and self.now < until:
            self.now = until

    def step(self):
        if not self.queue:
            return False
        self.run(max_events=1)
        return True


def _fire_function(driver, spec):
    driver.fired(spec)


class Driver:
    """Executes one generated program against one scheduler."""

    #: callback flavour -> the name the digest must derive for it
    FLAVOURS = ("_fire_function", "Driver.fire_method", "partial",
                "Driver.callback.<locals>.<lambda>")

    def __init__(self, scheduler, specs):
        self.scheduler = scheduler
        self.specs = specs
        self.handles = []
        self.trace = []      # (time, spec index, callback name) as fired

    def fire_method(self, spec):
        self.fired(spec)

    def callback(self, spec):
        """(fn, args) for event spec ``spec``, in the flavour it asks for."""
        flavour = self.specs[spec][0]
        if flavour == 0:
            return _fire_function, (self, spec)
        if flavour == 1:
            return self.fire_method, (spec,)
        if flavour == 2:
            return functools.partial(_fire_function, self), (spec,)
        return (lambda: self.fired(spec)), ()

    def fired(self, spec):
        flavour, effects = self.specs[spec]
        self.trace.append((self.scheduler.now, spec, self.FLAVOURS[flavour]))
        for effect in effects:
            self.apply(effect)

    def apply(self, op):
        sched = self.scheduler
        kind = op[0]
        if kind == "schedule":
            fn, args = self.callback(op[2])
            self.handles.append(sched.schedule(op[1], fn, *args))
        elif kind == "at":
            fn, args = self.callback(op[2])
            self.handles.append(sched.at(sched.now + op[1], fn, *args))
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "stop":
            sched.stop()
        elif kind == "run":
            until = None if op[1] is None else sched.now + op[1]
            sched.run(until=until, max_events=op[2])
        elif kind == "step":
            self.trace.append(("step returned", sched.step()))

    def state(self):
        sched = self.scheduler
        return (list(self.trace), sched.now, sched.events_processed,
                sched.peek_time())


N_SPECS = 6
_delays = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.5, 1.0, 1.0 / 3.0])
_cancel = st.tuples(st.just("cancel"), st.integers(0, 40))


def _effects(spec):
    """What event spec ``spec`` does when it fires.  It may only spawn
    higher-numbered specs, so every program terminates."""
    choices = [_cancel, st.just(("stop",))]
    if spec + 1 < N_SPECS:
        later = st.integers(spec + 1, N_SPECS - 1)
        choices.append(st.tuples(st.just("schedule"), _delays, later))
        choices.append(st.tuples(st.just("at"), _delays, later))
    return st.lists(st.one_of(*choices), max_size=3)


_specs = st.tuples(*(
    st.tuples(st.integers(0, len(Driver.FLAVOURS) - 1), _effects(i))
    for i in range(N_SPECS)
))
_any_spec = st.integers(0, N_SPECS - 1)
_program = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays, _any_spec),
        st.tuples(st.just("schedule"), _delays, _any_spec),
        st.tuples(st.just("at"), _delays, _any_spec),
        _cancel,
        st.just(("stop",)),
        st.just(("step",)),
        st.tuples(st.just("run"),
                  st.one_of(st.none(), _delays),
                  st.one_of(st.none(), st.integers(1, 5))),
    ),
    min_size=1, max_size=30,
)


@pytest.mark.parametrize("audited,profiled", [
    (False, False), (True, False), (False, True), (True, True),
])
@settings(max_examples=200, deadline=None)
@given(specs=_specs, program=_program)
def test_engine_matches_reference_scheduler(audited, profiled, specs, program):
    sim = Simulator()
    auditor = Auditor().attach(sim, net=None, hosts=()) if audited else None
    if profiled:
        sim.profiler = SimProfiler()
    real = Driver(sim, specs)
    reference = Driver(ReferenceScheduler(), specs)

    def both(op):
        real.apply(op)
        reference.apply(op)
        assert real.state() == reference.state(), op

    for op in program:
        both(op)
    while sim.peek_time() is not None:      # a stop() effect may cut a run
        both(("run", None, None))

    fired = [entry for entry in reference.trace if len(entry) == 3]
    assert sim.events_processed == len(fired)
    if audited:
        expected = StreamDigest()
        for time, _spec, name in fired:
            expected.mix(time, name)
        assert auditor.digest.render() == expected.render()
        assert auditor.report.ok      # no time regression was flagged
    if profiled:
        assert sim.profiler.events == len(fired)
        assert sum(s.count for s in sim.profiler.callbacks.values()) \
            == len(fired)
