"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


class TestScheduling:
    def test_schedule_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, order.append, "c")
        sim.schedule(0.1, order.append, "a")
        sim.schedule(0.2, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(0.5, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_at_before_now_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(0.5, lambda: None)

    @pytest.mark.parametrize("method", ["schedule", "at"])
    def test_nan_time_rejected(self, method):
        sim = Simulator()
        with pytest.raises(ValueError):
            getattr(sim, method)(float("nan"), lambda: None)
        assert sim.pending == 0

    def test_zero_delay_runs_after_current_instant_events(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "nested")

        sim.schedule(0.1, first)
        sim.schedule(0.1, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(0.1, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(0.1, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()  # must not raise

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(0.1, fired.append, "keep")
        drop = sim.schedule(0.1, fired.append, "drop")
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert not keep.cancelled


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "late")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["late"]

    def test_stop_inside_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, lambda: (fired.append(1), sim.stop()))
        sim.schedule(0.2, fired.append, 2)
        sim.run()
        assert fired == [(1, None)] or fired[0] is not None
        assert sim.pending == 1  # the second event is still queued

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "x")
        assert sim.step() is True
        assert sim.step() is False
        assert fired == ["x"]

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        event.cancel()
        assert sim.peek_time() == pytest.approx(0.2)

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_max_events_with_until_does_not_fast_forward(self):
        # Regression: when the event cap interrupts the run early, `now`
        # must stay at the last processed event, not jump to `until`.
        sim = Simulator()
        for i in range(10):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run(until=5.0, max_events=4)
        assert sim.now == pytest.approx(0.4)
        assert sim.pending == 6

    def test_max_events_resume_processes_remaining_in_order(self):
        sim = Simulator()
        fired = []
        for i in range(6):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        sim.run(until=5.0, max_events=3)
        sim.run(until=5.0)
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5.0  # queue drained -> fast-forward applies

    def test_until_fast_forward_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.run(until=2.0, max_events=100)
        assert sim.now == 2.0

    def test_stop_does_not_fast_forward_to_until(self):
        sim = Simulator()
        sim.schedule(0.1, sim.stop)
        sim.schedule(1.5, lambda: None)
        sim.run(until=2.0)
        assert sim.now == pytest.approx(0.1)
        assert sim.pending == 1


class TestRngRegistry:
    def test_streams_are_deterministic(self):
        a = RngRegistry(42).stream("x")
        b = RngRegistry(42).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent_of_each_other(self):
        reg = RngRegistry(42)
        x = reg.stream("x")
        draws_before = [x.random() for _ in range(3)]
        reg2 = RngRegistry(42)
        reg2.stream("y").random()  # an extra stream must not disturb "x"
        x2 = reg2.stream("x")
        assert draws_before == [x2.random() for _ in range(3)]

    def test_different_names_differ(self):
        reg = RngRegistry(1)
        assert reg.stream("a").random() != reg.stream("b").random()

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("a").random() != RngRegistry(2).stream("a").random()

    def test_stream_is_cached(self):
        reg = RngRegistry(7)
        assert reg.stream("s") is reg.stream("s")

    def test_reseed(self):
        reg = RngRegistry(1)
        s = reg.stream("a")
        first = s.random()
        reg.reseed(1)
        assert s.random() == first
