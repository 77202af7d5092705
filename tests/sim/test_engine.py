"""Tests for the discrete-event engine: ordering, determinism, guards."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Engine
from repro.util import SimulationError


class TestOrdering:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        seen = []
        eng.schedule(5.0, lambda: seen.append(5))
        eng.schedule(1.0, lambda: seen.append(1))
        eng.schedule(3.0, lambda: seen.append(3))
        eng.run()
        assert seen == [1, 3, 5]

    def test_ties_fire_fifo(self):
        eng = Engine()
        seen = []
        for i in range(10):
            eng.schedule(7.0, lambda i=i: seen.append(i))
        eng.run()
        assert seen == list(range(10))

    def test_now_tracks_dispatch_time(self):
        eng = Engine()
        times = []
        eng.schedule(2.0, lambda: times.append(eng.now))
        eng.schedule(9.0, lambda: times.append(eng.now))
        eng.run()
        assert times == [2.0, 9.0]

    def test_callbacks_can_schedule(self):
        eng = Engine()
        seen = []
        def first():
            seen.append("first")
            eng.schedule_after(1.0, lambda: seen.append("second"))
        eng.schedule(1.0, first)
        eng.run()
        assert seen == ["first", "second"]
        assert eng.now == 2.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_dispatch_order_is_sorted(self, times):
        eng = Engine()
        seen = []
        for t in times:
            eng.schedule(t, lambda t=t: seen.append(t))
        eng.run()
        assert seen == sorted(times)


class TestGuards:
    def test_cannot_schedule_past(self):
        eng = Engine()
        eng.schedule(10.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule_after(-1.0, lambda: None)

    def test_max_events_guard(self):
        eng = Engine()
        def loop():
            eng.schedule_after(1.0, loop)
        eng.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            eng.run(max_events=100)

    def test_run_not_reentrant(self):
        eng = Engine()
        def reenter():
            eng.run()
        eng.schedule(0.0, reenter)
        with pytest.raises(SimulationError):
            eng.run()


class TestControls:
    def test_run_until_leaves_later_events(self):
        eng = Engine()
        seen = []
        eng.schedule(1.0, lambda: seen.append(1))
        eng.schedule(10.0, lambda: seen.append(10))
        eng.run(until=5.0)
        assert seen == [1]
        assert eng.pending == 1
        eng.run()
        assert seen == [1, 10]

    def test_cancelled_event_skipped(self):
        eng = Engine()
        seen = []
        ev = eng.schedule(1.0, lambda: seen.append("cancelled"))
        eng.schedule(2.0, lambda: seen.append("kept"))
        ev.cancel()
        eng.run()
        assert seen == ["kept"]

    def test_peek_time(self):
        eng = Engine()
        assert eng.peek_time() is None
        ev = eng.schedule(4.0, lambda: None)
        eng.schedule(6.0, lambda: None)
        assert eng.peek_time() == 4.0
        ev.cancel()
        assert eng.peek_time() == 6.0

    def test_dispatch_counts(self):
        eng = Engine()
        for t in range(5):
            eng.schedule(float(t), lambda: None)
        n = eng.run()
        assert n == 5
        assert eng.total_dispatched == 5


class TestEdgeCases:
    def test_cancel_everything_before_run(self):
        eng = Engine()
        events = [eng.schedule(float(t), lambda: None) for t in range(5)]
        for ev in events:
            ev.cancel()
        assert eng.pending == 0
        assert eng.run() == 0
        assert eng.now == 0.0  # nothing dispatched, clock never moved

    def test_pending_prunes_cancelled_events(self):
        eng = Engine()
        events = [eng.schedule(float(t), lambda: None) for t in range(6)]
        for ev in events[::2]:
            ev.cancel()
        assert eng.pending == 3
        # pruned for real, not merely skipped: the calendar no longer
        # holds them
        queued = [ev for slot in eng._slots.values() for ev in slot]
        assert len(queued) == 3
        assert all(not ev.cancelled for ev in queued)

    def test_max_events_cutoff_mid_timestep(self):
        eng = Engine()
        seen = []
        for i in range(10):
            eng.schedule(1.0, lambda i=i: seen.append(i))
        with pytest.raises(SimulationError, match="max_events"):
            eng.run(max_events=4)
        # the cutoff fired after exactly 4 same-timestamp dispatches,
        # FIFO order preserved, and the rest stayed queued
        assert seen == [0, 1, 2, 3]
        assert eng.pending == 6
        eng.run()
        assert seen == list(range(10))

    def test_peek_time_after_drain(self):
        eng = Engine()
        eng.schedule(3.0, lambda: None)
        eng.run()
        assert eng.peek_time() is None
        assert eng.pending == 0
        # the engine is still usable after draining
        eng.schedule_after(1.0, lambda: None)
        assert eng.peek_time() == 4.0

    def test_cancel_during_dispatch(self):
        eng = Engine()
        seen = []
        later = eng.schedule(2.0, lambda: seen.append("later"))
        eng.schedule(1.0, lambda: later.cancel())
        eng.run()
        assert seen == []
