"""The calendar-queue engines must dispatch exactly like a sorted-list model.

Hypothesis generates scripted event programs — nested schedules, same-time
ties, cancellations (including of not-yet-dispatched same-slot events),
``until`` cutoffs, and ``max_events`` limits — and runs each program
through :class:`Model`, a sorted list of ``(time, seq)`` entries, and
through the engines: the FIFO :class:`~repro.sim.engine.Engine` and the
policy-driven :class:`~repro.verify.interleave.ExplorerEngine`.  The
observed dispatch sequence ``(event id, now)``, final clock, dispatch
counters, pending counts, raised errors and — under a tie-break policy —
the recorded ``choices``/``frontiers`` must all be identical.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, Event
from repro.util.errors import SimulationError
from repro.verify.interleave import (
    ExplorerEngine,
    FifoPolicy,
    ReplayPolicy,
    SeededRandomPolicy,
)


class Model:
    """Reference model: live entries sorted by (time, seq); the frontier is
    every entry at the earliest time, in seq order."""

    def __init__(self, policy=None):
        self.now, self.q, self.total_dispatched = 0.0, [], 0
        self.policy = policy or FifoPolicy()

    def schedule(self, t, fn):  # seq = entries ever scheduled
        self.q.append(Event(t, len(self.q) + self.total_dispatched, fn))
        return self.q[-1]

    def schedule_after(self, delay, fn):
        return self.schedule(self.now + delay, fn)

    def live(self):
        return sorted((e for e in self.q if not e.cancelled),
                      key=lambda e: (e.time, e.seq))

    def run(self, until=None, max_events=None):
        n = 0
        while (live := self.live()) and (until is None or live[0].time <= until):
            frontier = [e for e in live if e.time == live[0].time]
            e = frontier[self.policy.pick(frontier)]
            self.q.remove(e)
            self.now, n, self.total_dispatched = e.time, n + 1, self.total_dispatched + 1
            e.fn()
            if n == max_events:
                raise SimulationError(f"exceeded max_events={max_events}; "
                                      "likely a livelocked model")
        if until is not None and not live and self.now < until:
            self.now = until
        return n

    pending = property(lambda self: len(self.live()))

    def peek_time(self):
        return next((e.time for e in self.live()), None)


#: a small time grid maximizes same-timestamp collisions (tie-break stress)
TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.5, 3.0])
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def programs(draw):
    """A program is a list of root events; each event may, when it fires,
    schedule children (relative delays) and cancel earlier events by id."""
    n_roots = draw(st.integers(min_value=1, max_value=6))
    events = []
    eid = 0
    for _ in range(n_roots):
        events.append({
            "time": draw(TIMES),
            "children": draw(st.lists(DELAYS, max_size=3)),
            "cancels": draw(st.lists(
                st.integers(min_value=0, max_value=14), max_size=2)),
        })
        eid += 1
    return events


class Script:
    """Executes one program against an engine, recording what happens."""

    def __init__(self, engine, program):
        self.engine = engine
        self.program = program
        self.log = []
        self.handles = {}
        self.next_id = len(program)

    def start(self):
        for i, spec in enumerate(self.program):
            self.handles[i] = self.engine.schedule(
                spec["time"], self._fire(i, spec))

    def _fire(self, eid, spec):
        def fn():
            self.log.append((eid, self.engine.now))
            for target in spec["cancels"]:
                ev = self.handles.get(target)
                if ev is not None:
                    ev.cancel()
            for delay in spec["children"]:
                cid = self.next_id
                self.next_id += 1
                child = {"children": [], "cancels": []}
                self.handles[cid] = self.engine.schedule_after(
                    delay, self._fire(cid, child))
        return fn


def _execute(engine, program, until=None, max_events=None):
    script = Script(engine, program)
    script.start()
    error = None
    try:
        engine.run(until=until, max_events=max_events)
    except SimulationError as exc:
        error = str(exc)
    return {
        "log": script.log,
        "now": engine.now,
        "dispatched": engine.total_dispatched,
        "pending": engine.pending,
        "peek": engine.peek_time(),
        "error": error,
    }


def _engines():
    """(model, engine) pairs: FIFO, and a seeded tie-break policy each."""
    yield Model(), Engine()
    yield Model(SeededRandomPolicy(5)), ExplorerEngine(SeededRandomPolicy(5))


@settings(max_examples=120, deadline=None)
@given(program=programs())
def test_dispatch_order_matches_reference(program):
    for model, engine in _engines():
        assert _execute(engine, program) == _execute(model, program)


@settings(max_examples=80, deadline=None)
@given(program=programs(), until=st.sampled_from([0.0, 1.0, 2.0, 2.5, 10.0]))
def test_until_cutoff_matches_reference(program, until):
    for model, engine in _engines():
        assert (_execute(engine, program, until=until)
                == _execute(model, program, until=until))


@settings(max_examples=80, deadline=None)
@given(program=programs(), limit=st.integers(min_value=1, max_value=6))
def test_max_events_cutoff_matches_reference(program, limit):
    for model, engine in _engines():
        ref = _execute(model, program, max_events=limit)
        assert _execute(engine, program, max_events=limit) == ref
        if ref["error"] is not None:
            assert f"max_events={limit}" in ref["error"]


@settings(max_examples=80, deadline=None)
@given(program=programs(), seed=st.integers(min_value=0, max_value=50),
       prefix=st.lists(st.integers(min_value=0, max_value=3), max_size=6))
def test_policy_choices_match_model_frontiers(program, seed, prefix):
    """The explorer consults its policy at exactly the model's frontiers:
    same choice lists, same frontier sizes, same dispatch order."""
    for make in (lambda: SeededRandomPolicy(seed),
                 lambda: ReplayPolicy(prefix)):
        model, explorer = Model(make()), ExplorerEngine(make())
        assert _execute(explorer, program) == _execute(model, program)
        assert explorer.policy.choices == model.policy.choices
        assert explorer.policy.frontiers == model.policy.frontiers


@pytest.mark.parametrize("engine_cls", [Engine, ExplorerEngine])
def test_schedule_into_past_raises(engine_cls):
    engine = engine_cls()
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(1.0, lambda: None)


def test_engine_counts_like_model_on_empty_run():
    for engine in (Model(), Engine(), ExplorerEngine(SeededRandomPolicy(1))):
        assert engine.run() == 0
        assert engine.run(until=7.0) == 0
        assert engine.now == 7.0  # idle clock advances to the cutoff
