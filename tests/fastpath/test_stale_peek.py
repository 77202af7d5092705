"""Regression: cancelled events must never leave a stale frontier.

``Event.cancel`` only flags the event; it stays queued.  Without pruning,
``peek_time`` could report the time of a cancelled head event — a time no
live event would ever dispatch at — and the replay processors'
conservative horizon rule would then yield at a phantom horizon, splitting
one dispatch into two and changing the engine's sequence allocation.
``pending`` similarly counted cancelled garbage, so the quiescence check at
phase barriers could see a "non-empty" queue that would never drain.  Both
dispatch loops carry the contract — the engine's batched FIFO loop and the
explorer's per-pick loop under a tie-break policy — and both are pinned
here.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.verify.interleave import ExplorerEngine, SeededRandomPolicy

ENGINES = pytest.mark.parametrize(
    "engine_cls",
    [Engine, lambda: ExplorerEngine(SeededRandomPolicy(0))],
    ids=["Engine", "ExplorerEngine"],
)


@ENGINES
def test_peek_skips_cancelled_head(engine_cls):
    engine = engine_cls()
    first = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    first.cancel()
    assert engine.peek_time() == 2.0
    assert engine.pending == 1


@ENGINES
def test_peek_skips_fully_cancelled_timestamp(engine_cls):
    """An all-cancelled timestamp must be dropped, not merely skipped."""
    engine = engine_cls()
    doomed = [engine.schedule(1.0, lambda: None) for _ in range(3)]
    engine.schedule(4.0, lambda: None)
    for ev in doomed:
        ev.cancel()
    assert engine.peek_time() == 4.0
    assert engine.pending == 1
    assert engine.run() == 1
    assert engine.now == 4.0


@ENGINES
def test_all_cancelled_queue_is_empty(engine_cls):
    engine = engine_cls()
    events = [engine.schedule(float(t), lambda: None) for t in (1, 2, 3)]
    for ev in events:
        ev.cancel()
    assert engine.peek_time() is None
    assert engine.pending == 0
    assert engine.run() == 0


@ENGINES
def test_cancel_during_dispatch_updates_frontier(engine_cls):
    """A callback cancelling a later event must retire it from the peek
    frontier *within the same run* (the horizon read by the next dispatch)."""
    engine = engine_cls()
    seen = []
    victim = engine.schedule(5.0, lambda: seen.append("victim"))

    def killer():
        victim.cancel()
        seen.append(("peek-after-cancel", engine.peek_time()))

    engine.schedule(1.0, killer)
    engine.schedule(7.0, lambda: seen.append("tail"))
    assert engine.run() == 2
    assert seen == [("peek-after-cancel", 7.0), "tail"]
    assert engine.now == 7.0


@ENGINES
def test_pending_prunes_cancelled_garbage(engine_cls):
    """Quiescence checks rely on ``pending`` reporting live events only."""
    engine = engine_cls()
    keep = engine.schedule(2.0, lambda: None)
    garbage = [engine.schedule(1.0, lambda: None) for _ in range(10)]
    for ev in garbage:
        ev.cancel()
    assert engine.pending == 1
    keep.cancel()
    assert engine.pending == 0
    assert engine.peek_time() is None
