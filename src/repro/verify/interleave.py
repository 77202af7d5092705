"""Interleaving exploration: pluggable tie-break over same-timestamp events.

The base :class:`~repro.sim.engine.Engine` breaks ties between events with
equal timestamps in FIFO (schedule) order, which makes runs reproducible but
exercises exactly one of the many *legal* message orders — two messages that
arrive at the same instant are semantically unordered, so a correct protocol
must tolerate every permutation.  :class:`ExplorerEngine` exposes that choice
as a :class:`TieBreakPolicy`:

* :class:`FifoPolicy` — the base engine's order (always index 0);
* :class:`SeededRandomPolicy` — a seeded pseudo-random pick at every choice
  point, so one seed names one complete interleaving;
* :class:`ReplayPolicy` — follow a recorded choice list, then fall back to
  FIFO; this is what makes violation traces replayable and shrinkable;
* :class:`DfsPolicy` — used by :func:`explore_dfs` to enumerate distinct
  interleavings systematically (bounded depth-first search over choice
  points, in the stateless-model-checking style).

Every policy the explorer consults records its decisions in ``choices`` and
the number of ready events it chose among in ``frontiers``; together with
the workload seed this is a complete, replayable schedule.  FIFO runs never
consult the policy (the engine's own order is FIFO), so they record nothing:
an empty schedule *is* the FIFO schedule.
"""

from __future__ import annotations

import random
from heapq import heappop
from typing import Callable, Iterator

from repro.sim.engine import Engine, Event, _livelock


class TieBreakPolicy:
    """Decides which of several same-timestamp events dispatches first."""

    def __init__(self) -> None:
        #: index chosen at each choice point (frontier size 1 is skipped)
        self.choices: list[int] = []
        #: frontier size at each recorded choice point
        self.frontiers: list[int] = []

    def choose(self, frontier: list[Event]) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def pick(self, frontier: list[Event]) -> int:
        """Record-keeping wrapper around :meth:`choose`."""
        if len(frontier) == 1:
            return 0
        i = self.choose(frontier)
        self.choices.append(i)
        self.frontiers.append(len(frontier))
        return i

    def describe(self) -> str:
        return type(self).__name__


class FifoPolicy(TieBreakPolicy):
    """The base engine's deterministic order: lowest sequence number first."""

    def choose(self, frontier: list[Event]) -> int:
        return 0


class SeededRandomPolicy(TieBreakPolicy):
    """Uniform random tie-breaks from one seed = one named interleaving."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, frontier: list[Event]) -> int:
        return self._rng.randrange(len(frontier))

    def describe(self) -> str:
        return f"SeededRandomPolicy(seed={self.seed})"


class ReplayPolicy(TieBreakPolicy):
    """Follow a recorded choice prefix, then fall back to FIFO.

    Choices beyond the current frontier size are clamped, so a schedule
    recorded against one run stays applicable to slightly perturbed reruns
    (this is what lets shrinking cut the schedule down to a prefix).
    """

    def __init__(self, schedule: list[int]) -> None:
        super().__init__()
        self.schedule = list(schedule)
        self._cursor = 0

    def choose(self, frontier: list[Event]) -> int:
        if self._cursor < len(self.schedule):
            i = min(self.schedule[self._cursor], len(frontier) - 1)
            self._cursor += 1
            return i
        return 0

    def describe(self) -> str:
        return f"ReplayPolicy({self.schedule})"


class DfsPolicy(ReplayPolicy):
    """ReplayPolicy that keeps recording after the prefix (for DFS search)."""


class ExplorerEngine(Engine):
    """An engine whose same-timestamp dispatch order is policy-controlled.

    The frontier at each dispatch is the live entries of the earliest
    calendar slot, in sequence order — exactly the events of the earliest
    timestamp, FIFO first — so choice indices are stable across replays.
    Entries scheduled at that timestamp by the chosen callback join the
    same slot and the next frontier.  With :class:`FifoPolicy` every choice
    is index 0, so the explorer runs the base engine's batched loop (fused
    single-op dispatch included) and records no choice points; any other
    policy dispatches one entry per pick, step entries through
    ``proc.step``.  ``default_max_events`` bounds every :meth:`run` call
    so a protocol bug that livelocks under an adversarial order is
    reported as a :class:`~repro.util.errors.SimulationError` instead of
    hanging the fuzzer.
    """

    def __init__(self, policy: TieBreakPolicy | None = None,
                 default_max_events: int | None = 2_000_000) -> None:
        super().__init__(default_max_events)
        self.policy = policy if policy is not None else FifoPolicy()

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        policy = self.policy
        if type(policy) is FifoPolicy:
            return super().run(until=until, max_events=max_events)
        max_events = self._enter_run(max_events)
        dispatched = 0
        slots, times = self._slots, self._times
        try:
            while True:
                t = self._peek_future()
                if t is None:
                    if until is not None and self.now < until:
                        self.now = until
                    break
                if until is not None and t > until:
                    break
                frontier = [e for e in slots[t]
                            if type(e) is tuple or not e.cancelled]
                chosen = frontier.pop(policy.pick(frontier))
                if frontier:
                    slots[t] = frontier
                else:
                    del slots[t]
                    heappop(times)
                self.now = t
                if type(chosen) is tuple:
                    self._step_entry(chosen)
                else:
                    chosen.fn()
                dispatched += 1
                self._dispatched += 1
                if max_events is not None and dispatched >= max_events:
                    raise _livelock(max_events)
        finally:
            self._running = False
        return self._exit_run(dispatched)


def explore_dfs(
    run: Callable[[TieBreakPolicy], object],
    max_runs: int = 64,
    max_depth: int = 12,
) -> Iterator[tuple[list[int], object]]:
    """Bounded depth-first enumeration of distinct interleavings.

    ``run(policy)`` must execute the workload from scratch under ``policy``
    and return an arbitrary result.  Yields ``(choice_prefix, result)`` per
    executed schedule.  Branching is limited to the first ``max_depth``
    choice points; at most ``max_runs`` schedules execute.  Exceptions from
    ``run`` propagate to the caller (they are the interesting outcome).
    """
    stack: list[list[int]] = [[]]
    executed = 0
    while stack and executed < max_runs:
        prefix = stack.pop()
        policy = DfsPolicy(prefix)
        result = run(policy)
        executed += 1
        # Branch on every choice point this run passed beyond its prefix:
        # sibling schedules take alternative indices at that point.
        for pos in range(len(prefix), min(len(policy.choices), max_depth)):
            width = policy.frontiers[pos]
            base = policy.choices[:pos]
            for alt in range(width - 1, 0, -1):
                if alt != policy.choices[pos]:
                    stack.append(base + [alt])
        yield policy.choices[:], result
