"""The discrete-event engine: a slotted calendar queue with batched dispatch.

Events dispatch in ``(time, seq)`` order with FIFO tie-breaking via a
global sequence number, so runs are exactly reproducible.  Callbacks may
schedule further events; :meth:`Engine.run` drains the queue.

The queue is a *calendar*: a dict mapping each distinct timestamp to its
slot (a list of entries) plus a small heap of the distinct slot times.
Sequence numbers are allocated in increasing order as entries are
appended, so every slot list is seq-ascending by construction and never
needs sorting; a whole same-timestamp batch dispatches with one dict pop
and one heap pop.

Two kinds of entry share a slot:

* :class:`Event` instances from :meth:`Engine.schedule` — the generic
  (cancellable) path, used by protocols, transports and timers;
* bare ``(proc, incarnation)`` tuples from :meth:`Engine.push_step` —
  replay-processor continuations, dispatched by calling
  ``proc.step(horizon)`` so the hot replay loop allocates no Event and no
  closure.  ``incarnation >= 0`` is the crash-restart guard: a
  continuation whose node is down, or has restarted since it was
  scheduled, counts as a dispatched event that does nothing.

Cancel contract
---------------

:meth:`Event.cancel` only flags the event; it stays queued until a queue
operation walks past it.  Every entry point that reads the queue head must
prune flagged entries first — an all-cancelled slot is deleted and its
heap time popped — or ``peek_time`` would report a stale frontier no live
event will ever dispatch at (and the replay processors' conservative
horizon would split a dispatch in two).  ``pending`` removes cancelled
garbage outright, because quiescence checks rely on a zero return meaning
the queue holds nothing at all.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Callable

from repro.util.errors import SimulationError


class Event:
    """A scheduled, cancellable callback.  The calendar orders entries by
    slot time and append order, so events are never compared."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq}{state}>"


def _livelock(max_events: int) -> SimulationError:
    return SimulationError(
        f"exceeded max_events={max_events}; likely a livelocked model"
    )


class Engine:
    """A deterministic discrete-event simulator.

    Usage::

        eng = Engine()
        eng.schedule(10.0, lambda: ...)
        eng.run()

    ``eng.now`` is the timestamp of the event currently being dispatched
    (0.0 before the first event).  Scheduling into the past raises
    :class:`SimulationError` — that always indicates a modelling bug.
    ``default_max_events`` applies when :meth:`run` is called without an
    explicit ``max_events`` (the fuzzer's and fault campaign's livelock
    guard).
    """

    def __init__(self, default_max_events: int | None = None) -> None:
        self.now: float = 0.0
        self._seq: int = 0
        self._dispatched: int = 0
        self._running = False
        #: time -> seq-ascending list of Event | (proc, incarnation)
        self._slots: dict[float, list] = {}
        #: heap of distinct slot times present in ``_slots``
        self._times: list[float] = []
        #: batch currently being dispatched (run() in progress), or None;
        #: peek_time/pending must see its not-yet-dispatched remainder
        self._cur_list: list | None = None
        self._cur_time: float = 0.0
        self._cur_idx: int = 0
        self.default_max_events = default_max_events
        #: optional observability sink (repro.obs tracer); None keeps the
        #: drain loop's epilogue to a single identity check
        self.obs = None

    # -- scheduling ----------------------------------------------------------

    def _past(self, time: float) -> SimulationError:
        return SimulationError(
            f"cannot schedule event at t={time} before now={self.now}"
        )

    def _append(self, time: float, entry) -> None:
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = [entry]
            heappush(self._times, time)
        else:
            slot.append(entry)

    def schedule(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run at absolute ``time``."""
        if time < self.now:
            raise self._past(time)
        ev = Event(time, self._seq, fn)
        self._seq += 1
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = [ev]
            heappush(self._times, time)
        else:
            slot.append(ev)
        return ev

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, fn)

    def push_step(self, time: float, proc, incarnation: int = -1) -> None:
        """Schedule a processor continuation without Event/closure overhead.

        ``proc.step(horizon)`` runs when the entry dispatches, unless
        ``incarnation >= 0`` and the proc's node is down or has restarted
        since (the dispatch still counts).  Step entries are never
        cancelled — nothing in the model cancels a processor continuation.
        """
        if time < self.now:
            raise self._past(time)
        self._seq += 1
        self._append(time, (proc, incarnation))

    def push_steps(self, time: float, procs_with_inc: list) -> None:
        """Batch form of :meth:`push_step`: one slot, N entries, N seqs.

        Launches a phase: entries land in one calendar slot in node order.
        """
        if time < self.now:
            raise self._past(time)
        if not procs_with_inc:
            return
        self._seq += len(procs_with_inc)
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = list(procs_with_inc)
            heappush(self._times, time)
        else:
            slot.extend(procs_with_inc)

    # -- queue inspection ----------------------------------------------------

    def _peek_future(self) -> float | None:
        """Earliest slot time holding a live entry; prunes dead slots.

        Leading cancelled events are compacted away and an all-cancelled
        slot is deleted outright (its heap time popped), so a frontier of
        cancelled timers is never reported as the next event time.
        """
        slots, times = self._slots, self._times
        while times:
            t = times[0]
            slot = slots.get(t)
            if slot is None:
                # the slot was dropped by ``pending``; its heap time is stale
                heappop(times)
                continue
            i, n = 0, len(slot)
            while i < n:
                e = slot[i]
                if type(e) is tuple or not e.cancelled:
                    break
                i += 1
            if i == n:
                del slots[t]
                heappop(times)
                continue
            if i:
                del slot[:i]  # keep repeated peeks O(1) amortized
            return t
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or None if the queue is empty.

        Mid-batch (from inside a callback running under :meth:`run`) the
        not-yet-dispatched remainder of the current slot is part of the
        queue.
        """
        lst = self._cur_list
        if lst is not None:
            for j in range(self._cur_idx, len(lst)):
                e = lst[j]
                if type(e) is tuple or not e.cancelled:
                    return self._cur_time
        return self._peek_future()

    @property
    def pending(self) -> int:
        """Live (not dispatched, not cancelled) entry count; prunes garbage."""
        slots = self._slots
        n = 0
        dead: list[float] = []
        for t, slot in slots.items():
            live = [e for e in slot if type(e) is tuple or not e.cancelled]
            if len(live) != len(slot):
                if live:
                    slots[t] = live
                else:
                    dead.append(t)
            n += len(live)
        for t in dead:
            del slots[t]
            # the heap time goes stale; _peek_future prunes it lazily
        lst = self._cur_list
        if lst is not None:
            for j in range(self._cur_idx, len(lst)):
                e = lst[j]
                if type(e) is tuple or not e.cancelled:
                    n += 1
        return n

    @property
    def total_dispatched(self) -> int:
        return self._dispatched

    # -- execution -----------------------------------------------------------

    def _enter_run(self, max_events: int | None) -> int | None:
        if self._running:
            raise SimulationError("Engine.run is not reentrant")
        self._running = True
        return self.default_max_events if max_events is None else max_events

    def _exit_run(self, dispatched: int) -> int:
        if self.obs is not None and self.obs.enabled and dispatched:
            self.obs.emit("engine.run", self.now, dispatched=dispatched)
        return dispatched

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Dispatch events in (time, seq) order until the queue empties.

        ``until`` stops the run once the next event is strictly later than
        that time (the event stays queued; an emptied queue advances the
        idle clock to ``until``).  ``max_events`` guards against runaway
        models: the offending dispatch completes, then
        :class:`SimulationError` is raised.  Returns the number of events
        dispatched by this call.

        The hot case is fused inline: a step entry followed by another
        live entry in the same slot has horizon == slot time, so (op
        charges being non-negative — ``Machine.run_phase`` checks) the
        processor executes *exactly one* op before re-yielding.  That
        single op is interpreted here without calling ``step``, and the
        continuation tuple is re-pushed unchanged (the incarnation cannot
        change during a hit/compute op).  The slot's last live step entry
        takes the general ``proc.step(horizon)`` catch-up path.
        ``_dispatched`` accumulates in a local and flushes in the
        ``finally`` — nothing reads it mid-run (checkpointing requires
        quiescence).
        """
        max_events = self._enter_run(max_events)
        dispatched = 0
        limit = (1 << 62) if max_events is None else max_events
        slots, times = self._slots, self._times
        slots_get = slots.get
        peek_future = self._peek_future
        exhausted = False
        try:
            while True:
                # inline _peek_future + slot claim: find the earliest slot
                # holding a live entry, pruning dead slots and stale heap
                # times on the way (one dict lookup, no method call)
                while times:
                    t = times[0]
                    lst = slots_get(t)
                    if lst is None:
                        heappop(times)
                        continue
                    i = 0
                    n = len(lst)
                    while i < n:
                        e0 = lst[i]
                        if type(e0) is tuple or not e0.cancelled:
                            break
                        i += 1
                    if i == n:
                        del slots[t]
                        heappop(times)
                        continue
                    break
                else:
                    exhausted = True
                    break
                if until is not None and t > until:
                    break
                # take the whole same-timestamp batch in one pop (leading
                # cancelled entries are skipped via ``i``); entries
                # scheduled at t *during* the batch open a fresh slot and
                # join the next iteration, keeping (time, seq) order
                del slots[t]
                heappop(times)
                self._cur_time = t
                self._cur_list = lst
                self.now = t
                try:
                    while i < n:
                        e = lst[i]
                        i += 1
                        self._cur_idx = i
                        if type(e) is tuple:
                            proc = e[0]
                            inc = e[1]
                            if inc >= 0:
                                ctl = proc.machine.crash_controller
                                nid = proc._nid
                                if nid in ctl.down or ctl.incarnations[nid] != inc:
                                    # stale incarnation: the guard event
                                    # still counts as dispatched
                                    dispatched += 1
                                    if dispatched >= limit:
                                        raise _livelock(max_events)
                                    continue
                            if proc.done:
                                raise SimulationError(
                                    f"processor {proc._nid} ran after completion"
                                )
                            if i < n:
                                e2 = lst[i]
                                live = type(e2) is tuple or not e2.cancelled
                                if not live:
                                    j = i + 1
                                    while j < n:
                                        e2 = lst[j]
                                        if type(e2) is tuple or not e2.cancelled:
                                            live = True
                                            break
                                        j += 1
                            else:
                                live = False
                            if live:
                                # fused single-op dispatch (horizon == t)
                                ip = proc.index
                                ca = proc.crash_at
                                n_p = proc._n
                                if ip >= n_p:
                                    proc._done_exit()  # empty trace
                                elif ca is not None and ip >= ca:
                                    proc._crash_exit()
                                else:
                                    op = proc.ops[ip]
                                    kind = op[0]
                                    if kind == "r":
                                        b = op[1]
                                        data = proc._data
                                        if b < len(data) and data[b]:
                                            hc = proc._hit
                                            t2 = proc.t + hc
                                            proc.t = t2
                                            proc._acc += hc
                                            proc._hits += 1
                                            ip += 1
                                            proc.index = ip
                                            nid = proc._nid
                                            proc._accessed.add((nid, b))
                                            hooks = proc._hooks
                                            if hooks:
                                                for h in hooks:
                                                    h(nid, b, "r")
                                            if ip >= n_p:
                                                proc._done_exit()
                                            elif ca is not None and ip >= ca:
                                                # crash fires before the yield
                                                proc._crash_exit()
                                            else:
                                                self._seq += 1
                                                slot2 = slots_get(t2)
                                                if slot2 is None:
                                                    slots[t2] = [e]
                                                    heappush(times, t2)
                                                else:
                                                    slot2.append(e)
                                        else:
                                            proc._miss_exit(op)
                                    elif kind == "c":
                                        c = op[1]
                                        t2 = proc.t + c
                                        proc.t = t2
                                        proc._acc += c
                                        ip += 1
                                        proc.index = ip
                                        if ip >= n_p:
                                            proc._done_exit()
                                        elif ca is not None and ip >= ca:
                                            proc._crash_exit()
                                        else:
                                            self._seq += 1
                                            slot2 = slots_get(t2)
                                            if slot2 is None:
                                                slots[t2] = [e]
                                                heappush(times, t2)
                                            else:
                                                slot2.append(e)
                                    elif kind == "w":
                                        b = op[1]
                                        data = proc._data
                                        if b < len(data) and data[b] == 2:
                                            hc = proc._hit
                                            t2 = proc.t + hc
                                            proc.t = t2
                                            proc._acc += hc
                                            proc._hits += 1
                                            ip += 1
                                            proc.index = ip
                                            nid = proc._nid
                                            proc._accessed.add((nid, b))
                                            proc._pwrites.add((nid, b))
                                            hooks = proc._hooks
                                            if hooks:
                                                for h in hooks:
                                                    h(nid, b, "w")
                                            if ip >= n_p:
                                                proc._done_exit()
                                            elif ca is not None and ip >= ca:
                                                # crash fires before the yield
                                                proc._crash_exit()
                                            else:
                                                self._seq += 1
                                                slot2 = slots_get(t2)
                                                if slot2 is None:
                                                    slots[t2] = [e]
                                                    heappush(times, t2)
                                                else:
                                                    slot2.append(e)
                                        else:
                                            proc._miss_exit(op)
                                    else:
                                        raise SimulationError(
                                            f"unknown trace op {op!r}"
                                        )
                            else:
                                horizon = peek_future()
                                r = proc.step(
                                    horizon if horizon is not None else inf
                                )
                                if r is not None:
                                    # re-yield: same tuple, next seq
                                    self._seq += 1
                                    slot2 = slots_get(r)
                                    if slot2 is None:
                                        slots[r] = [e]
                                        heappush(times, r)
                                    else:
                                        slot2.append(e)
                            dispatched += 1
                            if dispatched >= limit:
                                raise _livelock(max_events)
                        elif not e.cancelled:
                            e.fn()
                            dispatched += 1
                            if dispatched >= limit:
                                raise _livelock(max_events)
                finally:
                    self._cur_list = None
                    rem = lst[i:]
                    if rem:
                        # an exception unwound mid-batch: put the
                        # undispatched remainder back at the slot's head
                        existing = slots_get(t)
                        if existing is None:
                            slots[t] = rem
                            heappush(times, t)
                        else:
                            # entries scheduled at t during the batch carry
                            # higher seqs, so remainder-first keeps order
                            slots[t] = rem + existing
            if until is not None and self.now < until and exhausted:
                self.now = until
        finally:
            self._running = False
            self._dispatched += dispatched
        return self._exit_run(dispatched)
