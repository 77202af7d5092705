"""Farm transports: how jobs reach workers and results come back.

The scheduler decides *what* runs where (:mod:`repro.farm.scheduler`); a
transport is the dumb pipe that moves :class:`~repro.farm.jobs.FarmJob`
records out and result messages back.  The split is the multi-host seam:
the coordinator drives any object with this interface, so a future
backend that ships jobs to other machines (ssh, a job queue, an RPC mesh)
slots in without touching scheduling, retry, or merge logic.

Wire protocol (one tuple shape both ways keeps backends trivial):

* coordinator -> worker: ``("job", FarmJob)`` or ``("stop",)``
* worker -> coordinator: ``(kind, worker_id, job_index, payload)`` with
  ``kind`` one of ``up`` / ``result`` / ``error`` / ``progress`` /
  ``preempted`` / ``down``

Two backends ship:

* :class:`LocalProcessTransport` — a multiprocessing worker pool (fork
  where available, spawn otherwise): one job queue, one private result
  pipe and one preemption flag per worker, and crash detection + respawn
  via process liveness.
* :class:`InlineTransport` — executes jobs synchronously in-process.
  Zero isolation, zero overhead: the deterministic reference backend the
  farm tests drive the coordinator through, and the degenerate case a
  single-worker farm collapses to.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Callable

from repro.farm.jobs import FarmJob
from repro.util.errors import SimulationError


class FarmError(SimulationError):
    """A farm-level failure (worker crash budget exhausted, job error)."""


def _mp_context():
    """Prefer fork (workers inherit module state — monkeypatches and caches
    included); fall back to spawn where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ResultSender:
    """Worker-side end of one worker's private result pipe.

    Offers the ``put`` of a queue, but sends synchronously on a pipe no
    other process writes to.  A shared ``multiprocessing.Queue`` would let
    a worker that dies mid-write (while its feeder thread holds the
    queue's write lock) wedge every other worker's results for good.
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def put(self, message: tuple) -> None:
        self._conn.send(message)


class LocalProcessTransport:
    """A local worker pool over multiprocessing queues and pipes.

    Jobs go out on one queue per worker; results come back on one pipe per
    worker process, whose only write end that process holds, so its death
    reads as end-of-file instead of blocking the coordinator.
    ``stop_grace``/``kill_grace`` bound shutdown: a worker that ignores
    the stop message gets SIGTERM after ``stop_grace`` seconds, and one
    that ignores SIGTERM too gets SIGKILL after ``kill_grace`` more —
    ``stop()`` never leaves a live child behind.
    """

    def __init__(self, n_workers: int, *, stop_grace: float = 10.0,
                 kill_grace: float = 5.0):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.stop_grace = stop_grace
        self.kill_grace = kill_grace
        self._ctx = _mp_context()
        self._job_qs = [self._ctx.Queue() for _ in range(n_workers)]
        self._preempt_flags = [self._ctx.Event() for _ in range(n_workers)]
        self._procs: list = [None] * n_workers
        #: read ends of every worker process's result pipe; a dead
        #: process's pipe stays until drained to end-of-file
        self._readers: list = []

    # -- lifecycle -------------------------------------------------------------

    def start(self, worker_main: Callable) -> None:
        for wid in range(self.n_workers):
            self._spawn(wid, worker_main)
        self._worker_main = worker_main

    def _spawn(self, wid: int, worker_main: Callable) -> None:
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, self._job_qs[wid], ResultSender(writer),
                  self._preempt_flags[wid]),
            daemon=True,
            name=f"repro-farm-worker-{wid}",
        )
        proc.start()
        # the worker now holds the only write end: its exit is EOF here
        writer.close()
        self._procs[wid] = proc
        self._readers.append(reader)

    def respawn(self, wid: int) -> None:
        """Replace a dead worker with a fresh process (same id and deck)."""
        proc = self._procs[wid]
        if proc is not None and proc.is_alive():  # pragma: no cover
            raise FarmError(f"worker {wid} is still alive; refusing respawn")
        self._preempt_flags[wid].clear()
        self._spawn(wid, self._worker_main)

    def stop(self) -> None:
        for wid in range(self.n_workers):
            proc = self._procs[wid]
            if proc is not None and proc.is_alive():
                self._job_qs[wid].put(("stop",))
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=self.stop_grace)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=self.kill_grace)
                if proc.is_alive():
                    # SIGTERM ignored (masked handler, wedged in C code):
                    # escalate to SIGKILL rather than leak a zombie
                    proc.kill()
                    proc.join(timeout=self.kill_grace)
        for reader in self._readers:
            reader.close()
        self._readers = []

    # -- messaging -------------------------------------------------------------

    def send(self, wid: int, message: tuple) -> None:
        self._job_qs[wid].put(message)

    def recv(self, timeout: float = 0.2) -> tuple | None:
        """The next worker message, or None after ``timeout`` seconds.

        Waits on every result pipe at once.  A pipe at end-of-file — its
        worker exited, possibly mid-message — is dropped; the liveness
        sweep handles the death.  The pipe read from moves to the back,
        so one chatty worker cannot starve the others.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            if not self._readers:
                time.sleep(remaining)
                return None
            for reader in wait(self._readers, timeout=remaining):
                self._readers.remove(reader)
                try:
                    message = reader.recv()
                except (EOFError, OSError):
                    reader.close()
                    continue
                self._readers.append(reader)
                return message

    # -- preemption and liveness -----------------------------------------------

    def preempt(self, wid: int) -> None:
        self._preempt_flags[wid].set()

    def clear_preempt(self, wid: int) -> None:
        self._preempt_flags[wid].clear()

    def alive(self, wid: int) -> bool:
        proc = self._procs[wid]
        return proc is not None and proc.is_alive()


class _InlineControl:
    """Preemption/streaming context handed to inline job execution."""

    def __init__(self, transport: "InlineTransport", job: FarmJob):
        self._transport = transport
        self._job = job

    def should_preempt(self) -> bool:
        return self._transport._preempt.get(0, False)

    def stream(self, envelope) -> None:
        self._transport._inbox.append(
            ("progress", 0, self._job.index, envelope))


class InlineTransport:
    """Synchronous single-"worker" backend: jobs run on send().

    Presents exactly one worker (id 0).  Used by tests to drive the
    coordinator deterministically without processes, and by the farm when
    ``jobs=1`` still wants the farm's event stream.
    """

    n_workers = 1

    def __init__(self):
        self._inbox: deque[tuple] = deque()
        self._preempt = {0: False}
        self._started = False

    def start(self, worker_main: Callable) -> None:
        # worker_main is process-entry machinery; inline execution goes
        # straight to the job executor instead
        self._inbox.append(("up", 0, None, None))
        self._started = True

    def stop(self) -> None:
        self._started = False

    def send(self, wid: int, message: tuple) -> None:
        if message[0] == "stop":
            self._inbox.append(("down", 0, None, None))
            return
        job: FarmJob = message[1]
        from repro.farm.worker import execute_job

        control = _InlineControl(self, job)
        try:
            payload = execute_job(job, control)
        except Exception as exc:  # mirror the process worker's catch-all
            import traceback

            self._inbox.append(
                ("error", 0, job.index,
                 f"{type(exc).__name__}: {exc}\n"
                 f"{traceback.format_exc().rstrip()}"))
            return
        if isinstance(payload, tuple) and payload[0] == "preempted":
            self._inbox.append(("preempted", 0, job.index, payload[1]))
        else:
            self._inbox.append(("result", 0, job.index, payload))

    def recv(self, timeout: float = 0.2) -> tuple | None:
        return self._inbox.popleft() if self._inbox else None

    def preempt(self, wid: int) -> None:
        self._preempt[wid] = True

    def clear_preempt(self, wid: int) -> None:
        self._preempt[wid] = False

    def alive(self, wid: int) -> bool:
        return self._started

    def respawn(self, wid: int) -> None:  # pragma: no cover - cannot die
        raise FarmError("inline transport workers cannot crash")
