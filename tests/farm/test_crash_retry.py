"""Worker-crash handling: dead workers are respawned, their jobs retried,
and the retried campaign's aggregate is identical to an undisturbed one.

Workers fork from the test process, so monkeypatching
``repro.farm.worker._before_job_hook`` here installs the hook in every
worker.  The hook ``os._exit``s mid-job — a hard crash the coordinator can
only see as process death — on the job's *first* attempt only (retries
carry an ``attempt`` marker in their params), proving one crash costs one
retry, not the campaign.
"""

import json
import os
import signal
import threading
import time
from contextlib import contextmanager

import pytest

from repro.farm import FarmError, FarmJob, run_farm
from repro.farm import worker as farm_worker
from repro.farm.transport import LocalProcessTransport, _mp_context
from repro.obs.events import EventKind, EventTrace
from repro.verify.fuzz import fuzz

pytestmark = pytest.mark.skipif(
    _mp_context().get_start_method() != "fork",
    reason="crash-hook injection relies on fork inheritance",
)


def crash_first_attempt_of(index):
    def hook(job):
        if job.index == index and "attempt" not in job.params:
            os._exit(13)  # simulate a dying worker, not a job exception

    return hook


def test_crashed_job_is_retried_and_aggregate_unchanged(monkeypatch):
    seq = fuzz(seeds=4)

    monkeypatch.setattr(farm_worker, "_before_job_hook",
                        crash_first_attempt_of(2))
    tracer = EventTrace()
    par = fuzz(seeds=4, jobs=2, tracer=tracer)

    assert json.dumps(par.to_dict(), sort_keys=True) \
        == json.dumps(seq.to_dict(), sort_keys=True)
    kinds = tracer.counts()
    assert kinds.get(EventKind.FARM_RETRY, 0) >= 1
    # the crashed worker came back: one respawn-up beyond the initial pair
    assert kinds[EventKind.FARM_WORKER_UP] >= 3


def test_repeated_crashes_exhaust_the_retry_budget(monkeypatch):
    def always_crash(job):
        if job.index == 0:
            os._exit(13)

    monkeypatch.setattr(farm_worker, "_before_job_hook", always_crash)
    jobs = [FarmJob(index=i, kind="fuzz-seed",
                    params={"seed": i, "protocols": ["stache"],
                            "shrink": False})
            for i in range(2)]
    with pytest.raises(FarmError, match="job#0 .*retry budget"):
        run_farm(jobs, n_workers=2, max_retries=1,
                 transport=LocalProcessTransport(2), poll_interval=0.05)


def test_job_exception_fails_fast_without_retry():
    jobs = [FarmJob(index=0, kind="no-such-kind")]
    with pytest.raises(FarmError, match="no-such-kind"):
        run_farm(jobs, n_workers=2)


@contextmanager
def hard_timeout(seconds):
    """Fail (instead of hanging) when the block outlives ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _dies_mid_write(wid, job_q, result_q, preempt_flag):
    """Worker 0 exits while writing a result larger than the pipe buffer
    (nobody reads yet, so the write is stuck part-way); worker 1 reports
    afterwards."""
    if wid == 0:
        big = ("result", 0, 0, "x" * (1 << 20))
        threading.Thread(target=result_q.put, args=(big,), daemon=True).start()
        time.sleep(0.5)
        os._exit(13)
    time.sleep(1.5)
    result_q.put(("result", 1, 1, "ok"))
    job_q.get()  # the stop message


def test_worker_dying_mid_write_does_not_wedge_the_others():
    """A worker killed inside a result write must not block the survivors'
    results, nor the coordinator's ``recv``."""
    transport = LocalProcessTransport(2, stop_grace=1.0, kill_grace=1.0)
    transport.start(_dies_mid_write)
    try:
        time.sleep(1.0)  # worker 0 is dead before the first read
        with hard_timeout(20):
            received = []
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and ("result", 1, 1, "ok") \
                    not in received:
                message = transport.recv(timeout=0.2)
                if message is not None:
                    received.append(message)
        assert ("result", 1, 1, "ok") in received
        assert not transport.alive(0)
    finally:
        transport.stop()
