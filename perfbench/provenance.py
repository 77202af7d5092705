"""Where and how fast a result was measured.

The calibration kernel is a fixed pure-Python loop.  Its time at start is
recorded with every result (never gated), so that numbers taken on
different hosts can be compared.  :class:`HostSpeed` also times it between
the units of a run: the shared host's speed drifts by tens of percent
within a minute, and the benchmark's times are rescaled to the reference
speed at which the kernel takes :data:`REFERENCE_KERNEL_S`.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager

KERNEL_ITERATIONS = 100_000
KERNEL_RESULT = 933_429

#: the kernel's time on the host that defined the benchmark (Intel Xeon,
#: CPython 3.11.7); times are reported at this host speed
REFERENCE_KERNEL_S = 0.010

#: one kernel sample per this many seconds of measured wall time
SAMPLE_EVERY_S = 0.25
#: a unit timed across at least this many samples is rescaled by their
#: mean rather than by its pass's
LOCAL_SAMPLES = 4


def calibration_kernel() -> int:
    acc = 0
    for i in range(KERNEL_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def kernel_sample() -> float:
    """One timed run of the calibration kernel."""
    t0 = time.perf_counter()
    result = calibration_kernel()
    elapsed = time.perf_counter() - t0
    if result != KERNEL_RESULT:
        raise RuntimeError(f"calibration kernel returned {result}")
    return elapsed


class HostSpeed:
    """Kernel samples taken every ``SAMPLE_EVERY_S`` of wall time while a
    measured block runs.  A SIGALRM timer takes them, so that units lasting
    seconds are covered as evenly as short ones; the time spent sampling
    accumulates in ``sampling_s`` for the block's timer to subtract."""

    def __init__(self, initial: int = 5) -> None:
        self.samples = [kernel_sample() for _ in range(initial)]
        self.sampling_s = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives while sampling is skipped
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append(kernel_sample())
        finally:
            self.sampling_s += time.perf_counter() - t0
            self._busy = False

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def since(self, n: int) -> float | None:
        """Mean kernel time of the samples after the first ``n``, when
        there are enough of them to stand for that stretch of the run.
        The mean, not the median: a stall that slows a sample slows the
        unit running around it just as much."""
        later = self.samples[n:]
        return statistics.fmean(later) if len(later) >= LOCAL_SAMPLES else None

    def scale(self, kernel_s: float | None = None) -> float:
        """Factor that converts host seconds to reference seconds, from
        ``kernel_s`` or else from the whole run's mean kernel time."""
        if kernel_s is None:
            kernel_s = statistics.fmean(self.samples)
        return REFERENCE_KERNEL_S / kernel_s


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: pathlib.Path) -> str | None:
    """The git commit, when the benchmark runs in a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: pathlib.Path) -> str:
    """Hash of every source file of the program, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def collect(root: pathlib.Path, loadavg: tuple) -> dict:
    import numpy

    return {
        "commit": _commit(root),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(loadavg),
        "calibration_kernel_s": statistics.median(
            kernel_sample() for _ in range(5)),
    }
