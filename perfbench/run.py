"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figures|model-sweep|campaign \\
        --seed N --seconds S --trace 0|1 [--smoke]

With ``--trace 0`` the run reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb, model_err_pct); with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics.  Every unit's output is
checked against the recorded expected values.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: set-up is timed in this many fresh processes; setup_s is their median
SETUP_PROBES = 7

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "model_err_pct": "%"}

#: at most this many failure messages are printed per run
MAX_MESSAGES = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("figures", "model-sweep", "campaign"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long to keep repeating the workload's units")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal-size batch (the benchmark's self-tests)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``
    from it; exit non-zero when the checkout holds no program."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {exc}")
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: repro was imported from "
                         f"{repro.__file__}, not from {src}")


class Tally:
    """Attempted and failed results over a run, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, runs: int, messages: list[str]) -> None:
        self.attempted += runs
        self.failed += min(runs, len(messages))
        for m in messages:
            if len(self.messages) < MAX_MESSAGES:
                print(f"FAIL {m}", flush=True)
            self.messages.append(m)


def run_pass(workload, tally, last, host=None, deadline=None,
             recorder=None):
    """One pass over the units in order.  A pass with a ``deadline`` stops
    before a unit whose last time says it would end after the deadline.
    ``host`` samples the host's speed while the pass runs.  Returns the
    host time and output of every unit that ran, and the mean kernel time
    sampled during each unit, or during the pass for units too short to
    span enough samples (None when the pass is too short as well)."""
    workload.before_pass()
    gc.collect()
    times, outputs, kernel = {}, {}, {}
    pass_start = len(host.samples) if host is not None else 0
    with host.sampling() if host is not None else contextlib.nullcontext():
        for unit in workload.units:
            if (deadline is not None
                    and time.perf_counter() + last[unit.uid] > deadline):
                break
            if host is not None:
                sampled, n_samples = host.sampling_s, len(host.samples)
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    out = unit.call()
                else:
                    out = recorder.run_unit(unit.uid, unit.call)
            except Exception as exc:  # a failing unit is counted, not fatal
                last[unit.uid] = time.perf_counter() - t0
                tally.add(unit.runs, [f"{unit.uid}: raised "
                                      f"{type(exc).__name__}: {exc}"])
                continue
            elapsed = time.perf_counter() - t0
            if host is not None:
                elapsed -= host.sampling_s - sampled
                kernel[unit.uid] = host.since(n_samples)
            times[unit.uid] = last[unit.uid] = elapsed
            tally.add(unit.runs, unit.check(out))
            outputs[unit.uid] = out
    if host is not None:
        # units too short to span their own samples take the pass's
        pass_kernel = host.since(pass_start)
        kernel = {uid: pass_kernel if k is None else k
                  for uid, k in kernel.items()}
    return times, outputs, kernel


def measure(workload, seconds, tally, host):
    """Repeat passes for ``seconds`` (the first pass always completes).
    Returns each unit's (host seconds, kernel time during it or None)
    samples and the first pass's outputs."""
    samples = {u.uid: [] for u in workload.units}
    last: dict = {}
    deadline = time.perf_counter() + seconds
    times, first_outputs, kernel = run_pass(workload, tally, last, host)
    while True:
        for uid, t in times.items():
            samples[uid].append((t, kernel[uid]))
        if len(times) < len(workload.units):  # cut by the deadline
            return samples, first_outputs
        times, _, kernel = run_pass(workload, tally, last, host, deadline)


def measure_traced(workload, seconds, tally, host, recorder):
    """An untimed warm-up pass, then whole untraced and traced passes in
    turn while another pair fits in ``seconds`` (at least one pair).
    Returns the mean untraced time per pass and the number of traced
    passes."""
    last: dict = {}
    deadline = time.perf_counter() + seconds
    run_pass(workload, tally, last, host)
    untraced, traced = [], 0
    while True:
        t0 = time.perf_counter()
        times, _, _ = run_pass(workload, tally, last, host)
        untraced.append(sum(times.values()))
        with recorder.installed():
            run_pass(workload, tally, last, recorder=recorder)
        traced += 1
        pair = time.perf_counter() - t0
        if time.perf_counter() + pair > deadline:
            return statistics.fmean(untraced), traced


def measure_setup(args) -> list[tuple[float, float]]:
    """Time set-up in fresh processes: from spawning the interpreter to the
    point where the first unit would start (imports, calibration and
    expected-output load, input generation).  Each process then times the
    calibration kernel itself.  Returns (host seconds, kernel seconds)
    pairs."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{out.stderr}")
        ready, kernel_s = map(float, out.stdout.split()[-2:])
        samples.append((ready - t0, kernel_s))
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    import_program()
    from perfbench import provenance, tracing, workloads

    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    if args.setup_probe:
        ready = time.monotonic()
        kernel_s = statistics.fmean(
            provenance.kernel_sample() for _ in range(3))
        print(ready, kernel_s)
        return 0

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={args.smoke}")
    print(f"inputs: {json.dumps(workload.inputs)}")
    prov = provenance.collect(ROOT, loadavg)
    print(f"provenance: {json.dumps(prov)}", flush=True)

    tally = Tally()
    host = provenance.HostSpeed()
    record = {"args": vars(args), "provenance": prov,
              "inputs": workload.inputs}
    if args.trace:
        recorder = tracing.SpanRecorder()
        untraced_wall, passes = measure_traced(workload, args.seconds, tally,
                                               host, recorder)
        scale = host.scale()
        values = recorder.metrics(passes, untraced_wall, scale)
        values["error_rate"] = tally.failed / tally.attempted
        metrics = {name: metric(values[name], unit)
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
        OUT_DIR.mkdir(exist_ok=True)
        recorder.save(OUT_DIR / f"spans-{args.workload}.npz")
        record["traced_passes"] = passes
        print(f"traced passes: {passes}; spans: {len(recorder.start)} "
              f"(written to {OUT_DIR.name}/spans-{args.workload}.npz)")
    else:
        setup = measure_setup(args)
        samples, outputs = measure(workload, args.seconds, tally, host)
        scale = host.scale()
        raw_wall = sum(statistics.median(t for t, _ in s)
                       for s in samples.values() if s)
        wall = sum(statistics.median(t * host.scale(k) for t, k in s)
                   for s in samples.values() if s)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(t * host.scale(k) for t, k in setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "model_err_pct": workload.model_err_pct(outputs),
        }
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
        counts = sorted({len(s) for s in samples.values()})
        print(f"wall_s: sum over {len(samples)} units of the median unit "
              f"time; {counts[0]}-{counts[-1]} samples per unit; "
              f"{raw_wall:.3f} host s")
        print(f"setup_s: median of {len(setup)} fresh processes: "
              + ", ".join(f"{t:.3f}" for t, _ in setup) + " host s")
        print(f"error_rate: {tally.failed / tally.attempted:g} "
              f"({tally.failed} of {tally.attempted} results failed)")
        record.update(unit_samples_s=samples, setup_samples_s=setup)
    print(f"host speed: kernel mean {statistics.fmean(host.samples):.5f}"
          f" s over {len(host.samples)} samples, so host seconds x "
          f"{scale:.4f} make reference seconds (units spanning enough "
          f"samples use their own)")
    record.update(kernel_samples_s=host.samples, scale=scale)

    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record.update(result=result, failures=tally.messages)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
