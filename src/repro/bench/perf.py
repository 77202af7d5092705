"""Wall-clock benchmarks and the normalised regression gate.

The suite times the Table-1 workloads (the Figure 5-7 configurations from
:mod:`repro.bench.figures`) plus a lock-step microbenchmark that isolates
pure per-event engine overhead.  The repeats of one case must agree on
``wall_time`` and ``total_dispatched`` — the simulator is deterministic, so
a divergence is a hard error, not a perf number.

The snapshot (``benchmarks/BENCH_sim.json``, schema :data:`BENCH_SCHEMA`)
embeds the per-workload timings, the runs' stats as a ``repro.metrics/v1``
registry, and its provenance: commit, Python, CPU, ``host_cpus`` and the
time of a fixed pure-Python calibration kernel.  Every timing is also
stored *normalised* by that kernel (``norm_sim`` = simulator seconds per
kernel second), which cancels most of the host's speed.  The host's speed
drifts within a minute, so the kernel is timed between the repeats of
every case and the case's best time is divided by the best kernel time
around it.  App rows also carry ``norm_valuepass``: the value pass and
trace lowering (everything outside ``run_phase`` + ``begin_group``),
normalised the same way.  The gate (:func:`compare_snapshots`) fails a
workload whose normalised simulator or value-pass time rises more than
``tolerance`` above the committed one, so an absolute slowdown fails on
any host — no second code path is needed as a denominator.

See ``docs/PERFORMANCE.md`` for the measured numbers.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.core import make_machine
from repro.obs.metrics import MetricsRegistry, registry_from_run
from repro.sim.stats import RunStats
from repro.tempest.machine import PhaseTrace
from repro.util.config import MachineConfig
from repro.util.errors import SimulationError

BENCH_SCHEMA = "repro.bench/v1"

#: default committed snapshot of the simulator suite
SNAPSHOT_NAME = "BENCH_sim.json"

#: synthetic pseudo-app label for the engine microbenchmark
MICROBENCH = "microbench/lockstep"

#: pseudo-app label for the verification case: one fuzz campaign
#: (:func:`repro.verify.fuzz.fuzz` with ``build_kwargs``: tie-break explorer,
#: invariant monitor, differential oracle, shrinking).  Its row's ``events``
#: counts the monitored runs and ``wall_cycles`` their simulated node cycles.
FUZZ = "verify/fuzz"

#: cases that build no app: no value pass (no ``norm_valuepass`` column)
#: and no corpus key
PSEUDO_APPS = (MICROBENCH, FUZZ)


@dataclass(frozen=True)
class BenchCase:
    """One benchmarked workload configuration."""

    label: str
    app: str  # app module name under repro.apps, or MICROBENCH
    protocol: str
    optimized: bool
    block_size: int
    build_kwargs: dict
    profile: str  # "full" (committed numbers) or "quick" (CI gate)


def _figure_cases() -> list[BenchCase]:
    from repro.bench.figures import (
        ADAPTIVE_KW,
        BARNES_KW,
        WATER_KW,
    )

    full = [
        BenchCase("adaptive/stache-unopt (32)", "adaptive", "stache", False,
                  32, dict(ADAPTIVE_KW), "full"),
        BenchCase("adaptive/predictive-opt (32)", "adaptive", "predictive",
                  True, 32, dict(ADAPTIVE_KW), "full"),
        BenchCase("barnes/predictive-opt (32)", "barnes", "predictive", True,
                  32, dict(BARNES_KW), "full"),
        BenchCase("water/stache-unopt (64)", "water", "stache", False,
                  64, dict(WATER_KW), "full"),
        BenchCase("water/predictive-opt (32)", "water", "predictive", True,
                  32, dict(WATER_KW), "full"),
        BenchCase("water/predictive-opt (256)", "water", "predictive", True,
                  256, dict(WATER_KW), "full"),
        BenchCase(MICROBENCH, MICROBENCH, "predictive", True, 32, {}, "full"),
    ]
    quick = [
        BenchCase("adaptive/quick (32)", "adaptive", "predictive", True,
                  32, dict(ADAPTIVE_KW, iterations=3), "quick"),
        BenchCase("water/quick (32)", "water", "predictive", True,
                  32, dict(WATER_KW, iterations=2), "quick"),
        BenchCase(MICROBENCH + " quick", MICROBENCH, "predictive", True, 32,
                  dict(ops=20_000), "quick"),
        BenchCase(FUZZ + " quick", FUZZ, "all", False, 32, dict(seeds=20),
                  "quick"),
    ]
    return full + quick


def table1_cases(profile: str | None = None) -> list[BenchCase]:
    """The benchmark matrix; ``profile`` filters to "full" or "quick"."""
    cases = _figure_cases()
    if profile is None:
        return cases
    return [c for c in cases if c.profile == profile]


def _case_config(case: BenchCase) -> MachineConfig:
    from repro.bench.figures import ADAPTIVE_CFG, BARNES_CFG, WATER_CFG

    base = {
        "adaptive": ADAPTIVE_CFG,
        "barnes": BARNES_CFG,
        "water": WATER_CFG,
        MICROBENCH: MachineConfig(n_nodes=8, page_size=512),
    }[case.app]
    return base.with_(block_size=case.block_size)


def kernel_seconds(repeats: int = 2) -> float:
    """Best-of-``repeats`` time of a fixed pure-Python kernel.

    The kernel mixes what the simulator does — integer arithmetic, float
    accumulation, dict and list traffic, method-free loops — so the ratio
    of a workload's seconds to it tracks interpreter speed, not the host.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        acc = 0.0
        table: dict[int, int] = {}
        slots: list[int] = []
        for i in range(200_000):
            acc += i * 0.5
            k = i & 1023
            table[k] = table.get(k, 0) + 1
            slots.append(k)
            if len(slots) > 64:
                slots.clear()
        best = min(best, time.perf_counter() - t0)
    return best


def provenance(kernel_s: float) -> dict:
    """Where and on what a snapshot was measured."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)), timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "host_cpus": os.cpu_count(),
        "kernel_seconds": kernel_s,
    }


@dataclass
class CaseResult:
    case: BenchCase
    sim_seconds: float
    total_seconds: float
    #: best-of seconds over the best kernel time sampled around the repeats
    norm_sim: float
    norm_total: float
    kernel_seconds: float
    #: best per-repeat total - sim seconds (value pass + lowering), raw and
    #: normalised; zero for the microbenchmark
    valuepass_seconds: float
    norm_valuepass: float
    wall_cycles: float
    events: int
    metrics: MetricsRegistry


def _run_microbench(case: BenchCase) -> tuple[float, RunStats, int]:
    """Pure engine overhead: all nodes compute in lock step, one op per
    dispatch (every op advances time past the peers' horizon)."""
    cfg = _case_config(case)
    ops_per_node = int(case.build_kwargs.get("ops", 100_000))
    machine = make_machine(cfg, case.protocol)
    trace = PhaseTrace(
        "micro", [[("c", 1.0)] * ops_per_node
                  for _ in range(cfg.n_nodes)]
    )
    t0 = time.perf_counter()
    machine.run_phase(trace)
    elapsed = time.perf_counter() - t0
    stats = machine.finish()
    return elapsed, stats, machine.engine.total_dispatched


def _run_fuzz(case: BenchCase) -> tuple[float, MetricsRegistry, float, int]:
    """One fuzz campaign; returns (seconds, metrics, node cycles, runs)."""
    from repro.verify.fuzz import fuzz

    t0 = time.perf_counter()
    report = fuzz(**case.build_kwargs)
    elapsed = time.perf_counter() - t0
    if not report.ok:
        raise SimulationError(
            f"{case.label!r} found violations:\n{report.summary()}")
    return elapsed, report.metrics, report.metrics.total("node.cycles"), \
        report.runs


def _run_app(case: BenchCase, warm=None) -> tuple[float, float, RunStats, int]:
    """One timed run; returns (sim_seconds, total_seconds, stats, events).

    ``sim_seconds`` covers ``run_phase`` + ``begin_group`` only — the
    simulator proper; ``total_seconds`` adds trace generation (the value
    pass with the app physics, and lowering each phase to blocks).
    """
    import importlib

    app = importlib.import_module(f"repro.apps.{case.app}")
    prog = app.build(**case.build_kwargs)
    machine = make_machine(_case_config(case), case.protocol, warm=warm)

    sim = [0.0]
    inner_run_phase = machine.run_phase
    inner_begin_group = machine.begin_group

    def run_phase(trace):
        t0 = time.perf_counter()
        try:
            return inner_run_phase(trace)
        finally:
            sim[0] += time.perf_counter() - t0

    def begin_group(directive_id):
        t0 = time.perf_counter()
        try:
            return inner_begin_group(directive_id)
        finally:
            sim[0] += time.perf_counter() - t0

    machine.run_phase = run_phase
    machine.begin_group = begin_group
    t0 = time.perf_counter()
    env = prog.run(machine, optimized=case.optimized)
    stats = env.finish()
    total = time.perf_counter() - t0
    return sim[0], total, stats, machine.engine.total_dispatched


def run_case(case: BenchCase, repeats: int = 3, warm=None) -> CaseResult:
    """Best-of-``repeats`` timing of one case, raw and kernel-normalised.

    Every repeat must simulate the same thing (``wall_time`` and event
    count); a divergence raises :class:`SimulationError`.  ``warm``
    (corpus schedule records) seeds every repeat identically; the
    microbenchmark has no shared data and ignores it.
    """
    best_sim = best_total = best_vp = float("inf")
    best_k = kernel_seconds()
    first = None
    for _ in range(max(1, repeats)):
        if case.app == FUZZ:
            sim_s, metrics, wall, events = _run_fuzz(case)
            total_s = sim_s
        elif case.app == MICROBENCH:
            sim_s, stats, events = _run_microbench(case)
            total_s, wall = sim_s, stats.wall_time
        else:
            sim_s, total_s, stats, events = _run_app(case, warm=warm)
            wall = stats.wall_time
        if first is None:
            first = (wall, events)
        elif (wall, events) != first:
            raise SimulationError(
                f"repeats of {case.label!r} diverged: wall/events {first} "
                f"vs {(wall, events)}"
            )
        best_sim = min(best_sim, sim_s)
        best_total = min(best_total, total_s)
        best_vp = min(best_vp, total_s - sim_s)
        best_k = min(best_k, kernel_seconds())
    if case.app != FUZZ:
        metrics = registry_from_run(stats, bench=case.label,
                                    protocol=case.protocol,
                                    block_size=case.block_size)
    return CaseResult(case, best_sim, best_total, best_sim / best_k,
                      best_total / best_k, best_k, best_vp, best_vp / best_k,
                      wall, events, metrics)


# One farm job = one timed case; the payload is plain JSON.  Host timings
# are machine-load-dependent and therefore NOT part of the determinism
# contract; the simulated results (wall_cycles, events, metrics) are, and
# the farm differential tests compare exactly those.


def case_to_spec(case: BenchCase, repeats: int = 1) -> dict:
    """A transport-safe (JSON) form of one case for ``repro.farm`` params."""
    return {
        "label": case.label, "app": case.app, "protocol": case.protocol,
        "optimized": case.optimized, "block_size": case.block_size,
        "build_kwargs": dict(case.build_kwargs), "profile": case.profile,
        "repeats": repeats,
    }


def spec_to_case(spec: dict) -> BenchCase:
    return BenchCase(spec["label"], spec["app"], spec["protocol"],
                     spec["optimized"], spec["block_size"],
                     dict(spec["build_kwargs"]), spec["profile"])


def bench_case_job(spec: dict) -> dict:
    """Farm job body: time one case; returns a JSON payload.

    ``spec`` may carry a coordinator-computed ``"warm"`` corpus envelope.
    """
    case = spec_to_case(spec)
    result = run_case(case, repeats=int(spec.get("repeats", 1)),
                      warm=spec.get("warm"))
    return {
        "case": case_to_spec(case),
        "sim_seconds": result.sim_seconds,
        "total_seconds": result.total_seconds,
        "norm_sim": result.norm_sim,
        "norm_total": result.norm_total,
        "kernel_seconds": result.kernel_seconds,
        "valuepass_seconds": result.valuepass_seconds,
        "norm_valuepass": result.norm_valuepass,
        "wall_cycles": result.wall_cycles,
        "events": result.events,
        "metrics": result.metrics.to_dict(),
    }


def measure(cases, repeats: int = 3, jobs: int = 1, tracer=None,
            progress=None, corpus=None) -> list[dict]:
    """Time every case; returns one :func:`bench_case_job` payload each.

    ``jobs > 1`` shards the cases across a local farm; ``jobs=1`` runs the
    same job body in-process, so the two differ only in where the work
    ran.  ``corpus`` warms each case's schedule-learning protocol from the
    durable store (lookup coordinator-side, read-only — the perf suite
    never harvests).
    """
    specs = [case_to_spec(case, repeats) for case in cases]
    if corpus is not None:
        from repro.corpus import bench_key, supports_warm

        for case, spec in zip(cases, specs):
            if case.app in PSEUDO_APPS or not supports_warm(case.protocol):
                continue
            cfg = _case_config(case)
            entry = corpus.lookup(
                bench_key(case.app, case.protocol, cfg,
                          optimized=case.optimized,
                          build_kwargs=dict(case.build_kwargs)),
                cfg.n_nodes,
            )
            if entry is not None:
                spec["warm"] = entry["records"]
    if jobs > 1 and len(specs) > 1:
        from repro.farm import FarmJob, run_farm

        farm = run_farm(
            [FarmJob(index=i, kind="bench-case", params=spec)
             for i, spec in enumerate(specs)],
            n_workers=jobs, tracer=tracer, progress=progress,
        )
        return [farm.results[i] for i in range(len(specs))]
    return [bench_case_job(spec) for spec in specs]


def snapshot(payloads, repeats: int) -> dict:
    """The snapshot document of one measurement.

    Every row carries raw seconds and their kernel-normalised form; the
    provenance records the fastest kernel time seen.  Run stats ride along
    as a ``repro.metrics/v1`` registry so the snapshot round-trips through
    :meth:`~repro.obs.metrics.MetricsRegistry.from_dict`.
    """
    rows = []
    for p in payloads:
        if not p["kernel_seconds"] > 0:
            raise ValueError(f"kernel time must be positive, got "
                             f"{p['kernel_seconds']!r}")
        row = dict(p["case"])
        row.pop("repeats", None)
        row.update({k: p[k] for k in (
            "sim_seconds", "total_seconds", "norm_sim", "norm_total",
            "wall_cycles", "events")})
        if row["app"] not in PSEUDO_APPS:
            row.update({k: p[k] for k in ("valuepass_seconds",
                                          "norm_valuepass")})
        rows.append(row)
    return {
        "schema": BENCH_SCHEMA,
        "mode": "sim",
        "repeats": repeats,
        "provenance": provenance(min(p["kernel_seconds"] for p in payloads)),
        "workloads": rows,
        "metrics": MetricsRegistry.merge_all(
            MetricsRegistry.from_dict(p["metrics"]) for p in payloads
        ).to_dict(),
    }


def load_snapshot(doc: dict) -> dict:
    """Validate a snapshot document (schema + embedded metrics registry)."""
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unsupported bench schema {doc.get('schema')!r}; "
            f"expected {BENCH_SCHEMA!r}"
        )
    MetricsRegistry.from_dict(doc["metrics"])  # raises on a bad registry
    return doc


#: gated kernel-normalised columns and how a regression of each is named
GATED = (("norm_sim", "normalised time"),
         ("norm_valuepass", "normalised value-pass time"))


def compare_snapshots(committed: dict, measured: dict,
                      tolerance: float = 0.15) -> list[str]:
    """The regression gate: measured rows vs the committed snapshot.

    Returns a list of human-readable regressions (empty = pass).  A row
    regresses when one of its kernel-normalised :data:`GATED` columns
    (``norm_sim``, and ``norm_valuepass`` on app rows) rises more than
    ``tolerance`` (fractionally) above the committed value, or — for the
    farm's scaling rows — when its ``speedup_sim`` falls more than
    ``tolerance`` below it.  Committed rows or columns the measurement
    skipped are ignored (CI runs the quick profile only), as are newly
    added ones (no baseline yet).
    """
    load_snapshot(committed)
    load_snapshot(measured)
    old = {w["label"]: w for w in committed["workloads"]}
    problems = []
    for row in measured["workloads"]:
        base = old.get(row["label"])
        if base is None:
            continue
        for key, what in GATED:
            was, now = base.get(key), row.get(key)
            if was is not None and now is not None \
                    and now > was * (1.0 + tolerance):
                problems.append(
                    f"{row['label']}: {what} regressed "
                    f"{was:.3g} -> {now:.3g} kernel-seconds "
                    f"(> {tolerance:.0%} above the committed snapshot)"
                )
        was, now = base.get("speedup_sim"), row.get("speedup_sim")
        if was is not None and now is not None \
                and now < was * (1.0 - tolerance):
            problems.append(
                f"{row['label']}: speedup regressed "
                f"{was:.2f}x -> {now:.2f}x "
                f"(> {tolerance:.0%} below the committed snapshot)"
            )
    return problems


def best_of(doc: dict, again: dict) -> dict:
    """``doc`` after a re-measurement ``again``: each row takes, per gated
    column, the lower of the two measurements of the same label (the rest
    of the row comes from the one with the lower ``norm_sim``)."""
    rows = {w["label"]: w for w in again["workloads"]}
    out = []
    for w in doc["workloads"]:
        other = rows.get(w["label"], w)
        best = dict(min(w, other, key=lambda r: r["norm_sim"]))
        for key, _ in GATED:
            if key in w and key in other:
                best[key] = min(w[key], other[key])
        out.append(best)
    return {**doc, "workloads": out}


def render(doc: dict) -> str:
    from repro.util.tables import format_table

    rows = [[w["label"], w["profile"], w["sim_seconds"], w["norm_sim"],
             w.get("norm_valuepass", 0.0), w["total_seconds"],
             float(w["events"])]
            for w in doc["workloads"]]
    kernel_s = doc["provenance"]["kernel_seconds"]
    return format_table(
        ["workload", "profile", "sim s", "sim / kernel",
         "value pass / kernel", "total s", "events"],
        rows,
        floatfmt=".3g",
        title=f"simulator timings (best-of-{doc['repeats']}; fastest "
              f"calibration kernel {kernel_s:.3g} s)",
    )


def _bench_sim_doc(payloads) -> list[dict]:
    """The deterministic (simulated-only) projection of bench payloads."""
    return [
        {
            "label": p["case"]["label"],
            "wall_cycles": p["wall_cycles"],
            "events": p["events"],
            "metrics": p["metrics"],
        }
        for p in payloads
    ]


def farm_scaling(jobs_curve=(1, 2, 4, 8), *, fuzz_seeds: int = 300,
                 fault_seeds: int = 3, progress=None) -> dict:
    """Measure the farm's wall-clock scaling curve; returns a snapshot doc.

    Runs the verify fuzz sweep, the fault campaign, and the quick bench
    matrix at every worker count in ``jobs_curve``, asserting each parallel
    report is byte-identical to its sequential (``jobs=1``) report before
    recording the timing.  The document uses the :data:`BENCH_SCHEMA`
    snapshot format with ``mode: "farm"`` — rows are labelled
    ``<sweep>/jobs=N`` with ``speedup_sim`` relative to the sweep's own
    sequential run, so :func:`compare_snapshots` gates on it unchanged.
    ``host_cpus`` records how much hardware parallelism the measuring host
    actually had (a 1-core host can only show ~1.0x).
    """
    import json
    import os

    from repro.faults.campaign import run_campaign
    from repro.verify.fuzz import fuzz

    # sweep sizes are chosen so each sequential run takes seconds, not
    # milliseconds — otherwise worker startup dominates and the curve
    # measures process-spawn cost instead of campaign throughput
    tiny = [
        BenchCase(f"tiny{i}/lockstep", MICROBENCH, "predictive", True, 32,
                  dict(ops=8_000), "quick")
        for i in range(8)
    ]
    sweeps = [
        ("verify-fuzz",
         lambda jobs: fuzz(seeds=fuzz_seeds, jobs=jobs),
         lambda report: report.to_dict()),
        ("faults-sweep",
         lambda jobs: run_campaign(seeds=fault_seeds, variants=1,
                                   traces_dir=None, shrink=False, jobs=jobs),
         lambda report: report.to_dict()),
        ("bench-cases",
         lambda jobs: measure(tiny, repeats=1, jobs=jobs),
         _bench_sim_doc),
    ]
    rows = []
    registries = []
    for name, run, canon in sweeps:
        base_doc = None
        base_elapsed = None
        for jobs in jobs_curve:
            if progress:
                progress(f"[farm-scaling] {name} at jobs={jobs} ...")
            t0 = time.perf_counter()
            result = run(jobs)
            elapsed = time.perf_counter() - t0
            doc = json.dumps(canon(result), sort_keys=True)
            if base_doc is None:
                base_doc, base_elapsed = doc, elapsed
                if hasattr(result, "metrics"):
                    registries.append(result.metrics)
            elif doc != base_doc:
                raise SimulationError(
                    f"farm run of {name!r} at jobs={jobs} diverged from "
                    f"its sequential report"
                )
            rows.append({
                "label": f"{name}/jobs={jobs}",
                "profile": "farm",
                "workers": jobs,
                "sim_seconds": elapsed,
                "total_seconds": elapsed,
                "speedup_sim": base_elapsed / elapsed,
                "equal_to_sequential": True,
            })
    return {
        "schema": BENCH_SCHEMA,
        "mode": "farm",
        "repeats": 1,
        "host_cpus": os.cpu_count(),
        "workloads": rows,
        "metrics": MetricsRegistry.merge_all(registries).to_dict(),
    }
