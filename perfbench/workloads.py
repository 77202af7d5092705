"""The benchmark's workloads: timed units, their inputs, and output checks.

A *unit* is one call into a public entry point of ``repro``.  It covers
``runs`` countable results (figure bars, model points, or seed x protocol
campaign runs).  ``check`` compares the unit's output with the expected
values recorded once by ``perfbench/record.py`` and returns one message per
result that differs.  Everything here is built before the first timed unit,
so it counts towards ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
from dataclasses import dataclass
from typing import Any, Callable

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACES_DIR = REPO_ROOT / "examples" / "traces"
#: the committed model calibration, which ``repro sweep --model`` loads
CALIBRATION = REPO_ROOT / "benchmarks" / "MODEL_calibration.json"

WORKLOADS = ("figures", "model-sweep", "campaign")

#: campaign inputs.  The benchmark seed picks the start of a window of
#: FUZZ_SEEDS consecutive fuzz seeds (wrapping at FUZZ_DOMAIN, the range
#: whose outputs are recorded) and one of the PLAN_SEEDS recorded
#: fault-plan seeds.
FUZZ_DOMAIN = 4096
FUZZ_SEEDS = 400
PLAN_SEEDS = 32
#: each fault plan runs over this many generated workloads (plus the
#: bundled traces), reseeded this many times
PLAN_WORKLOADS = 2
PLAN_VARIANTS = 2

#: model-sweep inputs: every app grid sweeps GRID_LATENCIES msg_latency
#: values that the benchmark seed draws from LATENCY_MENU
LATENCY_MENU = (250, 500, 750, 1000, 1500, 2000, 3000, 4000)
GRID_LATENCIES = 3

#: the smoke size keeps one figure, its model bars and two fault plans
SMOKE_FUZZ_SEEDS = 5
SMOKE_PLANS = ("drop", "crash")


def digest(obj) -> str:
    """Short content hash of a JSON-safe object (canonical JSON)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def spec_key(spec) -> str:
    """Identity of a figure bar shared by the simulator and model specs."""
    app = spec.app.__name__.rsplit(".", 1)[-1]
    return (f"{app}|{spec.protocol}|{int(spec.optimized)}|"
            f"{spec.config.block_size}|{spec.variant}")


def point_key(row: dict, axes) -> str:
    return json.dumps({a: row[a] for a in axes}, sort_keys=True)


def load_expected(name: str) -> dict:
    with open(EXPECTED_DIR / f"{name}.json") as f:
        return json.load(f)


@dataclass
class Unit:
    uid: str
    runs: int
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    name: str
    units: list[Unit]
    #: run untimed before every pass over the units
    before_pass: Callable[[], None]
    #: model_err_pct (%) from one pass's outputs, keyed by unit id
    model_err_pct: Callable[[dict], float]
    #: what the seed chose, for the log
    inputs: dict


def build(name: str, seed: int, smoke: bool = False,
          expected: dict | None = None) -> Workload:
    """The workload ``name`` for ``seed``; ``expected`` overrides the
    recorded outputs (the self-tests perturb them)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of "
                         f"{WORKLOADS}")
    if expected is None:
        expected = {w: load_expected(w) for w in WORKLOADS}
    builder = {"figures": _figures, "model-sweep": _model_sweep,
               "campaign": _campaign}[name]
    return builder(seed, smoke, expected)


def recorded_walls(expected: dict, name: str) -> dict[str, float]:
    """Recorded wall time of each bar of ``name``'s expected outputs, keyed
    by :func:`spec_key`."""
    return {b["spec"]: b["wall"] for b in expected[name]["bars"].values()}


def _max_err_pct(pairs) -> float:
    """max |model - sim| / sim over (model wall, sim wall) pairs, in %."""
    return 100.0 * max(abs(m - s) / s for m, s in pairs)


# --------------------------------------------------------------------------- #
# figures: the 12 Fig-5/6/7 bars on the simulator
# --------------------------------------------------------------------------- #


def _figures(seed: int, smoke: bool, expected: dict) -> Workload:
    from repro.bench import figures as F

    bars = expected["figures"]["bars"]
    model_walls = recorded_walls(expected, "model-sweep")
    figs = [("fig5", F.fig5_adaptive, F.check_fig5),
            ("fig6", F.fig6_barnes, F.check_fig6),
            ("fig7", F.fig7_water, F.check_fig7)]
    if smoke:
        figs = figs[:1]

    def make_call(run, check_shape):
        def call():
            fig = run()
            check_shape(fig)
            return fig
        return call

    def make_check(prefix: str):
        want = {k: v for k, v in bars.items() if k.startswith(prefix)}

        def check(fig) -> list[str]:
            got = {f"{fig.name}/{v.spec.label}": v for v in fig.versions}
            msgs = [f"{k}: bar missing" for k in sorted(set(want) - set(got))]
            msgs += [f"{k}: unexpected bar" for k in sorted(set(got) - set(want))]
            for key in sorted(set(want) & set(got)):
                d = digest(got[key].stats.to_dict())
                if d != want[key]["digest"]:
                    msgs.append(f"{key}: RunStats digest {d} != expected "
                                f"{want[key]['digest']} (wall "
                                f"{got[key].wall!r} vs {want[key]['wall']!r})")
            return msgs
        return check

    units = []
    for uid, run, check_shape in figs:
        prefix = f"Figure {uid[-1]}/"
        n_bars = sum(k.startswith(prefix) for k in bars)
        units.append(Unit(uid, n_bars, make_call(run, check_shape),
                          make_check(prefix)))

    def model_err_pct(outputs: dict) -> float:
        # the simulator side runs live; the model side is its recorded output
        return _max_err_pct(
            (model_walls[spec_key(v.spec)], v.wall)
            for fig in outputs.values() for v in fig.versions)

    return Workload("figures", units, lambda: None, model_err_pct,
                    {"figures": [u.uid for u in units]})


# --------------------------------------------------------------------------- #
# model-sweep: predict the 12 bars, then model-backed sweep grids
# --------------------------------------------------------------------------- #


def app_grids(latencies) -> dict[str, dict]:
    """One block-size x msg_latency grid per (app, protocol version) of the
    figures; ``sweep_grid`` keyword arguments keyed by grid name."""
    from repro.apps import adaptive, barnes, water
    from repro.bench import figures as F

    apps = [("adaptive", adaptive, F.ADAPTIVE_KW, F.ADAPTIVE_CFG,
             [32, 64, 256], [("stache", False, "cstar"),
                             ("predictive", True, "cstar")]),
            ("barnes", barnes, F.BARNES_KW, F.BARNES_CFG,
             [32, 128, 1024], [("stache", False, "cstar"),
                               ("predictive", True, "cstar"),
                               ("write-update", False, "spmd")]),
            ("water", water, F.WATER_KW, F.WATER_CFG,
             [32, 64, 128], [("stache", False, "cstar"),
                             ("predictive", True, "cstar"),
                             ("stache", False, "splash")])]
    grids = {}
    for app_name, app, kw, cfg, blocks, versions in apps:
        for protocol, optimized, variant in versions:
            grids[f"{app_name}/{protocol}/{variant}"] = dict(
                app=app, build_kwargs=dict(kw), base_config=cfg,
                protocol=protocol, optimized=optimized, variant=variant,
                axes={"block_size": blocks, "msg_latency": list(latencies)})
    return grids


def _model_sweep(seed: int, smoke: bool, expected: dict) -> Workload:
    from repro.bench.sweeps import sweep_grid
    from repro.model import predictor, recording
    from repro.model.calibrate import load_calibration
    from repro.model.validate import demo_grid_spec, validation_specs

    calibration = load_calibration(CALIBRATION)
    want_bars = expected["model-sweep"]["bars"]
    want_grids = expected["model-sweep"]["grids"]
    sim_walls = recorded_walls(expected, "figures")
    latencies = sorted(random.Random(seed).sample(LATENCY_MENU,
                                                  GRID_LATENCIES))
    specs = validation_specs()
    grids = app_grids(latencies)
    grids["demo"] = demo_grid_spec()
    if smoke:
        specs = [s for s in specs if s.label.startswith("fig5/")]
        grids = {k: v for k, v in grids.items() if k.startswith("adaptive/")}

    def make_predict(spec):
        def call():
            return predictor.predict(
                spec.app, dict(spec.build_kwargs), protocol=spec.protocol,
                optimized=spec.optimized, config=spec.config,
                variant=spec.variant, calibration=calibration)

        def check(pred) -> list[str]:
            d = digest(pred.stats.to_dict())
            if d != want_bars[spec.label]["digest"]:
                return [f"predict {spec.label}: RunStats digest {d} != "
                        f"expected {want_bars[spec.label]['digest']}"]
            return []
        return Unit(f"predict {spec.label}", 1, call, check)

    def make_grid(name: str, grid: dict):
        n_points = 1
        for values in grid["axes"].values():
            n_points *= len(values)

        def call():
            return sweep_grid(grid["app"], grid["build_kwargs"],
                              base_config=grid["base_config"],
                              axes=grid["axes"], backend="model",
                              protocol=grid["protocol"],
                              optimized=grid["optimized"],
                              variant=grid["variant"],
                              calibration=calibration)

        def check(doc) -> list[str]:
            want = want_grids[name]
            msgs = []
            for row in doc["rows"]:
                key = point_key(row, grid["axes"])
                if digest(row) != want.get(key):
                    msgs.append(f"grid {name} point {key}: row {row} does "
                                f"not match the expected digest "
                                f"{want.get(key)}")
            if len(doc["rows"]) != n_points:
                msgs.append(f"grid {name}: {len(doc['rows'])} rows, "
                            f"expected {n_points}")
            return msgs

        return Unit(f"grid {name}", n_points, call, check)

    units = ([make_predict(s) for s in specs]
             + [make_grid(name, g) for name, g in grids.items()])

    def before_pass() -> None:
        # every pass pays what one `repro sweep` process pays: cold caches
        recording.clear_cache()
        predictor.clear_walk_cache()

    def model_err_pct(outputs: dict) -> float:
        # the model side runs live; the simulator side is its recorded output
        return _max_err_pct(
            (pred.stats.wall_time, sim_walls[spec_key(spec)])
            for spec in specs
            if (pred := outputs.get(f"predict {spec.label}")) is not None)

    return Workload("model-sweep", units, before_pass, model_err_pct,
                    {"msg_latency": latencies, "bars": len(specs),
                     "grids": list(grids)})


# --------------------------------------------------------------------------- #
# campaign: fuzz + fault campaigns on thousands of tiny machines
# --------------------------------------------------------------------------- #


def campaign_plans(plan_seed: int) -> dict:
    """Every bundled and crash fault plan, re-seeded with ``plan_seed``."""
    from repro.faults.plan import BUNDLED_PLANS, CRASH_PLANS

    return {name: dataclasses.replace(plan, seed=plan_seed)
            for name, plan in {**BUNDLED_PLANS, **CRASH_PLANS}.items()}


def run_plan(name: str, plan):
    from repro.faults.campaign import run_campaign

    return run_campaign(plans={name: plan}, seeds=PLAN_WORKLOADS,
                        variants=PLAN_VARIANTS, traces_dir=TRACES_DIR,
                        shrink=False, check_unrecoverable=False)


def run_unrecoverable():
    from repro.faults.campaign import run_campaign

    return run_campaign(plans={}, seeds=1, traces_dir=None, shrink=False,
                        check_unrecoverable=True)


def run_fuzz_seed(seed: int):
    from repro.verify.fuzz import fuzz

    return fuzz(seeds=1, first_seed=seed, shrink=True)


def report_entry(report) -> str:
    """A campaign report's recorded form: ``"<digest>:<runs>"``."""
    return f"{digest(report.to_dict())}:{report.runs}"


def _entry(text: str) -> tuple[str, int]:
    want_digest, runs = text.split(":")
    return want_digest, int(runs)


def _report_check(label: str, want: str):
    def check(report) -> list[str]:
        d = digest(report.to_dict())
        if d != want:
            return [f"{label}: report digest {d} != expected {want} "
                    f"(ok={report.ok})"]
        return []
    return check


def _campaign(seed: int, smoke: bool, expected: dict) -> Workload:
    want = expected["campaign"]
    rng = random.Random(seed)
    first = rng.randrange(FUZZ_DOMAIN)
    plan_seed = int(rng.choice(sorted(want["plans"], key=int)))
    n_fuzz = SMOKE_FUZZ_SEEDS if smoke else FUZZ_SEEDS
    fuzz_seeds = [(first + i) % FUZZ_DOMAIN for i in range(n_fuzz)]
    plans = campaign_plans(plan_seed)
    if smoke:
        plans = {k: plans[k] for k in SMOKE_PLANS}

    units = []
    for s in fuzz_seeds:
        want_digest, runs = _entry(want["fuzz"][s])
        units.append(Unit(f"fuzz seed {s}", runs,
                          lambda s=s: run_fuzz_seed(s),
                          _report_check(f"fuzz seed {s}", want_digest)))
    for name, plan in plans.items():
        want_digest, runs = _entry(want["plans"][str(plan_seed)][name])
        units.append(Unit(f"plan {name}", runs,
                          lambda name=name, plan=plan: run_plan(name, plan),
                          _report_check(f"plan {name} (seed {plan_seed})",
                                        want_digest)))
    want_digest, runs = _entry(want["unrecoverable"])
    units.append(Unit("unrecoverable", runs, run_unrecoverable,
                      _report_check("unrecoverable plan", want_digest)))

    # Neither side of the model comparison runs here: report the gap
    # between the recorded outputs so that every workload prints the metric.
    sim_walls = recorded_walls(expected, "figures")
    recorded_err = _max_err_pct(
        (wall, sim_walls[key])
        for key, wall in recorded_walls(expected, "model-sweep").items())

    return Workload("campaign", units, lambda: None,
                    lambda outputs: recorded_err,
                    {"fuzz_seeds": f"{fuzz_seeds[0]}..{fuzz_seeds[-1]} "
                                   f"(mod {FUZZ_DOMAIN}, {n_fuzz} seeds)",
                     "plan_seed": plan_seed, "plans": list(plans)})
