"""Record the benchmark's expected outputs from the current program.

    python3 perfbench/record.py [--workload NAME]

Writes ``perfbench/expected/<workload>.json``.  A file that already exists
is left alone: the expected values are recorded once, when the benchmark is
defined, and are never rewritten to follow a changed program.  Recording
the campaign domain (every fuzz seed and plan seed a benchmark seed can
pick) takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as W  # noqa: E402


def record_figures() -> dict:
    from repro.bench import figures as F

    bars = {}
    for run, check_shape in [(F.fig5_adaptive, F.check_fig5),
                             (F.fig6_barnes, F.check_fig6),
                             (F.fig7_water, F.check_fig7)]:
        fig = run()
        check_shape(fig)
        for v in fig.versions:
            bars[f"{fig.name}/{v.spec.label}"] = {
                "digest": W.digest(v.stats.to_dict()),
                "wall": v.wall,
                "spec": W.spec_key(v.spec),
            }
    return {"bars": bars}


def record_model_sweep() -> dict:
    from repro.bench.sweeps import sweep_grid
    from repro.model.calibrate import load_calibration
    from repro.model.predictor import predict
    from repro.model.validate import demo_grid_spec, validation_specs

    calibration = load_calibration(W.CALIBRATION)
    bars = {}
    for spec in validation_specs():
        pred = predict(spec.app, dict(spec.build_kwargs),
                       protocol=spec.protocol, optimized=spec.optimized,
                       config=spec.config, variant=spec.variant,
                       calibration=calibration)
        bars[spec.label] = {"digest": W.digest(pred.stats.to_dict()),
                            "wall": pred.stats.wall_time,
                            "spec": W.spec_key(spec)}
    grids = W.app_grids(W.LATENCY_MENU)
    grids["demo"] = demo_grid_spec()
    recorded = {}
    for name, g in grids.items():
        doc = sweep_grid(g["app"], g["build_kwargs"],
                         base_config=g["base_config"], axes=g["axes"],
                         backend="model", protocol=g["protocol"],
                         optimized=g["optimized"], variant=g["variant"],
                         calibration=calibration)
        recorded[name] = {W.point_key(row, g["axes"]): W.digest(row)
                          for row in doc["rows"]}
    return {"bars": bars, "grids": recorded}


def _recorded(report, label: str) -> str:
    if not report.ok:
        raise SystemExit(f"refusing to record a failing campaign: {label}")
    return W.report_entry(report)


def record_campaign() -> dict:
    fuzz = [_recorded(W.run_fuzz_seed(s), f"fuzz seed {s}")
            for s in range(W.FUZZ_DOMAIN)]
    # Plan seeds are taken in order.  A seed under which some plan does not
    # recover is skipped, with the reason kept in the file: the benchmark
    # measures campaigns in which every run succeeds.
    plans, skipped = {}, {}
    plan_seed = 0
    while len(plans) < W.PLAN_SEEDS:
        entries, failures = {}, []
        for name, plan in W.campaign_plans(plan_seed).items():
            report = W.run_plan(name, plan)
            entries[name] = W.report_entry(report)
            failures += [f"{fail.report().splitlines()[0]} "
                         f"{fail.violation.invariant}"
                         for fail in report.failures]
        if failures:
            skipped[str(plan_seed)] = failures
        else:
            plans[str(plan_seed)] = entries
        plan_seed += 1
    return {"fuzz": fuzz, "plans": plans, "skipped_plan_seeds": skipped,
            "unrecoverable": _recorded(W.run_unrecoverable(),
                                       "unrecoverable plan")}


RECORDERS = {"figures": record_figures, "model-sweep": record_model_sweep,
             "campaign": record_campaign}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, action="append",
                        help="record only this workload (repeatable)")
    args = parser.parse_args(argv)
    W.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in args.workload or W.WORKLOADS:
        path = W.EXPECTED_DIR / f"{name}.json"
        if path.exists():
            print(f"{path.name}: exists, left unchanged")
            continue
        doc = RECORDERS[name]()
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
