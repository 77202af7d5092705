"""Bench-snapshot tooling: schema round-trips and the normalised gate.

The committed ``benchmarks/BENCH_sim.json`` snapshot is what CI gates on,
so the tooling itself is pinned: snapshot documents must round-trip
through JSON and through :class:`~repro.obs.metrics.MetricsRegistry` and
carry their provenance, the measurement harness must reject repeats that
simulate different things, and the comparator must flag real slowdowns in
kernel-normalised time while tolerating sub-threshold noise.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import perf
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import SimulationError

REPO_ROOT = Path(__file__).resolve().parents[2]

#: a tiny lock-step case keeps measurement tests fast (~thousands of events)
TINY = perf.BenchCase("tiny/lockstep", perf.MICROBENCH, "predictive", True,
                      32, dict(ops=400), "quick")


@pytest.fixture(scope="module")
def tiny_payloads():
    return perf.measure([TINY], repeats=2)


def test_measure_enforces_equality(tiny_payloads, monkeypatch):
    (payload,) = tiny_payloads
    assert payload["events"] > 0 and payload["wall_cycles"] > 0
    # repeats that simulate different things are an error, not a timing
    walls = iter([1.0, 2.0])
    real = perf._run_microbench

    def drifting(case):
        elapsed, stats, events = real(case)
        stats.wall_time = next(walls)
        return elapsed, stats, events

    monkeypatch.setattr(perf, "_run_microbench", drifting)
    with pytest.raises(SimulationError, match="diverged"):
        perf.run_case(TINY, repeats=2)


def test_snapshot_round_trips_through_json_and_metrics(tiny_payloads):
    doc = perf.snapshot(tiny_payloads, repeats=2)
    wire = json.loads(json.dumps(doc))  # JSON-safe end to end
    loaded = perf.load_snapshot(wire)
    assert loaded["schema"] == perf.BENCH_SCHEMA
    assert loaded["mode"] == "sim"
    (row,) = loaded["workloads"]
    assert row["label"] == TINY.label
    assert row["events"] > 0
    prov = loaded["provenance"]
    assert prov["kernel_seconds"] == tiny_payloads[0]["kernel_seconds"] > 0
    assert row["norm_total"] >= row["norm_sim"] > 0
    for key in ("commit", "python", "cpu", "host_cpus"):
        assert prov[key]
    # the embedded registry round-trips through repro.obs.metrics
    reg = MetricsRegistry.from_dict(wire["metrics"])
    assert reg.to_dict() == wire["metrics"]


def test_snapshot_rejects_bad_inputs(tiny_payloads):
    with pytest.raises(ValueError):
        perf.snapshot([{**tiny_payloads[0], "kernel_seconds": 0.0}],
                      repeats=1)
    with pytest.raises(ValueError):
        perf.load_snapshot({"schema": "repro.bench/v0", "metrics": {}})


def _doc(norm: dict[str, float]) -> dict:
    return {
        "schema": perf.BENCH_SCHEMA,
        "mode": "sim",
        "repeats": 1,
        "workloads": [
            {"label": label, "norm_sim": n} for label, n in norm.items()
        ],
        "metrics": MetricsRegistry().to_dict(),
    }


def test_gate_flags_synthetic_slowdown():
    committed = _doc({"water": 30.0, "adaptive": 20.0})
    measured = _doc({"water": 37.5, "adaptive": 21.0})  # water +25%
    problems = perf.compare_snapshots(committed, measured, tolerance=0.15)
    assert len(problems) == 1
    assert "water" in problems[0] and "30 -> 37.5" in problems[0]
    # the farm's scaling rows gate on their speedup instead
    farm = {**_doc({}), "workloads": [{"label": "f", "speedup_sim": 2.0}]}
    slow = {**_doc({}), "workloads": [{"label": "f", "speedup_sim": 1.5}]}
    (problem,) = perf.compare_snapshots(farm, slow, tolerance=0.15)
    assert "2.00x -> 1.50x" in problem


def test_gate_tolerates_noise_below_threshold():
    committed = _doc({"water": 30.0, "adaptive": 20.0})
    measured = _doc({"water": 33.0, "adaptive": 22.0})  # both +10%
    assert perf.compare_snapshots(committed, measured, tolerance=0.15) == []
    # ... but a tighter tolerance flags them
    assert len(perf.compare_snapshots(committed, measured, tolerance=0.05)) == 2
    # getting faster never fails the gate
    assert perf.compare_snapshots(committed, _doc({"water": 1.0})) == []


def test_remeasurement_keeps_the_best_row():
    first = _doc({"water": 40.0, "adaptive": 20.0})
    again = _doc({"water": 31.0, "adaptive": 25.0, "barnes": 1.0})
    best = perf.best_of(first, again)
    assert {w["label"]: w["norm_sim"] for w in best["workloads"]} \
        == {"water": 31.0, "adaptive": 20.0}
    committed = _doc({"water": 30.0, "adaptive": 20.0})
    assert perf.compare_snapshots(committed, first) != []
    assert perf.compare_snapshots(committed, best) == []


def test_gate_ignores_unknown_and_missing_workloads():
    committed = _doc({"water": 30.0})
    measured = _doc({"barnes": 100.0})  # new case: no baseline to gate on
    assert perf.compare_snapshots(committed, measured) == []


def test_committed_snapshots_are_valid_and_gateable():
    """The repo's committed snapshot validates, carries provenance, and
    holds every quick-profile label CI measures (otherwise the perf gate
    would silently compare nothing)."""
    doc = perf.load_snapshot(json.loads(
        (REPO_ROOT / "benchmarks" / perf.SNAPSHOT_NAME).read_text()))
    assert doc["mode"] == "sim"
    assert doc["provenance"]["kernel_seconds"] > 0
    committed = {w["label"]: w for w in doc["workloads"]}
    for case in perf.table1_cases():
        row = committed[case.label]
        assert row["norm_sim"] > 0 and row["norm_total"] >= row["norm_sim"]
        assert row["events"] > 0 and row["wall_cycles"] > 0


def test_table1_cases_cover_the_paper_matrix():
    labels = {c.label for c in perf.table1_cases("full")}
    for app in ("adaptive", "barnes", "water"):
        assert any(label.startswith(app) for label in labels)
    assert perf.MICROBENCH in labels
