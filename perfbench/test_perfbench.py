"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

A minimal-size smoke of each workload must print every metric that
``BENCHMARK.json`` names, with its unit, and fail nothing; the output checks
must count a perturbed expected value and a changed protocol knob as
failures; and the command must refuse to run without the program.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_what_the_runner_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        tracing.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_and_fails_nothing(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["error_rate"] == 0
        assert values["trace.accounted_ratio"] == pytest.approx(1.0)
    else:
        assert all(v > 0 for v in values.values()), values


def _failed_results(workload) -> int:
    tally = run.Tally()
    run.run_pass(workload, tally, {})
    return tally.failed


def test_perturbed_expected_digest_counts_as_failure():
    expected = {w: workloads.load_expected(w) for w in workloads.WORKLOADS}
    bar = expected["model-sweep"]["bars"]["fig5/opt (32)"]
    bar["digest"] = "0" * 16
    wl = workloads.build("model-sweep", 3, smoke=True, expected=expected)
    assert _failed_results(wl) == 1


def test_changed_protocol_knob_counts_as_failure():
    from repro.bench.ablations import predictive_knobs

    wl = workloads.build("figures", 3, smoke=True)
    with predictive_knobs(coalesce=False):
        assert _failed_results(wl) >= 1
    assert _failed_results(wl) == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("figures", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
