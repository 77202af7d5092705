"""Golden digests: the simulator's observable behaviour, pinned by hash.

``golden_digests.json`` holds one SHA-256 per run of a fixed matrix, taken
over canonical JSON of what the run leaves behind:

* ``replay`` — every fuzz workload seed 0-7 under all three protocols, fault
  free and under the drop, delay, chaos, crash and crash-storm plans: the
  full :func:`snapshot_machine` checkpoint (engine clock, sequence and
  dispatch counters, tags, directory, fault/crash state) plus
  :meth:`RunStats.to_dict`;
* ``apps`` — four small real-application runs, adding the engine's
  ``total_dispatched``;
* ``oracle`` — :func:`run_workload` observables (reader/writer sets, memory
  image, statistics) under FIFO tie-breaking;
* ``explore`` — :func:`run_workload` under a :class:`SeededRandomPolicy`,
  adding the recorded ``choices`` and ``frontiers``, so the tie-break
  explorer's frontiers are pinned too.

A run that raises is pinned by the digest of its exception type and message.
The digests were recorded from the heap-queue reference simulator the
calendar-queue engine replaced; any change to dispatch order, sequence
allocation, float-addition order or state layout shows up here.  The
matrix replays themselves run in ``tests/fastpath/test_differential.py``;
this module owns the matrix, the digests and their regeneration::

    PYTHONPATH=src python -m tests.sim.test_golden --write

Regenerate only for a deliberate change of simulated behaviour, and say so.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.factory import make_machine
from repro.faults.plan import BUNDLED_PLANS, CRASH_PLANS
from repro.recovery.checkpoint import snapshot_machine
from repro.tempest.tracefile import replay_session
from repro.util.config import MachineConfig
from repro.util.errors import ProtocolError
from repro.verify.interleave import SeededRandomPolicy
from repro.verify.oracle import run_workload
from repro.verify.workload import ALL_PROTOCOLS, generate_workload

GOLDEN = Path(__file__).with_name("golden_digests.json")

#: fault regimes of the replay matrix (None = fault free)
REGIMES = (None, "drop", "delay", "chaos", "crash", "crash-storm")
SEEDS = range(8)
APPS = {
    "water": dict(n=24, iterations=2, work_scale=10.0),
    "adaptive": dict(size=8, iterations=3, threshold=0.05, work_scale=4.0),
}
APP_PROTOCOLS = (("stache", False), ("predictive", True))


def sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def outcome(run) -> str:
    """Digest of ``run()``'s JSON-safe result, or of the exception it raises."""
    try:
        return sha(run())
    except Exception as exc:  # a pinned failure is an outcome too
        return sha({"error": type(exc).__name__, "message": str(exc)})


def replay_key(seed: int, protocol: str, regime: str | None) -> str:
    return f"{protocol}/{regime or 'fault-free'}/{seed}"


def run_replay(seed: int, protocol: str, regime: str | None) -> dict:
    workload = generate_workload(seed)
    machine = make_machine(workload.config, protocol)
    if regime is not None:
        machine.install_fault_plan(BUNDLED_PLANS.get(regime)
                                   or CRASH_PLANS[regime])
    stats = replay_session(workload.session, machine)
    return {"snapshot": snapshot_machine(machine), "stats": stats.to_dict()}


def app_key(app_name: str, protocol: str, optimized: bool) -> str:
    return f"{app_name}/{protocol}/{int(optimized)}"


def run_app(app_name: str, protocol: str, optimized: bool) -> dict:
    app = importlib.import_module(f"repro.apps.{app_name}")
    cfg = MachineConfig(n_nodes=4, block_size=32, page_size=256)
    machine = make_machine(cfg, protocol)
    env = app.build(**APPS[app_name]).run(machine, optimized=optimized)
    stats = env.finish()
    return {"snapshot": snapshot_machine(machine), "stats": stats.to_dict(),
            "dispatched": machine.engine.total_dispatched}


def _observables(obs) -> dict:
    return {
        "readers": {str(b): sorted(n) for b, n in obs.readers.items()},
        "writers": {str(b): sorted(n) for b, n in obs.writers.items()},
        "image": {str(b): list(v) for b, v in obs.image.items()},
        "stats": obs.stats.to_dict(),
    }


def oracle_key(seed: int, protocol: str) -> str:
    return f"{protocol}/{seed}"


def run_oracle(seed: int, protocol: str) -> dict:
    return _observables(run_workload(generate_workload(seed), protocol))


def run_explore(seed: int, protocol: str) -> dict:
    policy = SeededRandomPolicy(seed)
    obs = run_workload(generate_workload(seed), protocol, policy)
    return {"choices": policy.choices, "frontiers": policy.frontiers,
            **_observables(obs)}


def oracle_cases():
    for seed in SEEDS:
        for protocol in generate_workload(seed).protocols:
            yield seed, protocol


def compute_golden() -> dict:
    """Run the whole matrix on the current simulator."""
    return {
        "replay": {replay_key(s, p, r): outcome(lambda: run_replay(s, p, r))
                   for s in SEEDS for p in ALL_PROTOCOLS for r in REGIMES},
        "apps": {app_key(a, p, o): outcome(lambda: run_app(a, p, o))
                 for a in APPS for p, o in APP_PROTOCOLS},
        "oracle": {oracle_key(s, p): outcome(lambda: run_oracle(s, p))
                   for s, p in oracle_cases()},
        "explore": {oracle_key(s, p): outcome(lambda: run_explore(s, p))
                    for s, p in oracle_cases()},
    }


@functools.cache
def load_golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


def golden(section: str, key: str) -> str:
    return load_golden()[section][key]


def assert_replay_golden(seed: int, protocol: str, regime: str | None) -> None:
    got = outcome(lambda: run_replay(seed, protocol, regime))
    assert got == golden("replay", replay_key(seed, protocol, regime)), \
        f"replay {replay_key(seed, protocol, regime)} diverged"


# -- tests ------------------------------------------------------------------


def test_golden_file_covers_the_matrix():
    doc = load_golden()
    assert set(doc) == {"replay", "apps", "oracle", "explore"}
    assert set(doc["replay"]) == {replay_key(s, p, r) for s in SEEDS
                                  for p in ALL_PROTOCOLS for r in REGIMES}
    assert set(doc["apps"]) == {app_key(a, p, o) for a in APPS
                                for p, o in APP_PROTOCOLS}
    keys = {oracle_key(s, p) for s, p in oracle_cases()}
    assert set(doc["oracle"]) == keys == set(doc["explore"])
    digests = [d for section in doc.values() for d in section.values()]
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef")
               for d in digests)


def test_matrix_exercises_failures_and_choice_points():
    """The matrix is only worth pinning if it reaches the hard paths: some
    runs raise, and seeded exploration meets real multi-way frontiers."""
    with pytest.raises(ProtocolError, match="producer-owned"):
        run_replay(1, "write-update", None)
    policy = SeededRandomPolicy(2)
    run_workload(generate_workload(2), "stache", policy)
    assert max(policy.frontiers) >= 2


def test_error_outcomes_digest_type_and_message():
    def raising(cls, message):
        def run():
            raise cls(message)
        return run

    x = outcome(raising(ValueError, "x"))
    assert x == sha({"error": "ValueError", "message": "x"})
    assert x != outcome(raising(TypeError, "x"))
    assert x != outcome(raising(ValueError, "y"))


@pytest.mark.parametrize("seed", SEEDS)
def test_explore_choices_match_golden(seed):
    """Seeded tie-break exploration: choice lists, frontier sizes and
    observables are identical to the recorded reference runs."""
    for protocol in generate_workload(seed).protocols:
        key = oracle_key(seed, protocol)
        assert outcome(lambda: run_explore(seed, protocol)) \
            == golden("explore", key), f"explore {key} diverged"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.sim.test_golden --write")
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
