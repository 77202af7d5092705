"""Golden digests of the tie-break explorer under fuzz-style policies.

``explorer_golden.json`` pins, for every fuzz workload seed 0-31 and every
protocol its dialect supports, what :func:`repro.verify.fuzz.fuzz` runs: the
workload under ``SeededRandomPolicy(derive_seed(seed, protocol))`` with the
invariant monitor attached.  Each entry digests the policy's recorded
``choices`` and ``frontiers`` and the run's :meth:`RunStats.to_dict`
(a run that raises is pinned by its exception type and message).  One more
entry replays a recorded choice prefix through :class:`ReplayPolicy`, the
path shrinking and ``--replay`` take.

Any change to the explorer's dispatch order, its frontiers, or what the
monitor accepts shows up here.  Regenerate (only for a deliberate change
of explored behaviour)::

    PYTHONPATH=src python -m tests.verify.test_explorer_golden --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.farm.jobs import derive_seed
from repro.verify.interleave import ReplayPolicy, SeededRandomPolicy
from repro.verify.oracle import run_workload
from repro.verify.workload import generate_workload

GOLDEN = Path(__file__).with_name("explorer_golden.json")
SEEDS = range(32)
#: the ReplayPolicy case: this seed/protocol's seeded schedule, cut to a
#: prefix of this many choices (FIFO beyond it)
REPLAY_SEED, REPLAY_PROTOCOL, REPLAY_PREFIX = 2, "stache", 12


def sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def explore(seed: int, protocol: str, policy) -> dict:
    """Digests of one monitored run under ``policy``."""
    try:
        stats = sha(run_workload(generate_workload(seed), protocol,
                                 policy).stats.to_dict())
    except Exception as exc:  # a pinned failure is an outcome too
        stats = sha({"error": type(exc).__name__, "message": str(exc)})
    return {"choices": sha(policy.choices), "frontiers": sha(policy.frontiers),
            "points": len(policy.choices), "stats": stats}


def seeded_cases():
    for seed in SEEDS:
        for protocol in generate_workload(seed).protocols:
            yield seed, protocol


def seeded(seed: int, protocol: str) -> dict:
    return explore(seed, protocol,
                   SeededRandomPolicy(derive_seed(seed, protocol)))


def replay_prefix() -> list[int]:
    policy = SeededRandomPolicy(derive_seed(REPLAY_SEED, REPLAY_PROTOCOL))
    run_workload(generate_workload(REPLAY_SEED), REPLAY_PROTOCOL, policy)
    return policy.choices[:REPLAY_PREFIX]


def replayed() -> dict:
    return explore(REPLAY_SEED, REPLAY_PROTOCOL, ReplayPolicy(replay_prefix()))


def compute_golden() -> dict:
    return {
        "seeded": {f"{p}/{s}": seeded(s, p) for s, p in seeded_cases()},
        "replay": replayed(),
    }


@functools.cache
def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert set(load_golden()["seeded"]) == {f"{p}/{s}"
                                            for s, p in seeded_cases()}


def test_cases_reach_choice_points():
    """Pinning is only worth it if exploration meets real frontiers."""
    doc = load_golden()
    assert sum(e["points"] for e in doc["seeded"].values()) > 1000
    assert len(replay_prefix()) == REPLAY_PREFIX
    assert doc["replay"]["points"] >= REPLAY_PREFIX


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_exploration_matches_golden(seed):
    for protocol in generate_workload(seed).protocols:
        key = f"{protocol}/{seed}"
        assert seeded(seed, protocol) == load_golden()["seeded"][key], \
            f"explore {key} diverged"


def test_replay_prefix_matches_golden():
    assert replayed() == load_golden()["replay"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
