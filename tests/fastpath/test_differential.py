"""Differential replay against the golden digests.

Every test replays part of the golden matrix (``tests/sim/test_golden.py``)
on the simulator and requires the digest of its outcome — the full
checkpoint snapshot plus :class:`~repro.sim.stats.RunStats`, or the
exception type and message of a run that raises — to equal the digest
recorded from the heap-queue reference simulator.  Together they cover all
three protocols under the fault-free, drop, delay, chaos, crash and
crash-storm regimes over fuzz seeds 0-7, four small real-application runs,
and the differential oracle's FIFO observables.
"""

from __future__ import annotations

import pytest

from repro.verify.workload import ALL_PROTOCOLS, generate_workload
from tests.sim.test_golden import (
    APP_PROTOCOLS,
    APPS,
    REGIMES,
    SEEDS,
    app_key,
    assert_replay_golden,
    golden,
    oracle_key,
    outcome,
    run_app,
    run_oracle,
)

#: the fault regimes (REGIMES minus fault-free)
FAULTED = [r for r in REGIMES if r is not None]


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("seed", range(2))
def test_fault_free(seed, protocol):
    assert_replay_golden(seed, protocol, None)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("regime", FAULTED)
def test_fault_regimes(regime, protocol):
    for seed in SEEDS:
        assert_replay_golden(seed, protocol, regime)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_fuzz_sweep(protocol):
    """The rest of the fault-free seeds."""
    for seed in SEEDS[2:]:
        assert_replay_golden(seed, protocol, None)


@pytest.mark.parametrize("app_name", list(APPS),
                         ids=[f"{a}-kwargs{i}" for i, a in enumerate(APPS)])
@pytest.mark.parametrize("protocol,optimized", APP_PROTOCOLS)
def test_real_apps(app_name, protocol, optimized):
    """Small real-application runs: stats, dispatch count and final machine
    state match."""
    key = app_key(app_name, protocol, optimized)
    assert outcome(lambda: run_app(app_name, protocol, optimized)) \
        == golden("apps", key), f"app run {key} diverged"


def test_oracle_fast_matches_reference():
    """run_workload's FIFO observables match the reference on every seed."""
    for seed in SEEDS:
        for protocol in generate_workload(seed).protocols:
            key = oracle_key(seed, protocol)
            assert outcome(lambda: run_oracle(seed, protocol)) \
                == golden("oracle", key), f"oracle run {key} diverged"
