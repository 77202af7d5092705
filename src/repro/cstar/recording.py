"""Record a program's value pass once; replay it on any number of machines.

Control flow in a C** program depends only on computed values, never on
timing or block size, so the value pass (DESIGN.md §5.1) can run once, on
a :class:`~repro.cstar.runtime.RecordingMachine`, and the recording can
then drive any machine with the same node count and page size: any block
size, protocol, cost table, and with or without the compiler's
directives.  The recording executes the placed program, so it carries the
group boundaries; an unoptimized replay skips them (placement only wraps
phases in groups, the phase sequence is the same).

A recording stores accesses at aggregate level; :func:`replay` lowers one
phase at a time to the block-level trace the machine runs, so a whole
program's block-level ops never exist at once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cstar.driver import Env
from repro.cstar.runtime import CStarRuntime, RecordingMachine, lowering_for
from repro.tempest.addrspace import AddressSpace
from repro.util.config import MachineConfig
from repro.util.errors import ConfigError


@dataclass
class ProgramRecording:
    """The full value-pass recording of one program build."""

    #: the model's cache key, when recorded through ``repro.model``
    key: tuple | None
    #: the program that was recorded
    program: Any
    #: the recording's environment: final aggregate values and app state
    env: Env
    n_nodes: int
    page_size: int
    #: per-aggregate layout constants, indexed by aggregate slot
    agg_names: list[str]
    agg_base: np.ndarray
    agg_stride: np.ndarray
    #: the recording machine's address space (home-policy closures are
    #: valid for any block size: bases depend only on page_size)
    addr_space: AddressSpace
    #: ("begin_group", id) | ("end_group", None) | ("phase", RecordedPhase)
    events: list[tuple]

    @classmethod
    def of(cls, program, env: Env, key: tuple | None = None) -> "ProgramRecording":
        """The recording a finished value pass left in ``env``."""
        runtime = env.runtime
        machine = runtime.machine
        base, stride = runtime.layout()
        return cls(
            key=key,
            program=program,
            env=env,
            n_nodes=machine.config.n_nodes,
            page_size=machine.config.page_size,
            agg_names=list(runtime.aggregates),
            agg_base=base,
            agg_stride=stride,
            addr_space=machine.addr_space,
            events=machine.events,
        )

    def phases(self):
        return [ev for kind, ev in self.events if kind == "phase"]


def recording_env(config: MachineConfig, params: dict | None = None) -> Env:
    """A fresh value-pass environment: a runtime on a recording machine."""
    return Env(runtime=CStarRuntime(RecordingMachine(config)),
               params=dict(params or {}))


def replay(recording: ProgramRecording, machine, optimized: bool = True) -> Env:
    """Run ``recording`` on ``machine``; returns the program's environment
    with ``machine`` as the one ``finish`` closes out.

    The recorded regions are allocated first (their blocks start writable
    at their homes), then the events run in order: each phase lowered to
    ``machine``'s block size just before ``run_phase``, and the group
    directives only when ``optimized``.  Nothing in the recording is
    modified, so one recording serves any number of replays.
    """
    cfg = machine.config
    if (cfg.n_nodes, cfg.page_size) != (recording.n_nodes, recording.page_size):
        raise ConfigError(
            f"recording is for {recording.n_nodes} nodes and page_size="
            f"{recording.page_size}; machine has {cfg.n_nodes} and "
            f"{cfg.page_size}"
        )
    base = np.array([machine.allocate(r.name, r.size, r.home_policy).base
                     for r in recording.addr_space.regions], dtype=np.int64)
    lower = lowering_for(machine, base, recording.agg_stride)
    for kind, payload in recording.events:
        if kind == "phase":
            machine.run_phase(lower(payload))
        elif optimized:
            if kind == "begin_group":
                machine.begin_group(payload)
            else:
                machine.end_group()
    return dataclasses.replace(recording.env, machine=machine)
