"""Machine-free program recording (the model's front end).

The simulator's two-pass execution (DESIGN.md §5.1) separates numerics
from timing: the *value pass* computes real values and records each
phase's accesses at aggregate level (aggregate slot, flat element index),
and only the *timing pass* needs the machine.  The model runs the value
pass once on a :class:`RecordingMachine` stand-in (real
:class:`MachineConfig` + real :class:`AddressSpace`, no nodes, no engine)
and reads the recorded columns directly.

Recording at aggregate level is what makes one recording serve a whole
sweep: cache-block ids depend on ``block_size``, but region bases depend
only on ``page_size`` and declaration order, so
:class:`~repro.model.layout.LayoutModel` can re-derive blocks and homes for
any block size from the same recording.  Control flow (adaptive refinement
thresholds, the Barnes tree) depends on computed *values*, never on timing
or block size, so the recorded phase sequence is exact for every protocol,
placement, and cost table evaluated against it.  The simulator's benchmark
harness replays the same recordings (:func:`record`, uncached) for every
bar of a figure that shares one.

:func:`record_program` caches recordings per ``(app, build kwargs,
variant, n_nodes, page_size)`` — the axes that change the value pass or
the address map.
"""

from __future__ import annotations

from repro.cstar.driver import execute
from repro.cstar.recording import ProgramRecording, recording_env
from repro.cstar.runtime import RecordedPhase, RecordingMachine
from repro.util.config import MachineConfig

__all__ = ["ProgramRecording", "RecordedPhase", "RecordingMachine",
           "clear_cache", "record", "record_program", "recording_key"]

_CACHE: dict[tuple, ProgramRecording] = {}


def recording_key(app, build_kwargs: dict | None, variant: str,
                  n_nodes: int, page_size: int) -> tuple:
    return (
        app.__name__,
        tuple(sorted((build_kwargs or {}).items())),
        variant,
        n_nodes,
        page_size,
    )


def record(app, build_kwargs: dict | None = None, variant: str = "cstar",
           *, n_nodes: int, page_size: int) -> ProgramRecording:
    """Build ``app`` and run its value pass once (not cached).

    Executes the compiled (placed) flow tree, as
    ``EmbeddedProgram.run(machine, optimized=True)`` does, so group
    boundaries and directive ids match the simulator's optimized runs;
    unoptimized evaluation simply ignores the group events (the phase
    sequence is identical — placement only wraps phases in FlowGroups).
    """
    kwargs = dict(build_kwargs or {})
    if variant != "cstar":
        kwargs["variant"] = variant
    prog = app.build(**kwargs)
    env = recording_env(MachineConfig(n_nodes=n_nodes, page_size=page_size))
    prog.setup(env)
    execute(prog.compile().root, env)
    key = recording_key(app, build_kwargs, variant, n_nodes, page_size)
    return ProgramRecording.of(prog, env, key)


def record_program(app, build_kwargs: dict | None = None,
                   variant: str = "cstar", *, n_nodes: int,
                   page_size: int) -> ProgramRecording:
    """:func:`record`, cached per :func:`recording_key` for the model."""
    key = recording_key(app, build_kwargs, variant, n_nodes, page_size)
    hit = _CACHE.get(key)
    if hit is None:
        hit = _CACHE[key] = record(app, build_kwargs, variant,
                                   n_nodes=n_nodes, page_size=page_size)
    return hit


def clear_cache() -> None:
    """Drop cached recordings (tests that reconfigure apps in place)."""
    _CACHE.clear()
