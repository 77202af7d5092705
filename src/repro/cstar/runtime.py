"""The C** data-parallel runtime: the value pass and its recording.

Aggregates (paper §4.1) are global collections that look like arrays of
values.  The runtime:

* allocates each aggregate in the machine's shared address space, with page
  homes aligned to the computation distribution (so an invocation's "own"
  element is home-local — the property the compiler's Home/Non-Home
  classification relies on);
* executes parallel calls as the *value pass* of DESIGN.md's two-pass
  model: one invocation per element under copy-in (phase-snapshot)
  semantics, recording each invocation's shared accesses and compute
  charges into compact per-node columns (:class:`RecordedPhase`);
* records the compiler-placed directives (``begin_group`` /
  ``end_group``) around phase groups.

A recording is kept at *aggregate level* — (aggregate slot, flat element
index, kind) — so it does not depend on the block size; a
:class:`Lowering` turns a recorded phase into the block-level
:class:`~repro.tempest.machine.PhaseTrace` one machine replays.  The
runtime runs on a :class:`RecordingMachine`, which only records; whole
programs are replayed later by :mod:`repro.cstar.recording`.

Invocation bodies receive an :class:`ElementContext` and use ``ctx.read`` /
``ctx.write`` for aggregate elements and ``ctx.charge`` for compute cost.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.tempest.addrspace import AddressSpace
from repro.tempest.machine import PhaseTrace
from repro.util.arith import left_sum
from repro.util.config import MachineConfig
from repro.util.errors import ConfigError, SimulationError

# --------------------------------------------------------------------------- #
# computation distributions (paper §4.1: block, row-block, tiled)
# --------------------------------------------------------------------------- #


class Distribution:
    """Maps an element index to the processor that owns it."""

    def owner(self, idx: tuple[int, ...]) -> int:
        raise NotImplementedError

    def validate(self, shape: tuple[int, ...]) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Block1D(Distribution):
    """Contiguous chunks of a 1-D aggregate."""

    n: int  # elements
    nodes: int

    def owner(self, idx: tuple[int, ...]) -> int:
        per = -(-self.n // self.nodes)
        return min(idx[0] // per, self.nodes - 1)

    def validate(self, shape: tuple[int, ...]) -> None:
        if len(shape) != 1 or shape[0] != self.n:
            raise ConfigError(f"Block1D({self.n}) does not match shape {shape}")


@dataclass(frozen=True)
class RowBlock2D(Distribution):
    """Contiguous row bands of a 2-D aggregate."""

    rows: int
    cols: int
    nodes: int

    def owner(self, idx: tuple[int, ...]) -> int:
        per = -(-self.rows // self.nodes)
        return min(idx[0] // per, self.nodes - 1)

    def validate(self, shape: tuple[int, ...]) -> None:
        if tuple(shape) != (self.rows, self.cols):
            raise ConfigError(f"RowBlock2D does not match shape {shape}")


@dataclass(frozen=True)
class Tiled2D(Distribution):
    """2-D tiles; the node grid is as square as the node count allows."""

    rows: int
    cols: int
    nodes: int

    def _grid(self) -> tuple[int, int]:
        r = int(np.sqrt(self.nodes))
        while self.nodes % r:
            r -= 1
        return r, self.nodes // r

    def owner(self, idx: tuple[int, ...]) -> int:
        gr, gc = self._grid()
        tr = min(idx[0] * gr // max(self.rows, 1), gr - 1)
        tc = min(idx[1] * gc // max(self.cols, 1), gc - 1)
        return tr * gc + tc

    def validate(self, shape: tuple[int, ...]) -> None:
        if tuple(shape) != (self.rows, self.cols):
            raise ConfigError(f"Tiled2D does not match shape {shape}")


# --------------------------------------------------------------------------- #
# the recorded access format
# --------------------------------------------------------------------------- #

#: an access packs into one integer code: ``flat << FLAT_SHIFT | slot << 1
#: | kind`` (kind 0 = read, 1 = write); a compute op is the code COMPUTE and
#: takes the next value of the node's charge column.  Codes are recorded as
#: int64 and kept as int32 when a node's phase fits.
SLOT_BITS = 8
FLAT_SHIFT = SLOT_BITS + 1
SLOT_MASK = (1 << SLOT_BITS) - 1
COMPUTE = -1
_INT32_MAX = np.iinfo(np.int32).max


class RecordedPhase:
    """One parallel phase as the value pass recorded it.

    Per node ``p``: ``codes[p]`` is the op stream in order (accesses and
    COMPUTE markers) and ``charges[p]`` the compute ops' cycles in order.
    ``agg`` / ``flat`` / ``kind`` (0 = read, 1 = write) and ``compute``
    (each node's total charged cycles) are the analytical model's views of
    the same columns; an access's position in its node's ``flat`` doubles
    as the model's intra-phase time proxy.
    """

    __slots__ = ("name", "codes", "charges")

    def __init__(self, name: str, codes: list[np.ndarray],
                 charges: list[np.ndarray]) -> None:
        self.name = name
        self.codes = codes
        self.charges = charges

    def op_count(self) -> int:
        return sum(len(c) for c in self.codes)

    def access_count(self, node: int) -> int:
        return int(np.count_nonzero(self.codes[node] != COMPUTE))

    def accesses(self, node: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``node``'s (aggregate slot, flat index, kind) columns."""
        codes = self.codes[node]
        acc = codes[codes != COMPUTE].astype(np.int64)
        return ((acc >> 1) & SLOT_MASK, acc >> FLAT_SHIFT,
                (acc & 1).astype(np.uint8))

    @property
    def agg(self) -> list[np.ndarray]:
        return [self.accesses(p)[0] for p in range(len(self.codes))]

    @property
    def flat(self) -> list[np.ndarray]:
        return [self.accesses(p)[1] for p in range(len(self.codes))]

    @property
    def kind(self) -> list[np.ndarray]:
        return [self.accesses(p)[2] for p in range(len(self.codes))]

    @property
    def compute(self) -> list[float]:
        return [float(left_sum(c.tolist())) for c in self.charges]


class Lowering:
    """Block-level traces of recorded phases on one machine layout: region
    bases and element strides per aggregate slot, and the block size.

    An access becomes ``("r"|"w", block)`` with ``block = (base[slot] +
    flat * stride[slot]) >> log2(block_size)`` — the block of the
    element's first byte (with ``pad > 1`` an element may span blocks; its
    first byte is the faulting access in practice).  A compute op becomes
    ``("c", cycles)`` with its charge unchanged.  Every distinct op is one
    tuple shared by all its occurrences — the access tuples of the first
    ``n_blocks`` blocks are built once, a phase's compute tuples once per
    distinct charge — so a lowered phase costs one list slot per op.
    """

    def __init__(self, agg_base: np.ndarray, agg_stride: np.ndarray,
                 block_size: int, n_blocks: int) -> None:
        self._base = agg_base
        self._stride = agg_stride
        self._shift = block_size.bit_length() - 1
        self._n_keys = 2 * n_blocks
        #: key ``block << 1 | kind`` -> ("r"|"w", block)
        self._access_ops = np.fromiter(
            (("w" if k & 1 else "r", k >> 1) for k in range(self._n_keys)),
            dtype=object, count=self._n_keys)

    def __call__(self, phase: RecordedPhase) -> PhaseTrace:
        cycles, which = np.unique(np.concatenate(phase.charges),
                                  return_inverse=True)
        compute_ops = np.fromiter((("c", c) for c in cycles.tolist()),
                                  dtype=object, count=len(cycles))
        ops = []
        done = 0  # compute ops of the previous nodes
        for codes, charges in zip(phase.codes, phase.charges):
            is_c = codes == COMPUTE
            slot = np.where(is_c, 0, (codes >> 1) & SLOT_MASK)
            keys = ((self._base[slot] + (codes >> FLAT_SHIFT) * self._stride[slot])
                    >> self._shift) << 1 | (codes & 1)
            keys[is_c] = 0
            if len(keys) and keys.max() >= self._n_keys:
                raise SimulationError(
                    f"phase {phase.name!r} accesses a block past the "
                    f"allocated address space")
            node_ops = self._access_ops[keys]
            node_ops[is_c] = compute_ops[which[done:done + len(charges)]]
            done += len(charges)
            ops.append(node_ops.tolist())
        return PhaseTrace(phase.name, ops)


def lowering_for(machine, agg_base: np.ndarray,
                 agg_stride: np.ndarray) -> Lowering:
    """The :class:`Lowering` for ``machine``'s block size, covering its
    whole allocated address space."""
    bs = machine.config.block_size
    end = max((r.end for r in machine.addr_space.regions), default=0)
    return Lowering(agg_base, agg_stride, bs, -(-end // bs))


def _code_column(buf: array) -> np.ndarray:
    """A node's finished code buffer, as int32 when every code fits."""
    codes = np.frombuffer(buf, dtype=np.int64)
    if len(codes) and codes.max() <= _INT32_MAX:
        return codes.astype(np.int32)
    return codes


# --------------------------------------------------------------------------- #
# aggregates
# --------------------------------------------------------------------------- #

_DTYPES = {"float": np.float64, "int": np.int64}
ELEMENT_SIZE = 8  # bytes, both element types


class Aggregate:
    """One C** aggregate: data + layout + distribution."""

    def __init__(
        self,
        runtime: "CStarRuntime",
        name: str,
        shape: tuple[int, ...],
        dtype: str,
        dist: Distribution,
        home: str = "owner",
        pad: int = 1,
    ):
        if dtype not in _DTYPES:
            raise ConfigError(f"aggregate dtype must be float or int, got {dtype!r}")
        if pad < 1:
            raise ConfigError(f"pad must be >= 1, got {pad}")
        if home not in ("owner", "round_robin"):
            raise ConfigError(f"home policy must be 'owner' or 'round_robin', got {home!r}")
        self.runtime = runtime
        self.name = name
        self.shape = tuple(shape)
        self.dtype = dtype
        self.dist = dist
        dist.validate(self.shape)
        #: C-contiguous, never reassigned: phase-end writes go through a
        #: flat view of it
        self.data = np.zeros(self.shape, dtype=_DTYPES[dtype])
        #: bytes per element; C** aggregate elements are class instances, so
        #: an element may occupy more than one 8-byte value (pad models the
        #: object's other members)
        self.stride_bytes = ELEMENT_SIZE * pad
        nbytes = int(np.prod(self.shape)) * self.stride_bytes
        machine = runtime.machine
        page = machine.config.page_size

        if home == "owner":
            # Home pages where their first element's owner lives: aligns home
            # placement with the computation distribution.
            def home_policy(page_idx: int, _self=self) -> int:
                flat = page_idx * (page // _self.stride_bytes)
                flat = min(flat, int(np.prod(_self.shape)) - 1)
                return _self.dist.owner(_self._unflatten(flat))

        else:
            # Stache's default policy (round-robin pages): what a program
            # "optimized for transparent shared memory" gets, with no
            # owner-alignment (the Splash baseline in Figure 7).
            def home_policy(page_idx: int, _n=machine.config.n_nodes) -> int:
                return page_idx % _n

        self.slot = len(runtime.aggregates)
        if self.slot > SLOT_MASK:
            raise ConfigError(f"more than {SLOT_MASK + 1} aggregates")
        self.region = machine.allocate(name, nbytes, home_policy)
        # hot-path precomputation: the slot's access codes and row-major
        # strides, with a rank-specialised bounds check for 1-D and 2-D
        self._read_code = self.slot << 1
        self._write_code = self._read_code | 1
        strides = []
        acc = 1
        for dim in reversed(self.shape):
            strides.append(acc)
            acc *= dim
        self._strides = tuple(reversed(strides))
        if len(self.shape) == 1:
            self._n0, = self.shape
            self.flatten = self._flatten1
        elif len(self.shape) == 2:
            self._n0, self._n1 = self.shape
            self.flatten = self._flatten2
        #: the array reads observe during a phase (the phase-entry snapshot
        #: or the live data); set by :meth:`CStarRuntime.par_call`
        self._src: np.ndarray | None = None

    # -- layout ----------------------------------------------------------------

    def _unflatten(self, flat: int) -> tuple[int, ...]:
        return tuple(int(v) for v in np.unravel_index(flat, self.shape))

    def flatten(self, idx: tuple[int, ...]) -> int:
        if len(idx) != len(self.shape):
            raise SimulationError(
                f"{self.name}: {len(self.shape)}-D aggregate indexed with {idx}"
            )
        flat = 0
        for v, dim, stride in zip(idx, self.shape, self._strides):
            if not 0 <= v < dim:
                raise SimulationError(
                    f"{self.name}: index {idx} out of bounds {self.shape}"
                )
            flat += v * stride
        return flat

    def _flatten1(self, idx: tuple[int, ...]) -> int:
        if len(idx) == 1:
            i = idx[0]
            if 0 <= i < self._n0:
                return i
        return Aggregate.flatten(self, idx)  # raises the error

    def _flatten2(self, idx: tuple[int, ...]) -> int:
        if len(idx) == 2:
            i, j = idx
            if 0 <= i < self._n0 and 0 <= j < self._n1:
                return i * self._n1 + j
        return Aggregate.flatten(self, idx)  # raises the error

    def addr(self, idx: tuple[int, ...]) -> int:
        return self.region.base + self.flatten(idx) * self.stride_bytes

    def owner(self, idx: tuple[int, ...]) -> int:
        return self.dist.owner(idx)

    def elements(self):
        """All element indices, row-major."""
        return np.ndindex(*self.shape)

    def __repr__(self) -> str:
        return f"<Aggregate {self.name}{list(self.shape)} {self.dtype}>"


# --------------------------------------------------------------------------- #
# element context (what a parallel-function invocation sees)
# --------------------------------------------------------------------------- #


class ElementContext:
    """Per-invocation view: position pseudo-variables, reads/writes, cost.

    Reads observe the phase-entry snapshot (C**'s copy-in semantics make
    parallel execution nearly deterministic); writes are buffered and applied
    at phase end.  Every access appends one code to the node's column;
    pending compute is flushed as a COMPUTE op before the next access.
    """

    __slots__ = ("runtime", "pos", "node", "_codes", "_charges", "_writes",
                 "_pending")

    def __init__(self, runtime: "CStarRuntime", pos: tuple[int, ...],
                 node: int, codes: array, charges: array):
        self.runtime = runtime
        self.pos = pos
        self.node = node
        self._codes = codes
        self._charges = charges
        self._writes = runtime._writes
        self._pending = 0.0

    def charge(self, cycles: float) -> None:
        """Model computation cost (cycles at full speed)."""
        if cycles > 0:
            self._pending += cycles

    def _flush_compute(self) -> None:
        if self._pending > 0:
            self._codes.append(COMPUTE)
            self._charges.append(self._pending)
            self._pending = 0.0

    def read(self, agg: Aggregate, idx: tuple[int, ...]) -> float:
        if self._pending > 0:
            self._codes.append(COMPUTE)
            self._charges.append(self._pending)
            self._pending = 0.0
        self._codes.append(agg.flatten(idx) << FLAT_SHIFT | agg._read_code)
        return agg._src[idx]

    def write(self, agg: Aggregate, idx: tuple[int, ...], value) -> None:
        if self._pending > 0:
            self._codes.append(COMPUTE)
            self._charges.append(self._pending)
            self._pending = 0.0
        flat = agg.flatten(idx)
        self._codes.append(flat << FLAT_SHIFT | agg._write_code)
        self._writes.append((agg, flat, value, False))

    def update(self, agg: Aggregate, idx: tuple[int, ...], delta) -> None:
        """Read-modify-write accumulation (e.g. `force[j] += f`).

        Used by shared-memory codes that accumulate into other elements'
        state (SPLASH-style paired force updates); deltas commute, so the
        value pass applies them associatively while the trace records the
        read+write the protocol must serialize.
        """
        if self._pending > 0:
            self._codes.append(COMPUTE)
            self._charges.append(self._pending)
            self._pending = 0.0
        flat = agg.flatten(idx)
        code = flat << FLAT_SHIFT | agg._read_code
        self._codes.append(code)
        self._codes.append(code | 1)
        self._writes.append((agg, flat, delta, True))


# --------------------------------------------------------------------------- #
# the runtime
# --------------------------------------------------------------------------- #

#: Invocation body: body(ctx) — position available as ctx.pos.
Body = Callable[[ElementContext], None]


class RecordingMachine:
    """Just enough machine for the value pass: a config, an address space,
    and an event log of what a :class:`~repro.tempest.machine.Machine`
    would have executed.

    Region bases depend only on ``page_size`` and allocation order, so the
    recording is valid for every block size; initial home ownership is
    installed when the regions are allocated on the machine that replays
    it.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.addr_space = AddressSpace(config)
        #: ("begin_group", id) | ("end_group", None) | ("phase", RecordedPhase)
        self.events: list[tuple] = []

    def allocate(self, name: str, nbytes: int, home_policy):
        return self.addr_space.allocate(name, nbytes, home_policy)

    def begin_group(self, directive_id: int) -> None:
        self.events.append(("begin_group", directive_id))

    def end_group(self) -> None:
        self.events.append(("end_group", None))

    def run_phase(self, trace: RecordedPhase) -> None:
        self.events.append(("phase", trace))


class CStarRuntime:
    """Executes data-parallel programs' value pass on a
    :class:`RecordingMachine`, which records each phase."""

    def __init__(self, machine: RecordingMachine):
        self.machine = machine
        self.aggregates: dict[str, Aggregate] = {}
        self._writes: list[tuple[Aggregate, int, object, bool]] = []
        self.phase_count = 0

    # -- aggregate management --------------------------------------------------

    def aggregate(
        self,
        name: str,
        shape: Sequence[int],
        dtype: str = "float",
        dist: Distribution | None = None,
        home: str = "owner",
        pad: int = 1,
    ) -> Aggregate:
        shape = tuple(int(s) for s in shape)
        if dist is None:
            n = self.machine.config.n_nodes
            if len(shape) == 1:
                dist = Block1D(shape[0], n)
            elif len(shape) == 2:
                dist = RowBlock2D(shape[0], shape[1], n)
            else:
                raise ConfigError(
                    f"no default distribution for {len(shape)}-D aggregate {name!r}"
                )
        agg = Aggregate(self, name, shape, dtype, dist, home=home, pad=pad)
        self.aggregates[name] = agg
        return agg

    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot region base and element stride, in bytes."""
        aggs = self.aggregates.values()
        return (np.array([a.region.base for a in aggs], dtype=np.int64),
                np.array([a.stride_bytes for a in aggs], dtype=np.int64))

    # -- directives --------------------------------------------------------------

    def begin_group(self, directive_id: int) -> None:
        self.machine.begin_group(directive_id)

    def end_group(self) -> None:
        self.machine.end_group()

    # -- parallel invocation ---------------------------------------------------------

    def par_call(
        self,
        body: Body,
        over: Aggregate,
        snapshot_of: Sequence[Aggregate] = (),
        name: str = "parallel",
        elements=None,
    ) -> RecordedPhase:
        """Invoke ``body`` once per element of ``over`` (the value pass) and
        hand the recorded phase to the machine.

        ``snapshot_of`` lists the aggregates whose phase-entry values reads
        must observe; ``over`` is always included.  ``elements`` restricts
        the invocation set (used by applications with active-element lists,
        e.g. red-black sweeps).  Returns the recorded phase.
        """
        n_nodes = self.machine.config.n_nodes
        codes = [array("q") for _ in range(n_nodes)]
        charges = [array("d") for _ in range(n_nodes)]

        for agg in self.aggregates.values():
            agg._src = agg.data
        over._src = over.data.copy()
        for agg in snapshot_of:
            if agg._src is agg.data:
                agg._src = agg.data.copy()
        writes = self._writes = []

        owner = over.dist.owner
        element_iter = elements if elements is not None else over.elements()
        for idx in element_iter:
            idx = tuple(map(int, idx))
            node = owner(idx)
            ctx = ElementContext(self, idx, node, codes[node], charges[node])
            body(ctx)
            ctx._flush_compute()

        # apply buffered writes (phase-end visibility)
        views: dict[Aggregate, np.ndarray] = {}
        for agg, flat, value, accumulate in writes:
            view = views.get(agg)
            if view is None:
                view = views[agg] = agg.data.reshape(-1)
            if accumulate:
                view[flat] += value
            else:
                view[flat] = value
        for agg in self.aggregates.values():
            agg._src = None
        self._writes = []

        self.phase_count += 1
        phase = RecordedPhase(
            f"{name}#{self.phase_count}",
            [_code_column(c) for c in codes],
            [np.frombuffer(c, dtype=np.float64) for c in charges],
        )
        self.machine.run_phase(phase)
        return phase
