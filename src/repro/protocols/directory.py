"""Directory state kept at each block's home node.

"Each shared-memory cache block in the system is mapped to its home node,
where it resides initially.  The home node also maintains a block's directory
information, which lists multiple readers or a single writer, and is used to
maintain consistency." (paper §3.1)

Stable states:

* ``IDLE``      — only the home's own copy exists (home tag READ_WRITE).
* ``SHARED``    — home has data (home tag READ_ONLY); ``sharers`` hold
  read-only copies.
* ``EXCLUSIVE`` — a single remote ``owner`` holds the writable copy; the
  home's own tag is INVALID.

Transient states (a request is in flight against this block; later requests
queue in ``pending``):

* ``BUSY_RECALL_RO``  — awaiting WB_DATA so a read can be satisfied.
* ``BUSY_RECALL_RW``  — awaiting WB_DATA so a write can be satisfied.
* ``BUSY_INV``        — awaiting invalidation ACKs before granting RW.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Set
from dataclasses import dataclass, field
from typing import Deque, Iterable, Iterator

from repro.util.errors import ProtocolError


class NodeSet(Set):
    """A mutable set of small non-negative ints stored as one bitmask.

    Subclassing :class:`collections.abc.Set` supplies the full operator
    algebra (including reflected forms, so ``plain_set - node_set`` works)
    on top of the three primitives below; results of binary operators are
    rebuilt as :class:`NodeSet` via ``_from_iterable``.  Iteration is in
    ascending id order, making consumers deterministic by construction.
    """

    __slots__ = ("_mask",)

    def __init__(self, iterable: Iterable[int] = ()) -> None:
        mask = 0
        for i in iterable:
            if i < 0:
                raise ValueError(f"NodeSet members must be >= 0, got {i}")
            mask |= 1 << i
        self._mask = mask

    @classmethod
    def _from_iterable(cls, it: Iterable[int]) -> "NodeSet":
        return cls(it)

    # -- set protocol ---------------------------------------------------------

    def __contains__(self, i: object) -> bool:
        return isinstance(i, int) and i >= 0 and (self._mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self._mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    # sets compare by value and are unhashable, mirroring builtin set
    __hash__ = None  # type: ignore[assignment]

    # -- mutation (the directory treats sharers as a mutable set) -------------

    def add(self, i: int) -> None:
        if i < 0:
            raise ValueError(f"NodeSet members must be >= 0, got {i}")
        self._mask |= 1 << i

    def discard(self, i: int) -> None:
        if i >= 0:
            self._mask &= ~(1 << i)

    def clear(self) -> None:
        self._mask = 0

    def update(self, other: Iterable[int]) -> None:
        if isinstance(other, NodeSet):
            self._mask |= other._mask
        else:
            for i in other:
                self.add(i)

    def intersection_update(self, other: Iterable[int]) -> None:
        if not isinstance(other, NodeSet):
            other = NodeSet(other)
        self._mask &= other._mask

    def copy(self) -> "NodeSet":
        dup = NodeSet()
        dup._mask = self._mask
        return dup

    def __repr__(self) -> str:
        return f"NodeSet({sorted(self)})"

#: placeholder requester installed by crash recovery when the node being
#: serviced by a busy entry died: the completing transition still runs (so
#: the entry returns to a stable state through its normal path), but the
#: final grant is suppressed (see BaseProtocol.grant_ro / grant_rw guards).
DISCARDED = -1


class DirState:
    IDLE = "IDLE"
    SHARED = "SHARED"
    EXCLUSIVE = "EXCLUSIVE"
    BUSY_RECALL_RO = "BUSY_RECALL_RO"
    BUSY_RECALL_RW = "BUSY_RECALL_RW"
    BUSY_INV = "BUSY_INV"

    STABLE = frozenset({IDLE, SHARED, EXCLUSIVE})
    BUSY = frozenset({BUSY_RECALL_RO, BUSY_RECALL_RW, BUSY_INV})


@dataclass
class PendingRequest:
    """A request queued while the directory entry is busy."""

    kind: str  # GET_RO / GET_RW
    requester: int


@dataclass
class DirEntry:
    """Directory record for one block."""

    block: int
    home: int
    state: str = DirState.IDLE
    #: read-only copy holders as a packed bitmask set; iteration is always
    #: in ascending node order, so every sharers walk (invalidation rounds,
    #: crash repair, write-update pushes) is deterministic by construction
    sharers: NodeSet = field(default_factory=NodeSet)
    owner: int | None = None
    #: requester being serviced while in a BUSY state
    in_service: int | None = None
    acks_needed: int = 0
    pending: Deque[PendingRequest] = field(default_factory=deque)

    def check_invariants(self) -> None:
        """Sanity rules that hold in every stable state (tested heavily)."""
        if self.state == DirState.IDLE:
            if self.sharers or self.owner is not None:
                raise ProtocolError(f"IDLE entry with copies: {self}")
        elif self.state == DirState.SHARED:
            if not self.sharers:
                raise ProtocolError(f"SHARED entry without sharers: {self}")
            if self.owner is not None:
                raise ProtocolError(f"SHARED entry with owner: {self}")
            if self.home in self.sharers:
                raise ProtocolError(f"home listed as its own sharer: {self}")
        elif self.state == DirState.EXCLUSIVE:
            if self.owner is None or self.sharers:
                raise ProtocolError(f"EXCLUSIVE entry malformed: {self}")
            if self.owner == self.home:
                raise ProtocolError(f"home as remote owner: {self}")
        elif self.state in DirState.BUSY:
            if self.in_service is None:
                raise ProtocolError(f"busy entry with no request in service: {self}")
        else:
            raise ProtocolError(f"unknown directory state: {self}")

    def __repr__(self) -> str:
        own = f" owner={self.owner}" if self.owner is not None else ""
        shr = f" sharers={sorted(self.sharers)}" if self.sharers else ""
        pend = f" pending={len(self.pending)}" if self.pending else ""
        return f"<Dir blk={self.block}@{self.home} {self.state}{own}{shr}{pend}>"


class Directory:
    """All directory entries owned by the protocol instance.

    Entries are created lazily in IDLE: until the first remote request,
    a block exists only as home memory.
    """

    def __init__(self, home_of) -> None:
        self._home_of = home_of
        self._entries: dict[int, DirEntry] = {}

    def entry(self, block: int) -> DirEntry:
        e = self._entries.get(block)
        if e is None:
            e = DirEntry(block=block, home=self._home_of(block))
            self._entries[block] = e
        return e

    def known(self) -> list[DirEntry]:
        return list(self._entries.values())

    def purge_home(self, node: int) -> int:
        """Crash recovery: drop every entry homed at a dead node.

        The dead node's directory memory is gone with it; survivors' copies
        are re-registered from their tag tables when the node restarts
        (see BaseProtocol.rebuild_home_state).  Returns the purge count.
        """
        doomed = [b for b, e in self._entries.items() if e.home == node]
        for b in doomed:
            del self._entries[b]
        return len(doomed)

    def check_all(self) -> None:
        for e in self._entries.values():
            e.check_invariants()

    def __len__(self) -> int:
        return len(self._entries)
