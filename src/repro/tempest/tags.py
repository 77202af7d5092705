"""Fine-grain access-control tags.

Each node tags every cache block it may touch as **Invalid**, **ReadOnly**,
or **ReadWrite** (paper §3.1).  An access that the tag permits proceeds "at
full hardware speed"; one it does not permit faults into the protocol.  The
tag table is the *only* authority the replay processor consults for
hit/miss decisions, so protocols communicate exclusively by mutating tags.
"""

from __future__ import annotations

import enum

from repro.util.errors import SimulationError


class AccessTag(enum.IntEnum):
    INVALID = 0
    READ_ONLY = 1
    READ_WRITE = 2

    def permits(self, kind: str) -> bool:
        if kind == "r":
            return self is not AccessTag.INVALID
        if kind == "w":
            return self is AccessTag.READ_WRITE
        raise SimulationError(f"unknown access kind {kind!r}")


#: byte value -> AccessTag, index-aligned with the enum's int values
_TAG_OF = (AccessTag.INVALID, AccessTag.READ_ONLY, AccessTag.READ_WRITE)


class TagTable:
    """Per-node block -> tag map, one byte per block indexed by block id.

    Missing or out-of-range blocks are INVALID, so capacity is an
    optimization, not a correctness requirement (:meth:`reserve` presizes;
    :meth:`set` grows).  The replay hot loop reads ``_data`` directly, so
    its identity must be stable: :meth:`clear` zeroes *in place* (crash
    recovery resets tags between processor steps).
    """

    __slots__ = ("node", "_data", "_count")

    def __init__(self, node: int):
        self.node = node
        self._data = bytearray()
        self._count = 0  # nonzero bytes, maintained incrementally

    def reserve(self, n_blocks: int) -> None:
        """Grow capacity to ``n_blocks`` so hot-loop reads never miss."""
        if n_blocks > len(self._data):
            self._data.extend(bytes(n_blocks - len(self._data)))

    def get(self, block: int) -> AccessTag:
        data = self._data
        if 0 <= block < len(data):
            return _TAG_OF[data[block]]
        return AccessTag.INVALID

    def set(self, block: int, tag: AccessTag) -> None:
        v = int(tag)
        data = self._data
        if block >= len(data):
            if v == 0:
                return
            # grow with slack so block-by-block installs don't realloc
            data.extend(bytes(block + 64 - len(data)))
        old = data[block]
        if old != v:
            self._count += (v != 0) - (old != 0)
            data[block] = v

    def permits(self, block: int, kind: str) -> bool:
        data = self._data
        t = data[block] if 0 <= block < len(data) else 0
        if kind == "r":
            return t != 0
        if kind == "w":
            return t == 2
        raise SimulationError(f"unknown access kind {kind!r}")

    def downgrade(self, block: int) -> None:
        """READ_WRITE -> READ_ONLY (keep data, lose write permission)."""
        data = self._data
        if 0 <= block < len(data) and data[block] == 2:
            data[block] = 1

    def invalidate(self, block: int) -> None:
        self.set(block, AccessTag.INVALID)

    def blocks_with_tag(self, tag: AccessTag) -> list[int]:
        """Blocks holding a valid ``tag``, in ascending block order (crash
        recovery and the invariant monitor walk the result)."""
        v = int(tag)
        return [b for b, byte in enumerate(self._data) if byte == v and v]

    def items(self):
        """Yield ``(block, tag)`` for non-INVALID blocks, ascending."""
        for b, byte in enumerate(self._data):
            if byte:
                yield b, _TAG_OF[byte]

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        data = self._data
        data[:] = bytes(len(data))  # in place: storage identity survives
        self._count = 0
