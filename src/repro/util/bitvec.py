"""A fixed-width bit vector for iterative data-flow analysis.

The C** compiler's *reaching unstructured accesses* analysis (paper §4.3) is
"an iterative bit-vector based data-flow computation"; this class provides the
vector.  :class:`BitVector` is a thin, well-tested wrapper over a Python int so
union / intersection / difference are single machine operations; for wide
lattices :class:`PackedBitVector` stores the same bits in a ``numpy`` uint64
word array, so whole-vector operations cost O(width/64) without big-int
shifting.
"""

from __future__ import annotations

from typing import Iterable, Iterator

try:  # numpy backs PackedBitVector only
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

#: whether PackedBitVector is usable in this interpreter
HAVE_NUMPY = _np is not None


class BitVector:
    """A mutable fixed-width vector of bits.

    Bits are indexed ``0 .. width-1``.  Operations between vectors require
    equal widths (data-flow lattices never mix widths).
    """

    __slots__ = ("width", "_bits")

    def __init__(self, width: int, bits: int = 0):
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        mask = (1 << width) - 1
        if bits & ~mask:
            raise ValueError("initial bits exceed width")
        self.width = width
        self._bits = bits

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "BitVector":
        v = cls(width)
        for i in indices:
            v.set(i)
        return v

    @classmethod
    def full(cls, width: int) -> "BitVector":
        return cls(width, (1 << width) - 1)

    def copy(self) -> "BitVector":
        return BitVector(self.width, self._bits)

    # -- single-bit operations ------------------------------------------------

    def _check(self, i: int) -> None:
        if not (0 <= i < self.width):
            raise IndexError(f"bit {i} out of range for width {self.width}")

    def set(self, i: int) -> None:
        self._check(i)
        self._bits |= 1 << i

    def clear(self, i: int) -> None:
        self._check(i)
        self._bits &= ~(1 << i)

    def test(self, i: int) -> bool:
        self._check(i)
        return bool(self._bits >> i & 1)

    __getitem__ = test

    # -- whole-vector operations ----------------------------------------------

    def _check_width(self, other: "BitVector") -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self.width, self._bits | other._bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self.width, self._bits & other._bits)

    def __sub__(self, other: "BitVector") -> "BitVector":
        """Set difference: bits in self and not in other."""
        self._check_width(other)
        return BitVector(self.width, self._bits & ~other._bits)

    def __ior__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        self._bits |= other._bits
        return self

    def __iand__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        self._bits &= other._bits
        return self

    def __isub__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        self._bits &= ~other._bits
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.width == other.width and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.width, self._bits))

    def __bool__(self) -> bool:
        return self._bits != 0

    def __len__(self) -> int:
        return self.width

    def __iter__(self) -> Iterator[bool]:
        bits = self._bits
        for _ in range(self.width):
            yield bool(bits & 1)
            bits >>= 1

    def indices(self) -> Iterator[int]:
        """Yield the indices of set bits, ascending."""
        bits = self._bits
        i = 0
        while bits:
            if bits & 1:
                yield i
            bits >>= 1
            i += 1

    def count(self) -> int:
        return self._bits.bit_count()

    def is_subset(self, other: "BitVector") -> bool:
        self._check_width(other)
        return self._bits & ~other._bits == 0

    def __repr__(self) -> str:
        return f"BitVector({self.width}, 0b{self._bits:0{max(self.width, 1)}b})"


_WORD = 64


class PackedBitVector:
    """A :class:`~repro.util.bitvec.BitVector` drop-in over uint64 words.

    Same indexing, operator, and error semantics (width mismatch raises
    ``ValueError``, out-of-range bit access raises ``IndexError``); widths
    in the thousands cost O(width/64) per whole-vector op without big-int
    shifting.  Operations never mix with :class:`BitVector` — data-flow
    lattices are built from one representation end to end.
    """

    __slots__ = ("width", "_words")

    def __init__(self, width: int, bits: int = 0):
        if _np is None:  # pragma: no cover - numpy is baked into the image
            raise RuntimeError("PackedBitVector requires numpy")
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        mask = (1 << width) - 1
        if bits & ~mask:
            raise ValueError("initial bits exceed width")
        self.width = width
        n_words = (width + _WORD - 1) // _WORD
        words = _np.zeros(n_words, dtype=_np.uint64)
        i = 0
        while bits:
            words[i] = bits & 0xFFFFFFFFFFFFFFFF
            bits >>= _WORD
            i += 1
        self._words = words

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "PackedBitVector":
        v = cls(width)
        for i in indices:
            v.set(i)
        return v

    @classmethod
    def full(cls, width: int) -> "PackedBitVector":
        v = cls(width)
        v._words[:] = _np.uint64(0xFFFFFFFFFFFFFFFF)
        tail = width % _WORD
        if tail and len(v._words):
            v._words[-1] = _np.uint64((1 << tail) - 1)
        return v

    def copy(self) -> "PackedBitVector":
        dup = PackedBitVector(self.width)
        dup._words[:] = self._words
        return dup

    # -- single-bit operations ------------------------------------------------

    def _check(self, i: int) -> None:
        if not (0 <= i < self.width):
            raise IndexError(f"bit {i} out of range for width {self.width}")

    def set(self, i: int) -> None:
        self._check(i)
        self._words[i // _WORD] |= _np.uint64(1 << (i % _WORD))

    def clear(self, i: int) -> None:
        self._check(i)
        self._words[i // _WORD] &= _np.uint64(~(1 << (i % _WORD)) & 0xFFFFFFFFFFFFFFFF)

    def test(self, i: int) -> bool:
        self._check(i)
        return bool((int(self._words[i // _WORD]) >> (i % _WORD)) & 1)

    __getitem__ = test

    # -- whole-vector operations ----------------------------------------------

    def _check_width(self, other: "PackedBitVector") -> None:
        if not isinstance(other, PackedBitVector):
            raise TypeError(
                f"expected PackedBitVector, got {type(other).__name__}"
            )
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")

    def _make(self, words) -> "PackedBitVector":
        dup = PackedBitVector(self.width)
        dup._words = words
        return dup

    def __or__(self, other: "PackedBitVector") -> "PackedBitVector":
        self._check_width(other)
        return self._make(self._words | other._words)

    def __and__(self, other: "PackedBitVector") -> "PackedBitVector":
        self._check_width(other)
        return self._make(self._words & other._words)

    def __sub__(self, other: "PackedBitVector") -> "PackedBitVector":
        """Set difference: bits in self and not in other."""
        self._check_width(other)
        return self._make(self._words & ~other._words)

    def __ior__(self, other: "PackedBitVector") -> "PackedBitVector":
        self._check_width(other)
        self._words |= other._words
        return self

    def __iand__(self, other: "PackedBitVector") -> "PackedBitVector":
        self._check_width(other)
        self._words &= other._words
        return self

    def __isub__(self, other: "PackedBitVector") -> "PackedBitVector":
        self._check_width(other)
        self._words &= ~other._words
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedBitVector):
            return NotImplemented
        return self.width == other.width and bool(
            _np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:
        return hash((self.width, self._words.tobytes()))

    def __bool__(self) -> bool:
        return bool(self._words.any())

    def __len__(self) -> int:
        return self.width

    def __iter__(self) -> Iterator[bool]:
        for i in range(self.width):
            yield bool((int(self._words[i // _WORD]) >> (i % _WORD)) & 1)

    def indices(self) -> Iterator[int]:
        """Yield the indices of set bits, ascending."""
        for w, word in enumerate(self._words):
            bits = int(word)
            base = w * _WORD
            while bits:
                low = bits & -bits
                yield base + low.bit_length() - 1
                bits ^= low

    def count(self) -> int:
        return int(_np.bitwise_count(self._words).sum())

    def is_subset(self, other: "PackedBitVector") -> bool:
        self._check_width(other)
        return not bool((self._words & ~other._words).any())

    def __repr__(self) -> str:
        bits = 0
        for w in range(len(self._words) - 1, -1, -1):
            bits = (bits << _WORD) | int(self._words[w])
        return f"PackedBitVector({self.width}, 0b{bits:0{max(self.width, 1)}b})"
