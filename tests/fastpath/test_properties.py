"""Property tests: packed representations vs plain reference models.

Hypothesis drives random operation sequences through the packed structure
and a plain model side by side — ``BitVector`` for the word-array vector,
the builtin ``set`` for :class:`NodeSet`, a dict for the byte-per-block
:class:`TagTable` — and every observable output must match.  The
calendar-queue engine gets the same treatment in
``test_queue_properties.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.directory import NodeSet
from repro.tempest.tags import AccessTag, TagTable
from repro.util.bitvec import BitVector, PackedBitVector

WIDTH = st.integers(min_value=0, max_value=200)

# --------------------------------------------------------------------------- #
# PackedBitVector vs BitVector
# --------------------------------------------------------------------------- #


def _bitvec_ops(width):
    idx = st.integers(min_value=-2, max_value=width + 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), idx),
            st.tuples(st.just("clear"), idx),
            st.tuples(st.just("test"), idx),
        ),
        max_size=30,
    )


def _observe(v):
    return (len(v), v.count(), list(v.indices()), list(v), bool(v))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), width=WIDTH)
def test_bitvector_single_bit_ops(data, width):
    ref, packed = BitVector(width), PackedBitVector(width)
    for op, i in data.draw(_bitvec_ops(width)):
        ref_exc = packed_exc = None
        try:
            ref_out = getattr(ref, op)(i)
        except IndexError as e:
            ref_exc, ref_out = e, None
        try:
            packed_out = getattr(packed, op)(i)
        except IndexError as e:
            packed_exc, packed_out = e, None
        assert (ref_exc is None) == (packed_exc is None)
        assert ref_out == packed_out
    assert _observe(ref) == _observe(packed)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(min_value=0, max_value=150), data=st.data())
def test_bitvector_algebra(width, data):
    bits = st.integers(min_value=0, max_value=(1 << width) - 1 if width else 0)
    a_bits, b_bits = data.draw(bits), data.draw(bits)
    ra, rb = BitVector(width, a_bits), BitVector(width, b_bits)
    pa, pb = PackedBitVector(width, a_bits), PackedBitVector(width, b_bits)
    for op in ("__or__", "__and__", "__sub__"):
        assert _observe(getattr(ra, op)(rb)) == _observe(getattr(pa, op)(pb))
    assert ra.is_subset(rb) == pa.is_subset(pb)
    assert (ra == rb) == (pa == pb)
    # in-place forms mutate identically
    ia, pia = ra.copy(), pa.copy()
    ia |= rb
    pia |= pb
    assert _observe(ia) == _observe(pia)
    ia, pia = ra.copy(), pa.copy()
    ia -= rb
    pia -= pb
    assert _observe(ia) == _observe(pia)


def test_bitvector_errors_match():
    for cls in (BitVector, PackedBitVector):
        with pytest.raises(ValueError):
            cls(-1)
        with pytest.raises(ValueError):
            cls(3, 0b1000)  # bits exceed width
        with pytest.raises(ValueError):
            cls(4) | cls(5)  # width mismatch
        with pytest.raises(IndexError):
            cls(4).set(4)
    full_r, full_p = BitVector.full(70), PackedBitVector.full(70)
    assert _observe(full_r) == _observe(full_p)
    idx_r = BitVector.from_indices(90, [0, 63, 64, 89])
    idx_p = PackedBitVector.from_indices(90, [0, 63, 64, 89])
    assert _observe(idx_r) == _observe(idx_p)


# --------------------------------------------------------------------------- #
# NodeSet vs set
# --------------------------------------------------------------------------- #

_NODE = st.integers(min_value=0, max_value=40)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("add"), _NODE),
        st.tuples(st.just("discard"), _NODE),
        st.tuples(st.just("update"), st.lists(_NODE, max_size=5)),
        st.tuples(st.just("intersection_update"), st.lists(_NODE, max_size=5)),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=25,
))
def test_nodeset_matches_set(ops):
    ref: set = set()
    packed = NodeSet()
    for op, arg in ops:
        if op == "clear":
            ref.clear()
            packed.clear()
        elif op == "intersection_update":
            ref.intersection_update(arg)
            packed.intersection_update(arg)
        elif op == "update":
            ref.update(arg)
            packed.update(arg)
        else:
            getattr(ref, op)(arg)
            getattr(packed, op)(arg)
        assert list(packed) == sorted(ref)  # always ascending
        assert len(packed) == len(ref)
        assert bool(packed) == bool(ref)


@settings(max_examples=60, deadline=None)
@given(a=st.lists(_NODE, max_size=8), b=st.lists(_NODE, max_size=8))
def test_nodeset_operator_algebra(a, b):
    ra, rb = set(a), set(b)
    pa, pb = NodeSet(a), NodeSet(b)
    assert sorted(pa | pb) == sorted(ra | rb)
    assert sorted(pa & pb) == sorted(ra & rb)
    assert sorted(pa - pb) == sorted(ra - rb)
    # mixed forms with plain collections (the protocols do this)
    assert sorted(pa - rb) == sorted(ra - rb)
    assert sorted(ra - pb) == sorted(ra - rb)
    assert (pa == pb) == (ra == rb)
    assert pa.copy() == pa and pa.copy() is not pa
    assert all(x in pa for x in ra)


# --------------------------------------------------------------------------- #
# TagTable vs a dict model
# --------------------------------------------------------------------------- #


class DictTags:
    """Reference model: block -> tag dict, missing entries INVALID."""

    def __init__(self):
        self.tags = {}

    def get(self, b):
        return self.tags.get(b, AccessTag.INVALID)

    def set(self, b, tag):
        if tag is AccessTag.INVALID:
            self.tags.pop(b, None)
        else:
            self.tags[b] = tag

    def permits(self, b, kind):
        return self.get(b).permits(kind)

    def downgrade(self, b):
        if self.get(b) is AccessTag.READ_WRITE:
            self.tags[b] = AccessTag.READ_ONLY

    def invalidate(self, b):
        self.tags.pop(b, None)

    def clear(self):
        self.tags.clear()

    def reserve(self, n):
        pass

_BLOCK = st.integers(min_value=0, max_value=120)
_TAG = st.sampled_from(list(AccessTag))


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("set"), _BLOCK, _TAG),
        st.tuples(st.just("get"), _BLOCK, st.none()),
        st.tuples(st.just("permits"), _BLOCK, st.sampled_from(["r", "w"])),
        st.tuples(st.just("downgrade"), _BLOCK, st.none()),
        st.tuples(st.just("invalidate"), _BLOCK, st.none()),
        st.tuples(st.just("clear"), st.none(), st.none()),
        st.tuples(st.just("reserve"), _BLOCK, st.none()),
    ),
    max_size=40,
))
def test_tag_table_matches_reference(ops):
    ref, packed = DictTags(), TagTable(node=0)
    for op, a, b in ops:
        args = [x for x in (a, b) if x is not None]
        ref_out = getattr(ref, op)(*args)
        packed_out = getattr(packed, op)(*args)
        assert ref_out == packed_out, (op, args)
        assert len(packed) == len(ref.tags)
    assert list(packed.items()) == sorted(ref.tags.items())
    for tag in AccessTag:
        assert packed.blocks_with_tag(tag) == sorted(
            b for b, t in ref.tags.items() if t is tag)


def test_tag_table_clear_preserves_storage_identity():
    packed = TagTable(node=1)
    packed.set(7, AccessTag.READ_WRITE)
    data = packed._data
    packed.clear()
    assert packed._data is data  # crash recovery relies on this
    assert packed.get(7) is AccessTag.INVALID and len(packed) == 0
