"""left_sum: float sums that do not depend on the Python version."""

import functools
import math
import operator

from hypothesis import given, strategies as st

from repro.util import left_sum


def test_left_fold_differs_from_compensated_sum():
    # left to right, 1e16 + 1.0 rounds back to 1e16; a compensated or
    # exact sum (CPython 3.12's sum(), math.fsum) keeps the 1.0
    values = [1e16, 1.0, -1e16]
    assert left_sum(values) == 0.0
    assert math.fsum(values) == 1.0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=64)))
def test_matches_a_plain_left_fold(values):
    assert left_sum(values) == functools.reduce(operator.add, values, 0)


def test_ints_stay_ints_and_empty_is_zero():
    assert left_sum([]) == 0
    assert left_sum(iter([1, 2, 3])) == 6
    assert isinstance(left_sum([1, 2]), int)
