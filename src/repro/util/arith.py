"""Float arithmetic whose result does not depend on the Python version.

CPython 3.12 made ``sum()`` over floats use compensated (Neumaier)
summation, so the same float list can sum to a different last bit on 3.11
and 3.12.  Every sum that feeds ``RunStats``, a digest or a report uses
:func:`left_sum` instead: one rounding per addition, left to right — what
``sum()`` did before 3.12.  (``math.fsum`` is exact and ``np.sum`` is
pairwise; neither matches the committed outputs.)
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``((0 + v0) + v1) + ...`` evaluated left to right."""
    total = 0
    for v in values:
        total += v
    return total
