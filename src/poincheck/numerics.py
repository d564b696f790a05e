"""Deterministic scalar reductions used throughout the package.

Every quantity we report is ultimately a finite sum of floats.  To make
runs byte-for-byte reproducible (and invariant tolerances meaningful), all
reductions funnel through :func:`ksum` or :func:`ksum_rows`, which return
the exactly rounded sum via compensated (Shewchuk) accumulation.  The
result does not depend on summation order, chunking, or thread count.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

__all__ = ["ksum", "ksum_rows"]

_CHUNK = 1 << 16


def ksum(values: Iterable[float] | np.ndarray) -> float:
    """Exactly rounded sum of all entries of an array or iterable."""
    if isinstance(values, np.ndarray):
        flat = np.ascontiguousarray(values, dtype=float).ravel()
        # One fsum over every element: a sum of chunk sums is not exactly rounded.
        chunks = (flat[k : k + _CHUNK].tolist() for k in range(0, flat.size, _CHUNK))
        return math.fsum(itertools.chain.from_iterable(chunks))
    return math.fsum(values)


def ksum_rows(matrix: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each row of a (k, n) array, as k floats.

    Converts one row at a time, so the Python floats of a whole block are
    never alive at once.
    """
    return np.array([math.fsum(row.tolist()) for row in matrix], dtype=float)
