"""Deterministic scalar reductions used throughout the package.

Every quantity we report is ultimately a finite sum of floats.  To make
runs byte-for-byte reproducible (and invariant tolerances meaningful), all
reductions funnel through :func:`ksum` or :func:`ksum_rows`, which return
the exactly rounded sum of each row, the same float as ``math.fsum``.
An exactly rounded sum is unique, so the result does not depend on
summation order, chunking, or thread count.

A large block is summed by error-free extraction onto a per-row
fixed-point grid (Rump, Ogita & Oishi, "Accurate floating-point
summation, Part I: faithful rounding", SIAM J. Sci. Comput. 2008), a few
whole-array numpy passes in place of one ``fsum`` per row.  For a
(k, n) block, let ``2^top`` bound the largest magnitude of every row
still being summed and set ``b = min(51, 53 - n.bit_length())``.  Each
pass takes, for the one float ``sigma = 1.5 * 2^(top - b + 52)``,

    q = (sigma + r) - sigma,    r <- r - q,    top <- top - b - 1,

starting from ``r`` = the row, until every remainder is zero; the row's
sum is ``math.fsum`` of the sums of its chunks ``q``.  Why this is exact:

- While ``|r| <= 2^top <= sigma / 3``, ``sigma + r`` stays in the binade
  of ``sigma`` (this needs ``b <= 51``), where the spacing of floats is
  ``u = 2^(top - b)``.  So ``q`` is ``r`` rounded to a multiple of ``u``,
  the subtraction ``- sigma`` is exact (Sterbenz), ``r - q`` is exact and
  ``|r - q| <= u / 2 = 2^(top - b - 1)``, the next ``top``.
- ``|q| <= 2^top = 2^b u``, so any partial sum of the n chunk entries is
  an integer multiple of ``u`` of magnitude at most
  ``(2^L - 1) 2^b u < 2^53 u`` with ``L = n.bit_length()``.  Every such
  multiple is a float, so the row sums of ``q``, taken as the product
  ``q @ 1``, are exact in any order and with fused multiply-adds.
- Where ``u < 2^-1074``, ``sigma`` is subnormal (``ldexp`` may round it),
  and ``sigma`` and ``r`` are multiples of ``2^-1074`` below ``2^-1021``
  in magnitude.  Their sums are then exact, ``q = r``, and the pass is
  the last.  Subnormal rows thus stay in the kernel.

``b`` is the largest value both bounds allow, which keeps the passes
few.  One ``sigma`` serves the whole block, so each pass adds a scalar:
on a 64 x 812 block (2-vCPU x86-64 host, numpy 2.4), adding a column of
per-row values took 68 us and adding a scalar 19 us.  A row whose own
bound lies below ``top`` takes zero chunks until ``top`` comes down to
it; when rows finish, ``top`` drops to the largest bound of the rows
left.  The chunk sums add up to the row exactly, so their ``fsum`` is
the exactly rounded row sum.  Two kinds of rows go to ``math.fsum`` instead:
rows with a non-finite entry or with a magnitude of ``2^900`` or more
(``sigma`` could overflow), so that overflow, ``inf - inf`` and ``nan``
raise or propagate exactly as ``fsum`` has them; and rows of zeros, whose
sign is ``fsum``'s to choose.  Blocks of fewer than
``_KERNEL_MIN_ELEMENTS`` entries are summed by ``fsum`` row by row, which
is faster there.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["ksum", "ksum_rows"]

# Crossover between one ``fsum`` per row and the extraction kernel.  On a
# 2-vCPU x86-64 host (numpy 2.4, Python 3.11) the kernel costs about 45 us
# of numpy call overhead whatever the size, and ``fsum`` about 50 ns per
# entry: a 1 x 1024 row took 49 us by ``fsum`` and 52 us by the kernel,
# 1 x 2048 101 us and 57 us, 16 x 128 94 us and 66 us, 64 x 64 181 us and
# 103 us.  Below the crossover sit the thousands of one-row sums of 1-d
# grids with at most 64 cells: with the kernel at every size,
# ``perfbench/run.py --workload demo-1d --seed 1117`` read ``verify_s``
# 1.32 s and ``sharp_s`` 1.63 s, against 0.72 s and 1.12 s with this
# crossover (medians of 3 runs each).
_KERNEL_MIN_ELEMENTS = 2048

# Rows whose largest magnitude reaches this bound go to ``math.fsum``:
# ``sigma`` is up to 2^(53 - b) times a row's largest magnitude and must
# stay finite; 2^900 leaves room for any row length that fits in memory.
_KERNEL_MAX_ABS = 2.0**900


def ksum(values: Iterable[float] | np.ndarray) -> float:
    """Exactly rounded sum of all entries of an array or iterable."""
    if isinstance(values, np.ndarray):
        return float(ksum_rows(np.asarray(values, dtype=float).reshape(1, -1))[0])
    return math.fsum(values)


def ksum_rows(matrix: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each row of a (k, n) float array, as k floats.

    Row r of the result is ``math.fsum(matrix[r])`` bit for bit, with the
    same exceptions; see the module docstring for how a large block is
    summed.
    """
    k, n = matrix.shape
    if k * n < _KERNEL_MIN_ELEMENTS:
        return np.array([math.fsum(row.tolist()) for row in matrix], dtype=float)
    peak = np.abs(matrix).max(axis=1)
    fit = (peak > 0.0) & (peak < _KERNEL_MAX_ABS)  # False at nan
    out = np.empty(k)
    if fit.any():
        out[fit] = _extract_rows(matrix if fit.all() else matrix[fit], peak[fit])
    for r in np.flatnonzero(~fit):
        out[r] = math.fsum(matrix[r].tolist())
    return out


def _extract_rows(block: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Exactly rounded row sums of finite rows with ``0 < peak < 2^900``.

    ``block`` is only read: the passes work in two buffers of its shape,
    the chunk ``q`` and, from the second pass on, the remainder ``r``.
    """
    k, n = block.shape
    bits = min(51, 53 - n.bit_length())
    tops = np.frexp(peak)[1]  # peak < 2^top, row by row
    top = int(tops.max())
    ones = np.ones(n)
    chunks = []
    rows = np.arange(k)
    r = block
    q = np.empty_like(block)
    while True:
        sigma = math.ldexp(1.5, top - bits + 52)
        np.add(r, sigma, out=q)
        q -= sigma
        chunk = np.zeros(k)
        chunk[rows] = q @ ones
        chunks.append(chunk)
        r = np.subtract(r, q, out=None if r is block else r)
        top -= bits + 1
        live = (r != 0.0).any(axis=1)
        if not live.any():
            break
        if not live.all():
            r, rows, q = r[live], rows[live], q[: np.count_nonzero(live)]
            top = min(top, int(tops[rows].max()))
    return np.array([math.fsum(row) for row in np.stack(chunks, axis=1).tolist()])
