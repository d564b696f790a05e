"""Deterministic scalar reductions used throughout the package.

Every quantity we report is ultimately a finite sum of floats.  To make
runs byte-for-byte reproducible (and invariant tolerances meaningful), all
reductions funnel through :func:`ksum` or :func:`ksum_rows`, which return
the exactly rounded sum of each row, the same float as ``math.fsum``.
An exactly rounded sum is unique, so the result does not depend on
summation order, chunking, or thread count.

A large block is summed by error-free extraction onto a fixed-point grid
(Rump, Ogita & Oishi, "Accurate floating-point summation, Part I:
faithful rounding", SIAM J. Sci. Comput. 2008), a few whole-array numpy
passes in place of one ``fsum`` per row.  For a (k, n) block, let
``2^top`` bound every magnitude in it and set
``b = min(51, 53 - n.bit_length())``.  Pass j works at
``top_j = top - j (b + 1)``: it takes, for the one float
``sigma = 1.5 * 2^(top_j - b + 52)``,

    q = (sigma + r) - sigma,    r <- r - q,

starting from ``r`` = the row, until every remainder is zero; the row's
sum is ``math.fsum`` of the sums of its chunks ``q``.  Why this is exact:

- While ``|r| <= 2^top_j <= sigma / 3``, ``sigma + r`` stays in the binade
  of ``sigma`` (this needs ``b <= 51``), where the spacing of floats is
  ``u_j = 2^(top_j - b)``.  So ``q`` is ``r`` rounded to a multiple of
  ``u_j``, the subtraction ``- sigma`` is exact (Sterbenz), ``r - q`` is
  exact and ``|r - q| <= u_j / 2 = 2^top_(j+1)``.
- ``|q| <= 2^top_j = 2^b u_j``, so any partial sum of the n chunk entries
  is an integer multiple of ``u_j`` of magnitude at most
  ``(2^L - 1) 2^b u_j < 2^53 u_j`` with ``L = n.bit_length()``.  Every
  such multiple is a float, so the row sums of ``q``, taken as the
  product ``q @ 1``, are exact in any order and with fused multiply-adds.
- Where ``u_j < 2^-1074``, ``sigma`` is subnormal (``ldexp`` may round
  it), and ``sigma`` and ``r`` are multiples of ``2^-1074`` below
  ``2^-1021`` in magnitude.  Their sums are then exact, ``q = r``, and
  the pass is the last.  Subnormal rows thus stay in the kernel.

``b`` is the largest value both bounds allow, which keeps the passes
few.  One ``sigma`` serves the whole block, so each pass adds a scalar:
on a 64 x 812 block (2-vCPU x86-64 host, numpy 2.4), adding a column of
per-row values took 68 us and adding a scalar 19 us.  A row far below
``2^top`` takes zero chunks until ``top_j`` comes down to it, and rows
whose remainders are zero leave the passes.  The chunk sums add up to
the row exactly, so their ``fsum`` is the exactly rounded row sum.  Two
kinds of rows go to ``math.fsum`` instead: rows with a non-finite entry
or with a magnitude of ``2^900`` or more (``sigma`` could overflow), so
that overflow, ``inf - inf`` and ``nan`` raise or propagate exactly as
``fsum`` has them; and rows of zeros, whose sign is ``fsum``'s to
choose.  ``top`` is taken from the largest of the other rows.  Blocks of
fewer than ``_KERNEL_MIN_ELEMENTS`` entries are summed by ``fsum`` row by
row, which is faster there.

The rows of a symmetric (m, m) matrix, such as the terms of a pair
energy, are summed by :class:`SymmetricRowSums` from strips of the upper
triangle, so that each unordered pair is extracted once, not once in
each of its two rows.  A strip holds rows ``start .. start + k`` against
columns ``start .. start + w``: its (k, k) diagonal block and the columns
to the right of it.  All strips run on the schedule above, fixed for the
whole matrix (after Zhu & Hayes, "Algorithm 908: online exact summation
of floating-point streams", ACM TOMS 2010, whose accumulators share their
exponents): ``2^top`` bounds every entry of the matrix,
``b = min(51, 53 - m.bit_length())``, and pass j works at ``top_j`` in
every strip.  Pass j of a strip adds its row sums ``q @ 1`` to its own
rows and its column sums past the diagonal block, ``1 @ q[:, k:]``, to
the rows of those columns, all into one accumulator per row for pass j.
Why each accumulator is exact:

- Every chunk entry of pass j, in every strip, is a multiple of one unit
  ``u_j`` of magnitude at most ``2^b u_j``, by the argument above.
- The pieces that reach row i are sums over disjoint sets of its entries
  ``(i, j)``: its own strip's row sum covers the columns of that strip,
  and an earlier strip's column sum covers, by symmetry, the columns j
  that are that strip's rows.  So an accumulator is always a sum of at
  most m chunk entries: a multiple of ``u_j`` below
  ``(2^L - 1) 2^b u_j < 2^53 u_j`` with ``L = m.bit_length()``, hence a
  float, and every addition into it is exact.  Columns past
  ``start + w`` are left out of both sums, which is exact when those
  entries are zero.
- A row's accumulators add up to the exact sum of its entries, so their
  ``fsum`` is the exactly rounded row sum: ``math.fsum`` of the full row,
  bit for bit.

The price of one schedule is the bound's slack: a strip far below the
bound spends its first pass on leading zeros.  On the pair energies of
``perfbench/workloads/ball2d-p1.json`` (``verify`` at seed 2024, 544
strips), 428 strips finished in 2 passes, 100 in 3 and 16 in 4.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["ksum", "ksum_rows", "SymmetricRowSums"]

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
    same exceptions.  A large block is extracted on one fixed schedule,
    from ``2^top`` above its largest row that fits; see the module
    docstring.
    """
    k, n = matrix.shape
    if k * n < _KERNEL_MIN_ELEMENTS:
        return np.array([math.fsum(row.tolist()) for row in matrix], dtype=float)
    peak = np.abs(matrix).max(axis=1)
    fit = (peak > 0.0) & (peak < _KERNEL_MAX_ABS)  # False at nan
    out = np.empty(k)
    if fit.any():
        block = matrix if fit.all() else matrix[fit]
        top = math.frexp(float(peak[fit].max()))[1]  # every entry below 2^top
        ones = np.ones(n)
        chunks = []
        for rows, q in _passes(block, top, _bits(n)):
            chunk = np.zeros(len(block))
            chunk[rows] = q @ ones
            chunks.append(chunk)
        out[fit] = _fsum_rows(chunks)
    for r in np.flatnonzero(~fit):
        out[r] = math.fsum(matrix[r].tolist())
    return out


class SymmetricRowSums:
    """Exactly rounded row sums of a symmetric (m, m) matrix, given as
    strips of its upper triangle.

    Strip ``add(strip, start)`` with ``strip`` of shape (k, w) holds rows
    ``start .. start + k`` against columns ``start .. start + w``: its
    (k, k) diagonal block and the columns to the right of it.  Columns past
    ``start + w`` must be zero in those rows, and every row of the matrix
    must lie in exactly one strip.  Each pass of the shared schedule adds
    the strip's row sums to its rows and its column sums past the diagonal
    block to the rows of those columns (see the module docstring).
    ``sums()`` then returns ``math.fsum`` of each full row, bit for bit,
    except that a row of negative zeros gives ``+0.0``.
    """

    def __init__(self, m: int, bound: float):
        if not self.accepts(bound):
            raise ValueError(f"entry bound must lie in [0, 2^900), got {bound}")
        self._m = m
        self._bits = _bits(m)
        self._top = math.frexp(bound)[1]
        self._acc: list[np.ndarray] = []  # one length-m array per pass

    @staticmethod
    def accepts(bound: float) -> bool:
        """Whether ``bound`` (on every entry's magnitude) fits the schedule."""
        return 0.0 <= bound < _KERNEL_MAX_ABS

    def add(self, strip: np.ndarray, start: int) -> None:
        """Add one strip; ``strip`` is overwritten."""
        k, w = strip.shape
        ones = np.ones(max(k, w))
        for step, (rows, q) in enumerate(_passes(strip, self._top, self._bits, own=True)):
            if step == len(self._acc):
                self._acc.append(np.zeros(self._m))
            acc = self._acc[step]
            acc[start + rows] += q @ ones[:w]
            acc[start + k : start + w] += ones[: len(rows)] @ q[:, k:]

    def sums(self) -> np.ndarray:
        """Exactly rounded sum of each row, as m floats."""
        if not self._acc:
            return np.zeros(self._m)
        return _fsum_rows(self._acc)


def _bits(n: int) -> int:
    """Bits per pass ``b`` for sums of up to n entries."""
    return min(51, 53 - n.bit_length())


def _fsum_rows(chunks: list[np.ndarray]) -> np.ndarray:
    """``math.fsum`` across equal-length arrays, entry by entry."""
    return np.array([math.fsum(row) for row in np.stack(chunks, axis=1).tolist()])


def _passes(r: np.ndarray, top: int, bits: int, own: bool = False):
    """Error-free extraction of the rows of ``r``, one pass per item.

    Yields ``(rows, q)``: the chunks ``q`` of the rows ``rows`` (indices
    into ``r``) still live, valid until the next item.  Every entry of
    ``r`` must have magnitude at most ``2^top``; pass j works at
    ``top - j (bits + 1)``, and a sum of chunk entries is exact when it has
    fewer than ``2^(53 - bits)`` terms (see the module docstring).  ``r``
    is overwritten with the remainders when ``own``; else it is only read.
    """
    rows = np.arange(len(r))
    q = np.empty_like(r)
    while True:
        sigma = math.ldexp(1.5, top - bits + 52)
        np.add(r, sigma, out=q)
        q -= sigma
        yield rows, q
        r = np.subtract(r, q, out=r if own else None)
        own = True
        top -= bits + 1
        live = (r != 0.0).any(axis=1)
        if not live.any():
            return
        if not live.all():
            r, rows, q = r[live], rows[live], q[: np.count_nonzero(live)]
