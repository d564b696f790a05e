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

One row with a few entries replaced, k times over (the finite-difference
probes of a ratio ascent), is summed by :func:`ksum_replaced` without
forming the k variants.  The row's exact sum is held as the few floats
that ``fsum`` peels off it: the sum, then the sum of the row less that,
and so on to zero.  Each variant's exactly rounded sum is then one
``fsum`` of those parts, its old entries negated and its new ones: O(k)
in place of O(k n).

The pair energies of a suite's k functions are formed together, so a
strip can carry a function axis: shape (k, rows, columns), the same rows
and columns of k symmetric matrices.  Each matrix keeps its own bound and
so its own ``top`` and schedule; pass j adds matrix f's chunks to its own
accumulator of (f, row), so an accumulator still sums at most m chunk
entries of one matrix, all multiples of that matrix's unit, and every row
sum is the float it is with the matrix alone.  One pass works on all
matrices still live, each at its own ``sigma``, and a matrix leaves the
passes when all its remainders are zero: the strip takes as many passes
as its slowest matrix would alone, and a matrix far below the others
adds none to them.  Within a matrix no rows leave early, since the
matrices must keep one shape.

So ``_passes`` has two modes: a 2-d block sheds rows, a stack sheds
whole matrices.  Both earn their code (``perfbench/run.py``, 4 alternating
pairs, 2-vCPU x86-64 host): one stacked shape that sheds both read
ball2d-p2 ``verify_s`` 0.58-0.61 s against 0.51-0.57 s, its ``sweep_s``
0.106-0.115 s against 0.093-0.104 s, and ball2d-p1 ``verify_s``
0.423-0.448 s against 0.417-0.425 s; a stack of one in place of the 2-d
block read ball2d-p2 ``sweep_s`` 0.107-0.114 s against 0.084-0.097 s, its
single-function strips shedding rows in 156 of their 348 passes.

The price of one schedule is the bound's slack: a strip far below the
bound spends its first pass on leading zeros.  On the pair energies of
``perfbench/workloads/ball2d-p1.json`` (``verify`` at seed 2024, 366
strips of the suite's 4 functions), 12 strips finished in 2 passes, 335
in 3 and 19 in 4.  One function at a time took 544 strips: 428 in 2
passes, 100 in 3 and 16 in 4.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["ksum", "ksum_rows", "ksum_replaced", "SymmetricRowSums"]

# Terms per block wherever terms are formed in blocks: the strips of a
# pair energy (``forms``), the row blocks of deviation probes (``grid``)
# and of ``pair_coefficient_matrix``, so that a block and the temporaries
# formed beside it stay in one core's L2 cache.  A pair-energy strip takes
# the rows from ``start`` on against the columns from ``start`` on, as far
# as the kernel reaches, and as many rows as fit the budget at that width;
# a suite's k functions share one budget, about ``2^16 / k`` terms each.
# One function on the 812 cells of the 2-d N = 32 ball gives 7 strips of
# 80 to 245 rows; the 3,228 of N = 64 give 83, of 20 to 189 rows.  ms per
# pair-energy call on the full 2-d ball (mean of p = 1 and 2, untruncated
# fractional kernel, step weight; 2-vCPU x86-64 host, 2 MB of L2 per core,
# numpy 2.4, medians of interleaved runs), by terms per strip:
#
#   812 cells (N = 32):     2^13: 8.5   2^14: 7.0   2^15: 6.2   2^16: 6.3   2^17: 7.4
#   3,228 cells (N = 64):   2^13: 126   2^14: 92    2^15: 82    2^16: 87    2^17: 91
#
# 2^15 and 2^16 read the same within the noise of repeated runs.  The
# budget is per strip, not per function: 4 functions at p = 1 on the 812
# cells (step weight, same host, medians of 7) took 16.8 ms together with
# the shared budget, 35.0 ms with 2^16 terms per function, and 27-29 ms
# one at a time.  Full-width row blocks take ``2^16 // m`` rows of m.
BLOCK_ELEMENTS = 1 << 16

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
        ones = np.ones(n)
        chunks = []  # row sums of each pass's chunks, adding up to the rows
        for rows, q in _passes(block, math.frexp(float(peak[fit].max()))[1], _bits(n)):
            chunks.append(np.zeros(len(block)))
            chunks[-1][rows] = q @ ones
        out[fit] = _fsum_rows(chunks)
    for r in np.flatnonzero(~fit):
        out[r] = math.fsum(matrix[r].tolist())
    return out


def ksum_replaced(row: np.ndarray, at: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Exactly rounded sums of k variants of one row, as k floats.

    Variant r is the 1-d ``row`` with each entry ``row[at[r, s]]`` replaced
    by ``new[r, s]``; ``at`` and ``new`` are (k, s) arrays, the positions
    of one variant are distinct, and a position of -1 replaces nothing.
    Entry r is ``math.fsum`` of variant r, bit for bit, with the same
    exceptions, in O(k s) once the exact sum of ``row`` is held as a few
    floats (see ``_exact_parts``): one ``fsum`` of those, the variant's old
    entries negated and its new ones, is the variant's exactly rounded
    sum.  A variant is summed in full instead
    when an entry of it is not finite or of magnitude ``2^900`` or more,
    since ``fsum`` raises on ``inf - inf``, or when its sum is zero, whose
    sign is ``fsum``'s to choose from the variant's own entries.
    """
    used = at >= 0
    old = np.where(used, row[at], 0.0)
    new = np.where(used, new, 0.0)
    out = np.zeros(len(at))
    if np.abs(row).max() < _KERNEL_MAX_ABS:  # False at nan
        parts = _exact_parts(row)
        quick = np.flatnonzero((np.abs(new) < _KERNEL_MAX_ABS).all(axis=1))
        changes = np.concatenate([new[quick], -old[quick]], axis=1).tolist()
        out[quick] = [math.fsum(parts + change) for change in changes]
    for r in np.flatnonzero(out == 0.0):
        variant = row.copy()
        variant[at[r, used[r]]] = new[r, used[r]]
        out[r] = math.fsum(variant.tolist())
    return out


class SymmetricRowSums:
    """Exactly rounded row sums of a symmetric (m, m) matrix, given as
    strips of its upper triangle; or of a stack of n such matrices, one per
    function of a suite, given as strips of the same rows of each.

    Strip ``add(strip, start)`` with ``strip`` of shape (k, w) holds rows
    ``start .. start + k`` against columns ``start .. start + w``: its
    (k, k) diagonal block and the columns to the right of it.  Columns past
    ``start + w`` must be zero in those rows, and every row of the matrix
    must lie in exactly one strip.  Each pass of the shared schedule adds
    the strip's row sums to its rows and its column sums past the diagonal
    block to the rows of those columns (see the module docstring).
    ``sums()`` then returns ``math.fsum`` of each full row, bit for bit,
    except that a row of negative zeros gives ``+0.0``.

    ``bound`` is a float for one matrix.  For a stack it holds one bound
    per matrix, a strip has shape (n, k, w), ``sums()`` has shape (n, m),
    and each matrix runs on its own schedule from its own bound, as it
    would alone: a matrix far below the others neither adds passes to
    them nor takes theirs.
    """

    def __init__(self, m: int, bound):
        stacked = np.ndim(bound) == 1
        bounds = list(bound) if stacked else [bound]
        for b in bounds:
            if not self.accepts(b):
                raise ValueError(f"entry bound must lie in [0, 2^900), got {b}")
        tops = [math.frexp(b)[1] for b in bounds]
        self._top = np.array(tops) if stacked else tops[0]
        self._shape = (len(bounds), m) if stacked else (m,)
        self._bits = _bits(m)
        self._acc: list[np.ndarray] = []  # one array of ``_shape`` per pass

    @staticmethod
    def accepts(bound: float) -> bool:
        """Whether ``bound`` (on every entry's magnitude) fits the schedule."""
        return 0.0 <= bound < _KERNEL_MAX_ABS

    def add(self, strip: np.ndarray, start: int) -> None:
        """Add one strip; ``strip`` is overwritten."""
        k, w = strip.shape[-2:]
        ones = np.ones(max(k, w))
        for step, (live, q) in enumerate(_passes(strip, self._top, self._bits, own=True)):
            if step == len(self._acc):
                self._acc.append(np.zeros(self._shape))
            acc = self._acc[step]
            if q.ndim == 2:  # ``live``: the rows still extracted
                acc[start + live] += q @ ones[:w]
                acc[start + k : start + w] += ones[: len(live)] @ q[:, k:]
            else:  # ``live``: the matrices still extracted
                acc[live, start : start + k] += q @ ones[:w]
                acc[live, start + k : start + w] += ones[:k] @ q[:, :, k:]

    def sums(self) -> np.ndarray:
        """Exactly rounded sum of each row: m floats, or (n, m) for a stack."""
        if not self._acc:
            return np.zeros(self._shape)
        return _fsum_rows(self._acc)


def _bits(n: int) -> int:
    """Bits per pass ``b`` for sums of up to n entries."""
    return min(51, 53 - n.bit_length())


def _exact_parts(row: np.ndarray) -> list[float]:
    """A few floats whose exact sum is that of the finite 1-d ``row``,
    peeled by ``fsum``: each part is the exactly rounded sum of the row
    less the parts before it, until that is zero."""
    terms = row.tolist()
    parts = []
    while (part := math.fsum(terms)) != 0.0:
        parts.append(part)
        terms.append(-part)
    return parts


def _fsum_rows(chunks: list[np.ndarray]) -> np.ndarray:
    """``math.fsum`` across equal-shape arrays, entry by entry."""
    stacked = np.stack(chunks, axis=-1)
    sums = [math.fsum(row) for row in stacked.reshape(-1, len(chunks)).tolist()]
    return np.array(sums).reshape(stacked.shape[:-1])


def _passes(r: np.ndarray, top, bits: int, own: bool = False):
    """Error-free extraction of the rows of ``r``, one pass per item.

    ``r`` is a (k, n) block on one schedule from the int ``top``, or a
    stack of (k, n) blocks with one schedule each, from the ints ``top``.
    Yields ``(live, q)``: the chunks ``q`` of the leading entries ``live``
    (indices into ``r``: rows of a block, blocks of a stack) still live,
    valid until the next item.  Every entry of ``r`` must have magnitude at
    most ``2^top``; pass j works at ``top - j (bits + 1)``, and a sum of
    chunk entries is exact when it has fewer than ``2^(53 - bits)`` terms
    (see the module docstring).  ``r`` is overwritten with the remainders
    when ``own``; else it is only read.
    """
    live = np.arange(len(r))
    q = np.empty_like(r)
    rest = tuple(range(1, r.ndim))
    while True:
        if r.ndim == 2:
            sigma = math.ldexp(1.5, top - bits + 52)
        else:
            sigma = np.ldexp(1.5, top - bits + 52)[:, None, None]
        np.add(r, sigma, out=q)
        q -= sigma
        yield live, q
        r = np.subtract(r, q, out=r if own else None)
        own = True
        top = top - (bits + 1)
        going = (r != 0.0).any(axis=rest)
        if not going.any():
            return
        if not going.all():
            r, live, q = r[going], live[going], q[: np.count_nonzero(going)]
            if r.ndim > 2:
                top = top[going]
