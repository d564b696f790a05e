"""Deterministic scalar reductions used throughout the package.

Every quantity we report is ultimately a finite sum of floats.  To make
runs byte-for-byte reproducible (and invariant tolerances meaningful),
every reduction here returns the exactly rounded sum, the same float as
``math.fsum``: :func:`ksum` of one array, :func:`ksum_rows` of each row
of a block, :func:`ksum_replaced` of variants of rows and
:class:`SymmetricRowSums` of the rows of a symmetric matrix.  An exactly
rounded sum is unique, so the result does not depend on summation order,
chunking, or thread count.  A long row is first cut down to a few
floats with the same exact sum: the chunk sums of the extraction below,
or a variant's parts and changes.  Each row of a few floats then ends in
one ``math.fsum``, or, from a crossover on, every row at once ends in the
few-term kernel ``_expansion_sums``, which gives the same float.  A row
of a symmetric matrix ends in one exact part and a float tail whose
rounding is proved, or, where it cannot be or the matrix's bound does
not fit the extraction, in :func:`ksum_rows` of the full row.

The few-term kernel returns ``math.fsum`` of each row of a (rows, k)
block, bit for bit, by whole-array numpy operations.  It is ``fsum``'s
own algorithm (Shewchuk, "Adaptive precision floating-point arithmetic
and fast robust geometric predicates", Discrete Comput. Geom. 1997) run
on all rows at once:

- Grow: column c is added into the expansion of the columns before it
  by Knuth's branch-free TwoSum, ``s = q + e``, ``b = s - q``,
  ``err = (q - (s - b)) + (e - b)``, for which ``s + err`` is exactly
  ``q + e`` whatever the magnitudes.  Each component e in turn is
  replaced by its ``err`` while q moves on as ``s``; the last ``s``
  becomes component c.  This is ``fsum``'s loop over its partials, which
  drops each ``err`` that is zero.  Here zero components stay, and a
  TwoSum with zero returns the other float unchanged and a zero error,
  so the nonzero components are ``fsum``'s partials, in its order.
- Round: ``fsum``'s final loop.  From the top component down, ``hi + y``
  is taken until it is inexact, with error ``lo``; a zero component
  leaves ``hi`` as it is.  Where ``hi + 2 lo`` is a float, ``lo`` is half
  an ulp of ``hi``: a tie that round-half-even has settled, though what
  lies below may lift it off the tie.  ``fsum`` then rounds away from
  ``hi`` when the next nonzero component below has the sign of ``lo``,
  so the kernel reads that component past any zero ones.
- A row whose sum comes out zero goes to ``math.fsum``, whose sign rule
  it is.  The entries must be finite and below 2^1000 in magnitude, so
  that no sum of a few of them overflows.

The kernel costs about 25 us of numpy calls and grows with k^2, one
``fsum`` about 0.25 us per row.  There is one crossover,
``_EXPANSION_MIN_ROWS`` = 256 rows: ``_fsum_rows``, the kernel's one
caller, takes one ``fsum`` per row below it and the kernel from it on,
for the chunk sums of :func:`ksum_rows` and, from as many variants on,
for those of :func:`ksum_replaced`.  us per :func:`ksum_replaced` call,
one ``fsum`` per variant against the kernel (2-vCPU x86-64 host, numpy
2.4, Python 3.11, best of 7 x 10 calls), by variants of j rows of n
entries with s entries replaced:

    n, j, s       64       128      192      256      512       812       1,624
    812, 1, 3     104/155  138/167  178/207  212/199  349/314   536/352   976/565
    812, 1, 1     90/103   109/91   131/110  147/117  229/153   343/175   598/233
    812, 12, 1    858/132  908/118  935/144  954/131  1038/172  1158/168  1400/263
    64, 1, 2      53/142   87/159   117/172  145/185  252/253   401/301   774/432

The first line is a 2-d N = 32 gradient-energy probe call, the second
and third the deviation probes of its center row and of 12 center rows;
the last is 1-d, whose probe calls have 32 or 64 variants.  The third
line's left side is mostly the ``fsum`` peel of 12 long rows (see
below).  On chunk sums of 2 to 4 columns the kernel wins from about 192
rows on, but no call of the checked-in runs sits between 192 and 256
rows: over ``verify``, ``sharp`` and ``sweep`` of ``configs/demo.json``,
the two ``perfbench`` 2-d workloads and ``tests/golden/ball2d-n16.json``,
no chunk-sum block of :func:`ksum_rows` has more than 57 rows, and the
:func:`ksum_replaced` calls of 192 to 255 variants (80 in demo ``sharp``,
18 in ball2d-n16 ``sharp``) stay on ``fsum``.  The chunk sums that reach
the kernel are those of the ball2d-p1 ``sharp`` run at 2-d N = 128: 7
blocks of up to 12,893 rows, in the transfer rhs of its ascents.

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
triangle, so that each unordered pair is formed once, not once in each
of its two rows.  A strip holds rows ``start .. start + k`` against
columns ``start .. start + w``: its (k, k) diagonal block and the columns
to the right of it.  Its row sums go to its own rows and its column sums
past the diagonal block, by symmetry, to the rows of those columns.  The
pieces that reach row i are sums over disjoint sets of its entries: its
own strip's row sum covers the columns of that strip, and an earlier
strip's column sum covers the columns j that are that strip's rows, so
row i gathers at most m entries in all.  Columns past ``start + w`` are
left out of both sums, which is exact when those entries are zero.

Each strip is extracted once, by the first pass of the schedule above at
one ``top`` for the whole matrix (after Zhu & Hayes, "Algorithm 908:
online exact summation of floating-point streams", ACM TOMS 2010, whose
accumulators share their exponents): ``2^top`` bounds every entry of the
matrix, ``b = min(51, 53 - m.bit_length())``, and
``q = (strip + sigma) - sigma``, ``r = strip - q``.  Three sums per row
gather the strips' row and column sums:

- ``a``, of the chunks ``q``: every chunk entry, in every strip, is a
  multiple of one unit ``u_0`` of magnitude at most ``2^b u_0``, so any
  sum of at most m of them is a multiple of ``u_0`` below
  ``(2^L - 1) 2^b u_0 < 2^53 u_0`` with ``L = m.bit_length()``: a float.
  ``a`` is exact.
- ``t``, the tail, of the remainders ``r``, in plain floats, and ``A`` of
  their magnitudes ``|r|``.  The row's exact sum is ``S = a + sum r``.
  Whatever the order of the additions, and with fused multiply-adds, a
  float sum of m terms is off by at most ``gamma_(m-1) sum |r|``, with
  ``gamma_n = n u / (1 - n u)`` and ``u = 2^-53`` (Higham, "Accuracy and
  stability of numerical algorithms", 2002, section 4.2); an addition
  whose result is subnormal is exact, so this holds through underflow.
  ``eps = 2 m u A + m 2^-1074`` bounds that error: the factor 2 covers
  ``gamma``'s denominator and the roundings of ``A`` and of ``eps``
  itself, and the floor the underflow of the product.

The rounding of ``S`` is then proved as in Rump, Ogita & Oishi,
"Accurate floating-point summation, Part II: sign, K-fold faithful and
rounding to nearest", SIAM J. Sci. Comput. 2008.  TwoSum gives
``s + e = a + t`` exactly, so ``S`` lies within ``eps`` of ``s + e``.
If ``s`` is not zero and ``e - eps`` and ``e + eps`` lie strictly inside
the half-gaps to the floats on either side of ``s`` (the gap toward zero
is half as wide where ``|s|`` is a power of two), then ``S`` rounds to
``s`` however ties are broken: ``s`` is ``math.fsum`` of the full row.
The code compares the floats ``2 e +- 2 eps`` with the whole gaps, each
the difference of two neighbouring floats and so exact; doubling is
exact, and rounding is monotone, so a comparison that holds in floats
holds exactly.  A row whose remainders are all zero has ``S = a``, which
is returned as is (``+0.0`` for a zero sum).  Neither test depends on
the order in which the sums were taken, so the rows proved, and every
float returned, are the same under any BLAS thread count.

The other rows, whose tail lies within ``eps`` of a half-gap or whose
``eps`` is wider than the gap (a row far below ``2^top``), are formed
again in full by the caller and summed by :func:`ksum_rows`, in blocks
of at most ``BLOCK_ELEMENTS / 2`` terms: whole ``BLOCK_ELEMENTS`` blocks
took the peak of traced memory of a ball2d-p1 ``verify`` pair-energy
call to 2.49 MB, above the 2.10 MB that extracting its strips pass after
pass to zero remainders needs; half blocks keep it at 1.95 MB.

Variants of a few rows, each one row with a few entries replaced (the
finite-difference probes of a ratio ascent), are summed by
:func:`ksum_replaced` without forming them.  Each row's exact sum is held
as a few parts, and a variant's exactly rounded sum is the one of its
row's parts, its new entries and its old ones negated.  From
``_EXPANSION_MIN_ROWS`` variants on, the parts of every row are its
chunk sums from one extraction of all rows, and the variants are the
rows of one few-term kernel call.  Below it, a row of more than two
variants has as parts the few floats that ``fsum`` peels off it: the
sum, then the sum of the row less that, and so on to zero; a row of
fewer is its own parts, as peeling costs two or three sums of it; and
each variant is one ``fsum``.  The peel stays there because an
extraction is about 21 us of numpy calls, where one 1-d row of 32 or 64
cells peels in 3-5 us.

The pair energies of a suite's k functions are formed together, so a
strip carries a function axis: shape (k, rows, columns), the same rows
and columns of k symmetric matrices (k = 1 for one function).  Each
matrix keeps its own bound, so its own ``top`` and ``sigma``, and its own
sums of (f, row): every row sum is the float it is with the matrix alone,
and a matrix far below the others keeps its low bits.  A matrix whose
bound is not in [0, 2^900) (inf, nan, negative, or so large that
``sigma`` could overflow) is not extracted: its part of each strip is
zeroed, so that no ``inf - inf`` or ``nan`` reaches the sums, and every
one of its rows is summed again in full, as ``fsum`` has it; the other
matrices of the stack keep their strips.  The energies of several
weights share every term up to the factor ``W_ij``, so a strip is formed
once and each weight adds the strip times its ``W_ij`` to a stack of its
own, each (weight, function) matrix at its own ``top``.  One (weight,
function) stack extracted at once thins the strips of large sets, which
costs more than it saves (see ``forms._pair_energies``).

Rows summed again in full, of all rows of the pair energies (seed 2024):
``verify`` of ``perfbench/workloads/ball2d-p2.json`` 1,943 of 63,504
(3.1%), of ball2d-p1 732 (1.2%), of ``configs/demo.json`` 334 of 37,248
(0.9%); ball2d-p2 ``verify`` at 2-d N = 64 11,644 of 252,544 (4.6%).  The
2-d ``sweep`` runs sum none again at N = 32, and 320 of 46,996 (0.7%) at
N = 64.  On ball2d-p2 ``verify``, 9 in 10 of them are rows whose ``eps``
exceeds their half-gap, rows far below their matrix's bound.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["ksum", "ksum_rows", "ksum_replaced", "SymmetricRowSums"]

# Terms per block wherever terms are formed in blocks: the strips of a
# pair energy (``forms``), the center rows of deviation probes (``grid``)
# and of ``pair_coefficient_matrix``, so that a block and the temporaries
# formed beside it stay in one core's L2 cache.  A pair-energy strip takes
# the rows from ``start`` on against the columns from ``start`` on, as far
# as the kernel reaches, and as many rows as fit the budget at that width;
# a suite's k functions share one budget, about ``2^16 / k`` terms each,
# and the weights whose energies are filled together share the strip, each
# taking its own weighted copy of it in turn (``forms._pair_energies``).
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
# one at a time.  Full-width row blocks take ``2^16 // m`` rows of m, and
# the rows that ``SymmetricRowSums`` sums again in full half that.
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

# Crossover between one ``math.fsum`` per row and ``_expansion_sums``, in
# rows of ``_fsum_rows``: the chunk sums of ``ksum_rows`` and the variants
# of ``ksum_replaced``; see the module docstring.
_EXPANSION_MIN_ROWS = 256


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
        out[fit] = _fsum_rows(_chunk_sums(block, float(peak[fit].max())))
    for r in np.flatnonzero(~fit):
        out[r] = math.fsum(matrix[r].tolist())
    return out


def ksum_replaced(rows: np.ndarray, of: np.ndarray, at: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Exactly rounded sums of k variants of the rows of a (j, n) array.

    Variant r is row ``rows[of[r]]`` with each entry at ``at[r, s]``
    replaced by ``new[r, s]``; ``at`` and ``new`` are (k, s) arrays, the
    positions of one variant are distinct, and a position of -1 replaces
    nothing.  Entry r is ``math.fsum`` of variant r, bit for bit, with the
    same exceptions: the exactly rounded sum of its row's parts (see the
    module docstring), the variant's new entries and its old ones negated,
    by one ``fsum`` each or, from ``_EXPANSION_MIN_ROWS`` variants on, by
    one few-term kernel call for all.  A variant is summed in full instead
    when an entry of it is not finite or of magnitude ``2^900`` or more,
    since ``fsum`` raises on ``inf - inf``, or when its sum is zero, whose
    sign is ``fsum``'s to choose from the variant's own entries.
    """
    used = at >= 0
    old = np.where(used, rows[of[:, None], at], 0.0)
    new = np.where(used, new, 0.0)
    out = np.zeros(len(at))
    peak = np.abs(rows).max(axis=1)
    fit = peak < _KERNEL_MAX_ABS  # False at nan
    quick = np.flatnonzero(fit[of] & (np.abs(new) < _KERNEL_MAX_ABS).all(axis=1))
    if quick.size >= _EXPANSION_MIN_ROWS:
        # A row that does not fit has no quick variant: zero it for the passes.
        block = rows if fit.all() else np.where(fit[:, None], rows, 0.0)
        parts = _chunk_sums(block, float(peak[fit].max(initial=0.0)))
        out[quick] = _fsum_rows(np.concatenate([parts[of[quick]], new[quick], -old[quick]], axis=1))
    else:
        peel = (fit & (np.bincount(of, minlength=len(rows)) > 2)).tolist()
        parts = [_exact_parts(row) if many else row.tolist() for row, many in zip(rows, peel)]
        changes = np.concatenate([new[quick], -old[quick]], axis=1).tolist()
        out[quick] = [math.fsum(parts[j] + change) for j, change in zip(of[quick].tolist(), changes)]
    for r in np.flatnonzero(out == 0.0):
        variant = rows[of[r]].copy()
        variant[at[r, used[r]]] = new[r, used[r]]
        out[r] = math.fsum(variant.tolist())
    return out


class SymmetricRowSums:
    """Exactly rounded row sums of a stack of n symmetric (m, m) matrices,
    one per function of a suite (n = 1 for one), given as strips of the
    same rows of each.

    Strip ``add(strip, start)`` with ``strip`` of shape (n, k, w) holds rows
    ``start .. start + k`` against columns ``start .. start + w`` of each
    matrix: its (k, k) diagonal block and the columns to the right of it.
    Columns past ``start + w`` must be zero in those rows, and every row of
    the matrix must lie in exactly one strip.  Each strip is extracted
    once, each matrix at its own ``top``, as it would be alone; the row
    sums of its chunks, remainders and remainders' magnitudes go to its
    own rows, and their column sums past the diagonal block to the rows of
    those columns (see the module docstring).  ``sums(full_rows)`` then
    returns, as an (n, m) array, ``math.fsum`` of each full row, bit for
    bit, except that a row of negative zeros gives ``+0.0``.  A row whose
    rounding the tail's error bound leaves open is summed again in full:
    ``full_rows(f, rows)`` returns the rows ``rows`` (an int array) of
    matrix f, all m columns, and is asked for at most ``BLOCK_ELEMENTS /
    2`` terms at a time.

    ``bounds`` holds one bound on the magnitude of every entry per matrix.
    A matrix whose bound is not in [0, 2^900) (inf, nan, negative or too
    large) does not fit the extraction: its part of each strip is zeroed
    before extraction, and every one of its rows is summed in full.
    """

    def __init__(self, m: int, bounds):
        bounds = np.asarray(bounds, dtype=float)
        fit = (bounds >= 0.0) & (bounds < _KERNEL_MAX_ABS)  # False at nan
        self._unfit = np.flatnonzero(~fit)
        tops = np.frexp(np.where(fit, bounds, 0.0))[1]
        self._sigma = np.ldexp(1.5, tops - _bits(m) + 52)[:, None, None]
        # Per (matrix, row): the chunk sums (exact), the remainder sums and
        # the sums of the remainders' magnitudes.
        self._acc, self._tail, self._abs = np.zeros((3, len(bounds), m))

    def add(self, strip: np.ndarray, start: int) -> None:
        """Add one strip; ``strip`` is overwritten with its remainders."""
        r = strip
        r[self._unfit] = 0.0  # an unfit matrix's rows are all summed in full
        q = r + self._sigma
        q -= self._sigma
        r -= q
        _, k, w = r.shape
        ones = np.ones(w)

        def fold(acc, part):
            """Row sums of ``part`` to its rows, column sums past the
            diagonal block to the rows of those columns."""
            acc[:, start : start + k] += part @ ones
            if w > k:
                acc[:, start + k : start + w] += ones[:k] @ part[:, :, k:]

        fold(self._acc, q)
        fold(self._tail, r)
        fold(self._abs, np.abs(r, out=q))

    def sums(self, full_rows) -> np.ndarray:
        """Exactly rounded sum of each row of each matrix: (n, m) floats."""
        acc, tail, m = self._acc, self._tail, self._acc.shape[1]
        s = acc + tail  # TwoSum: s + err is acc + tail exactly
        t = s - acc
        err2 = 2.0 * ((acc - (s - t)) + (tail - t))
        eps2 = self._abs * (4.0 * m * 2.0**-53) + 2.0 * m * 2.0**-1074  # twice the tail's error bound
        above = np.nextafter(s, np.inf) - s  # the gaps to the floats on either side of s
        below = np.nextafter(s, -np.inf) - s
        done = (err2 + eps2 < above) & (err2 - eps2 > below) & (s != 0.0)
        done |= self._abs == 0.0  # no remainders: acc is the exact sum
        done[self._unfit] = False
        # Half a strip's terms: a block and the chunks and remainders of its
        # extraction then take no more memory than a strip and its own.
        step = max(1, BLOCK_ELEMENTS // (2 * m))
        for f in np.flatnonzero(~done.all(axis=1)):
            redo = np.flatnonzero(~done[f])
            for i in range(0, redo.size, step):
                s[f, redo[i : i + step]] = ksum_rows(full_rows(f, redo[i : i + step]))
        return s


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


def _chunk_sums(block: np.ndarray, peak: float) -> np.ndarray:
    """Row sums of the chunks of each extraction pass of the finite (k, n)
    ``block``, whose largest magnitude is ``peak`` (in [0, 2^900)): a
    (k, passes) block whose rows add up to those of ``block`` exactly.

    The passes run on one schedule from ``top``, the exponent of ``peak``:
    pass j works at ``top - j (b + 1)``, takes the chunks ``q`` of the
    rows still live, and drops the rows whose remainders are zero (see the
    module docstring).  ``block`` is only read."""
    k, n = block.shape
    top, bits, ones = math.frexp(peak)[1], _bits(n), np.ones(n)
    r, live = block, np.arange(k)
    q = np.empty_like(block)
    chunks = []
    while True:
        sigma = math.ldexp(1.5, top - bits + 52)
        np.add(r, sigma, out=q)
        q -= sigma
        chunks.append(np.zeros(k))
        chunks[-1][live] = q @ ones
        r = np.subtract(r, q, out=None if r is block else r)
        top -= bits + 1
        going = (r != 0.0).any(axis=1)
        if not going.any():
            return np.stack(chunks, axis=1)
        if not going.all():
            r, live, q = r[going], live[going], q[: np.count_nonzero(going)]


def _fsum_rows(block: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a (k, passes) block: one per row, or one
    few-term kernel call from ``_EXPANSION_MIN_ROWS`` rows on."""
    if len(block) >= _EXPANSION_MIN_ROWS:
        return _expansion_sums(block)
    return np.array([math.fsum(row) for row in block.tolist()])


def _expansion_sums(block: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a (rows, k) block, bit for bit, by
    whole-array operations: the rows grown into expansions and rounded as
    ``fsum`` rounds its partials (see the module docstring).  Every entry
    must be finite and below 2^1000 in magnitude, and k at least 1."""
    e = np.array(block.T, dtype=float)  # e[c]: component c of every row
    for c in range(1, len(e)):
        q = e[c]
        for i in range(c):  # TwoSum: q + e[i] = s + err exactly
            s = q + e[i]
            b = s - q
            a = s - b
            np.subtract(e[i], b, out=b)
            np.subtract(q, a, out=a)
            np.add(a, b, out=e[i])
            q = s
        e[c] = q
    hi = e[-1].copy()
    lo = np.zeros(hi.size)
    stop = np.zeros(hi.size, dtype=np.intp)
    live = np.ones(hi.size, dtype=bool)
    for c in range(len(e) - 2, -1, -1):
        s = hi + e[c]
        err = e[c] - (s - hi)
        np.copyto(hi, s, where=live)
        inexact = (err != 0.0) & live
        np.copyto(lo, err, where=inexact)
        np.copyto(stop, c, where=inexact)
        live &= ~inexact
        if not live.any():
            break
    twice = lo * 2.0
    up = hi + twice
    tie = np.flatnonzero((up - hi == twice) & (lo != 0.0))
    if tie.size:  # fsum takes hi + 2 lo where the next nonzero below has lo's sign
        below = e[:, tie]
        nonzero = (below != 0.0) & (np.arange(len(e))[:, None] < stop[tie])
        top = len(e) - 1 - np.argmax(nonzero[::-1], axis=0)
        rest = np.where(nonzero.any(axis=0), below[top, np.arange(tie.size)], 0.0)
        tie = tie[np.sign(rest) == np.sign(lo[tie])]
        hi[tie] = up[tie]
    for r in np.flatnonzero(hi == 0.0):
        hi[r] = math.fsum(block[r].tolist())
    return hi

