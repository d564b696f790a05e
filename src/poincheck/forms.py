"""Energy functionals and explicit constants for the inequality checks.

Two energies appear on right-hand sides: the gradient energy (forward
differences, midpoint quadrature) and nonlocal pair energies against a
kernel (optionally truncated), weighted by the pointwise minimum of the
weight at the two endpoints.  Every weight defaults to ``UNIT_WEIGHT``,
which gives the unweighted energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence
import numpy as np

from .numerics import BLOCK_ELEMENTS, SymmetricRowSums, ksum, ksum_replaced, ksum_rows
from .weights import UNIT_WEIGHT, RadialProfile
from .grid import CellSet, GridFunction, Probes, cell_weights, value_rows

__all__ = [
    "KernelSpec",
    "KIND_LOCAL",
    "KIND_FRACTIONAL",
    "KIND_FLOOR",
    "kernel_to_json",
    "kernel_from_json",
    "local_energy",
    "local_energy_rows",
    "kernel_energy",
    "kernel_energies",
    "pair_coefficient_matrix",
    "transfer_constant",
    "weighted_gradient_constant",
    "kernel_floor_constant",
]

KIND_LOCAL = "local_gradient"
KIND_FRACTIONAL = "fractional"
KIND_FLOOR = "constant_floor"

@dataclass(frozen=True)
class KernelSpec:
    """Kernel selector for the nonlocal energies.

    - ``local_gradient``: gradient energy, the local form that
      :func:`~poincheck.sharp.assemble_p2` assembles (not a config kind);
    - ``fractional``: ``|x - y| ** -(d + p*s)``, optionally restricted to
      pair distances ``<= 1/R`` (non-strict);
    - ``constant_floor``: kernel known only to be bounded below by ``c``;
      the energy itself evaluates the unit kernel and ``c`` enters the
      constants of the checks that use it.

    The exponent p is not part of the kernel: each energy takes it as an
    argument, and the fractional kernel is evaluated at that p.
    """

    kind: str
    s: float | None = None
    R: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in (KIND_LOCAL, KIND_FRACTIONAL, KIND_FLOOR):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == KIND_FRACTIONAL:
            if self.s is None or not (0.0 < self.s < 1.0):
                raise ValueError(f"fractional order must lie in (0, 1), got {self.s}")
            if self.R is not None and not self.R >= 1.0:  # refuses nan
                raise ValueError(f"truncation parameter must be >= 1, got {self.R}")
        if self.kind == KIND_FLOOR:
            if self.c is None or not self.c > 0.0:  # refuses nan
                raise ValueError(f"kernel floor must be positive, got {self.c}")


def kernel_to_json(kernel: KernelSpec) -> dict:
    out: dict = {"kind": kernel.kind}
    for key in ("s", "R", "c"):
        val = getattr(kernel, key)
        if val is not None:
            out[key] = val
    return out


def kernel_from_json(obj: dict) -> KernelSpec:
    allowed = {"kind", "s", "R", "c"}
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown kernel fields: {sorted(unknown)}")
    return KernelSpec(**{k: obj[k] for k in allowed if k in obj})


def local_energy(
    u: GridFunction,
    cells: CellSet,
    p: float,
    weight: RadialProfile = UNIT_WEIGHT,
) -> float:
    """Gradient energy ``sum |grad_h u|^p w h^d`` over a cell set.

    The gradient uses the forward difference along each axis whose
    up-neighbor also belongs to the set (one-sided at the discrete
    boundary: missing axes are simply omitted from the Euclidean norm).
    """
    return float(local_energy_rows(u.values[None, :], cells, p, weight)[0])


def local_energy_rows(
    values,
    cells: CellSet,
    p: float,
    weight: RadialProfile = UNIT_WEIGHT,
) -> np.ndarray:
    """:func:`local_energy` of each row of a (k, cell_count) value matrix
    or of :class:`~poincheck.grid.Probes`.

    Entry r is exactly ``local_energy`` of the function with values
    ``values[r]``: the same elementwise terms, each row summed exactly
    rounded.  Returns k floats.

    Probes are not formed.  The base row, the last of the probes, is one
    exact sum of the base terms.  Bumping cell i changes at most d + 1
    terms: its own, if it lies in the set, and those of its
    down-neighbors in the set, whose forward differences reach it.  The
    probe's sum is the base's exact sum with those terms replaced by their
    new values, formed with the same float operations
    (:func:`~poincheck.numerics.ksum_replaced`); a probe outside the set
    gets the base's float.
    """
    _check_pair_arguments(cells, p)
    grid = cells.grid
    rows = value_rows(values, grid)
    idx = cells.indices
    w, _ = cell_weights(cells, weight)
    ups, downs = cells.neighbors
    ok = ups >= 0

    def terms(own, up, at):
        """Terms of the cells at positions ``at``, given each one's value
        (``own``) and its up-neighbor's along each axis (``up[..., a]``)."""
        sq = np.zeros(own.shape)
        for a in range(grid.d):
            diff = np.where(ok[at, a], (up[..., a] - own) / grid.h, 0.0)
            sq += diff * diff
        return sq ** (p / 2.0) * w[at]

    every = np.arange(idx.size)
    if not isinstance(rows, Probes):
        vals = rows[:, idx]
        return ksum_rows(terms(vals, vals[:, ups], every)) * grid.cell_measure
    vals, bumped = rows.values[idx], rows.bumped[idx]
    base = terms(vals, vals[ups], every)
    energy = np.full(len(rows), ksum_rows(base[None, :])[0] * grid.cell_measure)
    # Probe of position k against the terms at positions at[k]: k itself,
    # then its down-neighbor along each axis (-1 when not in the set, whose
    # stand-in values ksum_replaced ignores).
    at = np.column_stack([every, downs])
    k = every[:, None]
    own = np.where(at == k, bumped[k], vals[at])
    near_up = ups[at]
    up = np.where(near_up == k[..., None], bumped[k][..., None], vals[near_up])
    of = np.zeros(idx.size, dtype=np.int64)
    energy[idx] = ksum_replaced(base[None, :], of, at, terms(own, up, at)) * grid.cell_measure
    return energy


def _kernel_block(dist: np.ndarray, kernel: KernelSpec, p: float, d: int) -> np.ndarray:
    """Kernel values at exponent p on a block of pair distances (diagonal
    handled by caller)."""
    if kernel.kind == KIND_FRACTIONAL:
        safe = np.where(dist > 0.0, dist, 1.0)
        k = safe ** (-(d + p * kernel.s))
        if kernel.R is not None:
            k = np.where(dist <= 1.0 / kernel.R, k, 0.0)
        return k
    if kernel.kind == KIND_FLOOR:
        return np.ones_like(dist)
    raise ValueError("kernel energy is not defined for local_gradient kernels")


def _offset_kernel(grid, kernel: KernelSpec, p: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Kernel on every lattice offset, plus the flat keys that index it.

    The kernel depends only on the offset ``a = l_i - l_j`` of two cells'
    lattice coordinates, so it is evaluated once on the ``(2N-1)^d``
    offsets, at distance ``norm(h * a)`` (:attr:`~poincheck.grid.Grid.offsets`,
    computed once per grid).  Returns ``(table, keys, center)`` with
    ``K(x_i, x_j) = table[keys[i] - keys[j] + center]`` for grid cells
    ``i`` and ``j``.  When N is a power of two, ``h`` and every center are
    dyadic, so ``h * a == x_i - x_j`` exactly and the table holds the same
    floats as the kernel of the center differences; for other N they can
    differ in the last bit.
    """
    distances, keys, center = grid.offsets
    return _kernel_block(distances, kernel, p, grid.d), keys, center


def _reach(grid, kernel: KernelSpec) -> int:
    """Lattice steps along one axis beyond which the kernel is zero.

    A truncated kernel vanishes past distance ``1/R``, and two cells whose
    axis-0 lattice coordinates differ by ``a`` are at least ``|a| h``
    apart, so ``floor(1/(R h)) + 1`` bounds the offsets it can reach with
    room for the rounding of both sides.  Other kernels reach the whole
    grid, ``N - 1`` steps.
    """
    if kernel.kind == KIND_FRACTIONAL and kernel.R is not None:
        return min(int(1.0 / (kernel.R * grid.h)) + 1, grid.N - 1)
    return grid.N - 1


def _strip_stop(ends: list[int], start: int, budget: int) -> int:
    """End of the strip from row ``start``: the most rows whose strip, out
    to ``ends[stop - 1]`` (the column end of its last row's reach), holds at
    most ``budget`` terms, and at least one row."""
    lo, hi = start + 1, len(ends)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (mid - start) * (ends[mid - 1] - start) <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _pair_energies(
    functions: Sequence,
    cells: CellSet,
    kernel: KernelSpec,
    p: float,
    weights: Sequence[RadialProfile],
) -> list[list[float]]:
    """:func:`kernel_energy` of each function, all on one grid, under each
    weight, together: entry ``[w][f]`` is function f's under weight w.

    ``functions`` are the suite members to fill, anything with ``values``.
    Each strip's ``|v_i - v_j|^p K_ij`` is formed once, as (function, rows,
    columns) within the one budget, and each weight in turn takes it times
    its ``W_ij`` (the last weight in place) into its own row sums, each
    function extracted at its own ``top``.  ``full_rows`` forms, with the
    strips' float operations, the rows that those sums cannot settle
    from their float tails (1-5% of them), and every row of a (weight,
    function) pair whose bound does not fit (see
    :class:`~poincheck.numerics.SymmetricRowSums`).  One (weight, function,
    rows, columns) stack within the same budget, extracted at once, thins
    the strips of large sets: ms per call for 4 functions under 3 weights,
    untruncated fractional kernel, full 2-d ball (2-vCPU x86-64 host,
    numpy 2.4, medians of 21 and 4 interleaved runs), one weight at a time
    / one stack / this:

      812 cells, p = 1 and 2:      31.1 / 26.4 / 23.3    43.3 / 39.1 / 30.7
      3,228 cells, p = 1 and 2:    680 / 877 / 457       596 / 870 / 391

    A stack given three times the budget, so that its strips keep
    their rows, was slower than one weight at a time on both sets.  A
    weighted copy lives beside the strip while a weight other than the
    last is extracted, so a call of several weights holds three strips'
    worth of terms at its peak where a call of one holds two.
    """
    grid = cells.grid
    idx = cells.indices
    table, keys, center = _offset_kernel(grid, kernel, p)
    keys = keys[idx]
    values = np.stack([u.values[idx] for u in functions])
    phis = [cell_weights(cells, weight)[0] for weight in weights]
    m = idx.size

    def unweighted(v, rows, lo: int, hi: int) -> np.ndarray:
        """Terms ``|v_i - v_j|^p K_ij`` of the rows ``rows`` (a slice, or
        an int array for one function) against columns ``lo .. hi`` of the
        values ``v`` of one function, or of each row of ``v``, formed in
        place.  A slice keeps a (function, rows, columns) strip in C order,
        which its row sums read fastest."""
        terms = np.subtract(v[..., rows, None], v[..., None, lo:hi])
        np.abs(terms, out=terms)
        terms **= p
        terms *= table[keys[rows, None] + center - keys[None, lo:hi]]
        return terms

    def weighted(terms, phi, rows, lo: int, out=None) -> np.ndarray:
        """``terms`` times ``W_ij`` of the weight levels ``phi``, into
        ``out``, with the diagonal zeroed."""
        low = np.minimum(phi[rows, None], phi[None, lo : lo + terms.shape[-1]])
        terms = np.multiply(terms, low, out=out)
        at = np.arange(m)[rows]
        terms[..., np.arange(at.size), at - lo] = 0.0
        return terms

    def full_rows(w: int, f: int, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of function f's terms under weight w, all m
        columns, by the strips' float operations.  Values are finite
        (``GridFunction``), so a nan term is an |u_i - u_j|^p that
        overflows to inf times a zero kernel or weight entry: a pair that
        contributes exactly 0, which ``fmax`` with 0 makes it.  No other
        term is below 0."""
        terms = unweighted(values[f], rows, 0, m)
        terms = weighted(terms, phis[w], rows, 0, out=terms)
        return np.fmax(terms, 0.0, out=terms)

    # Every term |v_i - v_j|^p K_ij W_ij of a function is at most this
    # product of maxima, up to a few roundings that the factor 2 covers.
    # It fixes the extraction of all its strips.
    kmax = float(table.max())
    spreads = values.max(axis=1) - values.min(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or nan: unfit
        bounds = [2.0 * spreads**p * kmax * float(phi.max()) for phi in phis]
    per_weight = [SymmetricRowSums(m, row) for row in bounds]
    axis0 = grid.lattice[idx, 0]  # nondecreasing: cells are lattice-ordered
    ends = np.searchsorted(axis0, axis0 + _reach(grid, kernel), side="right").tolist()
    budget = max(1, BLOCK_ELEMENTS // len(functions))
    start = 0
    while start < m:
        stop = _strip_stop(ends, start, budget)
        rows = slice(start, stop)
        terms = unweighted(values, rows, start, ends[stop - 1])
        for w, strips in enumerate(per_weight):
            spare = w == len(per_weight) - 1  # free to overwrite
            strips.add(weighted(terms, phis[w], rows, start, out=terms if spare else None), start)
        del terms  # before the next strip is formed
        start = stop
    return [
        [ksum(sums) * grid.cell_measure**2 for sums in strips.sums(partial(full_rows, w))]
        for w, strips in enumerate(per_weight)
    ]


def kernel_energy(
    u: GridFunction,
    cells: CellSet,
    kernel: KernelSpec,
    p: float,
    weight: RadialProfile = UNIT_WEIGHT,
) -> float:
    """Nonlocal pair energy over ordered cell pairs (diagonal excluded).

    ``sum_{i != j} |u_i - u_j|^p K(x_i, x_j) W_ij h^{2d}`` with
    ``W_ij = min(w(x_i), w(x_j))``, which is 1 for ``UNIT_WEIGHT``.
    Each term is symmetric in i and j, so only the upper triangle is
    formed, in place, in strips of about 2^16 terms (see
    ``numerics.BLOCK_ELEMENTS``): rows ``start .. stop`` against the columns
    from ``start`` on, so that a strip and its temporaries stay in one
    core's L2 cache.  Every strip is extracted once, at a ``top`` fixed
    by a bound on every term, and gives sums to two sets of rows: its own
    rows, and by symmetry the rows of its columns past its diagonal block.
    Each row gets the exact sum of its chunks and a float tail of its
    remainders with a proved error bound; a row whose rounding that bound
    leaves open (a few percent of them) is formed again in full and summed
    exactly (see :class:`~poincheck.numerics.SymmetricRowSums`).  Each
    row's sum is thus exactly rounded, the same float as ``fsum`` of the
    full row, and the row sums are then summed exactly rounded, so the
    result is deterministic.  A truncated kernel's strip spans only the
    columns within its reach along lattice axis 0 (see :func:`_reach`),
    and takes as many rows as fit the budget at that width: the pairs it
    drops have a zero kernel, and an exactly rounded sum does not depend
    on them or on the strips.  A (weight, function) pair whose bound does
    not fit the extraction (inf, nan, or 2^900 and up) takes every row in
    full, summed by :func:`~poincheck.numerics.ksum_rows` to the same
    exactly rounded row sums, while the other pairs of the call keep their
    strips; in full rows a pair with a zero kernel or weight entry
    contributes exactly 0 even where ``|u_i - u_j|^p`` overflows, so the
    energy is ``inf``, not ``nan``.

    The energy is memoized on ``u`` (which is immutable), keyed by the
    cell set, the kernel, p and the weight, so a repeated call
    returns the stored float and the memo lives as long as ``u`` or a
    member of its suite.
    A miss computes the key for every member of u's suite that lacks it
    (see :func:`~poincheck.grid.make_suite`; a function made alone is a
    suite of one), and :func:`kernel_energies` fills the keys of several
    weights at once.  Their strips carry a function axis, (k, rows,
    columns) with k = 1 for one function, within the one budget: the
    differences, their p-th powers and the kernel gather are formed once
    per strip for every weight, and each weight's minimum once for every
    function, with the same float operations as alone.  Each (weight, function) pair keeps its own bound
    and ``top`` and its own row sums, so each energy is the float that
    function gives alone under that weight.

    ``K_ij`` is gathered from the kernel evaluated once per miss on the
    lattice offsets (see :func:`_offset_kernel`).  For N a power of two
    this gives the same float as the kernel of the center difference
    ``x_i - x_j``; for other N it can differ by about one ulp.

    The excluded diagonal is a quadrature error, not zero mass: against a
    singular fractional kernel the continuum energy also integrates pairs
    inside one cell, about ``2 h^a / (a (a+1))`` times the 1-d gradient
    energy with ``a = p(1-s)``, which is O(h^a) relative to the energy.
    """
    _check_pair_arguments(cells, p)

    def energies(functions):
        return _pair_energies(functions, cells, kernel, p, (weight,))[0]

    return u.memo(("forms.kernel_energy", cells, kernel, p, weight), energies)


def kernel_energies(
    u: GridFunction,
    cells: CellSet,
    kernel: KernelSpec,
    p: float,
    weights: Sequence[RadialProfile],
) -> list[float]:
    """:func:`kernel_energy` of ``u`` under each weight, in order.

    The keys that ``u`` lacks are filled, for every member of its suite
    that lacks one of them, by one :func:`_pair_energies` call: the
    weights' energies share every term ``|u_i - u_j|^p K_ij`` up to the
    factor ``W_ij``, so each strip forms those once.  Every energy is the
    float a lone :func:`kernel_energy` call gives, and is then read from
    the memo by it.
    """
    _check_pair_arguments(cells, p)

    def energies(keys, functions):
        return _pair_energies(functions, cells, kernel, p, [key[-1] for key in keys])

    return u.memos([("forms.kernel_energy", cells, kernel, p, weight) for weight in weights], energies)


def _check_pair_arguments(cells: CellSet, p: float) -> None:
    """Refuse an empty cell set and an exponent below 1."""
    if len(cells) == 0:
        raise ValueError("cannot take energy over an empty cell set")
    if p < 1.0:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")


def pair_coefficient_matrix(
    cells: CellSet,
    kernel: KernelSpec,
    weight: RadialProfile = UNIT_WEIGHT,
) -> np.ndarray:
    """Dense matrix ``C_ij = K_ij W_ij h^{2d}`` with zero diagonal.

    The quadratic form ``sum_ij C_ij (u_i - u_j)^2`` reproduces
    :func:`kernel_energy` at p = 2, so the kernel is evaluated at p = 2;
    used for assembly.  ``K_ij`` comes from the same lattice-offset table
    as in :func:`kernel_energy`, so it equals the kernel of the center
    difference bit for bit when N is a power of two and to about one ulp
    otherwise.  The matrix is gathered and scaled in place, in blocks of
    about ``numerics.BLOCK_ELEMENTS`` entries, so no other n x n array is made.
    """
    grid, idx = cells.grid, cells.indices
    table, keys, center = _offset_kernel(grid, kernel, 2.0)
    phi = cell_weights(cells, weight)[0]
    C = np.empty((idx.size, idx.size))
    step = max(1, BLOCK_ELEMENTS // max(1, idx.size))
    for start in range(0, idx.size, step):
        rows = slice(start, start + step)
        C[rows] = table[keys[idx[rows], None] + center - keys[None, idx]]
        C[rows] *= np.minimum(phi[rows, None], phi[None, :])
    np.fill_diagonal(C, 0.0)
    C *= grid.cell_measure**2
    return C


def transfer_constant(p: float, d: int, profile: RadialProfile) -> float:
    """Constant turning per-ball unweighted bounds into the weighted bound.

    ``8^p * (ball measure ratio 2^d) * (center level / level at 1/2)``.
    """
    if p < 1.0:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}")
    return 8.0**p * 2.0**d * profile.center_value / profile.half_value


def weighted_gradient_constant(
    p: float, d: int, profile: RadialProfile, c_hat: float
) -> float:
    """Constant of the weighted gradient inequality.

    The transfer constant times ``c_hat``, the unweighted per-ball
    gradient constant (an input: see the sharp module for the operational
    estimate).
    """
    if c_hat <= 0.0:
        raise ValueError(f"gradient constant must be positive, got {c_hat}")
    return transfer_constant(p, d, profile) * c_hat


def kernel_floor_constant(
    p: float, d: int, profile: RadialProfile, c: float, half_measure: float
) -> float:
    """Transfer constant over ``c`` times the half ball's measure."""
    return transfer_constant(p, d, profile) / (c * half_measure)
