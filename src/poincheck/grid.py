"""Uniform Cartesian discretization of the unit ball and fields on it.

Cells are axis-aligned squares of width ``h = 2/N`` tiling [-1, 1]^d; a
cell belongs to the ball iff its center has Euclidean norm strictly below
one.  All integrals use midpoint quadrature (value at center times h^d)
and all reductions are exactly rounded, so results are reproducible to
the last bit.  Deviations weight each cell by a radial profile; the
unweighted deviation is the one against ``UNIT_WEIGHT``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import BLOCK_ELEMENTS, ksum, ksum_replaced, ksum_rows
from .weights import UNIT_WEIGHT, RadialProfile, eval_weight

__all__ = [
    "Grid",
    "GridFunction",
    "CellSet",
    "Probes",
    "build_grid",
    "ball_cells",
    "full_cells",
    "cell_weights",
    "make_suite",
    "weighted_mean",
    "deviation_p",
    "deviation_p_rows",
]


@dataclass(frozen=True, eq=False)
class Grid:
    """Cells of the discretized unit ball in dimension d (1 or 2).

    ``centers[k]`` is the coordinate of cell k, ``norms[k]`` its distance
    from the origin, and ``neighbors_up[k, a]`` / ``neighbors_down[k, a]``
    the cell index one lattice step along axis ``a`` (or -1 when that
    neighbor is outside the ball).  Enumeration order is lattice-lexicographic
    and fixed.  ``_cells`` holds the one set per radius of
    :func:`ball_cells`; ``_eigen`` memoizes the p = 2 eigensolves that
    :func:`poincheck.sharp.pencil_eigen` and
    :func:`poincheck.sharp.member_eigenvector` run on the grid's cell sets,
    and ``_weights`` the cell weights of :func:`cell_weights`, both keyed
    by the set itself.
    """

    d: int
    N: int
    h: float
    centers: np.ndarray
    norms: np.ndarray
    lattice: np.ndarray
    neighbors_up: np.ndarray
    neighbors_down: np.ndarray
    _eigen: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _cells: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def cell_count(self) -> int:
        return self.centers.shape[0]

    @property
    def cell_measure(self) -> float:
        return self.h**self.d

    @cached_property
    def offsets(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The ``(2N-1)^d`` lattice offsets ``a`` between two cells, as
        ``(distances, keys, center)``, read-only and computed on first use:
        ``distances`` holds ``norm(h * a)`` of each offset, flat in C
        order, and cells i and j are apart by the offset at flat index
        ``keys[i] - keys[j] + center``.  Each pair-kernel table of
        :func:`poincheck.forms._offset_kernel` is evaluated on them; they
        cost about four fifths of a table's build (2-d N = 32), and keeping
        them, not the tables, leaves each grid one table's memory."""
        N, d = self.N, self.d
        strides = (2 * N - 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)
        axes = np.meshgrid(*[np.arange(1 - N, N, dtype=np.int64)] * d, indexing="ij")
        offsets = np.stack(axes, axis=-1).reshape(-1, d)
        distances = np.linalg.norm(self.h * offsets, axis=1)
        keys = self.lattice @ strides
        distances.setflags(write=False)
        keys.setflags(write=False)
        return distances, keys, (N - 1) * int(strides.sum())


def build_grid(d: int, N: int) -> Grid:
    """Discretize the unit ball with N cells per axis on [-1, 1].

    N must be even (keeps cell centers off the origin) and at least 4.
    """
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}; expected 1 or 2")
    if N < 4 or N % 2 != 0:
        raise ValueError(f"N must be even and >= 4, got {N}")
    h = 2.0 / N
    axis = -1.0 + (np.arange(N) + 0.5) * h
    if d == 1:
        lattice = np.arange(N, dtype=np.int64)[:, None]
        centers = axis[:, None]
    else:
        ii, jj = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        lattice = np.stack([ii.ravel(), jj.ravel()], axis=1).astype(np.int64)
        centers = axis[lattice]
    norms = np.linalg.norm(centers, axis=1)
    keep = norms < 1.0
    lattice = lattice[keep]
    centers = centers[keep]
    norms = norms[keep]
    n = centers.shape[0]

    id_table = -np.ones((N,) * d, dtype=np.int64)
    id_table[tuple(lattice.T)] = np.arange(n)

    def _lookup(shifted: np.ndarray) -> np.ndarray:
        inside = np.all((shifted >= 0) & (shifted < N), axis=1)
        out = -np.ones(n, dtype=np.int64)
        out[inside] = id_table[tuple(shifted[inside].T)]
        return out

    ups = np.stack(
        [_lookup(lattice + np.eye(d, dtype=np.int64)[a]) for a in range(d)], axis=1
    )
    downs = np.stack(
        [_lookup(lattice - np.eye(d, dtype=np.int64)[a]) for a in range(d)], axis=1
    )
    for arr in (centers, norms, lattice, ups, downs):
        arr.setflags(write=False)
    return Grid(
        d=d,
        N=N,
        h=h,
        centers=centers,
        norms=norms,
        lattice=lattice,
        neighbors_up=ups,
        neighbors_down=downs,
    )


@dataclass(frozen=True, eq=False)
class CellSet:
    """Sorted, unique cell indices of one grid.  It equals and hashes as
    itself only (``eq=False``), so a copy is another memo key."""

    grid: Grid
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("cell indices must be one-dimensional")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.grid.cell_count:
                raise ValueError("cell index out of range for grid")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("cell indices must be sorted and unique")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def measure(self) -> float:
        """Discrete measure: cell count times h^d."""
        return len(self) * self.grid.cell_measure

    def mask(self) -> np.ndarray:
        m = np.zeros(self.grid.cell_count, dtype=bool)
        m[self.indices] = True
        return m


@dataclass(frozen=True, eq=False)
class Probes:
    """The n rows ``values + delta * e_i``, i = 0 .. n - 1, unformed.

    Row i is ``values`` with entry i bumped by ``+= delta``, so its entry
    i is ``bumped[i]``, the float ``values[i] + delta``.
    :func:`deviation_p_rows` and :func:`~poincheck.forms.local_energy_rows`
    take it in place of a row matrix and return n floats, each the float
    they give for that row, without forming the rows.
    """

    values: np.ndarray
    delta: float

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("probe values must be one-dimensional")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "delta", float(self.delta))

    @cached_property
    def bumped(self) -> np.ndarray:
        """Entry i of row i: ``values[i] + delta``."""
        return self.values + self.delta

    @property
    def shape(self) -> tuple[int, int]:
        return (self.values.size, self.values.size)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Scalar field on a grid, one finite value per cell.

    ``values`` is a read-only copy, so the function never changes.
    ``_energies`` memoizes the pair energies that
    :func:`poincheck.forms.kernel_energy` computes for it, and
    ``_deviations`` the deviations of :func:`deviation_p`.
    ``_suite`` holds the functions it was made with by :func:`make_suite`
    (itself among them), which fill their memos together; it is empty for
    a function made alone.
    """

    grid: Grid
    values: np.ndarray
    _energies: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _deviations: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _suite: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.cell_count,):
            raise ValueError(
                f"expected {self.grid.cell_count} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def _memoized(self, memo: str, key, compute):
        """Entry ``key`` of the memo dict named ``memo``.  On a miss,
        ``compute(functions)`` returns the entry of each function of the
        suite (see ``_suite``) that lacks it, in order, and each is stored
        in its function's memo."""
        value = getattr(self, memo).get(key)
        if value is None:
            todo = [u for u in self._suite or (self,) if key not in getattr(u, memo)]
            for u, found in zip(todo, compute(todo)):
                getattr(u, memo)[key] = found
            value = getattr(self, memo)[key]
        return value


def make_suite(functions) -> list[GridFunction]:
    """The functions, marked as one suite of one grid.

    A memo miss of :func:`deviation_p` or
    :func:`~poincheck.forms.kernel_energy` on any member then computes that
    entry for every member that lacks it, in one call; each entry is the
    float that member gives alone.
    """
    members = tuple(functions)
    if any(u.grid is not members[0].grid for u in members):
        raise ValueError("suite functions must share one grid")
    for u in members:
        object.__setattr__(u, "_suite", members)
    return list(members)


def ball_cells(grid: Grid, t: float) -> CellSet:
    """Cells whose center lies strictly inside the ball of radius t; one
    set per grid and radius."""
    if not (0.0 < t <= 1.0):
        raise ValueError(f"ball radius must lie in (0, 1], got {t}")
    cells = grid._cells.get(t)
    if cells is None:
        cells = grid._cells[t] = CellSet(grid, np.flatnonzero(grid.norms < t))
    return cells


def full_cells(grid: Grid) -> CellSet:
    """All cells (the discrete unit ball): ``ball_cells(grid, 1.0)``, the
    same set, since every cell's center has norm below one."""
    return ball_cells(grid, 1.0)


def cell_weights(cells: CellSet, profile: RadialProfile) -> tuple[np.ndarray, float]:
    """The profile's level at each cell of the set (read-only) and their
    exactly rounded sum; computed once per grid, cell set and profile."""
    key = (cells, profile)
    found = cells.grid._weights.get(key)
    if found is None:
        w = eval_weight(profile, cells.grid.norms[cells.indices])
        w.setflags(write=False)
        found = cells.grid._weights[key] = (w, ksum(w))
    return found


def weighted_mean(u: GridFunction, profile: RadialProfile) -> float:
    """Average of u over the whole grid against the radial weight."""
    w, den = cell_weights(full_cells(u.grid), profile)
    if den <= 0.0:
        raise ValueError("weight vanishes on every cell")
    return ksum(u.values * w) / den


def value_rows(values, grid: Grid) -> np.ndarray:
    """A (k, cell_count) float matrix: one grid function's values per row.
    :class:`Probes` are checked, not formed, and returned as they are."""
    rows = values if isinstance(values, Probes) else np.asarray(values, dtype=float)
    if len(rows.shape) != 2 or rows.shape[1] != grid.cell_count:
        raise ValueError(
            f"expected rows of {grid.cell_count} values, got shape {rows.shape}"
        )
    return rows


def deviation_p(
    u: GridFunction,
    cells: CellSet,
    p: float,
    profile: RadialProfile = UNIT_WEIGHT,
) -> float:
    """p-th power weighted deviation of u from its weighted mean.

    Computes ``sum |u_i - c|^p w_i h^d`` over the cell set, with weights
    from the profile (``UNIT_WEIGHT`` by default) and ``c`` the weighted
    average over the same cells.

    The deviation is memoized on ``u``, keyed by the cell set, p and the
    profile.  A miss fills the key for every member of u's suite (see
    :func:`make_suite`) with one :func:`deviation_p_rows` call, whose rows
    are each exact, so every member gets the float it gives alone.
    """

    def rows(functions):
        values = np.stack([f.values for f in functions])
        return deviation_p_rows(values, cells, p, profile).tolist()

    return u._memoized("_deviations", (cells, p, profile), rows)


def deviation_p_rows(
    values,
    cells: CellSet,
    p: float,
    profile: RadialProfile = UNIT_WEIGHT,
) -> np.ndarray:
    """:func:`deviation_p` of each row of a (k, cell_count) value matrix
    or of :class:`Probes`.

    Entry r is exactly ``deviation_p`` of the function with values
    ``values[r]``: the same elementwise terms, each row summed exactly
    rounded.  Returns k floats.

    Probes are not formed.  A probe outside the cell set has the base's
    restricted row, so it gets the base's float.  Inside it, the row's
    weighted sum is the base's exact sum with one entry replaced
    (:func:`~poincheck.numerics.ksum_replaced`), which gives its center;
    the terms about each probe's center are then formed in row blocks of
    about 2^16 terms, with the same float operations, and each block is
    summed by :func:`~poincheck.numerics.ksum_rows`.
    """
    if len(cells) == 0:
        raise ValueError("cannot take deviation over an empty cell set")
    if p < 1.0:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    grid = cells.grid
    idx = cells.indices
    rows = value_rows(values, grid)
    w, den = cell_weights(cells, profile)
    if den <= 0.0:
        raise ValueError("weight vanishes on every cell of the set")
    if isinstance(rows, Probes):
        base = rows.values.take(idx)
        bumped = rows.bumped.take(idx)
        m = idx.size
        # Row r < m is the probe of cell idx[r]; a last row, the base's,
        # serves the probes outside the set (position -1 bumps nothing).
        at = np.arange(m + (m < len(rows)))
        at[m:] = -1
        c = ksum_replaced(base * w, at[:, None], (bumped * w).take(at)[:, None]) / den
        dev = np.empty(at.size)
        step = max(1, BLOCK_ELEMENTS // m)
        for lo in range(0, at.size, step):
            hi = min(at.size, lo + step)
            terms = np.abs(base - c[lo:hi, None]) ** p * w
            own = at[lo:hi][at[lo:hi] >= 0]
            terms[own - lo, own] = np.abs(bumped[own] - c[own]) ** p * w[own]
            dev[lo:hi] = ksum_rows(terms)
        dev *= grid.cell_measure
        out = np.full(len(rows), dev[-1])  # the base's, where it is needed
        out[idx] = dev[:m]
        return out
    vals = rows.take(idx, axis=1)
    c = (ksum_rows(vals * w) / den)[:, None]
    return ksum_rows(np.abs(vals - c) ** p * w) * grid.cell_measure

