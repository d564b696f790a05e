"""Uniform Cartesian discretization of the unit ball and fields on it.

Cells are axis-aligned squares of width ``h = 2/N`` tiling [-1, 1]^d; a
cell belongs to the ball iff its center has Euclidean norm strictly below
one.  All integrals use midpoint quadrature (value at center times h^d)
and all reductions are exactly rounded, so results are reproducible to
the last bit.  Deviations weight each cell by a radial profile; the
unweighted deviation is the one against ``UNIT_WEIGHT``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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
    from the origin and ``lattice[k]`` its integer lattice coordinates on
    the N^d box; cell sets work out adjacency from them
    (:attr:`CellSet.neighbors`).  Enumeration order is lattice-lexicographic
    and fixed.  :meth:`memo` keeps what is computed once per grid, each
    entry under a key that starts with a string naming its owner:
    :func:`ball_cells`, :func:`cell_weights`, ``_layout``,
    :func:`poincheck.sharp.pencil_eigen` and
    :func:`poincheck.sharp.member_eigenvector`.  A string, not the
    function, so that a traced (rebound) function finds the same entries.
    """

    d: int
    N: int
    h: float
    centers: np.ndarray
    norms: np.ndarray
    lattice: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, key, compute):
        """The grid's memo entry ``key``; on a miss, ``compute()`` makes it
        and it is kept as long as the grid.  A ``compute`` that raises
        keeps nothing."""
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = compute()
        return found

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
        offsets = _box(np.arange(1 - N, N, dtype=np.int64), d)
        distances = np.linalg.norm(self.h * offsets, axis=1)
        keys = self.lattice @ strides
        distances.setflags(write=False)
        keys.setflags(write=False)
        return distances, keys, (N - 1) * int(strides.sum())


def _box(axis: np.ndarray, d: int) -> np.ndarray:
    """Every point of ``axis^d`` as a (len(axis)^d, d) array, in C order."""
    return np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)


def build_grid(d: int, N: int) -> Grid:
    """Discretize the unit ball with N cells per axis on [-1, 1].

    N must be even (keeps cell centers off the origin) and at least 4.
    """
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}; expected 1 or 2")
    if N < 4 or N % 2 != 0:
        raise ValueError(f"N must be even and >= 4, got {N}")
    h = 2.0 / N
    lattice = _box(np.arange(N, dtype=np.int64), d)
    centers = (-1.0 + (np.arange(N) + 0.5) * h)[lattice]
    norms = np.linalg.norm(centers, axis=1)
    keep = norms < 1.0
    lattice, centers, norms = lattice[keep], centers[keep], norms[keep]
    for arr in (centers, norms, lattice):
        arr.setflags(write=False)
    return Grid(d=d, N=N, h=h, centers=centers, norms=norms, lattice=lattice)


class _WeakGrid:
    """A field that stores a weak reference to its grid and reads as the
    grid itself.  A grid keeps its cell sets in its memo (as entries and in
    keys), so a strong reference back would make each grid a reference
    cycle, freed only by the cyclic collector."""

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("no default")  # a required field
        grid = obj.__dict__["_grid_ref"]()
        if grid is None:
            raise ReferenceError("the cell set's grid no longer exists; keep a reference to the grid")
        return grid

    def __set__(self, obj, grid):
        obj.__dict__["_grid_ref"] = weakref.ref(grid)


@dataclass(frozen=True, eq=False)
class CellSet:
    """Sorted, unique cell indices of one grid, kept as a read-only copy.
    Position k of the set is its cell ``indices[k]``.  It equals and
    hashes as itself only (``eq=False``), so a copy is another memo key,
    and :attr:`neighbors` is computed once per set.  The set holds its
    grid weakly: whoever uses a set keeps its grid."""

    grid: Grid = _WeakGrid()
    indices: np.ndarray

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.int64)
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

    def __repr__(self) -> str:
        grid = self.__dict__["_grid_ref"]()
        return f"CellSet(grid={'<freed>' if grid is None else repr(grid)}, indices={self.indices!r})"

    def shares_grid(self, other: CellSet) -> bool:
        """Whether both sets are of one grid; False once either grid is gone."""
        mine = self.__dict__["_grid_ref"]()
        return mine is not None and mine is other.__dict__["_grid_ref"]()

    @property
    def measure(self) -> float:
        """Discrete measure: cell count times h^d."""
        return len(self) * self.grid.cell_measure

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """The set's adjacency ``(up, down)``, two read-only (n, d) arrays:
        ``up[k, a]`` is the set position of the cell one lattice step up
        axis a from position k, ``down[k, a]`` one step down, and -1 where
        that cell is not in the set.  The only adjacency of the package."""
        d = self.grid.d
        at = self.grid.lattice[self.indices] + 1  # padded: every step lands in the table
        table = np.full((self.grid.N + 2,) * d, -1, dtype=np.int64)
        table[tuple(at.T)] = np.arange(len(self))
        steps = np.eye(d, dtype=np.int64)
        up = np.stack([table[tuple((at + e).T)] for e in steps], axis=1)
        down = np.stack([table[tuple((at - e).T)] for e in steps], axis=1)
        up.setflags(write=False)
        down.setflags(write=False)
        return up, down


@dataclass(frozen=True, eq=False)
class Probes:
    """The n + 1 rows ``values + delta * e_i``, i = 0 .. n - 1, then
    ``values`` itself, unformed.

    Row i < n is ``values`` with entry i bumped by ``+= delta``, so its
    entry i is ``bumped[i]``, the float ``values[i] + delta``; row n, the
    last, is the base ``values``.  :func:`deviation_p_rows` and
    :func:`~poincheck.forms.local_energy_rows` take it in place of a row
    matrix and return n + 1 floats, each the float they give for that
    row, without forming the rows.
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
        return (self.values.size + 1, self.values.size)

    def __len__(self) -> int:
        return self.values.size + 1


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Scalar field on a grid, one finite value per cell.

    ``values`` is a read-only copy, so the function never changes.
    :meth:`memo` keeps what is computed from it: the pair energies of
    :func:`poincheck.forms.kernel_energy` and the deviations of
    :func:`deviation_p`.  ``_suite`` holds the values and memo of each
    function it was made with by :func:`make_suite` (itself among them),
    which fill their memos together; it is empty for a function made
    alone.  It holds no function, so a suite is no reference cycle: a
    function and its grid are freed as soon as the last reference to
    them goes.
    """

    grid: Grid
    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
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

    def memo(self, key, compute):
        """The function's memo entry ``key``, whose first item names its
        owner, as in :meth:`Grid.memo`.  On a miss, ``compute(functions)``
        returns the entry of each function of the suite (see ``_suite``)
        that lacks it, in order, and each is stored in its function's
        memo.  The functions passed are records of their ``values``."""
        found = self._memo.get(key)
        if found is None:
            (found,) = self.memos((key,), lambda keys, functions: [compute(functions)])
        return found

    def memos(self, keys, compute):
        """The function's memo entries ``keys``, in order.  On a miss of
        any, ``compute(missing, functions)`` gets the distinct keys the
        function lacks and the members of its suite that lack one of them,
        in suite order, as records of their ``values``, and returns for
        each key the entry of each member; each entry is stored where its
        member lacked it."""
        missing = list(dict.fromkeys(key for key in keys if key not in self._memo))
        if missing:
            suite = self._suite or (_Member(self.values, self._memo),)
            todo = [u for u in suite if any(key not in u.memo for key in missing)]
            for key, entries in zip(missing, compute(missing, todo)):
                for u, entry in zip(todo, entries):
                    u.memo.setdefault(key, entry)
        return [self._memo[key] for key in keys]


class _Member(NamedTuple):
    """What a suite keeps of each of its functions: the values that a memo
    fill computes from and the memo it fills."""

    values: np.ndarray
    memo: dict


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
    shared = tuple(_Member(u.values, u._memo) for u in members)
    for u in members:
        object.__setattr__(u, "_suite", shared)
    return list(members)


def ball_cells(grid: Grid, t: float) -> CellSet:
    """Cells whose center lies strictly inside the ball of radius t; one
    set per grid and radius."""
    if not (0.0 < t <= 1.0):
        raise ValueError(f"ball radius must lie in (0, 1], got {t}")
    return grid.memo(("grid.ball_cells", t), lambda: CellSet(grid, np.flatnonzero(grid.norms < t)))


def full_cells(grid: Grid) -> CellSet:
    """All cells (the discrete unit ball): ``ball_cells(grid, 1.0)``, the
    same set, since every cell's center has norm below one."""
    return ball_cells(grid, 1.0)


def cell_weights(cells: CellSet, profile: RadialProfile) -> tuple[np.ndarray, float]:
    """The profile's level at each cell of the set (read-only) and their
    exactly rounded sum; computed once per grid, cell set and profile."""

    def weigh():
        w = eval_weight(profile, cells.grid.norms[cells.indices])
        w.setflags(write=False)
        return w, ksum(w)

    return cells.grid.memo(("grid.cell_weights", cells, profile), weigh)


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

    return u.memo(("grid.deviation_p", cells, p, profile), rows)


def deviation_p_rows(
    values,
    cells,
    p: float,
    profile=UNIT_WEIGHT,
) -> np.ndarray:
    """:func:`deviation_p` of each row of a (k, cell_count) value matrix
    or of :class:`Probes`, over a :class:`CellSet` or each of a sequence
    of T sets of one grid.

    Entry r is exactly ``deviation_p`` of the function with values
    ``values[r]``: the same elementwise terms, each row summed exactly
    rounded.  Returns k floats for a set, and for a sequence a (T, k)
    array whose row t holds set t's.  ``profile`` is one
    :class:`~poincheck.weights.RadialProfile` for every set, or a
    sequence of one per set.  A set is the case T = 1: the sets' terms
    lie side by side, padded to the largest set with ``-0.0``, which
    leaves every sum as it is.

    Probes are not formed.  Each set's base row, the last of the probes,
    is one more variant (position -1, nothing replaced), and a probe
    outside a set has the base's restricted row, so it gets the base's
    float.  Inside it, the row's weighted sum is the base's exact sum
    with one entry replaced, which gives the probe's center.  The terms
    about each distinct center of a set are formed once, as one row, in
    blocks of about 2^16 terms; a probe's float is the exact sum of its
    center's row with its own term replaced by its bumped one, formed
    with the same float operations
    (:func:`~poincheck.numerics.ksum_replaced`).
    """
    sets = (cells,) if isinstance(cells, CellSet) else tuple(cells)
    if not all(sets):
        raise ValueError("cannot take deviation over an empty cell set")
    if p < 1.0:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    profiles = (profile,) * len(sets) if isinstance(profile, RadialProfile) else tuple(profile)
    if len(profiles) != len(sets):
        raise ValueError(f"expected one profile per cell set, got {len(profiles)} for {len(sets)}")
    grid = sets[0].grid
    rows = value_rows(values, grid)
    idx, w, den, pad = _layout(sets, profiles)
    T, M = idx.shape

    def laid(terms, of=slice(None)):  # -0.0 where sets ``of`` are padded
        return terms if pad is None else np.where(pad[of], -0.0, terms)

    if not isinstance(rows, Probes):
        vals = rows.take(idx, axis=1)  # (k, T, M)
        c = ksum_rows(laid(vals * w).reshape(-1, M)).reshape(-1, T, 1) / den[:, None]
        terms = laid(np.abs(vals - c) ** p * w).reshape(-1, M)
        out = ksum_rows(terms).reshape(-1, T).T * grid.cell_measure
    else:
        # Variant v is of set t[v] at its position j[v]: first the base
        # (j = -1) of each set, then a probe per cell of each set.
        inner = np.ones(idx.shape, dtype=bool) if pad is None else ~pad
        t, j = np.nonzero(inner)
        t, j = np.concatenate([np.arange(T), t]), np.concatenate([np.full(T, -1), j])
        at, cell, wt = j[:, None], idx[t, j], w[t, j]
        base, bumped = rows.values[idx], rows.bumped[cell]
        c = ksum_replaced(laid(base * w), t, at, (bumped * wt)[:, None]) / den[t]
        order = np.lexsort((c, t))  # the variants by set and center
        ts, cs = t[order], c[order]
        first = np.concatenate(([True], (ts[1:] != ts[:-1]) | (cs[1:] != cs[:-1])))
        group, row_t, row_c = np.cumsum(first) - 1, ts[first], cs[first]
        new = (np.abs(bumped - c) ** p * wt)[:, None]
        dev = np.empty(c.size)
        step = max(1, BLOCK_ELEMENTS // M)
        for lo in range(0, row_t.size, step):
            of = row_t[lo : lo + step]
            terms = laid(np.abs(base[of] - row_c[lo : lo + step, None]) ** p * w[of], of)
            a, b = np.searchsorted(group, (lo, lo + step))
            v = order[a:b]
            dev[v] = ksum_replaced(terms, group[a:b] - lo, at[v], new[v])
        dev *= grid.cell_measure
        out = np.empty((T, len(rows)))
        out[:] = dev[:T, None]  # the base's float, and that of the probes outside
        out[t[T:], cell[T:]] = dev[T:]
    return out[0] if isinstance(cells, CellSet) else out


def _layout(sets: tuple, profiles: tuple):
    """The sets of :func:`deviation_p_rows` side by side, each under its
    profile: cells ``idx``, weights ``w`` and weight sums ``den``, each row
    padded to the largest set (cell 0, weight 0) where ``pad`` is set.
    One set's arrays are its own, with no padding (``pad`` None); several
    sets' are memoized per grid, sets and profiles."""
    if not all(s.shares_grid(sets[0]) for s in sets[1:]):
        raise ValueError("cell sets must share one grid")
    weights = [cell_weights(s, profile) for s, profile in zip(sets, profiles)]
    if any(den <= 0.0 for _, den in weights):
        raise ValueError("weight vanishes on every cell of the set")
    if len(sets) == 1:
        (w, den), = weights
        return sets[0].indices[None, :], w[None, :], np.array([den]), None
    grid = sets[0].grid

    def lay():
        sizes = np.array([len(s) for s in sets])
        pad = np.arange(sizes.max()) >= sizes[:, None]
        idx, w = np.zeros(pad.shape, dtype=np.int64), np.zeros(pad.shape)
        idx[~pad] = np.concatenate([s.indices for s in sets])
        w[~pad] = np.concatenate([ws for ws, _ in weights])
        return idx, w, np.array([den for _, den in weights]), pad

    return grid.memo(("grid._layout", sets, profiles), lay)
