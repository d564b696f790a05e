"""Sharp-constant estimation for the p = 2 inequalities.

At p = 2 the best constant in ``weighted deviation <= C * energy`` is the
reciprocal of the smallest nonzero eigenvalue of the energy form against
the weighted mass form.  The mass form is a diagonal.  Two energies have
a structure that gives an O(n) ``A @ x``: the local gradient form is an
edge list (:class:`EdgeStencil`), and the transfer and constant-floor forms
are a diagonal minus rank-one terms over nested cell sets
(:class:`NestedRankOne`), by the layer-cake splitting of the weight; a
pair keeps them as built.  Every fractional kernel form is a dense kernel
matrix.  A nested rank-one pencil is solved exactly at every size: its
cells fall into shells on which the pencil is a multiple of the identity,
and only the span of the shell indicators, one small matrix, goes to
LAPACK (:func:`_shell_eigen`).  Of the others, under
``_ITERATIVE_MIN_CELLS`` cells LAPACK (``np.linalg.eigh``) solves the
dense symmetrized pencil.  From it on, the energy with one cell grounded
is factored once, a blocked Cholesky kept inside its envelope: a formed
kernel matrix over its full lower triangle, an edge stencil, banded in
lattice order, from its edge list within its band.  Shift-invert Lanczos
applies that factor to one vector per step (:func:`_lanczos`).  The
reduction and the iteration are validated against LAPACK's full spectrum
of the dense pencil (:func:`dense_oracle_eigen`).
:func:`pencil_eigen` solves each pencil once per grid; the suite's eigen
member keeps a solve of its own (:func:`member_eigenvector`).
For general p a normalized finite-difference ascent of the ratio supplies
a certified lower bound on the sharp constant.  Each step hands its n
probes ``u + delta e_i`` and its iterate ``u`` to each functional in one
call, as :class:`~poincheck.grid.Probes`, so the iterate's ratio comes
with its probes; the deviation and gradient-energy row functionals
evaluate them without forming the (n + 1) x n matrix of rows, each to
the float its row gives.

Everything here is deterministic: fixed internal seeds, fixed iteration
schedules, and LAPACK through numpy at the one BLAS thread the package
pins; no other solver dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import BLOCK_ELEMENTS
from .weights import UNIT_WEIGHT, RadialProfile, layer_cake
from .grid import (
    CellSet,
    Grid,
    GridFunction,
    Probes,
    ball_cells,
    cell_weights,
    full_cells,
    weighted_mean,
)
from .forms import KIND_FLOOR, KIND_LOCAL, KernelSpec, pair_coefficient_matrix

__all__ = [
    "QuadraticFormPair",
    "EdgeStencil",
    "NestedRankOne",
    "EigenConvergenceError",
    "local_stencil",
    "floor_operator",
    "assemble_p2",
    "assemble_transfer_p2",
    "smallest_nonzero_eigen",
    "pencil_eigen",
    "member_eigenvector",
    "dense_oracle_eigen",
    "ratio_ascent",
    "estimate_gradient_constant",
]

_DENSE_CAP = 2000
# Smallest stencil or formed pencil that smallest_nonzero_eigen solves
# iteratively; a smaller one is solved by LAPACK.  The crossover is one
# solve, eigh of the dense symmetrized pencil (its dense form built in the
# call) against the iteration, in ms (2-core Intel Xeon, one BLAS thread,
# best of 10; 1-d N = 64, 2-d N = 16, 24 and 32, the full ball, weight
# step([0.75], [2, 1]); local is local_stencil's form and fractional is
# s = 1/2, a formed matrix, each solved by Lanczos on its factor):
#
#   cells   local          fractional
#   64      0.5 vs 3.9     0.5 vs 0.8
#   208     5.7 vs 3.2     3.3 vs 3.7
#   448     29.3 vs 4.5    19.6 vs 6.6
#   812     108 vs 7.2     89.3 vs 15.0
#
# So eigh wins both forms at 64 cells, and the factored iteration wins
# the local form from 208 cells on and the fractional one from 448.  The
# crossover stays at 256 all the same: lowering it would take the golden
# config's 208-cell pencils, and with them the eigen suite member on its
# grid, off LAPACK and move their report bytes (below 64 cells the demo's
# too), for a few ms per solve.  The fractional pencils need no crossover
# of their own: one factor and about 14 Lanczos steps per pencil beat
# eigh from 448 cells on (0.70 against 4.9 s at 3,228 cells).  The floor
# and transfer pencils reach neither solve; _shell_eigen solves them at
# every size (4 ms at 51,468 cells, 2-d N = 256).
_ITERATIVE_MIN_CELLS = 256


class EigenConvergenceError(RuntimeError):
    """Iterative eigensolve failed to reach tolerance; carries the residual
    and the solve's trace rows."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
        self.trace = ()


@dataclass(frozen=True, eq=False)
class EdgeStencil:
    """The local gradient form at p = 2 as an edge list over n cells.

    ``u' A u`` is the sum over edges k of ``coef[k] * (u[i[k]] - u[j[k]])**2``,
    so A is symmetric psd with constants in its kernel by construction.
    Its one diagonal, :attr:`diag`, is
    ``np.bincount(i, coef) + np.bincount(j, coef)``: each cell's
    coefficients as a lower end, in edge order, plus those as an upper end;
    :meth:`dense` and the grounded factor both read it.
    ``A @ x`` costs O(edges): two gathers and two ``np.bincount``.
    """

    size: int
    i: np.ndarray
    j: np.ndarray
    coef: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        flux = self.coef * (x[self.i] - x[self.j])
        return np.bincount(self.i, flux, self.size) - np.bincount(self.j, flux, self.size)

    @property
    def diag(self) -> np.ndarray:
        """The (size,) diagonal of A."""
        return np.bincount(self.i, self.coef, self.size) + np.bincount(self.j, self.coef, self.size)

    def dense(self) -> np.ndarray:
        """The (size, size) matrix, with :attr:`diag` on its diagonal."""
        A = np.zeros(self.shape)
        A[self.i, self.j] = A[self.j, self.i] = -self.coef
        np.fill_diagonal(A, self.diag)
        return A


@dataclass(frozen=True, eq=False)
class NestedRankOne:
    """``A = diag(diag) - sum_t coef[t-1] 1_{S_t} 1_{S_t}'`` over nested sets.

    ``S_t = {i : depth[i] >= t}`` for t = 1 .. ``len(coef)``, so
    ``S_1 ⊃ S_2 ⊃ ...`` and ``depth[i]`` counts the sets that hold cell i.
    ``A @ x`` costs O(n + sets) (Golub, "Some modified matrix eigenvalue
    problems", SIAM Rev. 1973): with ``s_t = sum(x[S_t])``, a suffix sum of
    ``np.bincount(depth, x)``, it is ``diag * x - G[depth]`` for the prefix
    sums G of ``coef[t-1] * s_t``.  Symmetric by construction; the builders
    choose ``diag`` so that the constants lie in the kernel.
    """

    depth: np.ndarray
    diag: np.ndarray
    coef: np.ndarray

    @classmethod
    def from_sets(cls, depth: np.ndarray, set_diag, coef) -> NestedRankOne:
        """The form whose ``diag[i]`` sums ``set_diag[t-1]`` over the sets
        ``S_t`` that hold cell i."""
        diag = np.concatenate(([0.0], np.cumsum(set_diag)))[depth]
        arrays = (depth, diag, np.asarray(coef, dtype=float))
        for arr in arrays:
            arr.setflags(write=False)
        return cls(*arrays)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.depth.size, self.depth.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        sums = np.cumsum(np.bincount(self.depth, x, self.coef.size + 1)[::-1])[::-1]
        G = np.concatenate(([0.0], np.cumsum(self.coef * sums[1:])))
        return self.diag * x - G[self.depth]

    def dense(self) -> np.ndarray:
        """The (n, n) matrix, gathered from the prefix sums C of ``-coef``
        (``C[0] = 0``): an entry (i, j) off the diagonal lies in the sets up
        to ``min(depth[i], depth[j])``, so it is ``C[min(depth[i], depth[j])]``,
        and a diagonal entry is ``diag[i] + C[depth[i]]``."""
        C = np.concatenate(([0.0], np.cumsum(-self.coef)))
        A = C[np.minimum.outer(self.depth, self.depth)]
        np.fill_diagonal(A, self.diag + C[self.depth])
        return A


# Energies applied through ``A @ x`` and valid by construction.
_OPERATORS = (EdgeStencil, NestedRankOne)


@dataclass(frozen=True, eq=False)
class QuadraticFormPair:
    """Energy A (symmetric psd, constants in its kernel) and the diagonal
    of the weighted mass matrix, both indexed by the positions of one cell
    set (entry k is the set's k-th cell).  A is a dense matrix or a
    structured operator (:class:`EdgeStencil`, :class:`NestedRankOne`),
    stored as given at every size.  A matrix is validated without n x n
    temporaries, an operator is valid by construction.  A read-only matrix
    that owns its memory is kept as it is; any other matrix is copied."""

    energy: np.ndarray | EdgeStencil | NestedRankOne
    mass: np.ndarray

    def __post_init__(self):
        A = self.energy
        if not isinstance(A, _OPERATORS):
            A = np.asarray(A, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValueError("energy matrix must be square")
        m = np.asarray(self.mass, dtype=float)
        if m.shape != (A.shape[0],):
            raise ValueError("mass diagonal must match the energy matrix size")
        if not np.all(np.isfinite(m)):
            raise ValueError("mass entries must be finite")
        if np.any(m < 0.0):
            raise ValueError("mass entries must be nonnegative")
        if isinstance(A, np.ndarray):
            if A.size:
                # min and max propagate NaN, so they also test finiteness
                lo, hi = float(A.min()), float(A.max())
                if not (np.isfinite(lo) and np.isfinite(hi)):
                    raise ValueError("matrix entries must be finite")
                scale = max(1.0, -lo, hi)
                asym = max(
                    float(np.abs(A[k : k + 64] - A[:, k : k + 64].T).max())
                    for k in range(0, len(A), 64)
                )
                if asym > 1e-12 * scale:
                    raise ValueError("energy matrix must be symmetric to 1e-12")
                if float(np.abs(A @ np.ones(A.shape[0])).max()) > 1e-9 * scale:
                    raise ValueError("constants must lie in the kernel of the energy matrix")
            if A.flags.writeable or not A.flags.owndata:
                A = A.copy()
                A.setflags(write=False)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "energy", A)
        object.__setattr__(self, "mass", m)

    @property
    def size(self) -> int:
        return self.energy.shape[0]

    def dense_energy(self) -> np.ndarray:
        """The energy as a matrix (an operator's dense form)."""
        A = self.energy
        return A.dense() if isinstance(A, _OPERATORS) else A


def local_stencil(cells: CellSet, weight: RadialProfile = UNIT_WEIGHT) -> EdgeStencil:
    """Edge list of the weighted gradient energy at p = 2 over a cell set.

    One edge per pair of cells of the set that are lattice neighbors along
    an axis, from :attr:`~poincheck.grid.CellSet.neighbors`, with
    coefficient ``w_i * h^(d-2)`` for its lower cell i.  The edges run axis
    by axis, so a cell's diagonal entry (:attr:`EdgeStencil.diag`) sums its
    coefficients as a lower end axis by axis, then those as an upper end.
    """
    grid, ups = cells.grid, cells.neighbors[0]
    scaled = cell_weights(cells, weight)[0] * grid.h ** (grid.d - 2)
    heads, tails = [], []
    for a in range(grid.d):
        i = np.flatnonzero(ups[:, a] >= 0)
        heads.append(i)
        tails.append(ups[i, a])
    i = np.concatenate(heads)
    arrays = (i, np.concatenate(tails), scaled[i])
    for arr in arrays:
        arr.setflags(write=False)
    return EdgeStencil(len(cells), *arrays)


def floor_operator(cells: CellSet, weight: RadialProfile = UNIT_WEIGHT) -> NestedRankOne:
    """The constant-floor pair form at p = 2 (unit kernel) over a cell set.

    ``min(w_i, w_j) = sum_l r_l 1[i in S_l] 1[j in S_l]`` over the
    superlevel sets ``S_l = {w >= l}`` of every positive step level l of
    the weight, jumps at radii <= 1/2 included (unlike ``layer_cake``),
    with ``r_l`` the rise from the level below.  So the form is a
    :class:`NestedRankOne` with ``coef_l = 2 h^(2d) r_l`` and
    ``diag_i = sum_l coef_l |S_l| 1[i in S_l]``, and its eigensolve is
    exact at every size (:func:`_shell_eigen`).
    """
    levels = np.unique(weight.values)
    levels = levels[levels > 0.0]
    depth = np.searchsorted(levels, cell_weights(cells, weight)[0], "right")
    sizes = np.cumsum(np.bincount(depth, minlength=levels.size + 1)[::-1])[::-1][1:]
    coef = 2.0 * cells.grid.cell_measure**2 * np.diff(levels, prepend=0.0)
    return NestedRankOne.from_sets(depth, coef * sizes, coef)


def assemble_p2(
    cells: CellSet,
    kernel: KernelSpec,
    weight: RadialProfile = UNIT_WEIGHT,
) -> QuadraticFormPair:
    """Quadratic-form realization of an energy at p = 2 over a cell set.

    ``u' A u`` reproduces the matching energy functional for every u, and
    the mass diagonal carries the weighted cell measures (``UNIT_WEIGHT``,
    the default, gives the unweighted pencil).  The local gradient form is
    :func:`local_stencil` and the constant-floor form :func:`floor_operator`,
    operators at every size; a fractional kernel form is the dense kernel
    matrix.
    """
    if len(cells) == 0:
        raise ValueError("cannot assemble over an empty cell set")
    phi = cell_weights(cells, weight)[0]
    if kernel.kind == KIND_LOCAL:
        A = local_stencil(cells, weight)
    elif kernel.kind == KIND_FLOOR:
        A = floor_operator(cells, weight)
    else:
        # 2 (diag(row sums) - C), built in C's memory: 0 - C keeps +0.0
        A = pair_coefficient_matrix(cells, kernel, weight)
        row_sums = A.sum(axis=1)
        np.subtract(0.0, A, out=A)
        A *= 2.0
        np.fill_diagonal(A, 2.0 * row_sums)
        A.setflags(write=False)
    return QuadraticFormPair(A, phi * cells.grid.cell_measure)


def assemble_transfer_p2(grid: Grid, profile: RadialProfile) -> QuadraticFormPair:
    """Pair for the transfer inequality at p = 2.

    Energy: sum over the weight's atoms of (atom mass) times the per-ball
    deviation form; mass: the weighted cell measures.  Its smallest
    nonzero generalized eigenvalue inverts to the sharp transfer constant
    (before the explicit constant) on this grid.

    The deviation form on a ball B of n_B cells is
    ``h^d (diag(1_B) - 1_B 1_B' / n_B)`` and the balls are nested, so the
    energy is a :class:`NestedRankOne` over the atoms' balls, largest first,
    whose eigensolve is exact at every size (:func:`_shell_eigen`).  Atoms
    of zero mass are skipped.
    """
    atoms = [(ball_cells(grid, t).indices, w) for t, w in layer_cake(profile).atoms if w != 0.0]
    depth = np.zeros(grid.cell_count, dtype=np.int64)
    for ball, _ in atoms:
        depth[ball] += 1
    masses = np.array([w * grid.cell_measure for _, w in reversed(atoms)])
    sizes = [ball.size for ball, _ in reversed(atoms)]
    A = NestedRankOne.from_sets(depth, masses, masses / sizes)
    mass = cell_weights(full_cells(grid), profile)[0] * grid.cell_measure
    return QuadraticFormPair(A, mass)


def _projected_cg(matvec, b, project, x0, rtol, max_iter):
    """CG on the deflated subspace; returns (solution, breakdown flag).

    Breakdown (a nonpositive curvature direction) signals that the operator
    is not positive definite there, which the caller uses to back off an
    aggressive shift.
    """
    b = project(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), False
    x = project(np.array(x0, dtype=float))
    r = project(b - matvec(x))
    d = r.copy()
    rs = float(r @ r)
    threshold = (rtol * b_norm) ** 2
    it = 0
    while rs > threshold and it < max_iter:
        Ad = project(matvec(d))
        dAd = float(d @ Ad)
        if dAd <= 0.0:
            return project(x), True
        alpha = rs / dAd
        x += alpha * d
        r -= alpha * Ad
        r = project(r)
        rs_new = float(r @ r)
        d = r + (rs_new / rs) * d
        rs = rs_new
        it += 1
    return project(x), False


def _jacobi_eigh(S: np.ndarray, tol: float, max_sweeps: int):
    """Cyclic Jacobi diagonalization of a small symmetric matrix (the
    Ritz blocks of the iterative solver).

    Returns the eigenvalues ascending and matching eigenvector columns.
    """
    S = 0.5 * (S + S.T)
    n = S.shape[0]
    V = np.eye(n)
    fro = float(np.linalg.norm(S))
    if fro == 0.0:
        return np.zeros(n), V
    rot_eps = tol * fro / max(1, n)
    for _ in range(max_sweeps):
        off = float(np.sqrt(max(0.0, np.sum(S * S) - np.sum(np.diag(S) ** 2))))
        if off <= tol * fro:
            order = np.argsort(np.diag(S), kind="stable")
            return np.diag(S)[order].copy(), V[:, order].copy()
        for i in range(n - 1):
            for j in range(i + 1, n):
                apq = S[i, j]
                if abs(apq) <= rot_eps:
                    continue
                theta = (S[j, j] - S[i, i]) / (2.0 * apq)
                t = (
                    1.0
                    if theta == 0.0
                    else np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                )
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                row_i = S[i, :].copy()
                row_j = S[j, :].copy()
                S[i, :] = c * row_i - sn * row_j
                S[j, :] = sn * row_i + c * row_j
                col_i = S[:, i].copy()
                col_j = S[:, j].copy()
                S[:, i] = c * col_i - sn * col_j
                S[:, j] = sn * col_i + c * col_j
                S[i, j] = 0.0
                S[j, i] = 0.0
                v_i = V[:, i].copy()
                v_j = V[:, j].copy()
                V[:, i] = c * v_i - sn * v_j
                V[:, j] = sn * v_i + c * v_j
    raise RuntimeError(f"Jacobi sweeps did not converge within {max_sweeps} passes")


class _SymmetricPencil:
    """A pencil in symmetric form ``S = M^-1/2 A M^-1/2`` (A a matrix or an
    operator), every solve's preparation.  ``q = M^1/2 1 / |M^1/2 1|``
    spans the constant direction, which S maps to zero; each path deflates
    it and returns a vector of ``q``'s complement as ``M^-1/2 x``."""

    def __init__(self, energy, mass: np.ndarray):
        if np.any(mass <= 0.0):
            raise ValueError("eigensolve requires a strictly positive mass diagonal")
        if mass.size < 2:
            raise ValueError("pair is too small to carry a nonconstant direction")
        self.energy = energy
        self.sqrt_m = np.sqrt(mass)
        self.inv_sqrt = 1.0 / self.sqrt_m
        self.q = self.sqrt_m / np.linalg.norm(self.sqrt_m)

    def project(self, x):
        return x - self.q * (self.q @ x)

    def matvec(self, x):
        return self.inv_sqrt * (self.energy @ (self.inv_sqrt * x))

    def residual(self, lam: float, x: np.ndarray, tol: float):
        """(relative residual ``|A v - lam M v| / |A v|`` of ``v = M^-1/2 x``,
        whether it is at most ``tol``, Euclidean residual ``|S x - lam x|``).
        The relative residual is 1 where ``A v = 0``."""
        Sx = self.matvec(x)
        residual = float(np.linalg.norm(self.sqrt_m * (Sx - lam * x)))
        reference = float(np.linalg.norm(self.sqrt_m * Sx))
        rel_residual = residual / reference if reference > 0.0 else 1.0
        converged = reference > 0.0 and residual <= tol * reference
        return rel_residual, converged, float(np.linalg.norm(Sx - lam * x))

    def lowest_dense(self):
        """(lam, x): the first pair of ``np.linalg.eigh`` of S, a formed
        matrix here, with ``q`` lifted past the spectrum by ``2 |S|_inf q
        q'``, so that it is the smallest pair in ``q``'s complement."""
        S = self.inv_sqrt[:, None] * self.energy * self.inv_sqrt[None, :]
        # the largest absolute row sum bounds every eigenvalue of S
        S += (2.0 * float(np.abs(S).sum(axis=1).max())) * np.outer(self.q, self.q)
        theta, V = np.linalg.eigh(S)
        return float(theta[0]), V[:, 0]

    def eigenvector(self, x: np.ndarray) -> np.ndarray:
        """``M^-1/2`` of x projected off q and normalized: mass-normalized
        and mass-orthogonal to constants."""
        x = self.project(x)
        x /= np.linalg.norm(x)
        return self.inv_sqrt * x


def _not_converged(iterations: int, rel_residual: float) -> EigenConvergenceError:
    return EigenConvergenceError(
        f"no convergence after {iterations} iterations "
        f"(relative residual {rel_residual:.3e})",
        rel_residual,
    )


def _direct_solution(sym: _SymmetricPencil, lam: float, x: np.ndarray, tol: float, trace):
    """A direct solve's one step: appends its trace row ``(1, lam,
    relative residual)`` and returns ``(lam, eigenvector)``, or raises when
    the residual misses ``tol``."""
    rel_residual, converged, _ = sym.residual(lam, x, tol)
    if trace is not None:
        trace.append((1, lam, rel_residual))
    if not converged:
        raise _not_converged(1, rel_residual)
    return lam, sym.eigenvector(x)


def _lapack_eigen(pair: QuadraticFormPair, tol: float = 1e-8, trace: list | None = None):
    """The solve of a pencil under ``_ITERATIVE_MIN_CELLS`` that is not a
    :class:`NestedRankOne`: ``np.linalg.eigh`` of the dense symmetric form
    with ``q`` lifted (:meth:`_SymmetricPencil.lowest_dense`), its residual
    taken against the same dense energy."""
    sym = _SymmetricPencil(pair.dense_energy(), pair.mass)
    return _direct_solution(sym, *sym.lowest_dense(), tol, trace)


def _shell_eigen(pair: QuadraticFormPair, tol: float = 1e-8, trace: list | None = None):
    """The exact solve of a :class:`NestedRankOne` pencil at every size.

    Cells of equal ``depth`` and equal mass form a shell g of ``n_g``
    cells, on which ``D`` and ``M`` are the constants ``D_g`` and ``m_g``
    (``D`` is a function of the depth in the builders' forms; the key
    holds it too); each set ``S_t`` holds a shell whole or not at all.  So a vector that
    sums to zero on one shell and vanishes off it is an eigenvector with
    eigenvalue ``D_g / m_g`` (Golub, SIAM Rev. 1973), and these fill the
    complement of the shell indicators' span.  On that span the pencil is
    ``A_gh = delta_gh D_g n_g - n_g n_h C(min(depth_g, depth_h))``, C the
    prefix sums of ``coef``, against ``diag(m_g n_g)``, solved by
    ``np.linalg.eigh`` with its ``q`` lifted as in :func:`_lapack_eigen`;
    one shell spans only the constants.  The smallest candidate wins, a
    lifted shell coefficient vector or ``e_a - e_b`` on the first two
    cells of its shell.  The residual is taken against the operator."""
    energy, mass = pair.energy, pair.mass
    sym = _SymmetricPencil(energy, mass)
    depth = energy.depth
    keys = (mass, energy.diag, depth)
    order = np.lexsort(keys)
    changes = np.logical_or.reduce([np.diff(key[order]) != 0 for key in keys])
    starts = np.flatnonzero(np.concatenate(([True], changes)))
    first = order[starts]
    sizes = np.diff(np.append(starts, depth.size))
    d_g, m_g, depth_g = energy.diag[first], mass[first], depth[first]
    lam, x = np.inf, None
    if sizes.size > 1:
        C = np.concatenate(([0.0], np.cumsum(energy.coef)))
        n = sizes.astype(float)
        A = -np.outer(n, n) * C[np.minimum.outer(depth_g, depth_g)]
        A[np.diag_indices_from(A)] += d_g * n
        lam, y = _SymmetricPencil(A, m_g * n).lowest_dense()
        # y_g = sqrt(m_g n_g) a_g, so each cell of shell g carries y_g / sqrt(n_g)
        x = np.empty(depth.size)
        x[order] = np.repeat(y / np.sqrt(n), sizes)
    shells = np.flatnonzero(sizes > 1)
    if shells.size:
        ratios = d_g[shells] / m_g[shells]
        k = int(np.argmin(ratios))
        if float(ratios[k]) < lam:
            lam, g = float(ratios[k]), shells[k]
            x = np.zeros(depth.size)
            x[order[starts[g]]], x[order[starts[g] + 1]] = 1.0, -1.0
    return _direct_solution(sym, lam, x, tol, trace)


class _BlockedCholesky:
    """``A = L L'`` of a symmetric positive definite matrix, kept inside
    its envelope, left-looking in panels of columns (Golub & Van Loan,
    *Matrix Computations*, 4th ed., section 4.2), numpy only.

    Row i of A has its first nonzero in column ``first[i]``, and the
    factor fills in nothing left of it, so column j of L ends at its
    envelope ``e_j = max{i : first[i] <= j}`` (George & Liu, *Computer
    Solution of Large Sparse Positive Definite Systems*, 1981, ch. 4).
    ``columns(k0, k1, stop)`` gives a fresh array that holds
    ``A[k0:stop, k0:k1]`` on and below the diagonal; ``np.linalg.cholesky``
    reads no entry above it.
    Panel k of L, columns ``k0 .. k1``, is A's columns down to ``e_{k1-1}``
    less one product with each earlier panel whose envelope reaches row
    k0, then LAPACK's Cholesky of its diagonal block and one product with
    that block's inverse below it.  Per panel it keeps ``(k0, k1, inverse
    of the diagonal block, the rows below it down to the envelope)``, so
    both substitutions of :meth:`solve` are matrix products too.

    Let b be the longest row of the envelope, diagonal included, and
    ``b' = max(b, 16)``.  Column j reaches at most row ``j + b' - 1``, so
    a panel of at most b' columns has at most ``min(n, 2 b')`` rows, and
    the width ``min(b', BLOCK_ELEMENTS // min(n, 2 b'))`` keeps it, and
    every temporary, within ``BLOCK_ELEMENTS`` entries.  A formed matrix
    (:meth:`of_matrix`) has the full envelope, b = n: panels of
    ``BLOCK_ELEMENTS // n`` columns over every row below, about n^2 / 2
    entries in all.  A grounded stencil (:meth:`of_grounded_stencil`) in
    lattice order is banded, b about the cells of one lattice row: panels
    of about b' columns, and about n b' entries in all.  The floor of 16
    gives a 1-d stencil (b = 2) panels of 16 columns, not 2, so that its
    factor and solves pay one panel's numpy calls per 16 cells; a 2-d
    stencil of 256 cells or more has b >= 16 already.  Raises
    ``np.linalg.LinAlgError`` when a pivot is not positive."""

    def __init__(self, first: np.ndarray, columns):
        n = first.size
        index = np.arange(n)
        last = np.full(n, -1)
        np.maximum.at(last, first, index)
        envelope = np.maximum.accumulate(last)
        b = max(int((index - first).max()) + 1, 16)
        width = max(1, min(b, BLOCK_ELEMENTS // min(n, 2 * b)))
        # one past each panel's last row, nondecreasing
        stops = envelope[np.minimum(np.arange(width, n + width, width), n) - 1] + 1
        self.panels = []
        for k, k0 in enumerate(range(0, n, width)):
            k1 = min(k0 + width, n)
            panel = columns(k0, k1, int(stops[k]))
            # the earlier panels whose envelope reaches row k0
            for _, j1, _, below in self.panels[np.searchsorted(stops, k0, "right") :]:
                rows = below[k0 - j1 :]
                # one that ends above row k1 meets only that many columns
                panel[: len(rows), : len(rows)] -= rows @ rows[: k1 - k0].T
            inv = np.linalg.inv(np.linalg.cholesky(panel[: k1 - k0]))
            self.panels.append((k0, k1, inv, panel[k1 - k0 :] @ inv.T))

    @classmethod
    def of_matrix(cls, A: np.ndarray) -> _BlockedCholesky:
        """The factor of a formed matrix, whose envelope is full."""
        return cls(
            np.zeros(len(A), dtype=np.int64),
            lambda k0, k1, stop: np.array(A[k0:stop, k0:k1], dtype=float),
        )

    @classmethod
    def of_grounded_stencil(cls, stencil: EdgeStencil) -> _BlockedCholesky:
        """The factor of the stencil's matrix with cell 0 grounded (its row
        and column dropped), each panel's lower triangle built from the
        edge list: :attr:`EdgeStencil.diag` on the diagonal and, for an
        edge of coefficient c between cells i < j, -c at (j, i), less one
        index each for the dropped cell."""
        diag = stencil.diag[1:]
        lo = np.minimum(stencil.i, stencil.j) - 1
        hi = np.maximum(stencil.i, stencil.j) - 1
        kept = np.flatnonzero(lo >= 0)
        order = kept[np.argsort(lo[kept])]
        lo, hi, off = lo[order], hi[order], -stencil.coef[order]
        first = np.arange(diag.size)
        np.minimum.at(first, hi, lo)

        def columns(k0, k1, stop):
            panel = np.zeros((stop - k0, k1 - k0))
            np.fill_diagonal(panel, diag[k0:k1])
            s, t = np.searchsorted(lo, (k0, k1))
            panel[hi[s:t] - k0, lo[s:t] - k0] = off[s:t]
            return panel

        return cls(first, columns)

    def solve(self, B: np.ndarray) -> np.ndarray:
        """``A^-1 B`` for a block of columns B: forward substitution with L,
        then back substitution with L', a panel at a time."""
        Z = np.array(B, dtype=float)
        for k0, k1, inv, below in self.panels:
            Z[k0:k1] = inv @ Z[k0:k1]
            Z[k1 : k1 + len(below)] -= below @ Z[k0:k1]
        for k0, k1, inv, below in reversed(self.panels):
            Z[k0:k1] = inv.T @ (Z[k0:k1] - below.T @ Z[k1 : k1 + len(below)])
        return Z


def _block_iteration(
    pair: QuadraticFormPair,
    tol: float = 1e-8,
    max_iter: int = 200,
    trace: list | None = None,
):
    """The solve behind :func:`member_eigenvector` from
    ``_ITERATIVE_MIN_CELLS`` on, its one caller:
    block inverse (subspace) iteration on q's complement (Saad, *Numerical
    Methods for Large Eigenvalue Problems*, SIAM 2011, ch. 4-5), the
    operator touched only through ``energy @ x``.  Each pass solves ``S -
    sigma I`` by projected CG, column by column, to a tolerance that
    follows the outer residual, then orthonormalizes the solved block and
    takes a small Jacobi Ritz step; the block absorbs near-degenerate
    lowest modes (symmetric domains carry double eigenvalues), which would
    stall a single-vector iteration.  Appends ``(iteration, lam, relative
    residual)`` per Ritz step."""
    sym = _SymmetricPencil(pair.energy, pair.mass)
    project, s_matvec = sym.project, sym.matvec
    n = pair.size
    block = min(3, n - 1)
    rng = np.random.default_rng(171)
    X = np.column_stack([project(rng.standard_normal(n)) for _ in range(block)])
    X, _ = np.linalg.qr(X)
    # each CG column is warm-started from its last solution
    Y = X.copy()
    # CG solves S - sigma I, positive definite off q while sigma is below lam_1
    sigma = 0.0

    def shifted(x):
        return s_matvec(x) - sigma * x

    lam = float("nan")
    rel_residual = 1.0
    for it in range(1, max_iter + 1):
        inner_rtol = min(1e-3, max(1e-12, 0.05 * rel_residual))
        broke = False
        for col in range(block):
            Y[:, col], bad = _projected_cg(
                shifted, X[:, col], project, Y[:, col], inner_rtol, max_iter=20 * n
            )
            broke = broke or bad
        if broke:
            # nonpositive curvature: sigma crossed the lowest eigenvalue; redo the pass
            sigma *= 0.5
            continue
        Q, _ = np.linalg.qr(np.column_stack([project(Y[:, col]) for col in range(block)]))
        SQ = np.column_stack([s_matvec(Q[:, col]) for col in range(block)])
        ritz = Q.T @ SQ
        theta, W = _jacobi_eigh(ritz, 1e-14, 60)
        X = Q @ W
        lam = float(theta[0])
        rel_residual, converged, euclid_residual = sym.residual(lam, X[:, 0], tol)
        if trace is not None:
            trace.append((it, lam, rel_residual))
        if converged:
            break
        # lam exceeds the eigenvalue by at most the Euclidean residual (Weyl):
        # this shift stays below it and collapses clustered bottom modes
        if lam > 0.0 and rel_residual < 5e-3:
            sigma = max(sigma, lam - max(20.0 * euclid_residual, 1e-3 * lam))
    else:
        raise _not_converged(max_iter, rel_residual)
    return lam, sym.eigenvector(X[:, 0])


def _lanczos(
    pair: QuadraticFormPair,
    tol: float = 1e-8,
    max_iter: int = 200,
    trace: list | None = None,
):
    """The solve of a formed or stencil pencil from ``_ITERATIVE_MIN_CELLS``
    on: spectral-transformation Lanczos (Ericsson & Ruhe, Math. Comp. 1980;
    Parlett, *The Symmetric Eigenvalue Problem*, SIAM 1998, ch. 13) on
    ``S^+`` in q's complement, whose largest eigenvalue theta is ``1 /
    lam``.  For x orthogonal to q, ``b = M^1/2 x`` sums to zero, so ``A z
    = b`` has solutions, and ``S^+ x`` is ``M^1/2 z`` projected off q.
    Grounding cell 0 (``z_0 = 0``) leaves ``A[1:, 1:] z[1:] = b[1:]``,
    whose matrix is positive definite when constants span A's kernel; it
    is factored once by :class:`_BlockedCholesky`, a formed matrix over
    its full envelope and an :class:`EdgeStencil` from its edge list
    within its band.  A matrix whose factor
    breaks down has a nonconstant null vector (or none that is positive):
    that raises :class:`EigenConvergenceError` with relative residual 1,
    as an eigenvalue 0 gives, before any step.  Each step applies the
    factor to one vector and orthogonalizes the result against the whole
    basis, twice; the basis grows a row per step.  Step k takes the
    largest Ritz pair of the k x k tridiagonal and appends ``(k, 1 /
    theta, relative residual)``, that residual taken against the energy
    itself.  The orthogonalization projects off q as well, since
    cancellation leaves the rounding of the solve's own projection in a
    small remainder.  A zero beta, one under ``n eps theta`` (the rounding
    of one solve), means the Krylov space is invariant and its Ritz pairs
    exact: it ends the iteration, and the ``tol`` test decides as at any
    step."""
    sym = _SymmetricPencil(pair.energy, pair.mass)
    try:
        if isinstance(pair.energy, EdgeStencil):
            factor = _BlockedCholesky.of_grounded_stencil(pair.energy)
        else:
            factor = _BlockedCholesky.of_matrix(pair.energy[1:, 1:])
    except np.linalg.LinAlgError:
        raise EigenConvergenceError(
            "energy is not positive definite off the constants "
            "(relative residual 1.000e+00)",
            1.0,
        ) from None
    n = pair.size
    v = sym.project(np.random.default_rng(171).standard_normal(n))
    V = (v / np.linalg.norm(v))[None, :]
    alpha, beta = [], []
    for k in range(1, max_iter + 1):
        z = np.zeros(n)
        z[1:] = factor.solve((sym.sqrt_m * V[-1])[1:])
        w = sym.project(sym.sqrt_m * z)
        a = 0.0
        for _ in range(2):
            h = V @ w
            w = sym.project(w - h @ V)
            a += float(h[-1])
        alpha.append(a)
        theta, Y = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        lam, x = 1.0 / float(theta[-1]), Y[:, -1] @ V
        rel_residual, converged, _ = sym.residual(lam, x, tol)
        if trace is not None:
            trace.append((k, lam, rel_residual))
        if converged:
            return lam, sym.eigenvector(x)
        b = float(np.linalg.norm(w))
        if b <= n * np.finfo(float).eps * theta[-1]:
            break
        beta.append(b)
        V = np.vstack((V, w / b))
    raise _not_converged(k, rel_residual)


def smallest_nonzero_eigen(
    pair: QuadraticFormPair,
    tol: float = 1e-8,
    max_iter: int = 200,
    trace: list | None = None,
):
    """Smallest nonzero generalized eigenvalue of (energy, mass).

    Every path solves the symmetric form ``M^-1/2 A M^-1/2`` with the
    constant direction deflated, and only here is the path chosen:

    - a :class:`NestedRankOne` pencil, at every size, by its exact shell
      reduction (:func:`_shell_eigen`), which never densifies the operator
      and writes one trace row;
    - another pair of fewer than ``_ITERATIVE_MIN_CELLS`` cells by LAPACK
      (``np.linalg.eigh``) on ``pair.dense_energy()``, one trace row;
    - a larger one by shift-invert Lanczos on one Cholesky factor of the
      energy with cell 0 grounded, taken once per call, one row per step
      (:func:`_lanczos`; ``max_iter`` bounds those steps).  The factor
      (:class:`_BlockedCholesky`) keeps a lower triangle in panels: a
      formed matrix's, about n^2 / 2 entries, is the one array of order
      n^2 the call makes, and an :class:`EdgeStencil`'s is built from the
      edge list within its band, so no dense form is made.

    Each row is (step, eigenvalue, relative residual), that residual
    taken against the energy.  The solve converges when the residual in
    the original variables satisfies ``|A v - lam D v| <= tol * |A v|``.
    Returns the eigenvalue as a float and the eigenvector as a 1-d array
    of ``pair.size`` entries in the pair's cell order, mass-orthogonal to
    constants and mass-normalized; its sign is not fixed.

    Raises :class:`EigenConvergenceError` with the last relative residual
    when that residual exceeds ``tol``; it is 1 where the energy vanishes
    on the returned nonconstant vector (eigenvalue 0).  An energy that
    vanishes on a nonconstant vector also raises with relative residual 1,
    before any step, when the energy of the iteration cannot be
    factored.  The error carries the trace rows the solve wrote, as
    ``trace``.
    """
    rows = [] if trace is None else trace
    start = len(rows)
    try:
        if isinstance(pair.energy, NestedRankOne):
            return _shell_eigen(pair, tol, rows)
        if pair.size < _ITERATIVE_MIN_CELLS:
            return _lapack_eigen(pair, tol, rows)
        return _lanczos(pair, tol, max_iter, rows)
    except EigenConvergenceError as exc:
        exc.trace = tuple(rows[start:])
        raise


def pencil_eigen(cells: CellSet, kernel: KernelSpec, weight: RadialProfile = UNIT_WEIGHT):
    """:func:`smallest_nonzero_eigen` of ``assemble_p2`` over a cell set,
    solved once per grid.

    Returns (eigenvalue, read-only eigenvector, trace rows (step,
    eigenvalue, relative residual)).  The solve is kept in the memo of the
    cells' grid, keyed by the cell set, the kernel and the weight, so it
    lives as long as that grid does.  A solve that does not converge
    raises each time and is not kept.
    """

    def solve():
        trace = []
        lam, vec = smallest_nonzero_eigen(assemble_p2(cells, kernel, weight), trace=trace)
        vec.setflags(write=False)
        return lam, vec, tuple(trace)

    return cells.grid.memo(("sharp.pencil_eigen", cells, kernel, weight), solve)


def member_eigenvector(grid: Grid) -> np.ndarray:
    """The read-only eigenvector behind the suite's ``eigen`` member: the
    unit-weight local pencil on the full ball, solved once per grid.

    Under ``_ITERATIVE_MIN_CELLS`` cells it is :func:`pencil_eigen`'s
    LAPACK vector.  From there on it is :func:`_block_iteration`'s, kept on
    the grid apart from :func:`pencil_eigen`'s Lanczos solve of the same
    pencil.  The 2-d disk's lowest eigenvalue is double, so a solve fixes
    only a vector in that eigenspace, and the suite, hence every 2-d
    verify report, follows the vector's angle in it.
    ``perfbench/reference`` pins the block iteration's angle; the
    recapture that moves the member to the parity projection of the
    Lanczos vector (ROADMAP item 22) deletes the block iteration with it.
    A solve that does not converge raises each time and is not kept.
    """
    cells = full_cells(grid)
    local = KernelSpec(KIND_LOCAL)
    if len(cells) < _ITERATIVE_MIN_CELLS:
        return pencil_eigen(cells, local)[1]

    def solve():
        _, vec = _block_iteration(assemble_p2(cells, local))
        vec.setflags(write=False)
        return vec

    return grid.memo(("sharp.member_eigenvector", cells), solve)


def dense_oracle_eigen(pair: QuadraticFormPair) -> np.ndarray:
    """Full spectrum, ascending, of the symmetrized pencil by LAPACK
    (``np.linalg.eigvalsh``).

    Validation oracle for the solves of :func:`smallest_nonzero_eigen`,
    :func:`_shell_eigen`, :func:`_lanczos` and :func:`_block_iteration`,
    with which it shares no code (tests call the two iterations directly
    on pencils under the crossover too); capped at ``_DENSE_CAP`` = 2,000
    cells.
    """
    n = pair.size
    if n > _DENSE_CAP:
        raise ValueError(f"dense oracle capped at {_DENSE_CAP} cells, got {n}")
    if np.any(pair.mass <= 0.0):
        raise ValueError("dense oracle requires a strictly positive mass diagonal")
    inv_sqrt = 1.0 / np.sqrt(pair.mass)
    S = inv_sqrt[:, None] * pair.dense_energy() * inv_sqrt[None, :]
    return np.linalg.eigvalsh(0.5 * (S + S.T))


def ratio_ascent(
    lhs_functional,
    rhs_functional,
    u0: GridFunction,
    steps: int,
    step_size: float,
    weight: RadialProfile = UNIT_WEIGHT,
):
    """Locally maximize ``lhs(u) / rhs(u)`` by normalized gradient ascent.

    Both functionals take a (k, cell_count) matrix, one grid function's
    values per row, or the :class:`~poincheck.grid.Probes` of a step, and
    return k floats.  The gradient is a forward finite difference of the
    ratio (step ``delta = 1e-6 * |u|``); a probe whose rhs is ``<= 0``
    contributes a zero entry.  Each step hands each functional one call,
    ``Probes(u, delta)``: the n probes ``u + delta e_i`` and then ``u``
    itself, which ``deviation_p_rows`` and ``local_energy_rows`` evaluate
    without forming them (recentered, a probe moves its center only by
    its rounded bump, so the deviation's probes share few centers, each
    formed once).  Those two give every row the float it gives alone, so
    every ratio, iterate and the result are bit-identical to one call per
    row.  Both functionals get the same rows object back to back, rhs
    first, so a pair of functionals may share one evaluation.
    The update moves along the normalized gradient, and each iterate is
    re-centered to mean zero against ``weight`` (``UNIT_WEIGHT``, the
    plain mean, by default) and rescaled to unit norm; the ratio is
    invariant under both for the functionals used here.  Each iterate's
    ratio is evaluated once, as the last row of its step's call, which
    first updates the best ratio and restarts when that iterate's rhs is
    ``<= 0``.  One-row calls evaluate only the start, a restart's new
    start and the last iterate.  Deterministic given (u0, steps,
    step_size); returns the best ratio seen and its grid function, on
    ``u0``'s grid.  Use as a lower bound on the sharp constant for
    general p.
    """

    def ratios(rows, *entries):
        """Ratio of each row, and where the rhs is ``<= 0`` (no ratio);
        ``entries`` hold every value of the rows."""
        if not all(np.all(np.isfinite(e)) for e in entries):
            raise ValueError("grid function values must be finite")
        denom = np.asarray(rhs_functional(rows), dtype=float)
        bad = denom <= 0.0
        lhs = np.asarray(lhs_functional(rows), dtype=float)
        return lhs / np.where(bad, 1.0, denom), bad

    def ratio_of(vals):
        ratio, bad = ratios(vals[None, :], vals)
        return None if bad[0] else float(ratio[0])

    vals = np.array(u0.values, dtype=float)
    start = ratio_of(vals)
    if start is None:
        raise ValueError("rhs functional must be positive at the starting point")
    best_ratio = start
    best_vals = vals.copy()
    n = vals.size
    restarts = 0
    base = start
    pending = False  # vals is an iterate whose ratio its step's call gives
    for _ in range(steps):
        if base is not None:
            delta = 1e-6 * np.linalg.norm(vals)
            if delta == 0.0:
                delta = 1e-6
            probes = Probes(vals, delta)
            r, bad = ratios(probes, probes.values, probes.bumped)
            if pending:  # the iterate's own row, the last
                pending = False
                base = None if bad[-1] else float(r[-1])
                if base is not None and base > best_ratio:
                    best_ratio = base
                    best_vals = vals.copy()
        if base is None:
            restarts += 1
            noise = np.random.default_rng(900 + restarts).standard_normal(n)
            vals = best_vals + 1e-3 * max(np.linalg.norm(best_vals), 1.0) * noise
            base = ratio_of(vals)
            continue
        grad = np.where(bad[:n], 0.0, (r[:n] - base) / delta)
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            break
        vals = vals + step_size * grad / gnorm
        vals = vals - weighted_mean(GridFunction(u0.grid, vals), weight)
        scale = np.linalg.norm(vals)
        if scale > 0.0:
            vals = vals / scale
        pending = True
    if pending:
        base = ratio_of(vals)
        if base is not None and base > best_ratio:
            best_ratio = base
            best_vals = vals.copy()
    return best_ratio, GridFunction(u0.grid, best_vals)


def estimate_gradient_constant(grid: Grid, radii=()) -> float:
    """Operational unweighted gradient constant at p = 2: the p = 2 frozen
    gradient branch of ``poincheck.runner._constant``.

    For each requested ball radius (the unit ball is always included) the
    sharp per-ball constant comes from the eigensolve; dividing by the
    radius to the p-th power and maximizing gives one number valid for all
    the balls at once, which is how downstream checks consume it.
    :func:`~poincheck.grid.ball_cells` refuses a radius outside (0, 1].
    """
    candidates = sorted(set(float(r) for r in radii) | {1.0})
    best = 0.0
    for r in candidates:
        lam, _, _ = pencil_eigen(ball_cells(grid, r), KernelSpec(KIND_LOCAL))
        best = max(best, (1.0 / lam) / r**2)
    return best
