"""Sharp-constant estimation for the p = 2 inequalities.

At p = 2 the best constant in ``weighted deviation <= C * energy`` is the
reciprocal of the smallest nonzero eigenvalue of the energy form against
the weighted mass form.  The mass form is a diagonal.  Two energies have
a structure that gives an O(n) ``A @ x``: the local gradient form is an
edge list (:class:`EdgeStencil`), and the transfer and constant-floor forms
are a diagonal minus rank-one terms over nested cell sets
(:class:`NestedRankOne`), by the layer-cake splitting of the weight.  Each
is applied matrix-free from ``_OPERATOR_MIN_CELLS`` cells on and as its
dense form below; every fractional kernel form is a dense kernel matrix.
The eigenvalue is found by deflated inverse iteration with projected CG
inner solves, which touches the energy only through ``A @ x``, and is
validated against LAPACK's full spectrum of the dense pencil.
:func:`pencil_eigen` solves each pencil once per grid.
For general p a normalized finite-difference ascent of the ratio supplies
a certified lower bound on the sharp constant.  Each step hands its n
probes ``u + delta e_i`` to each functional in one call, as
:class:`~poincheck.grid.Probes`; the deviation and gradient-energy row
functionals evaluate them without forming the n x n matrix of rows, each
to the float its row gives.

Everything here is deterministic: fixed internal seeds, fixed iteration
schedules, no external solver dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ksum
from .weights import UNIT_WEIGHT, RadialProfile, eval_weight, layer_cake
from .grid import CellSet, Grid, GridFunction, Probes, ball_cells, cell_weights, full_cells
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
    "dense_oracle_eigen",
    "ratio_ascent",
    "estimate_gradient_constant",
]

_DENSE_CAP = 2000
# Smallest pencil whose structured energy (EdgeStencil, NestedRankOne) is
# applied matrix-free; QuadraticFormPair stores a smaller one as its dense
# form.  The crossover is one matvec, dense gemv against the operator, in us
# (Intel Xeon, one BLAS thread, best of 5 x 2,000 calls; 2-d N = 16, 20, 24
# and 32, the full ball, weight step([0.75], [2, 1]); local, transfer and
# floor are the forms of local_stencil, assemble_transfer_p2 and
# floor_operator):
#
#   cells   local          transfer       floor
#   208     8.0 vs 7.7     8.0 vs 14.5    6.6 vs 14.6
#   316     15.7 vs 11.1   15.4 vs 15.1   15.9 vs 15.2
#   448     37.2 vs 12.2   35.9 vs 15.7   27.3 vs 10.8
#   812     209 vs 19.1    246 vs 20.5    237 vs 19.6
_OPERATOR_MIN_CELLS = 256


class EigenConvergenceError(RuntimeError):
    """Iterative eigensolve failed to reach tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class EdgeStencil:
    """The local gradient form at p = 2 as an edge list over n cells.

    ``u' A u`` is the sum over edges k of ``coef[k] * (u[i[k]] - u[j[k]])**2``,
    so A is symmetric psd with constants in its kernel by construction.
    The edges run axis by axis; axis a's edges end at ``axis_ends[a]``.
    ``A @ x`` costs O(edges): two gathers and two ``np.bincount``.
    """

    size: int
    i: np.ndarray
    j: np.ndarray
    coef: np.ndarray
    axis_ends: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        flux = self.coef * (x[self.i] - x[self.j])
        return np.bincount(self.i, flux, self.size) - np.bincount(self.j, flux, self.size)

    def dense(self) -> np.ndarray:
        """The (size, size) matrix, accumulated axis by axis."""
        A = np.zeros(self.shape)
        start = 0
        for end in self.axis_ends:
            i, j, coef = self.i[start:end], self.j[start:end], self.coef[start:end]
            np.add.at(A, (i, i), coef)
            np.add.at(A, (j, j), coef)
            np.add.at(A, (i, j), -coef)
            np.add.at(A, (j, i), -coef)
            start = end
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
    set_diag: np.ndarray

    @classmethod
    def from_sets(cls, depth: np.ndarray, set_diag, coef) -> NestedRankOne:
        """The form whose ``diag[i]`` sums ``set_diag[t-1]`` over the sets
        ``S_t`` that hold cell i."""
        diag = np.concatenate(([0.0], np.cumsum(set_diag)))[depth]
        arrays = (depth, diag, np.asarray(coef, dtype=float), np.asarray(set_diag, dtype=float))
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
        """The (n, n) matrix as if accumulated set by set, innermost first:
        ``coef[t-1]`` comes off every entry of ``S_t x S_t``, then
        ``set_diag[t-1]`` goes onto its diagonal.  An entry (i, j) off the
        diagonal lies in the sets up to ``min(depth[i], depth[j])``, a
        diagonal entry in those up to ``depth[i]``, so one table per depth
        replays each entry's float operations in that order, and the
        matrix is one gather from it."""
        coef, set_diag = self.coef.tolist(), self.set_diag.tolist()
        off, on = [], []
        for depth in range(len(coef) + 1):
            a = b = 0.0
            for t in range(depth, 0, -1):
                a -= coef[t - 1]
                b = b - coef[t - 1] + set_diag[t - 1]
            off.append(a)
            on.append(b)
        A = np.array(off)[np.minimum.outer(self.depth, self.depth)]
        np.fill_diagonal(A, np.array(on)[self.depth])
        return A


# Energies applied through ``A @ x`` and valid by construction.
_OPERATORS = (EdgeStencil, NestedRankOne)


@dataclass(frozen=True, eq=False)
class QuadraticFormPair:
    """Energy A (symmetric psd, constants in its kernel) and the diagonal
    of the weighted mass matrix, both indexed by the positions of one cell
    set (entry k is the set's k-th cell).  A is a dense matrix or a
    structured operator (:class:`EdgeStencil`, :class:`NestedRankOne`); an
    operator of fewer than ``_OPERATOR_MIN_CELLS`` cells is stored as its
    dense form.  A matrix is validated without n x n temporaries, an
    operator is valid by construction.  A read-only matrix that owns its
    memory is kept as it is; any other matrix is copied."""

    energy: np.ndarray | EdgeStencil | NestedRankOne
    mass: np.ndarray

    def __post_init__(self):
        A = self.energy
        if isinstance(A, _OPERATORS) and A.shape[0] < _OPERATOR_MIN_CELLS:
            A = A.dense()
        if not isinstance(A, _OPERATORS):
            A = np.asarray(A, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValueError("energy matrix must be square")
        m = np.asarray(self.mass, dtype=float)
        if m.shape != (A.shape[0],):
            raise ValueError("mass diagonal must match the energy matrix size")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
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


def local_stencil(
    grid: Grid, cells: CellSet, weight: RadialProfile = UNIT_WEIGHT
) -> EdgeStencil:
    """Edge list of the weighted gradient energy at p = 2 over a cell set.

    One edge per pair of cells of the set that are lattice neighbors along
    an axis, from ``grid.neighbors_up``, with coefficient ``w_i * h^(d-2)``
    for its lower cell i.
    """
    n = len(cells)
    idx = cells.indices
    local_of = -np.ones(grid.cell_count, dtype=np.int64)
    local_of[idx] = np.arange(n)
    scaled = eval_weight(weight, grid.norms[idx]) * grid.h ** (grid.d - 2)
    heads, tails = [], []
    for a in range(grid.d):
        nb = grid.neighbors_up[idx, a]
        j = np.where(nb >= 0, local_of[nb], -1)
        i = np.flatnonzero(j >= 0)
        heads.append(i)
        tails.append(j[i])
    i = np.concatenate(heads)
    axis_ends = tuple(np.cumsum([h.size for h in heads]).tolist())
    arrays = (i, np.concatenate(tails), scaled[i])
    for arr in arrays:
        arr.setflags(write=False)
    return EdgeStencil(n, *arrays, axis_ends)


def floor_operator(
    grid: Grid, cells: CellSet, weight: RadialProfile = UNIT_WEIGHT
) -> NestedRankOne:
    """The constant-floor pair form at p = 2 (unit kernel) over a cell set.

    ``min(w_i, w_j) = sum_l r_l 1[i in S_l] 1[j in S_l]`` over the
    superlevel sets ``S_l = {w >= l}`` of every positive step level l of
    the weight, jumps at radii <= 1/2 included (unlike ``layer_cake``),
    with ``r_l`` the rise from the level below.  So the form is a
    :class:`NestedRankOne` with ``coef_l = 2 h^(2d) r_l`` and
    ``diag_i = sum_l coef_l |S_l| 1[i in S_l]``.
    """
    levels = np.unique(weight.values)
    levels = levels[levels > 0.0]
    depth = np.searchsorted(levels, eval_weight(weight, grid.norms[cells.indices]), "right")
    sizes = np.cumsum(np.bincount(depth, minlength=levels.size + 1)[::-1])[::-1][1:]
    coef = 2.0 * grid.cell_measure**2 * np.diff(levels, prepend=0.0)
    return NestedRankOne.from_sets(depth, coef * sizes, coef)


def assemble_p2(
    grid: Grid,
    cells: CellSet,
    kernel: KernelSpec,
    weight: RadialProfile = UNIT_WEIGHT,
) -> QuadraticFormPair:
    """Quadratic-form realization of an energy at p = 2 over a cell set.

    ``u' A u`` reproduces the matching energy functional for every u, and
    the mass diagonal carries the weighted cell measures (``UNIT_WEIGHT``,
    the default, gives the unweighted pencil).  The local gradient form is
    :func:`local_stencil` and the constant-floor form :func:`floor_operator`,
    applied matrix-free or as their dense forms as :class:`QuadraticFormPair`
    decides; a fractional kernel form is the dense kernel matrix at every
    size.
    """
    if len(cells) == 0:
        raise ValueError("cannot assemble over an empty cell set")
    phi = eval_weight(weight, grid.norms[cells.indices])
    if kernel.kind == KIND_LOCAL:
        A = local_stencil(grid, cells, weight)
    elif kernel.kind == KIND_FLOOR:
        A = floor_operator(grid, cells, weight)
    else:
        # 2 (diag(row sums) - C), built in C's memory: 0 - C keeps +0.0
        A = pair_coefficient_matrix(grid, cells, kernel, weight)
        row_sums = A.sum(axis=1)
        np.subtract(0.0, A, out=A)
        A *= 2.0
        np.fill_diagonal(A, 2.0 * row_sums)
        A.setflags(write=False)
    return QuadraticFormPair(A, phi * grid.cell_measure)


def assemble_transfer_p2(grid: Grid, profile: RadialProfile) -> QuadraticFormPair:
    """Pair for the transfer inequality at p = 2.

    Energy: sum over the weight's atoms of (atom mass) times the per-ball
    deviation form; mass: the weighted cell measures.  Its smallest
    nonzero generalized eigenvalue inverts to the sharp transfer constant
    (before the explicit constant) on this grid.

    The deviation form on a ball B of n_B cells is
    ``h^d (diag(1_B) - 1_B 1_B' / n_B)`` and the balls are nested, so the
    energy is a :class:`NestedRankOne` over the atoms' balls, largest first.
    Atoms of zero mass are skipped.
    """
    atoms = [(ball_cells(grid, t).indices, w) for t, w in layer_cake(profile).atoms if w != 0.0]
    depth = np.zeros(grid.cell_count, dtype=np.int64)
    for ball, _ in atoms:
        depth[ball] += 1
    masses = np.array([w * grid.cell_measure for _, w in reversed(atoms)])
    sizes = [ball.size for ball, _ in reversed(atoms)]
    A = NestedRankOne.from_sets(depth, masses, masses / sizes)
    mass = eval_weight(profile, grid.norms) * grid.cell_measure
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


def smallest_nonzero_eigen(
    pair: QuadraticFormPair,
    tol: float = 1e-8,
    max_iter: int = 200,
    trace: list | None = None,
):
    """Smallest nonzero generalized eigenvalue of (energy, mass).

    Touches the energy only through ``energy @ x``.  Transforms to symmetric form with the inverse square root of the mass,
    deflates the constant direction, and runs block inverse (subspace)
    iteration with projected-CG inner solves and a small Jacobi Ritz step
    per pass; the block absorbs near-degenerate lowest modes (symmetric
    domains carry double eigenvalues), which would stall a single-vector
    iteration.  Converges when the residual in the original variables
    satisfies ``|A v - lam D v| <= tol * |A v|``.  Returns the eigenvalue
    and the eigenvector as a 1-d array of ``pair.size`` entries in the
    pair's cell order, mass-orthogonal to constants and mass-normalized.

    Raises :class:`EigenConvergenceError` with the last relative residual
    when the iteration budget runs out.
    """
    if np.any(pair.mass <= 0.0):
        raise ValueError("eigensolve requires a strictly positive mass diagonal")
    A = pair.energy
    n = pair.size
    sqrt_m = np.sqrt(pair.mass)
    inv_sqrt = 1.0 / sqrt_m
    q = sqrt_m / np.linalg.norm(sqrt_m)

    def project(x):
        return x - q * (q @ x)

    def s_matvec(x):
        return inv_sqrt * (A @ (inv_sqrt * x))

    block = min(3, n - 1)
    if block < 1:
        raise ValueError("pair is too small to carry a nonconstant direction")
    rng = np.random.default_rng(171)
    X = np.column_stack([project(rng.standard_normal(n)) for _ in range(block)])
    X, _ = np.linalg.qr(X)
    Y = X.copy()
    lam = float("nan")
    rel_residual = 1.0
    euclid_residual = np.inf
    sigma = 0.0
    for it in range(1, max_iter + 1):
        inner_rtol = min(1e-3, max(1e-12, 0.05 * rel_residual))

        def shifted(x, _sigma=sigma):
            return s_matvec(x) - _sigma * x

        broke = False
        for col in range(block):
            Y[:, col], bad = _projected_cg(
                shifted, X[:, col], project, Y[:, col], inner_rtol, max_iter=20 * n
            )
            broke = broke or bad
        if broke:
            # the shift crossed the lowest eigenvalue; back off and retry
            sigma *= 0.5
            continue
        Z = np.column_stack([project(Y[:, col]) for col in range(block)])
        Q, _ = np.linalg.qr(Z)
        SQ = np.column_stack([s_matvec(Q[:, col]) for col in range(block)])
        ritz = Q.T @ SQ
        theta, W = _jacobi_eigh(ritz, 1e-14, 60)
        X = Q @ W
        lam = float(theta[0])
        x = X[:, 0]
        Sx = s_matvec(x)
        residual = float(np.linalg.norm(sqrt_m * (Sx - lam * x)))
        reference = float(np.linalg.norm(sqrt_m * Sx))
        rel_residual = residual / reference if reference > 0.0 else 1.0
        euclid_residual = float(np.linalg.norm(Sx - lam * x))
        if trace is not None:
            trace.append((it, lam, rel_residual))
        if reference > 0.0 and residual <= tol * reference:
            break
        # Ritz values sit above the true eigenvalue by at most the Euclidean
        # residual (symmetric Weyl bound), so this shift stays safely below
        # it while collapsing clustered bottom modes onto the block.
        if lam > 0.0 and rel_residual < 5e-3:
            margin = max(20.0 * euclid_residual, 1e-3 * lam)
            sigma = max(sigma, lam - margin)
    else:
        raise EigenConvergenceError(
            f"no convergence after {max_iter} iterations "
            f"(relative residual {rel_residual:.3e})",
            rel_residual,
        )
    x = X[:, 0]
    x = project(x)
    x /= np.linalg.norm(x)
    return lam, inv_sqrt * x


def pencil_eigen(cells: CellSet, kernel: KernelSpec, weight: RadialProfile = UNIT_WEIGHT):
    """:func:`smallest_nonzero_eigen` of ``assemble_p2`` over a cell set,
    solved once per grid.

    Returns (eigenvalue, read-only eigenvector, Ritz trace rows).  The
    solve is kept on the cells' grid, keyed by the cell set, the kernel
    and the weight, so it lives as long as that grid does.  A solve that
    does not converge raises each time and is not kept.
    """
    grid = cells.grid
    key = (cells, kernel, weight)
    solved = grid._eigen.get(key)
    if solved is None:
        trace = []
        lam, vec = smallest_nonzero_eigen(assemble_p2(grid, cells, kernel, weight), trace=trace)
        vec.setflags(write=False)
        solved = grid._eigen[key] = (lam, vec, tuple(trace))
    return solved


def dense_oracle_eigen(pair: QuadraticFormPair) -> np.ndarray:
    """Full spectrum, ascending, of the symmetrized pencil by LAPACK
    (``np.linalg.eigvalsh``).

    Validation oracle for :func:`smallest_nonzero_eigen`, with which it
    shares no code; capped at ``_DENSE_CAP`` = 2,000 cells.
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
    grid: Grid,
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
    contributes a zero entry.  The n probes of a step, ``u + delta e_i``,
    go to each functional in one call as ``Probes(u, delta)``, which
    ``deviation_p_rows`` and ``local_energy_rows`` evaluate without forming
    them.  Those two give every row the float it gives alone, so every
    ratio, iterate and the result are bit-identical to one call per probe.
    The update moves along the normalized gradient, and each iterate is
    re-centered to mean zero against ``weight`` (``UNIT_WEIGHT``, the
    plain mean, by default) and rescaled to unit norm; the ratio is
    invariant under both for the functionals used here.  Each iterate's
    ratio is evaluated once and is the base of the next step's
    differences; a restart, taken when an iterate's rhs is ``<= 0``,
    evaluates its new start.  Deterministic given (u0, steps, step_size);
    returns the best ratio seen and its grid function.  Use as a lower
    bound on the sharp constant for general p.
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
    if steps == 0:
        return start, GridFunction(grid, vals)

    w, w_total = cell_weights(full_cells(grid), weight)

    def recenter(vals):
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        return vals - ksum(vals * w) / w_total

    best_ratio = start
    best_vals = vals.copy()
    n = vals.size
    restarts = 0
    base = start
    for _ in range(steps):
        if base is None:
            restarts += 1
            noise = np.random.default_rng(900 + restarts).standard_normal(n)
            vals = best_vals + 1e-3 * max(np.linalg.norm(best_vals), 1.0) * noise
            base = ratio_of(vals)
            continue
        delta = 1e-6 * np.linalg.norm(vals)
        if delta == 0.0:
            delta = 1e-6
        probes = Probes(vals, delta)
        r, bad = ratios(probes, probes.values, probes.bumped)
        grad = np.where(bad, 0.0, (r - base) / delta)
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            break
        vals = vals + step_size * grad / gnorm
        vals = recenter(vals)
        scale = np.linalg.norm(vals)
        if scale > 0.0:
            vals = vals / scale
        base = ratio_of(vals)
        if base is not None and base > best_ratio:
            best_ratio = base
            best_vals = vals.copy()
    return best_ratio, GridFunction(grid, best_vals)


def estimate_gradient_constant(grid: Grid, radii=()) -> float:
    """Operational unweighted gradient constant at p = 2.

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
