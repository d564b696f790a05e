"""Shared oracles and helpers for the test suite."""

import math

import numpy as np
import pytest

from poincheck.forms import _kernel_block, _offset_kernel, local_energy
from poincheck.grid import GridFunction, ball_cells, full_cells, weighted_mean
from poincheck.sharp import assemble_p2, smallest_nonzero_eigen
from poincheck.weights import UNIT_WEIGHT, eval_weight, layer_cake


def naive_kernel_energy(u, cells, kernel, p, weight=None):
    """Pure-Python double loop over ordered pairs; the slow oracle."""
    grid = u.grid
    idx = [int(i) for i in cells.indices]
    points = [tuple(float(c) for c in grid.centers[i]) for i in idx]
    values = [float(u.values[i]) for i in idx]
    if weight is not None:
        wvals = [float(eval_weight(weight, float(grid.norms[i]))) for i in idx]
    else:
        wvals = None
    exponent = -(grid.d + p * kernel.s) if kernel.kind == "fractional" else None
    cutoff = 1.0 / kernel.R if getattr(kernel, "R", None) is not None else None
    measure_sq = grid.cell_measure**2
    terms = []
    m = len(idx)
    for a in range(m):
        xa = points[a]
        va = values[a]
        for b in range(m):
            if a == b:
                continue
            xb = points[b]
            if grid.d == 1:
                dist = abs(xa[0] - xb[0])
            else:
                dist = math.hypot(xa[0] - xb[0], xa[1] - xb[1])
            if kernel.kind == "fractional":
                k_val = dist**exponent
                if cutoff is not None and dist > cutoff:
                    k_val = 0.0
            elif kernel.kind == "constant_floor":
                k_val = 1.0
            else:
                raise ValueError(kernel.kind)
            w = 1.0 if wvals is None else min(wvals[a], wvals[b])
            du = abs(va - values[b])
            terms.append(du**p * k_val * w * measure_sq)
    return math.fsum(terms)


def centre_difference_kernel_energy(u, cells, kernel, p, weight=None):
    """Pair energy with the kernel of every center difference ``x_i - x_j``.

    The formula ``kernel_energy`` used before the lattice-offset table:
    the same blocks, multiply order and exactly rounded row sums, but the
    distances ``norm(x_i - x_j)`` and the kernel recomputed on each block.
    """
    grid = u.grid
    idx = cells.indices
    X = grid.centers[idx]
    v = u.values[idx]
    m = idx.size
    phi = eval_weight(weight, grid.norms[idx]) if weight is not None else None
    row_sums = []
    for start in range(0, m, 256):
        stop = min(start + 256, m)
        dist = np.linalg.norm(X[start:stop, None, :] - X[None, :, :], axis=2)
        terms = np.abs(v[start:stop, None] - v[None, :]) ** p
        terms = terms * _kernel_block(dist, kernel, p, grid.d)
        if phi is not None:
            terms = terms * np.minimum(phi[start:stop, None], phi[None, :])
        rows = np.arange(start, stop)
        terms[rows - start, rows] = 0.0
        row_sums.extend(math.fsum(row.tolist()) for row in terms)
    return math.fsum(row_sums) * grid.cell_measure**2


def fsum_pair_energy(u, cells, kernel, p, weight=UNIT_WEIGHT):
    """Pair energy with one ``math.fsum`` per row of each block.

    The formula ``kernel_energy`` used before its rows were summed by the
    extraction kernel of ``ksum_rows``: the same lattice-offset kernel
    table, blocks and multiply order.  An exactly rounded sum is unique,
    so the two agree bit for bit.
    """
    grid = u.grid
    idx = cells.indices
    table, keys, center = _offset_kernel(grid, kernel, p)
    v = u.values[idx]
    m = idx.size
    phi = eval_weight(weight, grid.norms[idx])
    row_sums = []
    for start in range(0, m, 256):
        stop = min(start + 256, m)
        terms = np.abs(v[start:stop, None] - v[None, :]) ** p
        terms = terms * table[keys[idx[start:stop], None] + center - keys[None, idx]]
        terms = terms * np.minimum(phi[start:stop, None], phi[None, :])
        rows = np.arange(start, stop)
        terms[rows - start, rows] = 0.0
        row_sums.extend(math.fsum(row.tolist()) for row in terms)
    return math.fsum(row_sums) * grid.cell_measure**2


def pair_term_matrix(u, cells, kernel, p, weight=UNIT_WEIGHT):
    """Every term ``|u_i - u_j|^p K_ij W_ij`` of the pair energy at once, as
    an (m, m) matrix with zero diagonal, formed as in ``fsum_pair_energy``."""
    grid = u.grid
    idx = cells.indices
    table, keys, center = _offset_kernel(grid, kernel, p)
    v = u.values[idx]
    phi = eval_weight(weight, grid.norms[idx])
    terms = np.abs(v[:, None] - v[None, :]) ** p
    terms = terms * table[keys[idx, None] + center - keys[None, idx]]
    terms = terms * np.minimum(phi[:, None], phi[None, :])
    np.fill_diagonal(terms, 0.0)
    return terms


def centre_difference_pair_matrix(grid, cells, kernel, weight=None):
    """``pair_coefficient_matrix`` with the kernel of every center difference
    (at p = 2, the exponent of the form)."""
    idx = cells.indices
    X = grid.centers[idx]
    dist = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    C = _kernel_block(dist, kernel, 2.0, grid.d)
    if weight is not None:
        phi = eval_weight(weight, grid.norms[idx])
        C = C * np.minimum(phi[:, None], phi[None, :])
    np.fill_diagonal(C, 0.0)
    return C * grid.cell_measure**2


def product_pair_matrix(grid, cells, kernel, weight=UNIT_WEIGHT):
    """``pair_coefficient_matrix`` as it was before it scaled in place:
    each factor applied as a fresh n x n product."""
    idx = cells.indices
    table, keys, center = _offset_kernel(grid, kernel, 2.0)
    phi = eval_weight(weight, grid.norms[idx])
    C = table[keys[idx, None] + center - keys[None, idx]]
    C = C * np.minimum(phi[:, None], phi[None, :])
    np.fill_diagonal(C, 0.0)
    return C * grid.cell_measure**2


def kernel_pencil_matrix(grid, cells, kernel, weight=UNIT_WEIGHT):
    """The dense kernel energy at p = 2 as ``assemble_p2`` built it before
    it worked in place: ``2 (diag(row sums) - C)`` from fresh matrices."""
    C = product_pair_matrix(grid, cells, kernel, weight)
    return 2.0 * (np.diag(C.sum(axis=1)) - C)


def per_atom_transfer_matrix(grid, profile):
    """The dense transfer energy at p = 2, accumulated atom by atom as
    ``assemble_transfer_p2`` did before the nested rank-one operator."""
    n = grid.cell_count
    A = np.zeros((n, n))
    for t, w in layer_cake(profile).atoms:
        if w == 0.0:
            continue
        ball = ball_cells(grid, t).indices
        A[np.ix_(ball, ball)] -= w * grid.cell_measure / ball.size
        A[ball, ball] += w * grid.cell_measure
    return A


def set_by_set_dense(operator):
    """The dense form of a ``NestedRankOne`` as ``dense()`` accumulated it
    before its per-depth tables: set by set, innermost first."""
    A = np.zeros(operator.shape)
    for t in range(operator.coef.size, 0, -1):
        S = np.flatnonzero(operator.depth >= t)
        A[np.ix_(S, S)] -= operator.coef[t - 1]
        A[S, S] += operator.set_diag[t - 1]
    return A


def subgrid_pair_mass(u, cells, p, s):
    """Fractional pair mass inside single cells, which the lattice sum omits.

    ``kernel_energy`` sums ``|u_i - u_j|^p |x_i - x_j|^-(d+ps) h^(2d)``
    over cell pairs ``i != j``; the continuum energy also integrates over
    pairs ``x, y`` in the same cell.  In 1-d, with ``u`` affine of slope
    ``g_i`` on cell ``i = [c, c + h]`` and ``a = p(1-s) > 0``::

        int_c^{c+h} int_c^{c+h} |g_i|^p |x - y|^(p - 1 - ps) dx dy
            = |g_i|^p * 2 int_0^h (h - t) t^(a-1) dt
            = |g_i|^p * 2 h^(a+1) / (a (a+1)).

    Summed over cells, with ``local_energy = sum |g_i|^p h``, this is
    ``2 h^a / (a (a+1)) * local_energy(u, cells, p)``.  Relative to the
    energy it is O(h^a), which is large on coarse grids when ``a`` is
    small.  The cell diameter ``h`` lies below every truncation radius
    ``1/R`` in use, so full and truncated energies omit the same mass.
    """
    grid = u.grid
    if grid.d != 1:
        raise ValueError(f"sub-grid pair mass is derived for d = 1 only, got d = {grid.d}")
    a = p * (1.0 - s)
    return 2.0 * grid.h**a / (a * (a + 1.0)) * local_energy(u, cells, p)


def naive_local_energy(u, cells, p, weight=None):
    """Per-cell forward differences, written as plainly as possible."""
    grid = u.grid
    members = set(int(i) for i in cells.indices)
    terms = []
    for i in members:
        sq = 0.0
        for a in range(grid.d):
            nb = int(grid.neighbors_up[i, a])
            if nb >= 0 and nb in members:
                sq += ((float(u.values[nb]) - float(u.values[i])) / grid.h) ** 2
        w = 1.0 if weight is None else eval_weight(weight, float(grid.norms[i]))
        terms.append(sq ** (p / 2.0) * w * grid.cell_measure)
    return math.fsum(terms)


def deviation_about(u, cells, p, profile, c):
    """``sum |u_i - c|^p w_i h^d`` over the cell set about a given center
    ``c``, as one ``math.fsum``: the deviation about a point other than
    the weighted mean, which ``deviation_p`` does not take."""
    grid = u.grid
    idx = cells.indices
    w = eval_weight(profile, grid.norms[idx])
    return math.fsum((np.abs(u.values[idx] - c) ** p * w * grid.cell_measure).tolist())


def formed_rows(probes):
    """The (n, n) matrix of the rows ``values + delta * e_i`` that
    ``grid.Probes`` stand for, formed."""
    rows = np.tile(probes.values, (len(probes), 1))
    diag = np.arange(len(probes))
    rows[diag, diag] += probes.delta
    return rows


def per_probe_ratio_ascent(
    grid, lhs_functional, rhs_functional, u0, steps, step_size, weight=None
):
    """``ratio_ascent`` with one call of each functional per probe.

    The loop ``sharp.ratio_ascent`` ran before it evaluated the probes of
    a step together; the functionals here take one ``GridFunction`` and
    return one float.  Kept as the slow oracle of the one-call version;
    ``weight=None`` recenters to the plain mean of its own.
    """

    def ratio_of(vals):
        u = GridFunction(grid, vals)
        denom = rhs_functional(u)
        if denom <= 0.0:
            return None
        return lhs_functional(u) / denom

    def recenter(vals):
        if weight is None:
            return vals - math.fsum(vals.tolist()) / vals.size
        return vals - weighted_mean(GridFunction(grid, vals), weight)

    vals = np.array(u0.values, dtype=float)
    start = ratio_of(vals)
    if start is None:
        raise ValueError("rhs functional must be positive at the starting point")
    if steps == 0:
        return start, GridFunction(grid, vals)

    best_ratio = start
    best_vals = vals.copy()
    n = vals.size
    restarts = 0
    for _ in range(steps):
        base = ratio_of(vals)
        if base is None:
            restarts += 1
            noise = np.random.default_rng(900 + restarts).standard_normal(n)
            vals = best_vals + 1e-3 * max(np.linalg.norm(best_vals), 1.0) * noise
            continue
        delta = 1e-6 * np.linalg.norm(vals)
        if delta == 0.0:
            delta = 1e-6
        grad = np.zeros(n)
        for i in range(n):
            bumped = vals.copy()
            bumped[i] += delta
            r = ratio_of(bumped)
            grad[i] = 0.0 if r is None else (r - base) / delta
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            break
        vals = vals + step_size * grad / gnorm
        vals = recenter(vals)
        scale = np.linalg.norm(vals)
        if scale > 0.0:
            vals = vals / scale
        r = ratio_of(vals)
        if r is not None and r > best_ratio:
            best_ratio = r
            best_vals = vals.copy()
    return best_ratio, GridFunction(grid, best_vals)


def random_step_profile(rng, max_steps=10):
    """Random valid step profile (positive nonincreasing levels)."""
    from poincheck.weights import make_step_profile

    m = int(rng.integers(0, max_steps + 1))
    breaks = np.sort(rng.uniform(0.02, 0.98, size=m))
    while len(np.unique(breaks)) != m:
        breaks = np.sort(rng.uniform(0.02, 0.98, size=m))
    values = np.sort(rng.uniform(0.01, 10.0, size=m + 1))[::-1]
    return make_step_profile(breaks.tolist(), values.tolist())


@pytest.fixture
def rng():
    return np.random.default_rng(20240605)


def add_at_local_matrix(grid, cells, weight=UNIT_WEIGHT):
    """The dense local gradient matrix at p = 2 as it was assembled before
    the edge list: per axis, four ``np.add.at`` over the neighbor pairs."""
    n = len(cells)
    idx = cells.indices
    phi = eval_weight(weight, grid.norms[idx])
    A = np.zeros((n, n))
    local_of = -np.ones(grid.cell_count, dtype=np.int64)
    local_of[idx] = np.arange(n)
    mask = cells.mask()
    coef_scale = grid.h ** (grid.d - 2)
    for a in range(grid.d):
        nb = grid.neighbors_up[idx, a]
        ok = (nb >= 0) & mask[np.clip(nb, 0, None)]
        i_loc = np.flatnonzero(ok)
        j_loc = local_of[nb[ok]]
        coef = phi[i_loc] * coef_scale
        np.add.at(A, (i_loc, i_loc), coef)
        np.add.at(A, (j_loc, j_loc), coef)
        np.add.at(A, (i_loc, j_loc), -coef)
        np.add.at(A, (j_loc, i_loc), -coef)
    return A


def sharp_constant_p2(grid, kernel, weight=UNIT_WEIGHT):
    """Empirical best constant of the p = 2 inequality on the full ball."""
    lam, _ = smallest_nonzero_eigen(assemble_p2(grid, full_cells(grid), kernel, weight))
    return 1.0 / lam
