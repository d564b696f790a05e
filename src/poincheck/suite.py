"""Deterministic test-function families for the experiment runner.

Four families span the inputs the checks care about: affine fields
(smooth, global), radial bumps (smooth, localized), seeded random fields
smoothed by three neighbor-averaging passes (rough), and the first
nonconstant eigenfunction of the unweighted gradient pair (the p = 2
worst case).  A suite of ``count`` functions cycles through the four
families in that order; everything is reproducible from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction, make_suite
from .sharp import member_eigenvector

__all__ = ["SuiteSpec", "build_suite", "canonical_bump", "smooth_random_field"]

FAMILIES = ("affine", "bump", "random_smooth", "eigen")


@dataclass(frozen=True)
class SuiteSpec:
    seed: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("suite needs at least one function")


def _affine(grid: Grid, rng) -> np.ndarray:
    direction = rng.standard_normal(grid.d)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        direction = np.ones(grid.d)
        norm = np.sqrt(grid.d)
    direction = direction / norm * rng.uniform(0.5, 2.0)
    offset = rng.uniform(-1.0, 1.0)
    return grid.centers @ direction + offset


def _bump(grid: Grid, rng) -> np.ndarray:
    center = rng.uniform(-0.5, 0.5, size=grid.d)
    sigma = rng.uniform(0.2, 0.6)
    sq = np.sum((grid.centers - center) ** 2, axis=1)
    return np.exp(-sq / sigma**2)


def smooth_random_field(grid: Grid, rng, passes: int = 3) -> np.ndarray:
    """White noise tamed by neighbor averaging (rough but grid-resolved)."""
    vals = rng.standard_normal(grid.cell_count)
    for _ in range(passes):
        acc = vals.copy()
        count = np.ones(grid.cell_count)
        for nbrs in (grid.neighbors_up, grid.neighbors_down):
            for a in range(grid.d):
                nb = nbrs[:, a]
                ok = nb >= 0
                acc[ok] += vals[nb[ok]]
                count[ok] += 1.0
        vals = acc / count
    return vals


def _eigenfunction(grid: Grid) -> np.ndarray:
    """The full-ball local eigenvector over its peak, signed so that its
    first moment ``sum_i v_i x_{i,a}`` is positive on the axis a where that
    moment is largest in magnitude (the solver fixes no sign)."""
    vals = member_eigenvector(grid)
    moments = vals @ grid.centers
    axis = int(np.argmax(np.abs(moments)))
    if moments[axis] < 0.0:
        vals = -vals
    peak = np.abs(vals).max()
    return vals / peak if peak > 0.0 else vals


def canonical_bump(grid: Grid) -> GridFunction:
    """The fixed smooth bump used by sweeps (off-center, sigma 0.35)."""
    center = np.zeros(grid.d)
    center[0] = 0.15
    sq = np.sum((grid.centers - center) ** 2, axis=1)
    return GridFunction(grid, np.exp(-sq / 0.35**2))


def build_suite(grid: Grid, spec: SuiteSpec) -> list[GridFunction]:
    """The suite functions for one grid, in deterministic order.

    The eigenfunction is computed once per call; repeated draws from the
    ``eigen`` family add small seeded perturbations so suite members stay
    distinct.  The functions form one suite (:func:`~poincheck.grid.make_suite`),
    so their deviations and pair energies are computed together.
    """
    rng = np.random.default_rng(spec.seed)
    out: list[GridFunction] = []
    base = None  # the eigenfunction, once drawn
    for k in range(spec.count):
        family = FAMILIES[k % len(FAMILIES)]
        if family == "affine":
            vals = _affine(grid, rng)
        elif family == "bump":
            vals = _bump(grid, rng)
        elif family == "random_smooth":
            vals = smooth_random_field(grid, rng)
        elif base is None:
            base = _eigenfunction(grid)
            vals = base.copy()
        else:
            vals = base + 0.05 * rng.standard_normal(grid.cell_count)
        out.append(GridFunction(grid, vals))
    return make_suite(out)
