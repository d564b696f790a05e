"""Inequality checks: evaluate both sides, report the realized ratio.

Each check returns an :class:`InequalityReport` holding the left side, the
full right side (constant included), their ratio, and a pass flag at the
check's tolerance.  Each check fixes its own tolerance; none is
settable.  Checks whose discrete form is exact run at zero tolerance; the
two checks comparing independently discretized integrals (truncation
comparability and the truncated fractional bound) allow 5%
(``QUADRATURE_TOL``).  That allowance covers quadrature noise, not the
pair mass inside single cells that the lattice energies omit: that mass
is O(h^(p(1-s))) relative to the energy, both sides omit it, and on
coarse grids with small p(1-s) it can push the truncation ratio past the
allowance although the continuum statement holds (see
:func:`check_truncation_bound`).  When both sides vanish (constant
inputs) the inequality holds vacuously: ratio 0, pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .numerics import ksum
from .weights import RadialProfile, describe_profile, layer_cake
from .grid import GridFunction, ball_cells, deviation_p, full_cells
from .forms import (
    KIND_FLOOR,
    KIND_FRACTIONAL,
    KernelSpec,
    kernel_energy,
    kernel_floor_constant,
    local_energy,
    transfer_constant,
    weighted_gradient_constant,
)

__all__ = [
    "InequalityReport",
    "HypothesisViolation",
    "check_transfer",
    "check_weighted_gradient",
    "check_weighted_kernel",
    "check_kernel_floor",
    "check_truncated_fractional",
    "check_truncation_bound",
    "check_shift_stability",
    "REPORT_COLUMNS",
    "format_value",
    "report_row",
    "write_rows_csv",
    "write_json",
    "reports_to_json",
]

# Tolerance of the two checks that compare independently discretized
# integrals (see the module docstring).
QUADRATURE_TOL = 0.05

# Relative slack for numeric preconditions (absorbs last-ulp rounding when a
# frozen constant was computed from the very quantities being compared).
_PRE_RTOL = 1e-9

REPORT_COLUMNS = (
    "check_id",
    "d",
    "N",
    "p",
    "s",
    "R",
    "profile",
    "lhs",
    "rhs",
    "ratio",
    "constant_used",
    "pass",
)


class HypothesisViolation(ValueError):
    """A per-ball hypothesis failed at a specific atom radius."""

    def __init__(self, message: str, atom: float):
        super().__init__(message)
        self.atom = atom


@dataclass(frozen=True)
class InequalityReport:
    """LHS/RHS of one inequality check plus the pass verdict."""

    check_id: str
    lhs: float
    rhs: float
    ratio: float
    constant_used: float
    passed: bool
    tol: float
    metadata: Mapping[str, object]

    def __post_init__(self):
        if self.lhs < 0.0 or self.rhs < 0.0:
            raise ValueError("both sides of an inequality report must be nonnegative")
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))


def _finish(check_id, lhs, rhs, constant_used, metadata, tol=0.0) -> InequalityReport:
    if lhs == 0.0 and rhs == 0.0:
        ratio, passed = 0.0, True
    elif rhs == 0.0:
        ratio, passed = math.inf, False
    else:
        ratio = lhs / rhs
        passed = ratio <= 1.0 + tol
    return InequalityReport(check_id, lhs, rhs, ratio, constant_used, passed, tol, metadata)


def _meta(grid, p, profile=None, s=None, R=None, **extra) -> dict:
    meta: dict = {"d": grid.d, "N": grid.N, "p": p}
    if s is not None:
        meta["s"] = s
    if R is not None:
        meta["R"] = R
    if profile is not None:
        meta["profile"] = describe_profile(profile)
    meta.update(extra)
    return meta


def _within(lower: float, upper: float) -> bool:
    """lower <= upper, up to relative rounding slack."""
    return lower <= upper or math.isclose(lower, upper, rel_tol=_PRE_RTOL, abs_tol=1e-15)


def check_transfer(
    u: GridFunction,
    profile: RadialProfile,
    F: Callable[[GridFunction, float], float],
    p: float,
) -> InequalityReport:
    """Weighted deviation bound from a per-ball unweighted bound.

    ``F(u, t)`` must dominate the unweighted deviation over the ball of
    radius t (verified at each atom of the weight's layer-cake measure)
    and be shift-invariant; both are checked numerically before the main
    comparison.  The right side integrates F against the atoms and carries
    the transfer constant.
    """
    grid = u.grid
    measure = layer_cake(profile)
    f_terms = []
    for t, w in measure.atoms:
        cells_t = ball_cells(grid, t)
        dev_t = deviation_p(u, cells_t, p)
        f_t = float(F(u, t))
        if not np.isfinite(f_t):
            raise ValueError(f"functional returned non-finite value at atom t={t}")
        if not _within(dev_t, f_t):
            raise HypothesisViolation(
                f"per-ball bound fails at atom t={t}: deviation {dev_t} > F {f_t}",
                atom=t,
            )
        f_terms.append(w * f_t)
    # f_t still holds F(u, t) at the last atom t
    shifted = GridFunction(grid, u.values + 1.0)
    f_shifted = float(F(shifted, measure.atoms[-1][0]))
    if not math.isclose(f_shifted, f_t, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError("functional is not shift-invariant")

    constant = transfer_constant(p, grid.d, profile)
    lhs = deviation_p(u, full_cells(grid), p, profile=profile)
    rhs = constant * ksum(f_terms)
    meta = _meta(grid, p, profile, atoms=measure.radii)
    return _finish("transfer", lhs, rhs, constant, meta)


def check_weighted_gradient(
    u: GridFunction,
    profile: RadialProfile,
    p: float,
    c_hat: float,
) -> InequalityReport:
    """Weighted deviation against the weighted gradient energy."""
    grid = u.grid
    constant = weighted_gradient_constant(p, grid.d, profile, c_hat)
    lhs = deviation_p(u, full_cells(grid), p, profile=profile)
    rhs = constant * local_energy(u, full_cells(grid), p, weight=profile)
    meta = _meta(grid, p, profile, c_hat=c_hat)
    return _finish("gradient", lhs, rhs, constant, meta)


def check_weighted_kernel(
    u: GridFunction,
    profile: RadialProfile,
    kernel: KernelSpec,
    p: float,
    C_unweighted: float,
) -> InequalityReport:
    """Weighted deviation against the min-weighted kernel energy.

    ``C_unweighted`` must make the unweighted per-ball bound hold at every
    atom radius of the weight (checked for the given u); the conclusion
    multiplies it by the transfer constant.
    """
    grid = u.grid
    measure = layer_cake(profile)
    for t, _ in measure.atoms:
        cells_t = ball_cells(grid, t)
        dev_t = deviation_p(u, cells_t, p)
        bound = C_unweighted * kernel_energy(u, cells_t, kernel, p)
        if not _within(dev_t, bound):
            raise HypothesisViolation(
                f"unweighted kernel bound fails at atom t={t}: "
                f"deviation {dev_t} > {bound}",
                atom=t,
            )
    constant = C_unweighted * transfer_constant(p, grid.d, profile)
    lhs = deviation_p(u, full_cells(grid), p, profile=profile)
    rhs = constant * kernel_energy(u, full_cells(grid), kernel, p, weight=profile)
    meta = _meta(grid, p, profile, s=kernel.s, R=kernel.R, C_unweighted=C_unweighted)
    return _finish("kernel", lhs, rhs, constant, meta)


def check_kernel_floor(
    u: GridFunction,
    profile: RadialProfile,
    kernel: KernelSpec,
    p: float,
) -> InequalityReport:
    """Weighted deviation against a kernel bounded below by ``kernel.c``.

    The floor makes the per-ball hypothesis automatic (convexity plus the
    measure of the half ball), so no numeric precondition is needed: the
    constant is ``transfer constant / (c * half-ball measure)`` and the
    energy evaluates the unit kernel.
    """
    if kernel.kind != KIND_FLOOR:
        raise ValueError(f"expected a constant_floor kernel, got {kernel.kind!r}")
    grid = u.grid
    half_measure = ball_cells(grid, 0.5).measure
    constant = kernel_floor_constant(p, grid.d, profile, kernel.c, half_measure)
    lhs = deviation_p(u, full_cells(grid), p, profile=profile)
    rhs = constant * kernel_energy(u, full_cells(grid), kernel, p, weight=profile)
    meta = _meta(grid, p, profile, c=kernel.c, half_measure=half_measure)
    return _finish("kernel_floor", lhs, rhs, constant, meta)


def check_truncated_fractional(
    u: GridFunction,
    profile: RadialProfile,
    p: float,
    s: float,
    R: float,
    C_robust: float,
) -> InequalityReport:
    """Weighted deviation against the truncated fractional energy.

    The right side carries ``C_robust * (1 - s) * R^(p(1-s))``; a single
    ``C_robust`` frozen at one fractional order is meant to serve the whole
    sweep toward s = 1 (that is the robustness being demonstrated).
    """
    grid = u.grid
    kernel = KernelSpec(KIND_FRACTIONAL, s=s, R=R)
    constant = C_robust * (1.0 - s) * R ** (p * (1.0 - s))
    lhs = deviation_p(u, full_cells(grid), p, profile=profile)
    rhs = constant * kernel_energy(u, full_cells(grid), kernel, p, weight=profile)
    meta = _meta(grid, p, profile, s=s, R=R, C_robust=C_robust)
    return _finish("fractional_truncated", lhs, rhs, constant, meta, QUADRATURE_TOL)


def check_truncation_bound(
    u: GridFunction,
    p: float,
    s: float,
    R: float,
) -> InequalityReport:
    """Full fractional energy against ``(3R)^(p(1-s))`` times the truncated one.

    Both energies are the bare lattice sums of :func:`kernel_energy`,
    which omit the pair mass inside single cells.  That mass is
    O(h^(p(1-s))) relative to the energy and the 5% allowance does not
    absorb it on coarse grids.  For the unperturbed eigenfunction of the
    1-d N = 128 suite at p = 1, s = 0.8, R = 5 this check reports ratio
    1.0949 and fails, although with the omitted mass added to both
    energies the ratio is 0.8278.
    """
    grid = u.grid
    cells = full_cells(grid)
    truncated_kernel = KernelSpec(KIND_FRACTIONAL, s=s, R=R)  # refuses R < 1
    lhs = kernel_energy(u, cells, KernelSpec(KIND_FRACTIONAL, s=s), p)
    truncated = kernel_energy(u, cells, truncated_kernel, p)
    factor = (3.0 * R) ** (p * (1.0 - s))
    rhs = factor * truncated
    meta = _meta(grid, p, None, s=s, R=R, truncated_energy=truncated)
    return _finish("truncation", lhs, rhs, factor, meta, QUADRATURE_TOL)


def check_shift_stability(f, a: float, p: float) -> InequalityReport:
    """Shifting a mean-zero vector keeps at least half its p-norm.

    Uses counting measure: ``(sum |f_i + a|^p)^(1/p) >= (sum |f_i|^p)^(1/p) / 2``.
    Exact (zero tolerance); requires the input to sum to zero.
    """
    vals = np.asarray(f, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("input must be a nonempty vector")
    if p < 1.0:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    total = ksum(vals)
    if abs(total) > 1e-12 * max(1.0, ksum(np.abs(vals))):
        raise ValueError(f"input must have zero sum, got {total}")
    norm_f = ksum(np.abs(vals) ** p) ** (1.0 / p)
    norm_shifted = ksum(np.abs(vals + a) ** p) ** (1.0 / p)
    meta = {
        "p": p,
        "n": int(vals.size),
        "shift": a,
        "norm": norm_f,
        "norm_shifted": norm_shifted,
    }
    return _finish("shift", 0.5 * norm_f, norm_shifted, 0.5, meta)


def format_value(value) -> str:
    """CSV text of one report value: the float repr for floats (an
    ``np.float64`` too, whose own repr names its type), lowercase booleans,
    empty for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def report_row(report: InequalityReport) -> dict:
    """One report row in the fixed column order, of values that
    :func:`write_rows_csv` formats (None where the metadata lacks a key)."""
    meta = report.metadata
    return {
        "check_id": report.check_id,
        **{key: meta.get(key) for key in ("d", "N", "p", "s", "R", "profile")},
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": report.ratio,
        "constant_used": report.constant_used,
        "pass": bool(report.passed),
    }


def write_rows_csv(path, columns, rows) -> None:
    """Write dict rows as CSV with the given columns, each value formatted
    by :func:`format_value`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([format_value(row.get(key)) for key in columns] for row in rows)


def write_json(path, rows: list) -> None:
    """Write ``rows`` as a JSON array, one row per line as ``json.dumps``
    writes it (ASCII-escaped strings, ``NaN`` and ``Infinity``), a line at
    a time, so no text of the whole is held."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[")
        handle.writelines(f"{',' if i else ''}\n{json.dumps(row)}" for i, row in enumerate(rows))
        handle.write("\n]\n")


def reports_to_json(reports) -> list[dict]:
    out = []
    for report in reports:
        entry = {
            "check_id": report.check_id,
            "lhs": report.lhs,
            "rhs": report.rhs,
            "ratio": report.ratio,
            "constant_used": report.constant_used,
            "pass": report.passed,
            "tol": report.tol,
            "metadata": dict(report.metadata),
        }
        out.append(entry)
    return out
