"""Experiment orchestration: verify / sharp / sweep runs over a config.

Verify rows come in a fixed order: the shift rows, one block per p; then
per N and p each profile's rows by check, kernel or sweep point and suite
index, and then that (N, p)'s truncation rows.  All reductions are exactly
rounded and every random draw derives from the config seed, so a run's
CSV output is byte-identical across repetitions.

Each weighted constant is a per-ball unweighted constant times the
transfer factor.  The per-ball constants are frozen from data on a
:class:`_Case` (one grid, suite and p), as maxima over the atom radii,
and then reused unchanged.  :func:`_constant` alone chooses how a
constant is found, frozen or sharp: an eigensolve, the maximum over the
suite, or ratio ascent.  Which constant each command freezes, and on what:

- ``verify`` freezes ĉ (gradient check) on the largest grid and uses it
  on every grid; the kernel bounds and the robust fractional constant on
  each grid's own suite.
- ``sharp`` freezes ĉ and the kernel bounds on each grid's own suite;
  they enter only its paper constants.
- ``sweep`` freezes the robust fractional constant on the canonical bump.

The frozen constants appear only in the verify JSON metadata
(``c_hat``, ``C_unweighted``, ``C_robust``); the CSVs carry the
constants they produce.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import ksum_rows
from .weights import describe_profile, layer_cake
from .grid import Grid, ball_cells, build_grid, cell_weights, full_cells
from .grid import deviation_p, deviation_p_rows
from .forms import (
    KIND_FLOOR,
    KIND_FRACTIONAL,
    KIND_LOCAL,
    KernelSpec,
    kernel_energies,
    kernel_energy,
    kernel_floor_constant,
    kernel_to_json,
    local_energy,
    local_energy_rows,
    transfer_constant,
    weighted_gradient_constant,
)
from .inequalities import (
    REPORT_COLUMNS,
    check_kernel_floor,
    check_shift_stability,
    check_transfer,
    check_truncated_fractional,
    check_truncation_bound,
    check_weighted_gradient,
    check_weighted_kernel,
    report_row,
    reports_to_json,
    write_json,
    write_rows_csv,
)
from .sharp import (
    EigenConvergenceError,
    assemble_transfer_p2,
    estimate_gradient_constant,
    pencil_eigen,
    ratio_ascent,
    smallest_nonzero_eigen,
)
from .suite import build_suite, canonical_bump
from .config import ConfigError, ExperimentConfig

__all__ = ["RunResult", "run_verify", "run_sharp", "run_sweep"]

SHARP_COLUMNS = (
    "target", "d", "N", "p", "profile", "kernel", "method", "eigenvalue",
    "empirical_constant", "paper_constant", "gap_factor", "residual", "pass",
)

SWEEP_COLUMNS = (
    "d", "N", "p", "profile", "s", "R", "fractional_energy", "scaled_energy",
    "gradient_energy", "gradient_limit_ratio", "fractional_check_ratio",
    "truncation_check_ratio", "pass",
)

# A trace row names its sharp row by the same leading columns.
TRACE_COLUMNS = SHARP_COLUMNS[:6] + ("iteration", "eigenvalue", "residual")

_ASCENT_STEP_SIZE = 0.05  # length of each normalized ratio-ascent step


@dataclass
class RunResult:
    rows: list[dict]
    all_passed: bool
    csv_path: str
    json_path: str


def _write_reports(out_dir, config, columns, rows, payload, all_passed) -> RunResult:
    """Write one command's rows as CSV and ``payload`` as JSON into ``out_dir``."""
    csv_path = os.path.join(out_dir, config.csv_name)
    json_path = os.path.join(out_dir, config.json_name)
    write_rows_csv(csv_path, columns, rows)
    write_json(json_path, payload)
    return RunResult(rows, all_passed, csv_path, json_path)


def _union_atom_radii(config: ExperimentConfig) -> tuple[float, ...]:
    radii = set()
    for profile in config.profiles:
        radii.update(layer_cake(profile).radii)
    return tuple(sorted(radii))


def _kernels_of(config: ExperimentConfig, kind: str) -> list[KernelSpec]:
    return [k for k in config.kernels if k.kind == kind]


def _freeze_order(sweep_s) -> float:
    return 0.5 if 0.5 in sweep_s else min(sweep_s)


def _sweep_points(config: ExperimentConfig) -> list[tuple[float, float]]:
    """The (s, R) sweep grid in row order: s, then R."""
    return [(s, R) for s in config.sweep_s for R in config.sweep_R]


@dataclass
class _Case:
    """One (grid, suite, p) of a command; its frozen constants are
    computed on first use, so a check that is not requested costs
    nothing.  ``c_hat_from`` is the case whose ĉ this one uses (verify:
    the same p on the largest grid); None means its own."""

    config: ExperimentConfig
    grid: Grid
    suite: list
    p: float
    radii: tuple
    c_hat_from: _Case | None = None

    @cached_property
    def c_hat(self) -> float:
        """Unweighted per-ball gradient constant: the max of deviation /
        (t^p gradient energy).  ``radii`` holds the unit ball, the last
        atom of every layer-cake measure."""
        if self.c_hat_from is not None:
            return self.c_hat_from.c_hat
        return _constant(self, KernelSpec(KIND_LOCAL), scale=lambda t: t**self.p).value

    @cached_property
    def kernel_constants(self) -> dict[KernelSpec, float]:
        """Per fractional kernel, the max of deviation / kernel energy."""
        return {k: _constant(self, k).value for k in _kernels_of(self.config, KIND_FRACTIONAL)}

    @cached_property
    def robust_constant(self) -> float:
        """Max of deviation / ((1-s0) t^(p s0) energy) at the freeze order s0."""
        p, s0 = self.p, _freeze_order(self.config.sweep_s)
        kernel = KernelSpec(KIND_FRACTIONAL, s=s0)
        return _constant(self, kernel, scale=lambda t: (1.0 - s0) * t ** (p * s0)).value


@dataclass(frozen=True)
class _Constant:
    """A constant and how it was found.  ``value`` is None when its
    eigensolve did not converge, with the last ``residual``; a converged
    eigensolve gives its ``eigenvalue``, and every eigensolve its ``trace``
    rows."""

    value: float | None
    method: str
    eigenvalue: float | None = None
    residual: float | None = None
    trace: tuple = ()


def _constant(case, energy, profile=None, scale=lambda t: 1.0) -> _Constant:
    """The best C in ``deviation <= C * energy`` on the case's grid at its
    p.  ``energy`` is a kernel (``KernelSpec(KIND_LOCAL)``: the gradient
    energy), or None for the transfer rhs, which needs a profile.

    - With ``profile``, the sharp constant on the full ball under that
      weight: ``1 / lambda`` of the p = 2 pencil (value None if the solve
      does not converge, with its residual, or if the weight, the mass,
      vanishes on a cell), else the ratio ascent from ``suite[0]``, which
      has the transfer and gradient targets only.
    - Without, the frozen constant: the max over the case's radii t and
      its suite of ``dev / (scale(t) * energy)`` on the ball of radius t,
      or 1 if no deviation is nonzero.  At p = 2 the gradient constant
      comes from eigensolves instead, scaled by t^2.
    """
    grid, p = case.grid, case.p
    if profile is None:
        local = energy.kind == KIND_LOCAL
        if p == 2.0 and local:
            return _Constant(estimate_gradient_constant(grid, case.radii), "eigen")
        balls = [(t, ball_cells(grid, t)) for t in case.radii]
        best = 0.0
        for u in case.suite:
            for t, cells in balls:
                dev = deviation_p(u, cells, p)
                e = local_energy(u, cells, p) if local else kernel_energy(u, cells, energy, p)
                if e == 0.0:
                    if dev == 0.0:
                        continue
                    raise ConfigError(
                        f"energy vanishes on ball t={t} for a nonconstant suite function; "
                        "the constant cannot be frozen"
                    )
                best = max(best, dev / (scale(t) * e))
        return _Constant(best or 1.0, "suite")
    if p != 2.0:
        lhs, transfer_rhs, gradient_rhs = _ascent_functionals(grid, profile, p)
        rhs = transfer_rhs if energy is None else gradient_rhs
        ratio, _ = ratio_ascent(
            lhs, rhs, case.suite[0], case.config.ascent_steps, _ASCENT_STEP_SIZE, weight=profile
        )
        return _Constant(ratio, "ascent")
    if np.any(cell_weights(full_cells(grid), profile)[0] <= 0.0):
        return _Constant(None, "eigen")
    try:
        if energy is None:
            trace = []
            lam, _ = smallest_nonzero_eigen(assemble_transfer_p2(grid, profile), trace=trace)
        else:
            lam, _, trace = pencil_eigen(full_cells(grid), energy, profile)
    except EigenConvergenceError as exc:
        return _Constant(None, "eigen", residual=exc.residual, trace=exc.trace)
    return _Constant(1.0 / lam, "eigen", lam, trace=tuple(trace))


def _cases(config: ExperimentConfig, N: int, radii) -> list[_Case]:
    """The cases of one grid size, one per exponent, sharing one suite."""
    grid = build_grid(config.dimension, N)
    suite = build_suite(grid, config.suite)
    return [_Case(config, grid, suite, p, radii) for p in config.p_values]


def _transfer_reports(case, profile):
    grid, p = case.grid, case.p

    def per_ball(u, t):
        return deviation_p(u, ball_cells(grid, t), p)

    return [check_transfer(u, profile, per_ball, p) for u in case.suite]


def _gradient_reports(case, profile):
    return [check_weighted_gradient(u, profile, case.p, case.c_hat) for u in case.suite]


def _fill_full_ball(case, kernels):
    """Fill the full-ball pair energies of the suite under every profile by
    one :func:`kernel_energies` call per kernel, so each strip is formed
    once for all profiles.  A row function calls it on the kernels it
    iterates before its first check reads one: a key read first is filled
    alone."""
    cells = full_cells(case.grid)
    for kernel in kernels:
        kernel_energies(case.suite[0], cells, kernel, case.p, case.config.profiles)


def _kernel_reports(case, profile):
    kernels = _kernels_of(case.config, KIND_FRACTIONAL)
    _fill_full_ball(case, kernels)
    return [
        check_weighted_kernel(u, profile, kernel, case.p, case.kernel_constants[kernel])
        for kernel in kernels
        for u in case.suite
    ]


def _kernel_floor_reports(case, profile):
    kernels = _kernels_of(case.config, KIND_FLOOR)
    _fill_full_ball(case, kernels)
    return [
        check_kernel_floor(u, profile, kernel, case.p)
        for kernel in kernels
        for u in case.suite
    ]


def _fractional_truncated_reports(case, profile):
    p, config = case.p, case.config
    points = _sweep_points(config)
    _fill_full_ball(case, [KernelSpec(KIND_FRACTIONAL, s=s, R=R) for s, R in points])
    s0 = _freeze_order(config.sweep_s)
    constant = transfer_constant(p, case.grid.d, profile) * 3.0 ** (p * (1.0 - s0))
    constant = constant * case.robust_constant
    return [
        check_truncated_fractional(u, profile, p, s, R, constant)
        for s, R in points
        for u in case.suite
    ]


def _truncation_reports(case):
    return [
        check_truncation_bound(u, case.p, s, R)
        for s, R in _sweep_points(case.config)
        for u in case.suite
    ]


# The checks that run once per (grid, p, profile), in row order.  Each
# entry calls its check function by its module-global name when it runs.
# "truncation" runs once per (grid, p) after them, "shift" once per p
# before every grid.
_PROFILE_CHECKS = {
    "transfer": _transfer_reports,
    "gradient": _gradient_reports,
    "kernel": _kernel_reports,
    "kernel_floor": _kernel_floor_reports,
    "fractional_truncated": _fractional_truncated_reports,
}


def run_verify(config: ExperimentConfig, out_dir) -> RunResult:
    """Run every requested check over the configured cross product.

    Writes the report CSV and JSON into ``out_dir``; the result's
    ``all_passed`` drives the process exit status.
    """
    os.makedirs(out_dir, exist_ok=True)
    reports = []
    for check, kind in (("kernel", KIND_FRACTIONAL), ("kernel_floor", KIND_FLOOR)):
        if check in config.checks and not _kernels_of(config, kind):
            raise ConfigError(f"the {check} check requires a {kind} kernel under 'kernels'")
    radii = _union_atom_radii(config)

    if "shift" in config.checks:
        for p in config.p_values:
            rng = np.random.default_rng((config.suite.seed, 104729))
            for _ in range(config.suite.count):
                n = int(rng.integers(2, 51))
                f = rng.standard_normal(n)
                f = f - f.mean()
                a = float(rng.uniform(-10.0, 10.0))
                reports.append(check_shift_stability(f, a, p))

    cases_of = {N: _cases(config, N, radii) for N in config.grid_sizes}
    largest = cases_of[max(config.grid_sizes)]
    for N in config.grid_sizes:
        for case, frozen in zip(cases_of[N], largest):
            if case is not frozen:
                case.c_hat_from = frozen
            for profile in config.profiles:
                for name, check_reports in _PROFILE_CHECKS.items():
                    if name in config.checks:
                        reports.extend(check_reports(case, profile))
            if "truncation" in config.checks:
                reports.extend(_truncation_reports(case))

    rows = [report_row(r) for r in reports]
    passed = all(r.passed for r in reports)
    return _write_reports(
        out_dir, config, REPORT_COLUMNS, rows, reports_to_json(reports), passed
    )


def _sharp_row(target, method, eigenvalue, empirical, paper, residual=None):
    """A sharp row passes when its empirical constant is at most the paper's."""
    return dict(
        target,
        method=method,
        eigenvalue=eigenvalue,
        empirical_constant=empirical,
        paper_constant=paper,
        gap_factor=(paper / empirical) if (empirical and empirical > 0.0) else None,
        residual=residual,
        **{"pass": empirical is not None and empirical <= paper},
    )


def _ascent_functionals(grid, profile, p):
    """Row functionals of the two ascent targets: the weighted deviation
    (lhs), the transfer rhs ``sum_t w_t * deviation_p(u, B_t, p)`` over the
    layer-cake atoms, whose balls take one ``deviation_p_rows`` call, and
    the weighted gradient energy (rhs)."""
    whole = full_cells(grid)
    balls = [ball_cells(grid, t) for t, _ in layer_cake(profile).atoms]
    masses = np.array([[w] for _, w in layer_cake(profile).atoms])

    def lhs(values):
        return deviation_p_rows(values, whole, p, profile=profile)

    def transfer_rhs(values):
        return ksum_rows((masses * deviation_p_rows(values, balls, p)).T)

    def gradient_rhs(values):
        return local_energy_rows(values, whole, p, weight=profile)

    return lhs, transfer_rhs, gradient_rhs


def _sharp_targets(case, profile):
    """The sharp targets of one case and profile, in row order: (name,
    kernel label, energy for :func:`_constant`, paper constant).  The
    kernel targets are eigensolves only, so they exist at p = 2 alone."""
    grid, p = case.grid, case.p
    paper = transfer_constant(p, grid.d, profile)
    targets = [
        ("transfer", "", None, paper),
        ("gradient", KIND_LOCAL, KernelSpec(KIND_LOCAL),
         weighted_gradient_constant(p, grid.d, profile, case.c_hat)),
    ]
    if p != 2.0:
        return targets
    for kernel in case.config.kernels:
        if kernel.kind == KIND_FLOOR:
            half_measure = ball_cells(grid, 0.5).measure
            paper_k = kernel_floor_constant(p, grid.d, profile, kernel.c, half_measure)
        else:
            paper_k = case.kernel_constants[kernel] * paper
        label = json.dumps(kernel_to_json(kernel), separators=(",", ":"))
        targets.append(("kernel", label, kernel, paper_k))
    return targets


def run_sharp(config: ExperimentConfig, out_dir) -> RunResult:
    """Estimate sharp constants per configuration and compare to the
    explicit ones (eigensolve at p = 2, ratio ascent otherwise).  Always
    writes the trace CSV: one row per step of each eigensolve, failed or
    converged."""
    os.makedirs(out_dir, exist_ok=True)
    rows: list[dict] = []
    traces: list[dict] = []
    radii = _union_atom_radii(config)

    for N in config.grid_sizes:
        for case in _cases(config, N, radii):
            for profile in config.profiles:
                desc = describe_profile(profile)
                base = {"d": config.dimension, "N": N, "p": case.p, "profile": desc, "kernel": ""}
                for name, kernel, energy, paper in _sharp_targets(case, profile):
                    target = dict(base, target=name, kernel=kernel)
                    c = _constant(case, energy, profile)
                    traces.extend(
                        dict(target, iteration=it, eigenvalue=lam, residual=res)
                        for it, lam, res in c.trace
                    )
                    rows.append(_sharp_row(target, c.method, c.eigenvalue, c.value, paper, c.residual))

    passed = all(row["pass"] for row in rows)
    result = _write_reports(out_dir, config, SHARP_COLUMNS, rows, rows, passed)
    write_rows_csv(os.path.join(out_dir, config.trace_name), TRACE_COLUMNS, traces)
    return result


def run_sweep(config: ExperimentConfig, out_dir) -> RunResult:
    """Tabulate scaled fractional energies and check ratios over (s, R).

    Uses the canonical bump as the fixed field (a one-function suite);
    one row per grid, p, profile, and sweep point.  The fractional energy
    column is the full energy of the truncation check; the scaled energy
    column exhibits the boundedness of ``(1 - s) * fractional energy`` on
    a fixed grid; the check ratio columns are the verify-mode checks,
    with the robust constant frozen on the bump.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows: list[dict] = []
    radii = _union_atom_radii(config)
    for N in config.grid_sizes:
        grid = build_grid(config.dimension, N)
        u = canonical_bump(grid)
        for p in config.p_values:
            case = _Case(config, grid, [u], p, radii)
            # Every profile's fractional rows first: they fill the truncated
            # kernels' energies that the truncation rows read.
            fractional = [_fractional_truncated_reports(case, profile) for profile in config.profiles]
            truncations = _truncation_reports(case)
            grad_energy = local_energy(u, full_cells(grid), p)
            for frac_checks in fractional:
                for frac_check, trunc_check in zip(frac_checks, truncations):
                    meta = frac_check.metadata
                    frac = trunc_check.lhs
                    scaled = (1.0 - meta["s"]) * frac
                    limit = scaled / grad_energy if grad_energy > 0.0 else None
                    rows.append({
                        **{key: meta[key] for key in ("d", "N", "p", "profile", "s", "R")},
                        "fractional_energy": frac,
                        "scaled_energy": scaled,
                        "gradient_energy": grad_energy,
                        "gradient_limit_ratio": limit,
                        "fractional_check_ratio": frac_check.ratio,
                        "truncation_check_ratio": trunc_check.ratio,
                        "pass": frac_check.passed and trunc_check.passed,
                    })
    passed = all(row["pass"] for row in rows)
    return _write_reports(out_dir, config, SWEEP_COLUMNS, rows, rows, passed)
