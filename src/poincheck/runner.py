"""Experiment orchestration: verify / sharp / sweep runs over a config.

Rows are produced in a fixed nesting order (N, then p, then check, then
profile, kernel, sweep axes, suite index), all reductions are exactly
rounded, and every random draw derives from the config seed, so a run's
CSV output is byte-identical across repetitions.  Empirically frozen
constants (the unweighted kernel bound, the robust fractional constant,
the general-p gradient constant) are estimated as maxima over the suite
and the atom radii, recorded in row metadata, then reused unchanged.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .numerics import ksum_rows
from .weights import describe_profile, layer_cake
from .grid import ball_cells, build_grid, deviation_p, deviation_p_rows, full_cells
from .forms import (
    KIND_FLOOR,
    KIND_FRACTIONAL,
    KIND_LOCAL,
    KernelSpec,
    kernel_energy,
    local_energy,
    local_energy_rows,
    transfer_constant,
    weighted_gradient_constant,
)
from .inequalities import (
    check_kernel_floor,
    check_shift_stability,
    check_transfer,
    check_truncated_fractional,
    check_truncation_bound,
    check_weighted_gradient,
    check_weighted_kernel,
    report_row,
    reports_to_json,
    write_reports_csv,
)
from .sharp import (
    EigenConvergenceError,
    assemble_p2,
    assemble_transfer_p2,
    estimate_gradient_constant,
    ratio_ascent,
    smallest_nonzero_eigen,
)
from .suite import build_suite, canonical_bump
from .config import ConfigError, ExperimentConfig

__all__ = ["RunResult", "run_verify", "run_sharp", "run_sweep"]

SHARP_COLUMNS = (
    "target",
    "d",
    "N",
    "p",
    "profile",
    "kernel",
    "method",
    "eigenvalue",
    "empirical_constant",
    "paper_constant",
    "gap_factor",
    "residual",
    "pass",
)

SWEEP_COLUMNS = (
    "d",
    "N",
    "p",
    "profile",
    "s",
    "R",
    "fractional_energy",
    "scaled_energy",
    "gradient_energy",
    "gradient_limit_ratio",
    "fractional_check_ratio",
    "truncation_check_ratio",
    "pass",
)

TRACE_COLUMNS = ("target", "d", "N", "p", "profile", "kernel", "iteration", "eigenvalue", "residual")


@dataclass
class RunResult:
    rows: list[dict]
    all_passed: bool
    csv_path: str
    json_path: str


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in columns})


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def _union_atom_radii(config: ExperimentConfig) -> tuple[float, ...]:
    radii = set()
    for profile in config.profiles:
        radii.update(layer_cake(profile).radii)
    return tuple(sorted(radii))


def _kernels_of(config: ExperimentConfig, kind: str) -> list[KernelSpec]:
    return [k for k in config.kernels if k.kind == kind]


def _frozen_kernel_constant(grid, suite, p, kernel, radii) -> float:
    """Max over suite and ball radii of deviation / kernel energy."""
    best = 0.0
    for u in suite:
        for t in radii:
            cells = ball_cells(grid, t)
            dev = deviation_p(u, cells, p)
            energy = kernel_energy(u, cells, kernel)
            if energy == 0.0:
                if dev == 0.0:
                    continue
                raise ConfigError(
                    f"kernel energy vanishes on ball t={t} for a nonconstant "
                    "suite function; the unweighted bound cannot be frozen"
                )
            best = max(best, dev / energy)
    if best == 0.0:
        best = 1.0
    return best


def _frozen_robust_constant(grid, suite, p, s0, radii) -> float:
    """Max over suite and radii of deviation / ((1-s0) t^(p s0) energy)."""
    kernel = KernelSpec(KIND_FRACTIONAL, p=p, s=s0)
    best = 0.0
    for u in suite:
        for t in radii:
            cells = ball_cells(grid, t)
            dev = deviation_p(u, cells, p)
            energy = kernel_energy(u, cells, kernel)
            if energy == 0.0:
                if dev == 0.0:
                    continue
                raise ConfigError(
                    f"fractional energy vanishes on ball t={t} for a nonconstant "
                    "suite function; the robust constant cannot be frozen"
                )
            best = max(best, dev / ((1.0 - s0) * t ** (p * s0) * energy))
    if best == 0.0:
        best = 1.0
    return best


def _suite_gradient_constant(grid, suite, p, radii) -> float:
    """General-p fallback for the per-ball gradient constant (suite max)."""
    best = 0.0
    for u in suite:
        for t in radii:
            cells = ball_cells(grid, t)
            dev = deviation_p(u, cells, p)
            energy = local_energy(u, cells, p)
            if energy == 0.0:
                if dev == 0.0:
                    continue
                raise ConfigError(
                    f"gradient energy vanishes on ball t={t} for a nonconstant "
                    "suite function; the gradient constant cannot be frozen"
                )
            best = max(best, dev / (t**p * energy))
    if best == 0.0:
        best = 1.0
    return best


def _gradient_constants(config: ExperimentConfig, eigen_cache) -> dict[float, float]:
    """One gradient constant per exponent, frozen at the largest grid."""
    n_max = max(config.grid_sizes)
    grid = build_grid(config.dimension, n_max)
    radii = _union_atom_radii(config)
    out: dict[float, float] = {}
    suite = None
    for p in config.p_values:
        if p == 2.0:
            out[p] = estimate_gradient_constant(grid, radii)
        else:
            if suite is None:
                suite = build_suite(grid, config.suite, eigen_cache)
            out[p] = _suite_gradient_constant(grid, suite, p, radii + (1.0,))
    return out


def _freeze_order(sweep_s) -> float:
    return 0.5 if 0.5 in sweep_s else min(sweep_s)


def run_verify(config: ExperimentConfig, out_dir, verbose: bool = False) -> RunResult:
    """Run every requested check over the configured cross product.

    Writes the report CSV and JSON into ``out_dir``; the result's
    ``all_passed`` drives the process exit status.
    """
    os.makedirs(out_dir, exist_ok=True)
    d = config.dimension
    eigen_cache: dict = {}
    reports = []
    profiles = [(describe_profile(pr), pr) for pr in config.profiles]
    union_radii = _union_atom_radii(config)

    frac_kernels = _kernels_of(config, KIND_FRACTIONAL)
    if "kernel" in config.checks and not frac_kernels:
        raise ConfigError("the kernel check requires a fractional kernel under 'kernels'")
    floor_kernels = _kernels_of(config, KIND_FLOOR) or [KernelSpec(KIND_FLOOR, c=1.0)]

    c_hat = _gradient_constants(config, eigen_cache) if "gradient" in config.checks else {}

    if "shift" in config.checks:
        for p in config.p_values:
            rng = np.random.default_rng((config.suite.seed, 104729))
            for _ in range(config.suite.count):
                n = int(rng.integers(2, 51))
                f = rng.standard_normal(n)
                f = f - f.mean()
                a = float(rng.uniform(-10.0, 10.0))
                reports.append(check_shift_stability(f, a, p))

    for N in config.grid_sizes:
        grid = build_grid(d, N)
        suite = build_suite(grid, config.suite, eigen_cache)
        for p in config.p_values:
            frozen_kernel = [
                _frozen_kernel_constant(grid, suite, p, k.with_p(p), union_radii)
                for k in frac_kernels
            ]
            c38 = None
            if "fractional_truncated" in config.checks:
                s0 = _freeze_order(config.sweep_s)
                c38 = _frozen_robust_constant(grid, suite, p, s0, union_radii)

            for desc, profile in profiles:
                if "transfer" in config.checks:

                    def per_ball(u, t, _p=p):
                        return deviation_p(u, ball_cells(grid, t), _p)

                    tol = config.tolerance("transfer")
                    for u in suite:
                        reports.append(check_transfer(u, profile, per_ball, p, tol))
                if "gradient" in config.checks:
                    tol = config.tolerance("gradient")
                    for u in suite:
                        reports.append(
                            check_weighted_gradient(u, profile, p, c_hat[p], tol)
                        )
                if "kernel" in config.checks:
                    tol = config.tolerance("kernel")
                    for kernel, constant in zip(frac_kernels, frozen_kernel):
                        for u in suite:
                            reports.append(
                                check_weighted_kernel(
                                    u, profile, kernel.with_p(p), p, constant, tol
                                )
                            )
                if "kernel_floor" in config.checks:
                    tol = config.tolerance("kernel_floor")
                    for kernel in floor_kernels:
                        for u in suite:
                            reports.append(
                                check_kernel_floor(u, profile, kernel.with_p(p), p, tol)
                            )
                if "fractional_truncated" in config.checks:
                    tol = config.tolerance("fractional_truncated")
                    s0 = _freeze_order(config.sweep_s)
                    base = transfer_constant(p, d, profile) * 3.0 ** (p * (1.0 - s0))
                    for s in config.sweep_s:
                        for R in config.sweep_R:
                            for u in suite:
                                reports.append(
                                    check_truncated_fractional(
                                        u, profile, p, s, R, base * c38, tol
                                    )
                                )
            if "truncation" in config.checks:
                tol = config.tolerance("truncation")
                for s in config.sweep_s:
                    for R in config.sweep_R:
                        for u in suite:
                            reports.append(check_truncation_bound(u, p, s, R, tol))

    csv_path = os.path.join(out_dir, config.csv_name)
    json_path = os.path.join(out_dir, config.json_name)
    write_reports_csv(reports, csv_path)
    _write_json(json_path, reports_to_json(reports))
    rows = [report_row(r) for r in reports]
    all_passed = all(r.passed for r in reports)
    return RunResult(rows, all_passed, csv_path, json_path)


def _sharp_row(base, method, eigenvalue, empirical, paper, residual, passed):
    row = dict(base)
    row.update(
        method=method,
        eigenvalue=eigenvalue,
        empirical_constant=empirical,
        paper_constant=paper,
        gap_factor=(paper / empirical) if (empirical and empirical > 0.0) else None,
        residual=residual,
        **{"pass": passed},
    )
    return row


def _ascent_functionals(grid, profile, p):
    """Row functionals of the two ascent targets: the weighted deviation
    (lhs), the transfer rhs ``sum_t w_t * deviation_p(u, B_t, p)`` over the
    layer-cake atoms, and the weighted gradient energy (rhs)."""
    whole = full_cells(grid)
    atoms = [(ball_cells(grid, t), w) for t, w in layer_cake(profile).atoms]

    def lhs(values):
        return deviation_p_rows(values, whole, p, profile=profile)

    def transfer_rhs(values):
        terms = np.array([w * deviation_p_rows(values, cells, p) for cells, w in atoms])
        return ksum_rows(terms.T)

    def gradient_rhs(values):
        return local_energy_rows(values, whole, p, weight=profile)

    return lhs, transfer_rhs, gradient_rhs


def run_sharp(config: ExperimentConfig, out_dir, verbose: bool = False) -> RunResult:
    """Estimate sharp constants per configuration and compare to the
    explicit ones (eigensolve at p = 2, ratio ascent otherwise)."""
    os.makedirs(out_dir, exist_ok=True)
    d = config.dimension
    eigen_cache: dict = {}
    rows: list[dict] = []
    traces: list[dict] = []
    union_radii = _union_atom_radii(config)
    profiles = [(describe_profile(pr), pr) for pr in config.profiles]

    for N in config.grid_sizes:
        grid = build_grid(d, N)
        suite = build_suite(grid, config.suite, eigen_cache)
        grad_const_p2 = (
            estimate_gradient_constant(grid, union_radii) if 2.0 in config.p_values else None
        )
        for p in config.p_values:
            # The kernel targets' frozen constants do not depend on the profile.
            frozen_by_kernel = {}
            if p == 2.0:
                c_hat = grad_const_p2
                frozen_by_kernel = {
                    kernel: _frozen_kernel_constant(
                        grid, suite, 2.0, kernel.with_p(2.0), union_radii
                    )
                    for kernel in _kernels_of(config, KIND_FRACTIONAL)
                }
            else:
                c_hat = _suite_gradient_constant(grid, suite, p, union_radii + (1.0,))
            for desc, profile in profiles:
                base = {"d": d, "N": N, "p": p, "profile": desc, "kernel": ""}
                if p != 2.0:
                    lhs_fn, transfer_rhs, gradient_rhs = _ascent_functionals(grid, profile, p)

                # Sharp constant of the transfer inequality itself.
                paper = transfer_constant(p, d, profile)
                target = dict(base, target="transfer")
                if p == 2.0:
                    trace: list = [] if verbose else None
                    try:
                        pair = assemble_transfer_p2(grid, profile)
                        lam, _ = smallest_nonzero_eigen(pair, trace=trace)
                        empirical = 1.0 / lam
                        rows.append(
                            _sharp_row(target, "eigen", lam, empirical, paper, None, empirical <= paper)
                        )
                    except EigenConvergenceError as exc:
                        rows.append(
                            _sharp_row(target, "eigen", None, None, paper, exc.residual, False)
                        )
                        trace = None
                    if trace:
                        for it, lam_it, res in trace:
                            traces.append(
                                dict(target, iteration=it, eigenvalue=lam_it, residual=res)
                            )
                else:
                    ratio, _ = ratio_ascent(
                        grid,
                        p,
                        lhs_fn,
                        transfer_rhs,
                        suite[0],
                        config.ascent_steps,
                        config.ascent_step_size,
                        weight=profile,
                    )
                    rows.append(
                        _sharp_row(target, "ascent", None, ratio, paper, None, ratio <= paper)
                    )

                # Sharp constant of the weighted gradient inequality.
                paper_grad = weighted_gradient_constant(p, d, profile, c_hat)
                target = dict(base, target="gradient", kernel="local_gradient")
                if p == 2.0:
                    trace = [] if verbose else None
                    try:
                        pair = assemble_p2(
                            grid, full_cells(grid), KernelSpec(KIND_LOCAL, p=2.0), profile
                        )
                        lam, _ = smallest_nonzero_eigen(pair, trace=trace)
                        empirical = 1.0 / lam
                        rows.append(
                            _sharp_row(
                                target, "eigen", lam, empirical, paper_grad, None, empirical <= paper_grad
                            )
                        )
                    except EigenConvergenceError as exc:
                        rows.append(
                            _sharp_row(target, "eigen", None, None, paper_grad, exc.residual, False)
                        )
                        trace = None
                    if trace:
                        for it, lam_it, res in trace:
                            traces.append(
                                dict(target, iteration=it, eigenvalue=lam_it, residual=res)
                            )
                else:
                    ratio, _ = ratio_ascent(
                        grid,
                        p,
                        lhs_fn,
                        gradient_rhs,
                        suite[0],
                        config.ascent_steps,
                        config.ascent_step_size,
                        weight=profile,
                    )
                    rows.append(
                        _sharp_row(target, "ascent", None, ratio, paper_grad, None, ratio <= paper_grad)
                    )

                # Kernel targets (p = 2 eigensolves only).
                if p == 2.0:
                    for kernel in config.kernels:
                        if kernel.kind == KIND_LOCAL:
                            continue
                        kdesc = json.dumps(
                            {
                                k: v
                                for k, v in {
                                    "kind": kernel.kind,
                                    "s": kernel.s,
                                    "R": kernel.R,
                                    "c": kernel.c,
                                }.items()
                                if v is not None
                            },
                            separators=(",", ":"),
                        )
                        target = dict(base, target="kernel", kernel=kdesc)
                        k2 = kernel.with_p(2.0)
                        if kernel.kind == KIND_FLOOR:
                            half = ball_cells(grid, 0.5).measure
                            paper_k = transfer_constant(2.0, d, profile) / (kernel.c * half)
                        else:
                            paper_k = frozen_by_kernel[kernel] * transfer_constant(2.0, d, profile)
                        trace = [] if verbose else None
                        try:
                            pair = assemble_p2(grid, full_cells(grid), k2, profile)
                            lam, _ = smallest_nonzero_eigen(pair, trace=trace)
                            empirical = 1.0 / lam
                            rows.append(
                                _sharp_row(
                                    target, "eigen", lam, empirical, paper_k, None, empirical <= paper_k
                                )
                            )
                        except EigenConvergenceError as exc:
                            rows.append(
                                _sharp_row(target, "eigen", None, None, paper_k, exc.residual, False)
                            )
                            trace = None
                        if trace:
                            for it, lam_it, res in trace:
                                traces.append(
                                    dict(target, iteration=it, eigenvalue=lam_it, residual=res)
                                )

    csv_path = os.path.join(out_dir, config.csv_name)
    json_path = os.path.join(out_dir, config.json_name)
    _write_rows_csv(csv_path, SHARP_COLUMNS, rows)
    _write_json(json_path, rows)
    if verbose and traces:
        _write_rows_csv(os.path.join(out_dir, config.trace_name), TRACE_COLUMNS, traces)
    all_passed = all(row["pass"] for row in rows)
    return RunResult(rows, all_passed, csv_path, json_path)


def run_sweep(config: ExperimentConfig, out_dir, verbose: bool = False) -> RunResult:
    """Tabulate scaled fractional energies and check ratios over (s, R).

    Uses the canonical bump as the fixed field; one row per grid, p,
    profile, and sweep point.  The scaled energy column exhibits the
    boundedness of ``(1 - s) * fractional energy`` on a fixed grid; the
    check ratio columns reuse the verify-mode checks with the robust
    constant frozen at the smallest sweep order.
    """
    os.makedirs(out_dir, exist_ok=True)
    d = config.dimension
    rows: list[dict] = []
    profiles = [(describe_profile(pr), pr) for pr in config.profiles]
    for N in config.grid_sizes:
        grid = build_grid(d, N)
        u = canonical_bump(grid)
        cells = full_cells(grid)
        for p in config.p_values:
            s0 = _freeze_order(config.sweep_s)
            c38 = _frozen_robust_constant(grid, [u], p, s0, _union_atom_radii(config))
            grad_energy = local_energy(u, cells, p)
            for desc, profile in profiles:
                base_const = transfer_constant(p, d, profile) * 3.0 ** (p * (1.0 - s0))
                for s in config.sweep_s:
                    frac = kernel_energy(u, cells, KernelSpec(KIND_FRACTIONAL, p=p, s=s))
                    scaled = (1.0 - s) * frac
                    for R in config.sweep_R:
                        frac_check = check_truncated_fractional(
                            u, profile, p, s, R, base_const * c38,
                            config.tolerance("fractional_truncated"),
                        )
                        trunc_check = check_truncation_bound(
                            u, p, s, R, config.tolerance("truncation")
                        )
                        rows.append(
                            {
                                "d": d,
                                "N": N,
                                "p": p,
                                "profile": desc,
                                "s": s,
                                "R": R,
                                "fractional_energy": frac,
                                "scaled_energy": scaled,
                                "gradient_energy": grad_energy,
                                "gradient_limit_ratio": scaled / grad_energy
                                if grad_energy > 0.0
                                else None,
                                "fractional_check_ratio": frac_check.ratio,
                                "truncation_check_ratio": trunc_check.ratio,
                                "pass": frac_check.passed and trunc_check.passed,
                            }
                        )
    csv_path = os.path.join(out_dir, config.csv_name)
    json_path = os.path.join(out_dir, config.json_name)
    _write_rows_csv(csv_path, SWEEP_COLUMNS, rows)
    _write_json(json_path, rows)
    all_passed = all(row["pass"] for row in rows)
    return RunResult(rows, all_passed, csv_path, json_path)
