import csv
import inspect
import json
import math

import numpy as np
import pytest

from poincheck.forms import (
    KIND_FLOOR,
    KIND_FRACTIONAL,
    KernelSpec,
    kernel_energy,
    transfer_constant,
)
from poincheck.grid import GridFunction, ball_cells, build_grid, deviation_p, full_cells
from poincheck.inequalities import (
    REPORT_COLUMNS,
    HypothesisViolation,
    InequalityReport,
    check_kernel_floor,
    check_shift_stability,
    check_transfer,
    check_truncated_fractional,
    check_truncation_bound,
    check_weighted_gradient,
    check_weighted_kernel,
    report_row,
    reports_to_json,
    write_rows_csv,
)
from poincheck import inequalities
from poincheck.sharp import estimate_gradient_constant
from poincheck.weights import layer_cake, make_step_profile, truncate_profile
from poincheck.suite import smooth_random_field
from conftest import deviation_about


def per_ball_deviation(p):
    def F(u, t):
        return deviation_p(u, ball_cells(u.grid, t), p)

    return F


def test_transfer_constant_function_is_vacuous():
    g = build_grid(1, 8)
    u = GridFunction(g, np.full(8, 3.0))
    prof = make_step_profile([0.75], [2.0, 1.0])
    rep = check_transfer(u, prof, per_ball_deviation(2.0), 2.0)
    assert rep.passed and rep.ratio == 0.0 and rep.lhs == 0.0


def test_transfer_random_smooth_suite(rng):
    g = build_grid(1, 64)
    prof = make_step_profile([], [1.0])
    for _ in range(50):
        u = GridFunction(g, smooth_random_field(g, rng))
        rep = check_transfer(u, prof, per_ball_deviation(2.0), 2.0)
        assert rep.passed and rep.tol == 0.0
        assert rep.constant_used == transfer_constant(2.0, 1, prof)


def test_checks_take_no_tolerance():
    # Each check fixes its own tolerance in the inequalities module.
    checks = [name for name in inequalities.__all__ if name.startswith("check_")]
    assert len(checks) == 7
    for name in checks:
        assert "tol" not in inspect.signature(getattr(inequalities, name)).parameters, name


def test_transfer_rejects_zero_functional():
    g = build_grid(1, 16)
    u = GridFunction(g, g.centers[:, 0])
    prof = make_step_profile([], [1.0])
    with pytest.raises(HypothesisViolation) as info:
        check_transfer(u, prof, lambda u_, t: 0.0, 2.0)
    assert info.value.atom == 1.0


def test_transfer_rejects_non_shift_invariant_functional():
    g = build_grid(1, 16)
    u = GridFunction(g, g.centers[:, 0])
    prof = make_step_profile([], [1.0])

    def bad(u_, t):
        return 100.0 + abs(float(np.sum(u_.values)))

    with pytest.raises(ValueError, match="shift-invariant"):
        check_transfer(u, prof, bad, 2.0)


def test_weighted_gradient_linear_field():
    g = build_grid(1, 128)
    prof = make_step_profile([], [1.0])
    c_hat = estimate_gradient_constant(g)
    u = GridFunction(g, g.centers[:, 0])
    rep = check_weighted_gradient(u, prof, 2.0, c_hat)
    assert rep.passed
    assert rep.ratio < 0.05  # enormous slack for the linear field


def test_weighted_gradient_eigenfunction_worst_case():
    g = build_grid(1, 128)
    prof = make_step_profile([], [1.0])
    c_hat = estimate_gradient_constant(g)
    u = GridFunction(g, np.cos(np.pi * (g.centers[:, 0] + 1.0) / 2.0))
    rep = check_weighted_gradient(u, prof, 2.0, c_hat)
    assert rep.passed and rep.ratio <= 1.0


def test_weighted_kernel_passes_with_frozen_constant(rng):
    g = build_grid(1, 64)
    prof = make_step_profile([0.75], [2.0, 1.0])
    spec = KernelSpec(KIND_FRACTIONAL, s=0.5)
    u = GridFunction(g, smooth_random_field(g, rng))
    atoms = layer_cake(prof).radii
    constant = max(
        deviation_p(u, ball_cells(g, t), 2.0) / kernel_energy(u, ball_cells(g, t), spec, 2.0)
        for t in atoms
    )
    rep = check_weighted_kernel(u, prof, spec, 2.0, constant)
    assert rep.passed


def test_weighted_kernel_constant_weight_ratio_below_transfer_margin(rng):
    # With a constant weight the conclusion degenerates to the hypothesis at
    # the outer radius, so the realized ratio is at most 1/M.
    g = build_grid(1, 32)
    prof = make_step_profile([], [1.0])
    spec = KernelSpec(KIND_FRACTIONAL, s=0.5)
    u = GridFunction(g, smooth_random_field(g, rng))
    constant = deviation_p(u, full_cells(g), 2.0) / kernel_energy(u, full_cells(g), spec, 2.0)
    rep = check_weighted_kernel(u, prof, spec, 2.0, constant)
    assert rep.passed
    assert rep.ratio <= 1.0 / transfer_constant(2.0, 1, prof) + 1e-12


def test_weighted_kernel_detects_hypothesis_violation(rng):
    g = build_grid(1, 32)
    prof = make_step_profile([0.75], [2.0, 1.0])
    spec = KernelSpec(KIND_FRACTIONAL, s=0.5)
    u = GridFunction(g, smooth_random_field(g, rng))
    with pytest.raises(HypothesisViolation):
        check_weighted_kernel(u, prof, spec, 2.0, 1e-12)


def test_kernel_floor_passes_with_margin(rng):
    g = build_grid(1, 32)
    prof = make_step_profile([], [1.0])
    u = GridFunction(g, rng.standard_normal(32))
    rep = check_kernel_floor(u, prof, KernelSpec(KIND_FLOOR, c=1.0), 2.0)
    assert rep.passed
    assert rep.ratio < 0.5


def test_kernel_floor_ratio_linear_in_c(rng):
    g = build_grid(1, 32)
    prof = make_step_profile([], [1.0])
    u = GridFunction(g, rng.standard_normal(32))
    r1 = check_kernel_floor(u, prof, KernelSpec(KIND_FLOOR, c=1.0), 2.0)
    r2 = check_kernel_floor(u, prof, KernelSpec(KIND_FLOOR, c=2.0), 2.0)
    assert r2.rhs == pytest.approx(r1.rhs / 2.0, rel=1e-15)
    assert r2.ratio == pytest.approx(2.0 * r1.ratio, rel=1e-15)


def test_kernel_floor_requires_floor_kind():
    g = build_grid(1, 8)
    u = GridFunction(g, np.zeros(8))
    prof = make_step_profile([], [1.0])
    with pytest.raises(ValueError, match="constant_floor"):
        check_kernel_floor(u, prof, KernelSpec(KIND_FRACTIONAL, s=0.5), 2.0)


def test_truncated_fractional_single_constant_serves_high_orders(rng):
    g = build_grid(1, 64)
    prof = make_step_profile([], [1.0])
    u = GridFunction(g, smooth_random_field(g, rng))
    s0 = 0.5
    dev = deviation_p(u, full_cells(g), 2.0)
    e0 = kernel_energy(u, full_cells(g), KernelSpec(KIND_FRACTIONAL, s=s0), 2.0)
    c38 = dev / ((1 - s0) * e0)
    c_robust = transfer_constant(2.0, 1, prof) * 3.0 ** (2 * (1 - s0)) * c38
    ratios = []
    for s in (0.5, 0.7, 0.9, 0.95, 0.99):
        rep = check_truncated_fractional(u, prof, 2.0, s, 1.0, c_robust)
        ratios.append(rep.ratio)
        assert rep.passed
    assert max(ratios) <= 1.0


def test_truncation_bound_typical_case(rng):
    g = build_grid(1, 128)
    u = GridFunction(g, smooth_random_field(g, rng))
    rep = check_truncation_bound(u, 2.0, 0.5, 3.0)
    assert rep.passed and rep.tol == 0.05
    assert rep.constant_used == pytest.approx(9.0 ** (2 * 0.5))


def test_truncation_bound_constant_function():
    g = build_grid(1, 16)
    u = GridFunction(g, np.ones(16))
    rep = check_truncation_bound(u, 2.0, 0.5, 2.0)
    assert rep.passed and rep.ratio == 0.0


def test_truncation_bound_refuses_r_below_one_before_any_pair_sum(monkeypatch):
    calls = []
    monkeypatch.setattr(inequalities, "kernel_energy", lambda *args: calls.append(args))
    u = GridFunction(build_grid(1, 16), np.ones(16))
    with pytest.raises(ValueError, match="truncation parameter must be >= 1, got 0.5"):
        check_truncation_bound(u, 2.0, 0.5, 0.5)
    assert calls == []


def test_truncation_removes_nothing_inside_small_sets(rng):
    # All pair distances in the half ball are below the truncation radius,
    # so both energies coincide and the bound holds with factor >= 1.
    g = build_grid(1, 8)
    u = GridFunction(g, rng.standard_normal(8))
    cells = ball_cells(g, 0.5)
    full = kernel_energy(u, cells, KernelSpec(KIND_FRACTIONAL, s=0.5), 2.0)
    trunc = kernel_energy(u, cells, KernelSpec(KIND_FRACTIONAL, s=0.5, R=1.0), 2.0)
    assert full == trunc
    assert (3.0 * 1.0) ** (2 * 0.5) >= 1.0


def test_shift_stability_hand_example():
    rep = check_shift_stability(np.array([1.0, -1.0]), 1.0, 1.0)
    assert rep.passed
    assert rep.rhs == 2.0 and rep.lhs == 1.0


def test_shift_stability_zero_shift():
    f = np.array([2.0, -1.0, -1.0])
    rep = check_shift_stability(f, 0.0, 3.0)
    assert rep.passed
    assert rep.ratio == pytest.approx(0.5, rel=1e-15)


def test_shift_stability_requires_zero_sum():
    with pytest.raises(ValueError, match="zero sum"):
        check_shift_stability(np.array([1.0, 1.0]), 0.5, 2.0)


def test_shift_stability_random_trials(rng):
    for _ in range(200):
        n = int(rng.integers(2, 51))
        f = rng.standard_normal(n)
        f -= f.mean()
        p = float(rng.uniform(1.0, 4.0))
        a = float(rng.uniform(-10.0, 10.0))
        assert check_shift_stability(f, a, p).passed


def test_scale_equivariance_of_reports(rng):
    g = build_grid(1, 32)
    prof = make_step_profile([0.75], [2.0, 1.0])
    vals = smooth_random_field(g, rng)
    lam = -2.5
    for p in (1.0, 2.0):
        a = check_transfer(GridFunction(g, vals), prof, per_ball_deviation(p), p)
        b = check_transfer(GridFunction(g, lam * vals), prof, per_ball_deviation(p), p)
        assert b.lhs == pytest.approx(abs(lam) ** p * a.lhs, rel=1e-10)
        assert b.rhs == pytest.approx(abs(lam) ** p * a.rhs, rel=1e-10)
        assert b.ratio == pytest.approx(a.ratio, rel=1e-10)


def test_shift_invariance_of_reports(rng):
    g = build_grid(1, 32)
    prof = make_step_profile([0.75], [2.0, 1.0])
    vals = smooth_random_field(g, rng)
    c_hat = estimate_gradient_constant(g, layer_cake(prof).radii)
    for make in (
        lambda u: check_transfer(u, prof, per_ball_deviation(2.0), 2.0),
        lambda u: check_weighted_gradient(u, prof, 2.0, c_hat),
        lambda u: check_kernel_floor(u, prof, KernelSpec(KIND_FLOOR, c=1.0), 2.0),
    ):
        a = make(GridFunction(g, vals))
        b = make(GridFunction(g, vals + 11.0))
        assert b.lhs == pytest.approx(a.lhs, rel=1e-10, abs=1e-12)
        assert b.rhs == pytest.approx(a.rhs, rel=1e-10, abs=1e-12)
        assert b.ratio == pytest.approx(a.ratio, rel=1e-10, abs=1e-12)


def test_weight_degeneration_constant_profile(rng):
    g = build_grid(1, 32)
    prof = make_step_profile([], [4.0])
    vals = smooth_random_field(g, rng)
    u = GridFunction(g, vals)
    measure = layer_cake(prof)
    assert measure.atoms == ((1.0, 4.0),)
    rep = check_transfer(u, prof, per_ball_deviation(2.0), 2.0)
    unweighted = deviation_p(u, full_cells(g), 2.0)
    assert rep.lhs == pytest.approx(4.0 * unweighted, rel=1e-13)
    M = transfer_constant(2.0, 1, prof)
    assert rep.rhs == pytest.approx(M * 4.0 * unweighted, rel=1e-13)


def test_monotone_slack_between_profile_and_truncation(rng):
    # Deviation against the truncated weight, centered at the truncated
    # weighted mean, is sandwiched between the full-weight deviation at the
    # same center and its multiple by the level ratio.
    g = build_grid(1, 48)
    prof = make_step_profile([0.3, 0.75], [4.0, 2.0, 1.0])
    capped = truncate_profile(prof)
    from poincheck.grid import weighted_mean

    for p in (1.0, 2.0, 3.0):
        vals = smooth_random_field(g, rng)
        u = GridFunction(g, vals)
        center = weighted_mean(u, capped)
        lhs_capped = deviation_about(u, full_cells(g), p, capped, center)
        lhs_full = deviation_about(u, full_cells(g), p, prof, center)
        ratio = prof.center_value / prof.half_value
        assert lhs_capped <= lhs_full * (1 + 1e-12)
        assert lhs_full <= ratio * lhs_capped * (1 + 1e-12)


def test_report_validation_and_serialization(tmp_path):
    rep = InequalityReport("demo", 1.0, 2.0, 0.5, 3.0, True, 0.0, {"d": 1, "N": 8, "p": 2.0})
    row = report_row(rep)
    assert list(row) == list(REPORT_COLUMNS)
    assert row["pass"] == "true" and row["s"] == ""
    with pytest.raises(ValueError):
        InequalityReport("demo", -1.0, 2.0, 0.5, 3.0, True, 0.0, {})

    path = tmp_path / "r.csv"
    write_rows_csv(path, REPORT_COLUMNS, [report_row(rep)])
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["check_id"] == "demo"
    assert rows[0]["ratio"] == "0.5"

    payload = reports_to_json([rep])
    assert json.loads(json.dumps(payload))[0]["metadata"]["N"] == 8


def test_both_zero_convention():
    g = build_grid(1, 8)
    u = GridFunction(g, np.zeros(8))
    prof = make_step_profile([], [1.0])
    rep = check_truncated_fractional(u, prof, 2.0, 0.5, 1.0, 1.0)
    assert rep.passed and rep.ratio == 0.0 and math.isfinite(rep.ratio)
