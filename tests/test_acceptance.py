"""Acceptance suite: every top-level criterion, one pass/fail line each.

Tolerances and parameter grids are pinned here, not configurable.  The
truncation-comparability criterion compares energies corrected for the
sub-grid mass.  ``kernel_energy`` is the lattice sum over cell pairs
i != j, so it omits the pairs inside one cell, a mass of order h^(p(1-s))
relative to the energy (see ``conftest.subgrid_pair_mass``).  Both sides
omit it, which pushes the bare full/truncated ratio up on coarse grids:
for the unperturbed eigenfunction at p=1, s=0.8, R=5 the bare ratio is
1.177, 1.095, 1.021 and 0.973 at N = 64, 128, 256 and 512 (within the
5% allowance from N = 256 on), and at N=128 the omitted mass is 52% of
the corrected truncated energy.  With that
mass added to both energies the ratio is 0.822, 0.828, 0.823 and 0.821,
so the continuum statement holds with about 20% to spare.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np

from poincheck.forms import (
    KIND_FLOOR,
    KIND_FRACTIONAL,
    KIND_LOCAL,
    KernelSpec,
    kernel_energy,
    local_energy,
    transfer_constant,
    weighted_gradient_constant,
)
from poincheck.grid import (
    GridFunction,
    ball_cells,
    build_grid,
    deviation_p,
    full_cells,
)
from poincheck.inequalities import (
    check_shift_stability,
    check_transfer,
    check_truncated_fractional,
    check_weighted_gradient,
)
from poincheck.runner import _Case, _constant, run_verify
from poincheck.sharp import (
    _lanczos,
    assemble_p2,
    assemble_transfer_p2,
    dense_oracle_eigen,
    smallest_nonzero_eigen,
)
from poincheck.suite import SuiteSpec, build_suite, canonical_bump
from poincheck.weights import UNIT_WEIGHT, eval_weight, layer_cake, make_step_profile
from poincheck.config import parse_config
from conftest import (
    naive_kernel_energy,
    random_step_profile,
    sharp_constant_p2,
    subgrid_pair_mass,
)

SEED = 20240601

WEIGHTS = [
    make_step_profile([], [1.0]),
    make_step_profile([0.75], [2.0, 1.0]),
    make_step_profile([0.3, 0.55, 0.7, 0.85], [5.0, 4.0, 3.0, 2.0, 1.0]),
]



@functools.lru_cache(maxsize=None)
def _grid_and_suite(d, N, count):
    """The grid and suite of each (d, N, count), built once per test run:
    criteria 3 and 5 share the 2-d N = 64 eigenfunction, about 9 s."""
    grid = build_grid(d, N)
    return grid, build_suite(grid, SuiteSpec(seed=SEED, count=count))


def _line(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_layer_cake_round_trip():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        prof = random_step_profile(rng)
        measure = layer_cake(prof)
        from poincheck.weights import reconstruct

        for r in rng.uniform(0.5000001, 0.9999, size=50):
            got = reconstruct(measure, float(r))
            want = eval_weight(prof, float(r))
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-15 and elapsed < 1.0
    _line("1 layer-cake round trip", ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-15
    assert elapsed < 1.0


def test_criterion_2_shift_stability():
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        f = rng.standard_normal(n)
        f -= f.mean()
        p = float(rng.uniform(1.0, 4.0))
        a = float(rng.uniform(-10.0, 10.0))
        rep = check_shift_stability(f, a, p)
        assert rep.passed, (n, p, a, rep.ratio)
    elapsed = time.perf_counter() - start
    _line("2 shift stability (1000 trials, zero tolerance)", True, f"{elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_3_transfer_engine():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for d in (1, 2):
        for N in (32, 64):
            grid, suite = _grid_and_suite(d, N, 20)
            for p in (1.0, 2.0, 3.0):

                def per_ball(u, t, _p=p, _g=grid):
                    return deviation_p(u, ball_cells(_g, t), _p)

                for prof in WEIGHTS:
                    for u in suite:
                        rep = check_transfer(u, prof, per_ball, p)
                        assert rep.passed, (d, N, p, rep.ratio)
                        worst = max(worst, rep.ratio)
                        count += 1
    elapsed = time.perf_counter() - start
    _line(
        "3 transfer engine (720 configs, tol=0)",
        True,
        f"{count} checks, worst ratio {worst:.4f}, {elapsed:.1f}s",
    )
    assert count == 720
    assert elapsed < 120.0


def test_criterion_4_sharp_constant_convergence():
    start = time.perf_counter()
    g = build_grid(1, 512)
    sharp = sharp_constant_p2(g, KernelSpec(KIND_LOCAL))
    target = 4.0 / math.pi**2
    rel = abs(sharp - target) / target
    g64 = build_grid(1, 64)
    pair = assemble_p2(g64, full_cells(g64), KernelSpec(KIND_LOCAL))
    # 64 cells, under the crossover: the iteration of larger stencils is called directly
    lam_iter, _ = _lanczos(pair)
    lam_dense = dense_oracle_eigen(pair)[1]
    agree = abs(lam_iter - lam_dense)
    elapsed = time.perf_counter() - start
    ok = rel <= 0.01 and agree <= 1e-8
    _line(
        "4 sharp constant convergence",
        ok,
        f"N=512 sharp {sharp:.6f} vs {target:.6f} (rel {rel:.1e}); "
        f"oracle gap {agree:.1e}; {elapsed:.1f}s",
    )
    assert rel <= 0.01
    assert agree <= 1e-8
    assert elapsed < 60.0


def test_criterion_5_paper_bound_consistency():
    start = time.perf_counter()
    violations = []
    min_gap = math.inf
    for d in (1, 2):
        for N in (32, 64):
            grid, suite = _grid_and_suite(d, N, 20)
            radii = tuple(
                sorted({t for prof in WEIGHTS for t in layer_cake(prof).radii})
            )
            for p in (1.0, 2.0, 3.0):
                # The unit ball is the last atom of every profile, so 1.0 is
                # among the radii; at p = 2 this is the eigensolve constant.
                case = _Case(None, grid, suite, p, radii)
                c_hat = _constant(case, KernelSpec(KIND_LOCAL), scale=lambda t: t**p).value
                for prof in WEIGHTS:
                    measure = layer_cake(prof)
                    paper_transfer = transfer_constant(p, d, prof)
                    paper_gradient = weighted_gradient_constant(p, d, prof, c_hat)
                    emp_transfer = 0.0
                    emp_gradient = 0.0
                    for u in suite:
                        lhs = deviation_p(u, full_cells(grid), p, profile=prof)
                        rhs_atoms = sum(
                            w * deviation_p(u, ball_cells(grid, t), p)
                            for t, w in measure.atoms
                        )
                        if rhs_atoms > 0.0:
                            emp_transfer = max(emp_transfer, lhs / rhs_atoms)
                        rep = check_weighted_gradient(u, prof, p, c_hat)
                        emp_gradient = max(
                            emp_gradient, rep.ratio * rep.constant_used
                        )
                    # eigen-based true sharp constants at p = 2 (skipping the
                    # largest 2-d grid purely for runtime; covered by run_sharp)
                    if p == 2.0 and (d, N) != (2, 64):
                        lam_t, _ = smallest_nonzero_eigen(assemble_transfer_p2(grid, prof))
                        emp_transfer = max(emp_transfer, 1.0 / lam_t)
                        lam_g, _ = smallest_nonzero_eigen(
                            assemble_p2(grid, full_cells(grid), KernelSpec(KIND_LOCAL), prof)
                        )
                        emp_gradient = max(emp_gradient, 1.0 / lam_g)
                    for name, emp, paper in (
                        ("transfer", emp_transfer, paper_transfer),
                        ("gradient", emp_gradient, paper_gradient),
                    ):
                        if emp > paper:
                            violations.append((name, d, N, p, emp, paper))
                        elif emp > 0.0:
                            min_gap = min(min_gap, paper / emp)
    elapsed = time.perf_counter() - start
    _line(
        "5 paper-bound consistency (36 configs)",
        not violations,
        f"zero violations, min gap factor {min_gap:.1f}, {elapsed:.1f}s",
    )
    assert not violations, violations
    assert min_gap >= 1.0


def test_criterion_6_truncation_comparability():
    start = time.perf_counter()
    grid, suite = _grid_and_suite(1, 128, 10)
    cells = full_cells(grid)
    tol_chain = 0.05
    failures = []
    worst = 0.0
    worst_bare = 0.0
    count = 0
    for p in (1.0, 2.0):
        for s in (0.3, 0.5, 0.8):
            masses = [subgrid_pair_mass(u, cells, p, s) for u in suite]
            full = [
                kernel_energy(u, cells, KernelSpec(KIND_FRACTIONAL, s=s), p)
                for u in suite
            ]
            for R in (1.0, 2.0, 3.0, 5.0):
                factor = (3.0 * R) ** (p * (1.0 - s))
                for k, u in enumerate(suite):
                    trunc = kernel_energy(
                        u, cells, KernelSpec(KIND_FRACTIONAL, s=s, R=R), p
                    )
                    if trunc > 0.0:
                        worst_bare = max(worst_bare, full[k] / (factor * trunc))
                    corrected = trunc + masses[k]
                    ratio = (
                        (full[k] + masses[k]) / (factor * corrected)
                        if corrected > 0.0
                        else 0.0
                    )
                    worst = max(worst, ratio)
                    count += 1
                    if ratio > 1.0 + tol_chain:
                        failures.append((p, s, R, k, round(ratio, 4)))
    # The correction must be accurate, not merely large: on the case where
    # the bare ratio is worst, the corrected truncated energy is already
    # near its limit at N=128, while the bare one still grows by 16%.
    truncated = KernelSpec(KIND_FRACTIONAL, s=0.8, R=5.0)
    energies = {}
    for n in (128, 256):
        g, suite_n = _grid_and_suite(1, n, 10)
        u = suite_n[3]
        c = full_cells(g)
        energies[n] = kernel_energy(u, c, truncated, 1.0) + subgrid_pair_mass(u, c, 1.0, 0.8)
    drift = abs(energies[256] - energies[128]) / energies[128]
    elapsed = time.perf_counter() - start
    _line(
        "6 truncation comparability (tol 0.05, sub-grid mass added)",
        not failures and drift <= 0.02,
        f"{count} cases, worst ratio {worst:.4f} (bare lattice sums "
        f"{worst_bare:.4f}), N=128->256 drift {drift:.2%}, "
        f"failures {failures}, {elapsed:.1f}s",
    )
    assert count == 240
    assert elapsed < 120.0
    assert drift <= 0.02, (
        "corrected truncated energy of the eigenfunction at p=1, s=0.8, R=5 "
        f"moves by {drift:.2%} from N=128 to N=256: {energies}"
    )
    assert not failures, (
        "full/truncated fractional energy, each corrected for the pair mass "
        "inside single cells, exceeds the allowed factor (3R)^(p(1-s)) by "
        f"more than {tol_chain} at (p, s, R, suite member, ratio): {failures}"
    )


def test_criterion_7_robustness_sweep():
    start = time.perf_counter()
    grid = build_grid(1, 256)
    u = canonical_bump(grid)
    prof = make_step_profile([], [1.0])
    cells = full_cells(grid)
    s0 = 0.5
    dev = deviation_p(u, cells, 2.0)
    e0 = kernel_energy(u, cells, KernelSpec(KIND_FRACTIONAL, s=s0), 2.0)
    c38 = dev / ((1.0 - s0) * e0)
    c_robust = transfer_constant(2.0, 1, prof) * 3.0 ** (2.0 * (1.0 - s0)) * c38
    svals = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
    ratios = []
    scaled = []
    for s in svals:
        energy = kernel_energy(u, cells, KernelSpec(KIND_FRACTIONAL, s=s), 2.0)
        scaled.append((1.0 - s) * energy)
        rep = check_truncated_fractional(u, prof, 2.0, s, 1.0, c_robust)
        ratios.append(rep.ratio)
    base = scaled[0]
    bounded_above = max(scaled) <= 3.0 * base
    all_below_one = max(ratios) <= 1.0
    elapsed = time.perf_counter() - start
    ok = bounded_above and all_below_one
    _line(
        "7 robustness sweep (one frozen constant)",
        ok,
        f"max check ratio {max(ratios):.3g}; scaled energy in "
        f"[{min(scaled):.3f}, {max(scaled):.3f}] vs base {base:.3f} "
        f"(bounded above by 3x; the s=0.99 dip is the fixed-grid cutoff); "
        f"{elapsed:.1f}s",
    )
    assert all_below_one
    assert bounded_above
    assert elapsed < 120.0


def test_criterion_8_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 8)
    prof = make_step_profile([0.75], [2.0, 1.0])
    configs = [(1, N) for N in (4, 6, 8, 10, 12, 14, 16)] + [
        (2, N) for N in (4, 8, 12, 16)
    ]
    worst_energy = 0.0
    worst_quad = 0.0
    for d, N in configs:
        grid = build_grid(d, N)
        cells = full_cells(grid)
        big = d == 2 and N >= 12
        specs = [
            (KernelSpec(KIND_FRACTIONAL, s=0.5), 2.0),
            (KernelSpec(KIND_FRACTIONAL, s=0.8, R=2.0), 1.0),
            (KernelSpec(KIND_FLOOR, c=1.0), 2.0),
        ]
        if big:
            specs = specs[:1]  # keep the pure-Python loop inside the budget
        us = [GridFunction(grid, rng.standard_normal(grid.cell_count)) for _ in range(50)]
        for spec, p in specs:
            for weight, oracle_weight in ((UNIT_WEIGHT, None), (prof, prof)):
                for u in us:
                    fast = kernel_energy(u, cells, spec, p, weight=weight)
                    slow = naive_kernel_energy(u, cells, spec, p, weight=oracle_weight)
                    err = abs(fast - slow) / max(1.0, abs(slow))
                    worst_energy = max(worst_energy, err)
        for spec in (KernelSpec(KIND_FRACTIONAL, s=0.5), KernelSpec(KIND_LOCAL)):
            for weight in (UNIT_WEIGHT, prof):
                pair = assemble_p2(grid, cells, spec, weight)
                for u in us:
                    quad = float(u.values @ (pair.energy @ u.values))
                    if spec.kind == KIND_LOCAL:
                        direct = local_energy(u, cells, 2.0, weight=weight)
                    else:
                        direct = kernel_energy(u, cells, spec, 2.0, weight=weight)
                    err = abs(quad - direct) / max(1.0, abs(direct))
                    worst_quad = max(worst_quad, err)
    elapsed = time.perf_counter() - start
    ok = worst_energy <= 1e-12 and worst_quad <= 1e-12 and elapsed < 30.0
    _line(
        "8 oracle equivalence (N <= 16, 50 random fields each)",
        ok,
        f"naive-loop err {worst_energy:.1e}, quadratic-form err {worst_quad:.1e}, "
        f"{elapsed:.1f}s",
    )
    assert worst_energy <= 1e-12
    assert worst_quad <= 1e-12
    assert elapsed < 30.0


def test_criterion_9_determinism(tmp_path):
    doc = {
        "dimension": 1,
        "grid_sizes": [32],
        "p_values": [1.0, 2.0],
        "weights": [
            {"type": "step", "breakpoints": [], "values": [1.0]},
            {"type": "step", "breakpoints": [0.75], "values": [2.0, 1.0]},
        ],
        "kernels": [
            {"kind": "fractional", "s": 0.5},
            {"kind": "constant_floor", "c": 1.0},
        ],
        "checks": [
            "transfer",
            "gradient",
            "kernel",
            "kernel_floor",
            "fractional_truncated",
            "truncation",
            "shift",
        ],
        "sweep": {"s": [0.5, 0.8], "R": [1, 2]},
        "suite": {"seed": SEED, "count": 5},
    }
    cfg = parse_config(doc)
    a = run_verify(cfg, tmp_path / "a")
    b = run_verify(cfg, tmp_path / "b")
    same_csv = Path(a.csv_path).read_bytes() == Path(b.csv_path).read_bytes()
    same_json = Path(a.json_path).read_bytes() == Path(b.json_path).read_bytes()
    _line("9 determinism (byte-identical reports)", same_csv and same_json,
          f"{len(a.rows)} rows")
    assert same_csv and same_json
    assert a.all_passed
