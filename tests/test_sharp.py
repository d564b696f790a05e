from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import poincheck.grid
import poincheck.runner
import poincheck.sharp
from conftest import (
    add_at_local_matrix,
    formed_rows,
    kernel_pencil_matrix,
    per_atom_transfer_matrix,
    per_probe_ratio_ascent,
    set_by_set_dense,
    sharp_constant_p2,
)
from poincheck.config import load_config, parse_config
from poincheck.forms import (
    KIND_FLOOR,
    KIND_FRACTIONAL,
    KIND_LOCAL,
    KernelSpec,
    kernel_energy,
    local_energy,
    local_energy_rows,
    weighted_gradient_constant,
)
from poincheck.grid import (
    GridFunction,
    Probes,
    ball_cells,
    build_grid,
    deviation_p,
    deviation_p_rows,
    full_cells,
)
from poincheck.numerics import ksum
from poincheck.runner import _ascent_functionals, run_sharp
from poincheck.sharp import (
    EdgeStencil,
    EigenConvergenceError,
    NestedRankOne,
    QuadraticFormPair,
    assemble_p2,
    assemble_transfer_p2,
    dense_oracle_eigen,
    estimate_gradient_constant,
    floor_operator,
    local_stencil,
    pencil_eigen,
    ratio_ascent,
    smallest_nonzero_eigen,
)
from poincheck.suite import SuiteSpec, build_suite
from poincheck.weights import (
    UNIT_WEIGHT,
    eval_weight,
    layer_cake,
    make_step_profile,
    profile_from_json,
)


def path_eigenvalues(N, h):
    k = np.arange(N)
    return 2.0 * (1.0 - np.cos(k * np.pi / N)) / h**2


def test_pair_validation():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticFormPair(np.array([[1.0, 0.5], [-0.5, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="kernel"):
        QuadraticFormPair(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.ones(2))
    with pytest.raises(ValueError):
        QuadraticFormPair(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones(3))


def test_assemble_local_path_graph():
    g = build_grid(1, 4)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
    L = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
        ]
    )
    assert np.allclose(pair.energy, L / g.h)
    assert np.allclose(pair.energy @ np.ones(4), 0.0, atol=1e-14)
    assert np.allclose(pair.mass, g.h)


def test_assemble_fractional_sign_structure():
    g = build_grid(1, 8)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_FRACTIONAL, s=0.5))
    A = pair.energy
    off = A[~np.eye(8, dtype=bool)]
    assert np.all(off < 0.0)
    assert np.all(np.diag(A) > 0.0)


def test_assembly_faithfulness(rng):
    prof = make_step_profile([0.7], [2.0, 1.0])
    specs = [
        KernelSpec(KIND_LOCAL),
        KernelSpec(KIND_FRACTIONAL, s=0.5),
        KernelSpec(KIND_FRACTIONAL, s=0.8, R=2.0),
        KernelSpec(KIND_FLOOR, c=1.0),
    ]
    for d, N in ((1, 16), (2, 8)):
        g = build_grid(d, N)
        cells = full_cells(g)
        for spec in specs:
            for weight in (UNIT_WEIGHT, prof):
                pair = assemble_p2(g, cells, spec, weight)
                for _ in range(20):
                    vals = rng.standard_normal(g.cell_count)
                    u = GridFunction(g, vals)
                    if spec.kind == KIND_LOCAL:
                        want = local_energy(u, cells, 2.0, weight=weight)
                    else:
                        want = kernel_energy(u, cells, spec, 2.0, weight=weight)
                    got = float(vals @ (pair.energy @ vals))
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_transfer_pair_matches_atomized_deviations(rng):
    g = build_grid(1, 24)
    prof = make_step_profile([0.6, 0.8], [3.0, 2.0, 1.0])
    pair = assemble_transfer_p2(g, prof)
    for _ in range(10):
        vals = rng.standard_normal(g.cell_count)
        u = GridFunction(g, vals)
        want = sum(
            w * deviation_p(u, ball_cells(g, t), 2.0)
            for t, w in layer_cake(prof).atoms
        )
        got = float(vals @ (pair.energy @ vals))
        assert got == pytest.approx(want, rel=1e-12)


def test_smallest_eigen_path_graph_closed_form():
    g = build_grid(1, 4)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
    lam, v = smallest_nonzero_eigen(pair)
    want = 2.0 * (1.0 - np.cos(np.pi / 4)) / g.h**2
    assert lam == pytest.approx(want, rel=1e-10)
    # eigenvector contract: an array in the pair's cell order,
    # mass-normalized, mass-orthogonal to constants
    assert isinstance(v, np.ndarray) and v.shape == (pair.size,)
    assert float(v @ (pair.mass * v)) == pytest.approx(1.0, rel=1e-12)
    assert abs(float(pair.mass @ v)) < 1e-10
    # residual contract
    res = pair.energy @ v - lam * pair.mass * v
    assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(pair.energy @ v)


def test_smallest_eigen_reports_nonconvergence():
    g = build_grid(1, 16)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
    with pytest.raises(EigenConvergenceError) as info:
        smallest_nonzero_eigen(pair, tol=1e-14, max_iter=1)
    assert info.value.residual >= 0.0


def test_dense_oracle_two_by_two():
    pair = QuadraticFormPair(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones(2))
    spectrum = dense_oracle_eigen(pair)
    assert spectrum == pytest.approx([0.0, 2.0], abs=1e-12)


def test_dense_oracle_path_graph_spectrum():
    g = build_grid(1, 4)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
    spectrum = dense_oracle_eigen(pair)
    assert spectrum == pytest.approx(path_eigenvalues(4, g.h), abs=1e-10)


def test_dense_oracle_size_cap():
    # 2,128 cells: a stencil pair, refused before any dense form is built.
    g = build_grid(2, 52)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
    assert pair.size == 2128
    with pytest.raises(ValueError, match="capped"):
        dense_oracle_eigen(pair)


def test_oracle_agrees_with_iterative():
    g = build_grid(1, 64)
    for spec, weight in (
        (KernelSpec(KIND_LOCAL), UNIT_WEIGHT),
        (KernelSpec(KIND_FRACTIONAL, s=0.5), make_step_profile([0.75], [2.0, 1.0])),
    ):
        pair = assemble_p2(g, full_cells(g), spec, weight)
        lam, _ = smallest_nonzero_eigen(pair)
        spectrum = dense_oracle_eigen(pair)
        assert abs(lam - spectrum[1]) <= 1e-8 * max(1.0, lam)


ROOT = Path(__file__).resolve().parents[1]
DEMO_PROFILES = load_config(ROOT / "configs" / "demo.json").profiles


@pytest.mark.parametrize("d,N", [(1, 32), (1, 64), (1, 512), (2, 24), (2, 32), (2, 64)])
def test_stencil_matvec_matches_dense_form(d, N, rng):
    g = build_grid(d, N)
    for profile in DEMO_PROFILES:
        for t in (0.75, 1.0):
            cells = ball_cells(g, t)
            stencil = local_stencil(g, cells, profile)
            A = stencil.dense()
            for _ in range(3):
                x = rng.standard_normal(len(cells))
                want = A @ x
                got = stencil @ x
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
                u = np.zeros(g.cell_count)
                u[cells.indices] = x
                energy = local_energy(GridFunction(g, u), cells, 2.0, weight=profile)
                assert float(x @ got) == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("d,N", [(1, 32), (1, 64), (1, 128), (2, 8), (2, 16)])
def test_pencils_under_the_crossover_are_the_dense_assembly(d, N):
    g = build_grid(d, N)
    for profile in DEMO_PROFILES:
        for t in (0.75, 1.0):
            cells = ball_cells(g, t)
            assert len(cells) < 256
            pair = assemble_p2(g, cells, KernelSpec(KIND_LOCAL), profile)
            assert type(pair.energy) is np.ndarray
            want = add_at_local_matrix(g, cells, profile)
            assert pair.energy.tobytes() == want.tobytes()
            assert pair.dense_energy() is pair.energy


@pytest.mark.parametrize("d,N", [(1, 256), (2, 24), (2, 32)])
def test_pencils_from_the_crossover_are_stencils(d, N):
    g = build_grid(d, N)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
    assert isinstance(pair.energy, EdgeStencil)
    want = add_at_local_matrix(g, full_cells(g))
    assert pair.dense_energy().tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [32, 48])
def test_stencil_eigensolve_agrees_with_lapack_oracle(N):
    g = build_grid(2, N)
    profiles = (UNIT_WEIGHT, make_step_profile([0.75], [2.0, 1.0]))
    for weight in profiles if N == 32 else profiles[:1]:
        pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL), weight)
        assert isinstance(pair.energy, EdgeStencil)
        lam, _ = smallest_nonzero_eigen(pair)
        spectrum = dense_oracle_eigen(pair)
        # LAPACK's error scales with the largest eigenvalue (about 4,600
        # times lam at N = 48); it measured 3e-16 of it.
        assert abs(spectrum[0]) <= 1e-14 * spectrum[-1]
        assert abs(lam - spectrum[1]) <= 1e-14 * spectrum[-1]


FLOOR = KernelSpec(KIND_FLOOR, c=1.0)
NESTED_PROFILES = (
    *DEMO_PROFILES,
    make_step_profile([0.3], [16.0, 1.0]),
    make_step_profile([0.55, 0.8], [64.0, 8.0, 1.0]),
)


def _nested_pencils(g, profile):
    """(pencil, today's dense assembly) for the transfer pencil and the
    floor pencils on the balls of radius 0.75 and 1."""
    yield assemble_transfer_p2(g, profile), per_atom_transfer_matrix(g, profile)
    for t in (0.75, 1.0):
        cells = ball_cells(g, t)
        yield assemble_p2(g, cells, FLOOR, profile), kernel_pencil_matrix(g, cells, FLOOR, profile)


@pytest.mark.parametrize("N", [24, 32, 64])
def test_nested_matvec_matches_dense_forms(N, rng):
    g = build_grid(2, N)
    for profile in NESTED_PROFILES:
        for k, (pair, today) in enumerate(_nested_pencils(g, profile)):
            assert isinstance(pair.energy, NestedRankOne)
            dense = pair.dense_energy()
            for _ in range(3):
                x = rng.standard_normal(pair.size)
                got = pair.energy @ x
                for want in (dense @ x, today @ x):
                    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            if k == 0:  # the transfer pencil: the per-atom matrix, byte for byte
                assert dense.tobytes() == today.tobytes()
            else:
                assert np.max(np.abs(dense - today)) <= 1e-14 * np.max(np.abs(today))


def test_nested_forms_reproduce_their_energies(rng):
    g = build_grid(2, 24)
    for profile in NESTED_PROFILES:
        for t in (0.75, 1.0):
            cells = ball_cells(g, t)
            pair = assemble_p2(g, cells, FLOOR, profile)
            u = np.zeros(g.cell_count)
            u[cells.indices] = x = rng.standard_normal(len(cells))
            energy = kernel_energy(GridFunction(g, u), cells, FLOOR, 2.0, weight=profile)
            assert float(x @ (pair.energy @ x)) == pytest.approx(energy, rel=1e-12)
        x = rng.standard_normal(g.cell_count)
        u = GridFunction(g, x)
        deviation = ksum(
            [w * deviation_p(u, ball_cells(g, t), 2.0) for t, w in layer_cake(profile).atoms]
        )
        got = float(x @ (assemble_transfer_p2(g, profile).energy @ x))
        assert got == pytest.approx(deviation, rel=1e-12)


@pytest.mark.parametrize("N", [32, 48])
def test_nested_eigensolve_agrees_with_lapack_oracle(N):
    g = build_grid(2, N)
    profiles = NESTED_PROFILES[1:2] + NESTED_PROFILES[-1:] if N == 32 else NESTED_PROFILES[-1:]
    for profile in profiles:
        for pair in (
            assemble_transfer_p2(g, profile),
            assemble_p2(g, full_cells(g), FLOOR, profile),
        ):
            assert isinstance(pair.energy, NestedRankOne)
            lam, _ = smallest_nonzero_eigen(pair)
            spectrum = dense_oracle_eigen(pair)
            assert abs(spectrum[0]) <= 1e-14 * spectrum[-1]
            assert abs(lam - spectrum[1]) <= 1e-14 * spectrum[-1]


def test_nested_dense_is_the_set_by_set_accumulation(rng):
    # The per-depth tables replay each entry's float operations, so the
    # gathered matrix is the set-by-set one byte for byte: on the builders'
    # forms at every grid size of the configs, and on nested sets with
    # arbitrary coefficients, empty sets and cells in none of them.
    for d, N in ((1, 32), (1, 64), (2, 16), (2, 24)):
        g = build_grid(d, N)
        for profile in NESTED_PROFILES:
            for cells in (full_cells(g), ball_cells(g, 0.75)):
                operator = floor_operator(g, cells, profile)
                assert operator.dense().tobytes() == set_by_set_dense(operator).tobytes()
            if g.cell_count >= 256:
                operator = assemble_transfer_p2(g, profile).energy
                assert operator.dense().tobytes() == set_by_set_dense(operator).tobytes()
    for _ in range(50):
        sets = int(rng.integers(1, 12))
        depth = rng.integers(0, sets + 1, int(rng.integers(1, 60)))
        set_diag = rng.standard_normal(sets) * 10.0 ** rng.uniform(-8, 8, sets)
        coef = rng.standard_normal(sets) * 10.0 ** rng.uniform(-8, 8, sets)
        operator = NestedRankOne.from_sets(depth, set_diag, coef)
        assert operator.dense().tobytes() == set_by_set_dense(operator).tobytes()


@pytest.mark.parametrize("d,N", [(1, 32), (1, 64), (1, 128), (2, 8), (2, 16)])
def test_nested_pencils_under_the_crossover_are_today_s_matrices(d, N):
    g = build_grid(d, N)
    assert g.cell_count < 256
    for profile in NESTED_PROFILES:
        for pair, today in _nested_pencils(g, profile):
            assert type(pair.energy) is np.ndarray
            assert pair.energy.tobytes() == today.tobytes()


@pytest.mark.parametrize("d,N", [(1, 256), (2, 24), (2, 32)])
def test_nested_pencils_from_the_crossover_are_operators(d, N):
    g = build_grid(d, N)
    assert g.cell_count >= 256
    for profile in NESTED_PROFILES:
        assert isinstance(assemble_transfer_p2(g, profile).energy, NestedRankOne)
        for pair, _ in _nested_pencils(g, profile):
            assert isinstance(pair.energy, NestedRankOne) is (pair.size >= 256)
    # the fractional kernel stays dense at every size
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_FRACTIONAL, s=0.5))
    assert type(pair.energy) is np.ndarray


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16), (2, 32)])
def test_unit_weight_nested_pencils_closed_forms(d, N):
    # Transfer: h^d (I - 1 1'/n) against h^d I, so every nonzero eigenvalue
    # is 1.  Floor: 2 h^(2d) (n I - 1 1') against h^d I, so it is 2 h^d n.
    g = build_grid(d, N)
    lam, _ = smallest_nonzero_eigen(assemble_transfer_p2(g, UNIT_WEIGHT))
    assert lam == pytest.approx(1.0, rel=1e-12)
    lam, _ = smallest_nonzero_eigen(assemble_p2(g, full_cells(g), FLOOR))
    assert lam == pytest.approx(2.0 * g.cell_measure * g.cell_count, rel=1e-12)


def test_kernel_pencils_are_the_product_formulas_bit_for_bit():
    # The in-place assembly keeps every bit, the sign of each zero included:
    # the truncated kernel (R = 2) has zero entries off the diagonal.
    prof = make_step_profile([0.6], [2.0, 1.0])
    specs = (
        KernelSpec(KIND_FRACTIONAL, s=0.5),
        KernelSpec(KIND_FRACTIONAL, s=0.8, R=2.0),
        FLOOR,
    )
    for d, N in ((1, 32), (2, 16), (2, 24)):
        g = build_grid(d, N)
        for spec in specs:
            for weight in (UNIT_WEIGHT, prof):
                for cells in (full_cells(g), ball_cells(g, 0.75)):
                    pair = assemble_p2(g, cells, spec, weight)
                    if isinstance(pair.energy, NestedRankOne):
                        continue
                    want = kernel_pencil_matrix(g, cells, spec, weight)
                    assert pair.energy.tobytes() == want.tobytes()
    g = build_grid(2, 16)
    assert np.any(assemble_p2(g, full_cells(g), specs[1]).energy == 0.0)


def test_pair_validation_refuses_without_full_temporaries():
    # Same checks and messages when the symmetry test runs over row blocks
    # of 64: the asymmetric entry of this 300 x 300 matrix is in the last.
    n = 300
    A = np.eye(n) - 1.0 / n
    QuadraticFormPair(A, np.ones(n))
    skew = A.copy()
    skew[290, 5] += 1e-6
    with pytest.raises(ValueError, match="symmetric to 1e-12"):
        QuadraticFormPair(skew, np.ones(n))
    shifted = A + 1e-3 * np.eye(n)
    with pytest.raises(ValueError, match="constants must lie in the kernel"):
        QuadraticFormPair(shifted, np.ones(n))
    for bad in (np.nan, np.inf, -np.inf):
        broken = A.copy()
        broken[7, 9] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            QuadraticFormPair(broken, np.ones(n))


def test_pair_keeps_only_a_frozen_matrix_uncopied():
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    pair = QuadraticFormPair(A, np.ones(2))
    A[0, 0] = 5.0
    assert pair.energy[0, 0] == 1.0 and not pair.energy.flags.writeable
    frozen = np.array([[1.0, -1.0], [-1.0, 1.0]])
    frozen.setflags(write=False)
    assert QuadraticFormPair(frozen, np.ones(2)).energy is frozen
    # a read-only view of a writeable array is still copied
    view = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :]
    view.setflags(write=False)
    assert QuadraticFormPair(view, np.ones(2)).energy is not view


@pytest.mark.parametrize("d,N", [(1, 128), (1, 256), (2, 16), (2, 24)])
def test_pair_stores_an_operator_dense_below_the_crossover(d, N):
    # 128, 256, 208 and 448 cells: dense below 256, the operator itself
    # from 256 on.
    g = build_grid(d, N)
    cells = full_cells(g)
    profile = make_step_profile([0.75], [2.0, 1.0])
    for operator in (local_stencil(g, cells, profile), floor_operator(g, cells, profile)):
        pair = QuadraticFormPair(operator, np.ones(len(cells)))
        if len(cells) < 256:
            assert type(pair.energy) is np.ndarray
            assert pair.energy.tobytes() == operator.dense().tobytes()
            assert pair.dense_energy() is pair.energy
        else:
            assert pair.energy is operator


def _local_solve_counter(monkeypatch):
    """Count ``smallest_nonzero_eigen`` calls per pencil: each call's
    (size, mass, dense energy) bytes."""
    calls = []
    solve = poincheck.sharp.smallest_nonzero_eigen

    def counted(pair, **kwargs):
        calls.append((pair.size, pair.mass.tobytes(), pair.dense_energy().tobytes()))
        return solve(pair, **kwargs)

    monkeypatch.setattr(poincheck.sharp, "smallest_nonzero_eigen", counted)
    monkeypatch.setattr(poincheck.runner, "smallest_nonzero_eigen", counted)
    return calls


def _pencil_key(grid, kernel=KernelSpec(KIND_LOCAL), weight=UNIT_WEIGHT):
    pair = assemble_p2(grid, full_cells(grid), kernel, weight)
    return (pair.size, pair.mass.tobytes(), pair.dense_energy().tobytes())


def test_unweighted_full_ball_pencil_is_solved_once_per_sharp_grid(monkeypatch, tmp_path):
    # One grid carries the suite's eigenfunction, the unit-ball term of
    # c_hat and the unit-weight gradient row; all three share one solve.
    calls = _local_solve_counter(monkeypatch)
    grids = []
    monkeypatch.setattr(
        poincheck.runner, "build_grid", lambda d, N: grids.append(build_grid(d, N)) or grids[-1]
    )
    config = parse_config({
        "dimension": 2, "grid_sizes": [16], "p_values": [2.0],
        "weights": [
            {"type": "step", "breakpoints": [], "values": [1.0]},
            {"type": "step", "breakpoints": [0.75], "values": [2.0, 1.0]},
        ],
        "kernels": [{"kind": "fractional", "s": 0.5}],
        "checks": ["gradient"],
        "suite": {"seed": 5, "count": 4},
    })
    result = run_sharp(config, tmp_path)
    (grid,) = grids
    assert [row["target"] for row in result.rows].count("gradient") == 2
    assert calls.count(_pencil_key(grid)) == 1
    # every other solve is of a different pencil, each solved once
    assert len(set(calls)) == len(calls)


def test_pencil_eigen_memo_lives_on_its_grid(monkeypatch):
    calls = _local_solve_counter(monkeypatch)
    g = build_grid(2, 32)
    local = KernelSpec(KIND_LOCAL)
    lam, vec, trace = pencil_eigen(full_cells(g), local)
    build_suite(g, SuiteSpec(seed=3, count=4))
    assert estimate_gradient_constant(g, (0.75,)) >= 1.0 / lam
    assert pencil_eigen(ball_cells(g, 1.0), local) == (lam, vec, trace)
    assert not vec.flags.writeable
    assert len(calls) == 2  # the full ball and the ball of radius 0.75
    fresh = []
    want = smallest_nonzero_eigen(assemble_p2(g, full_cells(g), local), trace=fresh)
    assert lam == want[0] and np.array_equal(vec, want[1])
    assert trace == tuple(fresh) and len(trace) > 0
    # another weight or kernel is another pencil; another grid, another memo
    pencil_eigen(full_cells(g), local, make_step_profile([0.75], [2.0, 1.0]))
    again = build_grid(2, 32)
    assert again._eigen == {}
    assert pencil_eigen(full_cells(again), local)[0] == lam
    assert len(calls) == 4


def test_eigenvalue_sandwich(rng):
    g = build_grid(2, 8)
    prof = make_step_profile([0.6], [2.0, 1.0])
    for pair in (
        assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL), prof),
        assemble_p2(g, full_cells(g), KernelSpec(KIND_FRACTIONAL, s=0.5)),
        assemble_transfer_p2(g, prof),
    ):
        spectrum = dense_oracle_eigen(pair)
        scale = max(1.0, float(spectrum[-1]))
        assert abs(spectrum[0]) <= 1e-12 * scale
        assert spectrum[1] > 1e-8
        assert np.all(np.diff(spectrum) >= -1e-12 * scale)


def test_mesh_monotone_convergence():
    lams = []
    for N in (64, 128, 256, 512):
        g = build_grid(1, N)
        pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
        lam, _ = smallest_nonzero_eigen(pair)
        lams.append(lam)
    gaps = [abs(b - a) for a, b in zip(lams, lams[1:])]
    assert gaps[1] <= gaps[0] / 2.0
    assert gaps[2] <= gaps[1] / 2.0


def test_sharp_constant_weighted_positive():
    g = build_grid(1, 64)
    for weight in (UNIT_WEIGHT, make_step_profile([0.75], [2.0, 1.0])):
        c = sharp_constant_p2(g, KernelSpec(KIND_LOCAL), weight)
        assert np.isfinite(c) and c > 0.0


def test_paper_bound_consistency_for_gradient_pairs():
    g = build_grid(1, 64)
    profiles = [
        make_step_profile([], [1.0]),
        make_step_profile([0.75], [2.0, 1.0]),
        make_step_profile([0.3, 0.55, 0.7, 0.85], [5.0, 4.0, 3.0, 2.0, 1.0]),
    ]
    for prof in profiles:
        c_hat = estimate_gradient_constant(g, layer_cake(prof).radii)
        empirical = sharp_constant_p2(g, KernelSpec(KIND_LOCAL), prof)
        paper = weighted_gradient_constant(2.0, 1, prof, c_hat)
        assert empirical <= paper
        assert paper / empirical > 8.0  # the explicit constants are far from sharp


def test_estimate_gradient_constant_includes_unit_ball():
    g = build_grid(1, 64)
    base = estimate_gradient_constant(g)
    with_atom = estimate_gradient_constant(g, (0.75,))
    assert with_atom >= base
    assert base == pytest.approx(sharp_constant_p2(g, KernelSpec(KIND_LOCAL)), rel=1e-12)


def test_estimate_gradient_constant_refuses_radii_outside_the_unit_ball():
    g = build_grid(1, 16)
    for r in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"ball radius must lie in \(0, 1\]"):
            estimate_gradient_constant(g, (r,))


def test_ratio_ascent_zero_steps_returns_start(rng):
    g = build_grid(1, 32)
    u0 = GridFunction(g, rng.standard_normal(32))
    lhs = lambda v: deviation_p_rows(v, full_cells(g), 2.0)
    rhs = lambda v: local_energy_rows(v, full_cells(g), 2.0)
    ratio, out = ratio_ascent(g, lhs, rhs, u0, steps=0, step_size=0.1)
    assert ratio == lhs(u0.values[None])[0] / rhs(u0.values[None])[0]
    assert np.array_equal(out.values, u0.values)


def test_ratio_ascent_deterministic(rng):
    g = build_grid(1, 16)
    u0 = GridFunction(g, rng.standard_normal(16))
    lhs = lambda v: deviation_p_rows(v, full_cells(g), 1.0)
    rhs = lambda v: local_energy_rows(v, full_cells(g), 1.0)
    r1, v1 = ratio_ascent(g, lhs, rhs, u0, steps=10, step_size=0.05)
    r2, v2 = ratio_ascent(g, lhs, rhs, u0, steps=10, step_size=0.05)
    assert r1 == r2
    assert np.array_equal(v1.values, v2.values)


def test_ratio_ascent_evaluates_each_iterate_once(rng):
    # One-row calls are the start and each step's new iterate; the probes
    # of a step go to each functional in one call, as Probes.  Each
    # iterate's ratio is the base of the next step's differences, so no
    # iterate is evaluated twice.
    g = build_grid(1, 32)
    u0 = GridFunction(g, rng.standard_normal(32))
    one_row = []
    probe_calls = {"lhs": 0, "rhs": 0}

    def counted(name, functional):
        def call(v):
            if isinstance(v, Probes):
                probe_calls[name] += 1
            elif name == "rhs":
                assert v.shape[0] == 1
                one_row.append(v[0].tobytes())
            return functional(v, full_cells(g), 2.0)

        return call

    lhs = counted("lhs", deviation_p_rows)
    rhs = counted("rhs", local_energy_rows)
    steps = 5
    ratio, _ = ratio_ascent(g, lhs, rhs, u0, steps=steps, step_size=0.05)
    assert len(one_row) == steps + 1
    assert len(set(one_row)) == steps + 1
    assert probe_calls == {"lhs": steps, "rhs": steps}
    assert ratio > lhs(u0.values[None])[0] / rhs(u0.values[None])[0]


def test_ratio_ascent_cross_validates_eigensolve(rng):
    g = build_grid(1, 32)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
    lam, vec = smallest_nonzero_eigen(pair)
    sharp = 1.0 / lam
    scale = float(np.abs(vec).max())
    noisy = GridFunction(g, vec + 0.05 * scale * rng.standard_normal(32))
    lhs = lambda v: deviation_p_rows(v, full_cells(g), 2.0)
    rhs = lambda v: local_energy_rows(v, full_cells(g), 2.0)
    ratio, _ = ratio_ascent(g, lhs, rhs, noisy, steps=60, step_size=0.01)
    assert ratio <= sharp * (1.0 + 1e-9)
    assert abs(ratio - sharp) <= 0.02 * sharp


def test_ratio_ascent_improves_on_step_function():
    g = build_grid(1, 64)
    step_vals = np.sign(g.centers[:, 0])
    u0 = GridFunction(g, step_vals)
    lhs = lambda v: deviation_p_rows(v, full_cells(g), 1.0)
    rhs = lambda v: local_energy_rows(v, full_cells(g), 1.0)
    start = lhs(u0.values[None])[0] / rhs(u0.values[None])[0]
    ratio, _ = ratio_ascent(g, lhs, rhs, u0, steps=15, step_size=0.05)
    assert ratio >= start


def test_ratio_ascent_requires_positive_rhs():
    g = build_grid(1, 16)
    u0 = GridFunction(g, np.ones(16))
    lhs = lambda v: deviation_p_rows(v, full_cells(g), 2.0)
    rhs = lambda v: local_energy_rows(v, full_cells(g), 2.0)
    with pytest.raises(ValueError, match="positive"):
        ratio_ascent(g, lhs, rhs, u0, steps=3, step_size=0.1)


ASCENT_WEIGHTS = {
    "none": UNIT_WEIGHT,
    "step": make_step_profile([0.75], [2.0, 1.0]),
    "power": profile_from_json({"type": "power", "beta": 1.0}, samples=16),
}
ASCENT_CASES = [
    ("gradient", "none"),
    ("gradient", "step"),
    ("gradient", "power"),
    ("transfer", "step"),
    ("transfer", "power"),
]


def _per_probe_functionals(grid, profile, p, target):
    """The scalar functionals run_sharp passed to the per-probe ascent."""
    whole = full_cells(grid)

    def lhs(u):
        return deviation_p(u, whole, p, profile=profile)

    def transfer_rhs(u):
        return ksum(
            [w * deviation_p(u, ball_cells(grid, t), p) for t, w in layer_cake(profile).atoms]
        )

    def gradient_rhs(u):
        return local_energy(u, whole, p, weight=profile)

    return lhs, transfer_rhs if target == "transfer" else gradient_rhs


def _row_functionals(grid, profile, p, target):
    """The row functionals run_sharp passes to ratio_ascent."""
    lhs, transfer_rhs, gradient_rhs = _ascent_functionals(grid, profile, p)
    return lhs, transfer_rhs if target == "transfer" else gradient_rhs


@pytest.mark.parametrize("target,weight", ASCENT_CASES)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("d,N", [(1, 16), (2, 8)])
def test_blocked_ratio_ascent_equals_per_probe(d, N, p, target, weight):
    # All probes of a step in one call of each functional, as Probes.
    g = build_grid(d, N)
    profile = ASCENT_WEIGHTS[weight]
    # The oracle recenters unweighted iterates to its own plain mean.
    oracle_weight = None if weight == "none" else profile
    u0 = GridFunction(g, np.random.default_rng(17).standard_normal(g.cell_count))
    expected = per_probe_ratio_ascent(
        g, *_per_probe_functionals(g, profile, p, target), u0, 4, 0.05, weight=oracle_weight
    )
    ratio, best = ratio_ascent(
        g, *_row_functionals(g, profile, p, target), u0, 4, 0.05, weight=profile
    )
    assert ratio == expected[0]
    assert np.array_equal(best.values, expected[1].values)


def test_ascent_weighs_each_set_once_per_profile(monkeypatch):
    # The row functionals take their cell weights from the grid's memo, so
    # the weight evaluations of an ascent do not grow with its steps: one
    # per (cell set, profile), here the whole ball under the profile (lhs,
    # gradient rhs and recentering) and each layer-cake ball unweighted.
    calls = []

    def counting(profile, radius):
        calls.append(profile)
        return eval_weight(profile, radius)

    monkeypatch.setattr(poincheck.grid, "eval_weight", counting)
    profile = ASCENT_WEIGHTS["power"]
    atoms = layer_cake(profile).atoms
    counts = []
    for steps in (2, 12):
        g = build_grid(1, 32)
        u0 = GridFunction(g, np.random.default_rng(5).standard_normal(g.cell_count))
        for target in ("transfer", "gradient"):
            ratio_ascent(g, *_row_functionals(g, profile, 1.5, target), u0, steps, 0.05, profile)
        counts.append(len(calls))
        calls.clear()
    assert counts == [1 + len(atoms)] * 2


@pytest.mark.parametrize("seed,restarts", [(0, False), (3, True)])
def test_blocked_ratio_ascent_zero_rhs_probes_and_restarts_equal_per_probe(seed, restarts):
    # The rhs is 0 where the first value exceeds the second.  The start lies
    # just below that edge, so probe 0 gets a zero gradient entry.  From
    # seed 0 the first step stays below the edge; from seed 3 it crosses,
    # so the next step restarts.
    g = build_grid(1, 16)
    vals = np.random.default_rng(seed).standard_normal(16)
    vals[0] = vals[1] - 1e-9
    u0 = GridFunction(g, vals)
    whole = full_cells(g)
    zero_rows = {"probe": 0, "single": 0}

    def rhs_rows(v):
        v = formed_rows(v) if isinstance(v, Probes) else v
        out = np.where(v[:, 0] > v[:, 1], 0.0, local_energy_rows(v, whole, 1.5))
        zero_rows["single" if v.shape[0] == 1 else "probe"] += int(np.sum(out <= 0.0))
        return out

    def rhs_scalar(u):
        return 0.0 if u.values[0] > u.values[1] else local_energy(u, whole, 1.5)

    lhs_rows = lambda v: deviation_p_rows(v, whole, 1.5)
    lhs_scalar = lambda u: deviation_p(u, whole, 1.5)
    expected = per_probe_ratio_ascent(g, lhs_scalar, rhs_scalar, u0, 8, 0.05)
    ratio, best = ratio_ascent(g, lhs_rows, rhs_rows, u0, 8, 0.05)
    assert zero_rows["probe"] > 0
    assert (zero_rows["single"] > 0) == restarts
    assert ratio > lhs_scalar(u0) / rhs_scalar(u0)
    assert ratio == expected[0]
    assert np.array_equal(best.values, expected[1].values)


def test_ratio_ascent_rejects_non_finite_start():
    g = build_grid(1, 16)
    vals = np.ones(16)
    vals[3] = np.nan
    start = SimpleNamespace(values=vals)

    def finite_only(functional):
        def checked(v):
            if not np.all(np.isfinite(v)):
                raise RuntimeError("a functional received non-finite values")
            return functional(v, full_cells(g), 2.0)

        return checked

    with pytest.raises(ValueError, match="finite"):
        ratio_ascent(
            g, finite_only(deviation_p_rows), finite_only(local_energy_rows), start, 3, 0.1
        )
