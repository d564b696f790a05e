import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import poincheck.grid
import poincheck.numerics
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
    _block_iteration,
    _lanczos,
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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="mass entries must be finite"):
            QuadraticFormPair(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([1.0, bad]))


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
    assert isinstance(pair.energy, EdgeStencil)
    assert np.allclose(pair.dense_energy(), L / g.h)
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


def assert_eigenpair_contract(pair, lam, v, tol=1e-8):
    """An array in the pair's cell order, mass-normalized, mass-orthogonal
    to constants, with relative residual at most tol."""
    assert isinstance(v, np.ndarray) and v.shape == (pair.size,)
    assert float(v @ (pair.mass * v)) == pytest.approx(1.0, rel=1e-12)
    assert abs(float(pair.mass @ v)) < 1e-10
    res = pair.energy @ v - lam * pair.mass * v
    assert np.linalg.norm(res) <= tol * np.linalg.norm(pair.energy @ v)


def test_smallest_eigen_path_graph_closed_form():
    # 4 cells: the public solve takes the LAPACK path; the iterations, that
    # of larger stencils and that of the suite's eigen member, are called
    # directly.
    g = build_grid(1, 4)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
    want = 2.0 * (1.0 - np.cos(np.pi / 4)) / g.h**2
    for solve in (smallest_nonzero_eigen, _lanczos, _block_iteration):
        lam, v = solve(pair)
        assert lam == pytest.approx(want, rel=1e-10)
        assert_eigenpair_contract(pair, lam, v)


def test_smallest_eigen_reports_nonconvergence():
    # 316 cells, at least the crossover: the public solve iterates.
    g = build_grid(2, 20)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
    assert pair.size == 316
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
    # 64 cells: under the crossover, so the iterations are called directly:
    # Lanczos on the banded factor of the stencil and on the full factor of
    # the formed fractional matrix, and the eigen member's block iteration
    # on the stencil.
    g = build_grid(1, 64)
    for spec, weight in (
        (KernelSpec(KIND_LOCAL), UNIT_WEIGHT),
        (KernelSpec(KIND_FRACTIONAL, s=0.5), make_step_profile([0.75], [2.0, 1.0])),
    ):
        pair = assemble_p2(g, full_cells(g), spec, weight)
        spectrum = dense_oracle_eigen(pair)
        solves = (_lanczos, _block_iteration) if spec.kind == KIND_LOCAL else (_lanczos,)
        for solve in solves:
            lam, _ = solve(pair)
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
    # The pair holds the stencil at every size; its dense form, which the
    # LAPACK solve reads, is the add.at assembly byte for byte.
    g = build_grid(d, N)
    for profile in DEMO_PROFILES:
        for t in (0.75, 1.0):
            cells = ball_cells(g, t)
            assert len(cells) < 256
            pair = assemble_p2(g, cells, KernelSpec(KIND_LOCAL), profile)
            assert isinstance(pair.energy, EdgeStencil)
            want = add_at_local_matrix(g, cells, profile)
            assert pair.dense_energy().tobytes() == want.tobytes()


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
            assert isinstance(pair.energy, NestedRankOne)
            assert pair.dense_energy().tobytes() == today.tobytes()


@pytest.mark.parametrize("d,N", [(1, 256), (2, 24), (2, 32)])
def test_nested_pencils_from_the_crossover_are_operators(d, N):
    g = build_grid(d, N)
    assert g.cell_count >= 256
    for profile in NESTED_PROFILES:
        assert isinstance(assemble_transfer_p2(g, profile).energy, NestedRankOne)
        for pair, _ in _nested_pencils(g, profile):
            assert isinstance(pair.energy, NestedRankOne)
    # the fractional kernel stays dense at every size
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_FRACTIONAL, s=0.5))
    assert type(pair.energy) is np.ndarray


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16), (2, 32)])
def test_unit_weight_nested_pencils_closed_forms(d, N):
    # Transfer: h^d (I - 1 1'/n) against h^d I, so every nonzero eigenvalue
    # is 1.  Floor: 2 h^(2d) (n I - 1 1') against h^d I, so it is 2 h^d n.
    # Every cell lies in one shell, so the reduction gives D / m, exactly,
    # on a vector e_a - e_b, with a residual of rounding only.
    g = build_grid(d, N)
    for pair, want in (
        (assemble_transfer_p2(g, UNIT_WEIGHT), 1.0),
        (assemble_p2(g, full_cells(g), FLOOR), 2.0 * g.cell_measure * g.cell_count),
    ):
        trace = []
        lam, v = smallest_nonzero_eigen(pair, trace=trace)
        assert type(lam) is float and lam == want
        assert len(trace) == 1 and trace[0][:2] == (1, lam) and trace[0][2] <= 1e-15
        assert np.count_nonzero(v) == 2
        assert_eigenpair_contract(pair, lam, v)


@pytest.mark.parametrize("d,N", [(1, 32), (1, 64), (2, 16), (2, 32)])
def test_shell_reduction_agrees_with_dense_oracle(d, N):
    # The transfer pencil and the floor pencils on the balls of radius 0.75
    # and 1 of every demo profile: the reduction's eigenvalue is the
    # oracle's smallest nonzero one, and its pair meets the contract.
    g = build_grid(d, N)
    for profile in DEMO_PROFILES:
        for pair, _ in _nested_pencils(g, profile):
            trace = []
            lam, v = smallest_nonzero_eigen(pair, trace=trace)
            assert abs(lam - dense_oracle_eigen(pair)[1]) <= 1e-12 * lam
            assert_eigenpair_contract(pair, lam, v)
            assert len(trace) == 1 and trace[0][:2] == (1, lam)


def test_shell_reduction_gives_the_ball2d_rationals():
    # The 2-d N = 32 workload's three weights: the transfer eigenvalues
    # 1, 45/58 and 1/2 and the floor eigenvalues 203/32, 315/64 and 95/32,
    # each within 2 ulps.
    g = build_grid(2, 32)
    weights = (
        UNIT_WEIGHT,
        make_step_profile([0.75], [2.0, 1.0]),
        make_step_profile([0.25, 0.5, 0.75], [1.0, 0.75, 0.5, 0.25]),
    )
    wants = ((1.0, 6.34375), (45 / 58, 4.921875), (0.5, 2.96875))
    for weight, (transfer, floor) in zip(weights, wants):
        for pair, want in (
            (assemble_transfer_p2(g, weight), transfer),
            (assemble_p2(g, full_cells(g), FLOOR, weight), floor),
        ):
            lam, _ = smallest_nonzero_eigen(pair)
            assert abs(lam - want) <= 2 * np.spacing(want)


def test_shell_reduction_fails_on_a_vanishing_shell():
    # Cells 0 and 1 lie in no set, so the energy is 0 on e_0 - e_1: the
    # eigenvalue 0 on a nonconstant vector fails with residual 1, and the
    # error carries the one trace row.
    pair = QuadraticFormPair(
        NestedRankOne.from_sets(np.array([0, 0, 1, 1, 1]), [3.0], [1.0]), np.ones(5)
    )
    trace = []
    with pytest.raises(EigenConvergenceError) as info:
        smallest_nonzero_eigen(pair, trace=trace)
    assert info.value.residual == 1.0
    assert info.value.trace == ((1, 0.0, 1.0),) and trace == [(1, 0.0, 1.0)]


def test_shell_reduction_solves_2d_n256_pencils_in_a_second():
    # 51,468 cells, where the dense matrix would take 21 GB.
    g = build_grid(2, 256)
    weight = make_step_profile([0.75], [2.0, 1.0])
    for pair in (
        assemble_transfer_p2(g, weight),
        assemble_p2(g, full_cells(g), FLOOR, weight),
    ):
        assert pair.size == 51468
        start = time.perf_counter()
        lam, v = smallest_nonzero_eigen(pair)
        assert time.perf_counter() - start < 1.0
        assert_eigenpair_contract(pair, lam, v)


def _demo_pencils(g, profile):
    """(kernel, pencil) for every pencil kind of the demo on the full ball:
    local, fractional s = 1/2, constant floor, and transfer (kernel None)."""
    for kernel in (KernelSpec(KIND_LOCAL), KernelSpec(KIND_FRACTIONAL, s=0.5), FLOOR):
        yield kernel, assemble_p2(g, full_cells(g), kernel, profile)
    yield None, assemble_transfer_p2(g, profile)


@pytest.mark.parametrize("d,N", [(1, 32), (1, 64), (2, 16)])
def test_lapack_path_agrees_with_block_iteration(d, N):
    # The public solve takes LAPACK or, for the floor and transfer pencils,
    # the shell reduction; the iterations are called directly: the block
    # iteration on every pencil, Lanczos on every one it can factor.
    g = build_grid(d, N)
    for profile in DEMO_PROFILES:
        for kernel, pair in _demo_pencils(g, profile):
            assert pair.size < 256
            trace = []
            lam, v = smallest_nonzero_eigen(pair, trace=trace)
            # the largest difference measured was 5.6e-13
            solves = (_block_iteration,)
            if not isinstance(pair.energy, NestedRankOne):
                solves += (_lanczos,)
            for solve in solves:
                want, _ = solve(pair)
                assert abs(lam - want) <= 1e-10 * want
            assert_eigenpair_contract(pair, lam, v)
            assert len(trace) == 1 and trace[0][:2] == (1, lam) and trace[0][2] <= 1e-8
            if kernel is not None:
                got, vec, rows = pencil_eigen(full_cells(g), kernel, profile)
                assert got == lam and np.array_equal(vec, v)
                assert rows == tuple(trace)


@pytest.mark.parametrize("d,N", [(1, 32), (1, 64), (2, 16)])
def test_lapack_solve_of_an_operator_is_that_of_its_dense_form(d, N, monkeypatch):
    # Under the crossover the solver densifies an edge stencil itself, and
    # takes its residual against that matrix: the same eigenvalue, vector
    # and trace row, bit for bit, as a pair built on the dense form.  A
    # nested rank-one pencil is never densified: the shell reduction's
    # eigenvalue is LAPACK's on the dense form to 1e-12.
    g = build_grid(d, N)
    for profile in DEMO_PROFILES:
        for _, pair in _demo_pencils(g, profile):
            assert pair.size < 256
            dense = QuadraticFormPair(pair.dense_energy(), pair.mass)
            assert type(dense.energy) is np.ndarray
            solves = []
            with monkeypatch.context() as patch:
                patch.setattr(NestedRankOne, "dense", None)
                for each in (pair, dense):
                    trace = []
                    lam, v = smallest_nonzero_eigen(each, trace=trace)
                    solves.append((lam, v.tobytes(), trace))
            if isinstance(pair.energy, NestedRankOne):
                assert abs(solves[0][0] - solves[1][0]) <= 1e-12 * solves[1][0]
            else:
                assert solves[0] == solves[1]


FRACTIONAL_KERNELS = (
    KernelSpec(KIND_FRACTIONAL, s=0.5),
    KernelSpec(KIND_FRACTIONAL, s=0.5, R=2.0),
)


@pytest.mark.parametrize("N", [24, 32])
def test_factored_iteration_agrees_with_dense_oracle(N):
    # 448 and 812 cells: formed fractional pencils, solved by Lanczos on the
    # grounded Cholesky factor.
    g = build_grid(2, N)
    for profile in DEMO_PROFILES:
        for kernel in FRACTIONAL_KERNELS:
            pair = assemble_p2(g, full_cells(g), kernel, profile)
            assert type(pair.energy) is np.ndarray and pair.size >= 256
            trace = []
            lam, v = smallest_nonzero_eigen(pair, trace=trace)
            spectrum = dense_oracle_eigen(pair)
            assert abs(lam - spectrum[1]) <= 1e-12 * lam, (N, profile, kernel)
            assert_eigenpair_contract(pair, lam, v)
            assert [row[0] for row in trace] == list(range(1, len(trace) + 1))
            assert trace[-1][1] == lam and trace[-1][2] <= 1e-8
            assert len(trace) < 200


def test_factored_iteration_reports_nonconvergence():
    # 448 cells: a formed pencil stops after max_iter steps, one trace row
    # each, and the error carries those rows.
    g = build_grid(2, 24)
    pair = assemble_p2(g, full_cells(g), FRACTIONAL_KERNELS[0])
    assert type(pair.energy) is np.ndarray and pair.size == 448
    trace = []
    with pytest.raises(EigenConvergenceError) as info:
        smallest_nonzero_eigen(pair, tol=1e-14, max_iter=3, trace=trace)
    assert [row[0] for row in trace] == [1, 2, 3]
    assert info.value.trace == tuple(trace)
    assert info.value.residual == trace[-1][2] > 1e-14


def test_factored_iteration_keeps_its_ritz_value_over_many_steps():
    # 448 cells, power weight, formed floor and fractional pencils, held to
    # a tolerance no step meets: the basis stays orthogonal and off the
    # constants, so from step 20 on every Ritz value is the eigenvalue to
    # 1e-12.  One orthogonalization pass, or none off q, lets the basis
    # drift and the values with it (1e-3 and worse on the floor pencil).
    g = build_grid(2, 24)
    power = profile_from_json({"type": "power", "beta": 1.0})
    for kernel in (FLOOR, FRACTIONAL_KERNELS[0]):
        built = assemble_p2(g, full_cells(g), kernel, power)
        pair = QuadraticFormPair(built.dense_energy(), built.mass)
        want = dense_oracle_eigen(pair)[1]
        trace = []
        with pytest.raises(EigenConvergenceError):
            smallest_nonzero_eigen(pair, tol=0.0, max_iter=60, trace=trace)
        assert len(trace) == 60
        for _, lam, _ in trace[19:]:
            assert abs(lam - want) <= 1e-12 * want, kernel


def test_factored_iteration_ends_on_an_invariant_krylov_space():
    # The unit constant-floor pencil, formed, at 316 cells: 2 h^(2d) (n I -
    # 1 1') against h^d I has the one nonzero eigenvalue 2 h^d n, so the
    # first Krylov vector spans an invariant space.  The solve returns that
    # eigenvalue after one step, dividing by no zero beta; where tol asks
    # for more than the rounding gives, the invariant space still ends it.
    g = build_grid(2, 20)
    floor = assemble_p2(g, full_cells(g), FLOOR)
    pair = QuadraticFormPair(floor.dense_energy(), floor.mass)
    assert type(pair.energy) is np.ndarray and pair.size == 316
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = []
        lam, v = smallest_nonzero_eigen(pair, trace=trace)
        assert lam == pytest.approx(2.0 * g.cell_measure * g.cell_count, rel=1e-12)
        assert_eigenpair_contract(pair, lam, v)
        assert len(trace) == 1 and trace[0][:2] == (1, lam)
        with pytest.raises(EigenConvergenceError) as info:
            smallest_nonzero_eigen(pair, tol=0.0)
        assert len(info.value.trace) == 1


@pytest.mark.parametrize("n", [2, 255, 300, 1000])
def test_blocked_cholesky_matches_lapack(n, rng):
    # Panel widths 2^16 // n: 32768, 257, 218 and 65 columns.  No size is
    # a multiple of its width: 2 and 255 fill one partial panel, and 300
    # and 1000 end in one.
    G = rng.standard_normal((n, n))
    A = G @ G.T / n + np.eye(n)
    factor = poincheck.sharp._BlockedCholesky.of_matrix(A)
    width = max(1, poincheck.numerics.BLOCK_ELEMENTS // n)
    assert [k0 for k0, *_ in factor.panels] == list(range(0, n, width))
    L = np.zeros((n, n))
    for k0, k1, inv, below in factor.panels:
        assert inv.shape == (k1 - k0,) * 2 and below.shape == (n - k1, k1 - k0)
        assert below.size <= poincheck.numerics.BLOCK_ELEMENTS
        L[k0:k1, k0:k1] = np.linalg.inv(inv)
        L[k1:, k0:k1] = below
    want = np.linalg.cholesky(A)
    assert np.max(np.abs(L - want)) <= 1e-12 * np.max(np.abs(want))
    B = rng.standard_normal((n, 3))
    want = np.linalg.solve(A, B)
    got = factor.solve(B)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_blocked_cholesky_refuses_a_matrix_that_is_not_positive_definite(rng):
    G = rng.standard_normal((300, 299))
    for A in (np.zeros((300, 300)), G @ G.T, -np.eye(300)):
        with pytest.raises(np.linalg.LinAlgError):
            poincheck.sharp._BlockedCholesky.of_matrix(A)


def _factor_lower(factor, n):
    """The dense lower triangle L that a factor's panels hold."""
    L = np.zeros((n, n))
    for k0, k1, inv, below in factor.panels:
        L[k0:k1, k0:k1] = np.linalg.inv(inv)
        L[k1 : k1 + len(below), k0:k1] = below
    return L


@pytest.mark.parametrize("d,N", [(1, 64), (1, 512), (2, 16), (2, 32)])
def test_stencil_factor_matches_lapack(d, N, rng):
    # The grounded stencil of every demo profile on the full ball and the
    # 0.75-ball: its envelope factor, built from the edge list, is LAPACK's
    # Cholesky of the dense form with cell 0 dropped, and its solve is
    # np.linalg.solve.  Two stable solves differ by up to the condition
    # number (about 1e5 on the 1-d N = 512 path) times the rounding: they
    # measured 1.1e-12 apart there and 1e-13 or less elsewhere, so the
    # solve is held to 1e-11 of np.linalg.solve's and to a backward error
    # of 1e-14, which no condition number scales (it measured 3.2e-16).
    # No panel exceeds BLOCK_ELEMENTS entries.
    g = build_grid(d, N)
    for profile in DEMO_PROFILES:
        for t in (0.75, 1.0):
            stencil = local_stencil(g, ball_cells(g, t), profile)
            A = stencil.dense()[1:, 1:]
            n = len(A)
            factor = poincheck.sharp._BlockedCholesky.of_grounded_stencil(stencil)
            assert factor.panels[-1][1] == n
            for k0, k1, _, below in factor.panels:
                assert (k1 - k0) * (k1 - k0 + len(below)) <= poincheck.numerics.BLOCK_ELEMENTS
            want = np.linalg.cholesky(A)
            L = _factor_lower(factor, n)
            assert np.max(np.abs(L - want)) <= 1e-12 * np.max(np.abs(want))
            B = rng.standard_normal((n, 3))
            want = np.linalg.solve(A, B)
            got = factor.solve(B)
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
            scale = np.abs(A).sum(axis=1).max() * np.max(np.abs(got))
            assert np.max(np.abs(A @ got - B)) <= 1e-14 * scale


@pytest.mark.parametrize("N", [32, 128])
def test_stencil_factor_makes_no_square_array(N):
    # 811 and 12,891 grounded cells: the factor keeps about n b entries,
    # far under (n - 1)^2, and its build needs no more on top of what it
    # keeps than a few BLOCK_ELEMENTS buffers and a few sorted copies of the
    # edge list (1.6 MB at N = 128, against 1.3 GB for (n - 1)^2 entries;
    # tracemalloc sees numpy's data).
    g = build_grid(2, N)
    stencil = local_stencil(g, full_cells(g))
    n = stencil.size - 1
    buffer = poincheck.numerics.BLOCK_ELEMENTS * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        factor = poincheck.sharp._BlockedCholesky.of_grounded_stencil(stencil)
        kept, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    entries = sum(inv.size + below.size for _, _, inv, below in factor.panels)
    assert entries * 8 <= kept and kept <= 8 * n * 3 * N
    assert peak - kept <= 3 * buffer + 16 * stencil.coef.nbytes < n * n * 8


# Every demo-profile stencil pencil of 256 to 2,000 cells on the full ball.
LANCZOS_STENCIL_GRIDS = [(1, 256), (1, 512), (2, 20), (2, 24), (2, 32), (2, 48)]


@pytest.mark.parametrize("d,N", LANCZOS_STENCIL_GRIDS)
def test_stencil_lanczos_agrees_with_dense_oracle(d, N):
    g = build_grid(d, N)
    for profile in DEMO_PROFILES:
        pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL), profile)
        assert isinstance(pair.energy, EdgeStencil) and 256 <= pair.size <= 2000
        trace = []
        lam, v = smallest_nonzero_eigen(pair, trace=trace)
        assert abs(lam - dense_oracle_eigen(pair)[1]) <= 1e-10 * lam, (d, N, profile)
        assert_eigenpair_contract(pair, lam, v)
        assert [row[0] for row in trace] == list(range(1, len(trace) + 1))
        assert trace[-1][1] == lam and trace[-1][2] <= 1e-8


def test_stencil_pencils_at_2d_n128_are_solved():
    # 12,892 cells, past the dense oracle: the unit and step-weight stencil
    # pencils meet the eigenpair contract, each in well under the seconds
    # the block iteration took (3.35 s on a 2-core Xeon).
    g = build_grid(2, 128)
    for weight in (UNIT_WEIGHT, make_step_profile([0.75], [2.0, 1.0])):
        pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL), weight)
        assert pair.size == 12892
        start = time.perf_counter()
        lam, v = smallest_nonzero_eigen(pair)
        assert time.perf_counter() - start < 2.0
        assert_eigenpair_contract(pair, lam, v)


def test_zero_dense_pencil_fails_at_once(monkeypatch):
    # A zero energy has no nonzero eigenvalue: the solve raises with
    # relative residual 1, the residual of eigenvalue 0, when its factor
    # breaks down, before any matvec or Ritz step.
    matvecs = []
    original = poincheck.sharp._SymmetricPencil.matvec

    def counted(self, x):
        matvecs.append(x.shape)
        return original(self, x)

    monkeypatch.setattr(poincheck.sharp._SymmetricPencil, "matvec", counted)
    pair = QuadraticFormPair(np.zeros((300, 300)), np.ones(300))
    trace = []
    with pytest.raises(EigenConvergenceError) as info:
        smallest_nonzero_eigen(pair, trace=trace)
    assert info.value.residual == 1.0
    assert matvecs == [] and trace == []


def test_operator_pencils_never_reach_the_factor(monkeypatch):
    # A nested rank-one pencil is never factored; a stencil reaches only a
    # banded factor, each row's envelope at most 2N + 1 entries long; the
    # formed fractional matrix a full one.  Each is grounded: 447 rows.
    factored = []
    original = poincheck.sharp._BlockedCholesky.__init__

    def spy(self, first, columns):
        factored.append((first.size, int((np.arange(first.size) - first).max()) + 1))
        original(self, first, columns)

    monkeypatch.setattr(poincheck.sharp._BlockedCholesky, "__init__", spy)
    g = build_grid(2, 24)
    step = make_step_profile([0.75], [2.0, 1.0])
    for kernel, pair in _demo_pencils(g, step):
        assert pair.size == 448
        lam, v = smallest_nonzero_eigen(pair)
        assert_eigenpair_contract(pair, lam, v)
        if isinstance(pair.energy, NestedRankOne):
            assert factored == []
        elif isinstance(pair.energy, EdgeStencil):
            assert len(factored) == 1 and factored[0][0] == 447
            assert factored[0][1] <= 2 * 24 + 1
        else:
            assert kernel.kind == KIND_FRACTIONAL and factored == [(447, 447)]
        factored.clear()


def test_block_iteration_backs_off_its_shift_after_a_breakdown(monkeypatch):
    # 316 cells, the local stencil: the shift first engages at pass 7, at
    # about 3.20 below the eigenvalue 3.28.  A CG breakdown reported there
    # throws that pass away, with no trace row, and the next pass runs at
    # half the shift; the solve still reaches the oracle's eigenvalue.
    g = build_grid(2, 20)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_LOCAL))
    assert pair.size == 316
    inv_sqrt = 1.0 / np.sqrt(pair.mass)
    shifts = []
    original = poincheck.sharp._projected_cg

    def breaking(matvec, b, project, x0, rtol, max_iter):
        # the shift sigma of this run, read off one product with S - sigma I
        x = project(np.arange(pair.size, dtype=float))
        Sx = inv_sqrt * (pair.energy @ (inv_sqrt * x))
        shifts.append(float((Sx - matvec(x)) @ x / (x @ x)))
        y, broke = original(matvec, b, project, x0, rtol, max_iter)
        return y, broke or len(shifts) == 3 * 6 + 1  # pass 7, column 0

    monkeypatch.setattr(poincheck.sharp, "_projected_cg", breaking)
    trace = []
    lam, v = _block_iteration(pair, trace=trace)
    per_pass = shifts[::3]  # three CG runs per pass, one per block column
    assert per_pass[:6] == [0.0] * 6 and per_pass[6] > 3.0
    assert per_pass[7] == pytest.approx(0.5 * per_pass[6], rel=1e-9)
    assert [row[0] for row in trace] == [1, 2, 3, 4, 5, 6, *range(8, len(trace) + 2)]
    assert abs(lam - dense_oracle_eigen(pair)[1]) <= 1e-8 * lam
    assert_eigenpair_contract(pair, lam, v)


def test_factored_solve_makes_no_new_square_array():
    # The factor, a lower triangle, is the one array of order n^2 the solve
    # makes; everything else is at most a few BLOCK_ELEMENTS buffers
    # (tracemalloc sees numpy's data).
    g = build_grid(2, 32)
    pair = assemble_p2(g, full_cells(g), KernelSpec(KIND_FRACTIONAL, s=0.5))
    assert pair.size == 812
    buffer = poincheck.numerics.BLOCK_ELEMENTS * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        smallest_nonzero_eigen(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= pair.energy.nbytes // 2 + 4 * buffer


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
    # 128, 256, 208 and 448 cells: the pair keeps the operator itself on
    # either side of the solver's crossover, and gives its dense form on
    # request.
    g = build_grid(d, N)
    cells = full_cells(g)
    profile = make_step_profile([0.75], [2.0, 1.0])
    for operator in (local_stencil(g, cells, profile), floor_operator(g, cells, profile)):
        pair = QuadraticFormPair(operator, np.ones(len(cells)))
        assert pair.energy is operator
        assert pair.dense_energy().tobytes() == operator.dense().tobytes()


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
