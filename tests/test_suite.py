import numpy as np
import pytest

import poincheck.suite
from poincheck.forms import KIND_LOCAL, KernelSpec
from poincheck.grid import build_grid, full_cells
from poincheck.sharp import _block_iteration, assemble_p2, member_eigenvector, pencil_eigen
from poincheck.suite import FAMILIES, SuiteSpec, _eigenfunction, build_suite, canonical_bump


def test_suite_spec_validation():
    with pytest.raises(ValueError):
        SuiteSpec(seed=1, count=0)


def test_suite_deterministic_given_seed():
    g = build_grid(1, 16)
    a = build_suite(g, SuiteSpec(seed=5, count=8))
    b = build_suite(g, SuiteSpec(seed=5, count=8))
    assert len(a) == 8
    for ua, ub in zip(a, b):
        assert np.array_equal(ua.values, ub.values)
    c = build_suite(g, SuiteSpec(seed=6, count=8))
    assert any(not np.array_equal(ua.values, uc.values) for ua, uc in zip(a, c))


def test_suite_eigenfunction_recomputed_equal():
    # Each call solves for its own eigenfunction; two calls on equal
    # grids give equal suites, eigen members included.
    a = build_suite(build_grid(2, 8), SuiteSpec(seed=5, count=8))
    b = build_suite(build_grid(2, 8), SuiteSpec(seed=5, count=8))
    assert len(a) == len(b) == 8
    for ua, ub in zip(a, b):
        assert np.array_equal(ua.values, ub.values)


def test_suite_cycles_families():
    # Member k belongs to FAMILIES[k % 4]: affine at 0, 4, 8, bump at 1, 5.
    g = build_grid(1, 16)
    suite = build_suite(g, SuiteSpec(seed=3, count=9))
    # affine members are exactly linear: second differences vanish
    for idx in (0, 4, 8):
        vals = suite[idx].values
        assert np.allclose(np.diff(vals, 2), 0.0, atol=1e-12)
    for idx in (1, 5):
        assert np.all(suite[idx].values > 0.0)  # bumps are positive


def test_eigen_family_repeats_are_perturbed():
    # Members 3 and 7 are the first two draws of the eigen family.
    g = build_grid(1, 16)
    suite = build_suite(g, SuiteSpec(seed=3, count=8))
    assert not np.array_equal(suite[3].values, suite[7].values)
    assert np.abs(suite[3].values).max() == pytest.approx(1.0)


@pytest.mark.parametrize("d,N", [(1, 32), (1, 64), (2, 16), (2, 32)])
def test_eigen_member_has_a_positive_largest_first_moment(d, N):
    g = build_grid(d, N)
    member = build_suite(g, SuiteSpec(seed=3, count=4))[3].values
    moments = member @ g.centers
    assert moments[np.argmax(np.abs(moments))] > 0.0


def test_eigen_member_on_2d_n32_is_the_solver_vector_unflipped():
    g = build_grid(2, 32)
    vec = member_eigenvector(g)
    assert np.array_equal(_eigenfunction(g), vec / np.abs(vec).max())


@pytest.mark.parametrize("d,N", [(1, 64), (2, 16), (2, 20), (2, 32)])
def test_eigen_member_keeps_its_own_solve(d, N):
    # Under 256 cells the member is the LAPACK vector of pencil_eigen; from
    # 256 on it is the block iteration's, bit for bit, kept apart from
    # pencil_eigen's Lanczos solve of the same pencil, whose vector may lie
    # elsewhere in the 2-d double eigenspace.  Each is solved once per grid.
    g = build_grid(d, N)
    cells = full_cells(g)
    vec = member_eigenvector(g)
    assert not vec.flags.writeable and member_eigenvector(g) is vec
    if len(cells) < 256:
        assert pencil_eigen(cells, KernelSpec(KIND_LOCAL))[1] is vec
    else:
        _, want = _block_iteration(assemble_p2(g, cells, KernelSpec(KIND_LOCAL)))
        assert vec.tobytes() == want.tobytes()


@pytest.mark.parametrize("d,N", [(1, 32), (2, 16)])
def test_eigen_member_does_not_follow_the_solver_sign(d, N, monkeypatch):
    g = build_grid(d, N)
    want = _eigenfunction(g)
    vec = member_eigenvector(g)
    monkeypatch.setattr(poincheck.suite, "member_eigenvector", lambda grid: -vec)
    assert np.array_equal(_eigenfunction(g), want)


def test_canonical_bump_fixed():
    g = build_grid(1, 32)
    a = canonical_bump(g)
    b = canonical_bump(g)
    assert np.array_equal(a.values, b.values)
    assert a.values.max() <= 1.0
    peak = g.centers[np.argmax(a.values), 0]
    assert abs(peak - 0.15) < g.h


def test_default_families_constant():
    assert FAMILIES == ("affine", "bump", "random_smooth", "eigen")
