import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from poincheck.grid import (
    CellSet,
    GridFunction,
    Probes,
    ball_cells,
    build_grid,
    deviation_p,
    deviation_p_rows,
    full_cells,
    make_suite,
    weighted_mean,
)
from poincheck.weights import (
    UNIT_WEIGHT,
    layer_cake,
    make_step_profile,
    profile_from_json,
    truncate_profile,
)
from conftest import deviation_about, lattice_neighbors, random_step_profile


def test_build_grid_1d():
    g = build_grid(1, 4)
    assert g.h == 0.5
    assert np.allclose(g.centers.ravel(), [-0.75, -0.25, 0.25, 0.75])
    assert g.cell_measure == 0.5


def test_build_grid_2d_excludes_corners():
    g = build_grid(2, 4)
    assert g.cell_count == 12  # the four corner cells have |center| > 1
    assert np.all(g.norms < 1.0)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(3, 8)
    with pytest.raises(ValueError):
        build_grid(1, 5)
    with pytest.raises(ValueError):
        build_grid(1, 2)


def test_neighbors_structure():
    g = build_grid(1, 4)
    up, down = full_cells(g).neighbors
    assert list(up[:, 0]) == [1, 2, 3, -1]
    assert list(down[:, 0]) == [-1, 0, 1, 2]
    # Set positions, not cells: the ball of radius 1/2 holds cells 1 and 2.
    up, down = ball_cells(g, 0.5).neighbors
    assert list(up[:, 0]) == [1, -1]
    assert list(down[:, 0]) == [-1, 0]
    assert all(table.shape == (0, 1) for table in ball_cells(g, 0.25).neighbors)


@pytest.mark.parametrize("d,N", [(1, 8), (1, 32), (1, 64), (2, 8), (2, 16), (2, 32)])
def test_cell_set_neighbors_match_the_lattice(d, N):
    g = build_grid(d, N)
    for t in (1.0, 0.55, 0.75):
        cells = ball_cells(g, t)
        up, down = cells.neighbors
        assert cells.neighbors is cells.neighbors
        want_up, want_down = lattice_neighbors(g, cells)
        for got, want in ((up, want_up), (down, want_down)):
            assert got.shape == (len(cells), d) and got.dtype == np.int64
            assert got.tolist() == want
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0] = 0
        k, a = np.nonzero(down >= 0)
        assert np.array_equal(up[down[k, a], a], k)
        assert np.count_nonzero(up >= 0) == k.size


def test_ball_cells():
    g = build_grid(1, 4)
    assert len(ball_cells(g, 1.0)) == 4
    assert list(ball_cells(g, 0.5).indices) == [1, 2]
    assert len(ball_cells(g, 0.25)) == 0
    # Every cell's center has norm below one, so the unit ball is the full
    # set, one object, and the memos keyed by the set see one key.
    for grid in (g, build_grid(2, 16)):
        assert full_cells(grid) is ball_cells(grid, 1.0)
        assert np.array_equal(full_cells(grid).indices, np.arange(grid.cell_count))
    with pytest.raises(ValueError):
        ball_cells(g, 0.0)
    with pytest.raises(ValueError):
        ball_cells(g, 1.5)


def test_cell_set_keeps_a_read_only_copy_of_its_indices():
    g = build_grid(1, 8)
    idx = np.array([0, 1, 2])
    cells = CellSet(g, idx)
    idx[0] = 3  # the caller's array stays writeable, and the set keeps its own
    assert cells.indices.tolist() == [0, 1, 2]
    assert not cells.indices.flags.writeable


def test_grid_memo_computes_each_key_once_and_keeps_no_failure():
    g = build_grid(1, 8)
    calls = []

    def compute():
        calls.append(1)
        return object()

    found = g.memo(("test", 1), compute)
    assert g.memo(("test", 1), compute) is found and len(calls) == 1

    def failing():
        calls.append(1)
        raise ArithmeticError("no value")

    for _ in range(2):
        with pytest.raises(ArithmeticError):
            g.memo(("test", 2), failing)
    assert len(calls) == 3
    assert build_grid(1, 8).memo(("test", 1), compute) is not found


def test_mean_examples():
    # The plain mean is the weighted mean against UNIT_WEIGHT.
    g = build_grid(1, 4)
    assert weighted_mean(GridFunction(g, np.full(4, 5.0)), UNIT_WEIGHT) == 5.0
    assert weighted_mean(GridFunction(g, g.centers[:, 0]), UNIT_WEIGHT) == 0.0
    assert weighted_mean(GridFunction(g, np.array([1.0, 2.0, 3.0, 4.0])), UNIT_WEIGHT) == 2.5


def test_mean_rejects_empty_cells():
    # The mean over a cell set is the default center of deviation_p.
    g = build_grid(1, 4)
    u = GridFunction(g, np.ones(4))
    with pytest.raises(ValueError, match="empty"):
        deviation_p(u, ball_cells(g, 0.25), 2.0)
    with pytest.raises(ValueError, match="empty"):
        deviation_p_rows(np.ones((2, 4)), ball_cells(g, 0.25), 2.0)


def test_weighted_mean_constant_function():
    g = build_grid(1, 8)
    prof = make_step_profile([0.6], [3.0, 1.0])
    u = GridFunction(g, np.full(g.cell_count, 2.5))
    assert weighted_mean(u, prof) == pytest.approx(2.5, rel=1e-15)


def test_weighted_mean_constant_weight_reduces_to_mean(rng):
    g = build_grid(2, 8)
    u = GridFunction(g, rng.standard_normal(g.cell_count))
    prof = make_step_profile([], [3.0])
    plain = math.fsum(u.values) / g.cell_count
    assert weighted_mean(u, UNIT_WEIGHT) == plain
    assert weighted_mean(u, prof) == pytest.approx(plain, abs=1e-13)


def test_weighted_mean_hand_example():
    g = build_grid(1, 4)
    u = GridFunction(g, np.array([0.0, 0.0, 0.0, 1.0]))
    prof = make_step_profile([0.5], [2.0, 1.0])  # weights (1, 2, 2, 1)
    assert weighted_mean(u, prof) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_deviation_constant_function():
    g = build_grid(1, 8)
    u = GridFunction(g, np.full(8, 3.0))
    assert deviation_p(u, full_cells(g), 2.0) == 0.0


def test_deviation_hand_example():
    g = build_grid(1, 4)
    u = GridFunction(g, g.centers[:, 0])
    assert deviation_p(u, full_cells(g), 2.0) == pytest.approx(0.625, rel=1e-15)


def test_deviation_mean_center_minimizes_p2(rng):
    g = build_grid(1, 16)
    u = GridFunction(g, rng.standard_normal(16))
    cells = full_cells(g)
    best = deviation_p(u, cells, 2.0)
    mean = weighted_mean(u, UNIT_WEIGHT)
    assert deviation_about(u, cells, 2.0, UNIT_WEIGHT, mean) == pytest.approx(best, rel=1e-14)
    assert deviation_about(u, cells, 2.0, UNIT_WEIGHT, 0.1) > best
    for c in rng.uniform(-2.0, 2.0, size=10):
        assert deviation_about(u, cells, 2.0, UNIT_WEIGHT, float(c)) >= best


def test_deviation_validation():
    g = build_grid(1, 4)
    u = GridFunction(g, np.ones(4))
    with pytest.raises(ValueError):
        deviation_p(u, full_cells(g), 0.5)
    with pytest.raises(ValueError):
        deviation_p(u, ball_cells(g, 0.25), 2.0)


def test_deviation_translation_invariance(rng):
    g = build_grid(2, 12)
    vals = rng.standard_normal(g.cell_count)
    cells = ball_cells(g, 0.8)
    prof = make_step_profile([0.7], [2.0, 1.0])
    for p in (1.0, 2.0, 3.0):
        base = deviation_p(GridFunction(g, vals), cells, p)
        shifted = deviation_p(GridFunction(g, vals + 7.25), cells, p)
        assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)
        base_w = deviation_p(GridFunction(g, vals), cells, p, profile=prof)
        shifted_w = deviation_p(GridFunction(g, vals + 7.25), cells, p, profile=prof)
        assert shifted_w == pytest.approx(base_w, rel=1e-12, abs=1e-12)


def test_mean_zero_identity(rng):
    # With the profile constant on the half ball, the weighted sum over the
    # grid telescopes through the layer-cake atoms exactly.
    for d, N in ((1, 32), (2, 16)):
        g = build_grid(d, N)
        for _ in range(10):
            prof = truncate_profile(random_step_profile(rng))
            vals = rng.standard_normal(g.cell_count)
            u0 = GridFunction(g, vals)
            vals = vals - weighted_mean(u0, prof)
            u = GridFunction(g, vals)
            assert abs(weighted_mean(u, prof)) < 1e-12
            total = 0.0
            for t, w in layer_cake(prof).atoms:
                cells = ball_cells(g, t)
                total += w * cells.measure * u.values[cells.indices].mean()
            scale = max(1.0, float(np.abs(vals).max()))
            assert abs(total) <= 1e-12 * scale


def test_gridfunction_validation():
    g = build_grid(1, 4)
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(5))
    with pytest.raises(ValueError):
        GridFunction(g, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="share one grid"):
        make_suite([GridFunction(g, np.ones(4)), GridFunction(build_grid(1, 4), np.ones(4))])


ROW_PROFILES = [
    None,
    make_step_profile([0.75], [2.0, 1.0]),
    profile_from_json({"type": "power", "beta": 1.0}, samples=16),
]


@pytest.mark.parametrize("offset", [None, 0.3])
@pytest.mark.parametrize("profile", ROW_PROFILES)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("radius", [None, 0.6])
@pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
def test_deviation_rows_equal_scalar(d, N, radius, p, profile, offset):
    g = build_grid(d, N)
    cells = full_cells(g) if radius is None else ball_cells(g, radius)
    rows = np.random.default_rng(3).standard_normal((5, g.cell_count))
    rows *= np.array([1e-3, 1.0, 7.0, 1e4, 0.5])[:, None]
    if offset is not None:  # rows whose mean is far from zero against their spread
        rows += offset
    # profile None: both calls take the default, UNIT_WEIGHT.
    weighting = {} if profile is None else {"profile": profile}
    got = deviation_p_rows(rows, cells, p, **weighting)
    assert got.shape == (5,)
    for r in range(5):
        u = GridFunction(g, rows[r])
        assert got[r] == deviation_p(u, cells, p, **weighting)


def test_deviation_rows_validation():
    g = build_grid(1, 8)
    with pytest.raises(ValueError, match="rows of 8"):
        deviation_p_rows(np.ones(8), full_cells(g), 2.0)
    with pytest.raises(ValueError, match="rows of 8"):
        deviation_p_rows(np.ones((2, 7)), full_cells(g), 2.0)
    with pytest.raises(ValueError, match="share one grid"):
        deviation_p_rows(np.ones((2, 8)), [full_cells(g), full_cells(build_grid(1, 8))], 2.0)


@pytest.mark.parametrize(
    "indices, message",
    [
        ([[0, 1]], "cell indices must be one-dimensional"),
        ([-1, 0], "cell index out of range for grid"),
        ([0, 4], "cell index out of range for grid"),
        ([1, 0], "cell indices must be sorted and unique"),
        ([1, 1], "cell indices must be sorted and unique"),
    ],
)
def test_cell_set_rejects_bad_indices(indices, message):
    with pytest.raises(ValueError, match=message):
        CellSet(build_grid(1, 4), indices)


def test_probes_reject_two_dimensional_values():
    with pytest.raises(ValueError, match="probe values must be one-dimensional"):
        Probes(np.zeros((2, 4)), 1e-6)


def test_deviation_rows_reject_a_set_of_zero_weight():
    # The weight is 0 from radius 0.75 on, so the cells past it weigh nothing.
    g = build_grid(1, 32)
    outer = CellSet(g, np.flatnonzero(g.norms >= 0.75))
    profile = make_step_profile([0.75], [1.0, 0.0])
    with pytest.raises(ValueError, match="weight vanishes on every cell of the set"):
        deviation_p_rows(np.ones((1, 32)), outer, 2.0, profile)


def test_grid_sets_and_suites_form_no_reference_cycle():
    # A cell set holds its grid weakly, and a suite holds its members'
    # values and memos, not the members: with the cyclic collector off, a
    # grid and its functions are freed when the last reference goes.  A
    # member keeps the values and memos of the others, which a memo miss
    # on it still fills.
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = build_grid(2, 8)
        cells = ball_cells(g, 0.5)
        copy = dataclasses.replace(cells)
        suite = make_suite(GridFunction(g, np.arange(g.cell_count) * float(k)) for k in range(3))
        deviation_p(suite[0], cells, 2.0)
        kept = suite[1]._memo
        grid, members = weakref.ref(g), [weakref.ref(u) for u in suite]
        first = suite[0]
        del g, suite
        assert grid() is not None and members[0]() is first
        assert all(ref() is None for ref in members[1:])
        deviation_p(first, full_cells(first.grid), 2.0)
        assert len(kept) == 2
        del first, kept
        assert grid() is None
    finally:
        if enabled:
            gc.enable()
    assert copy.indices.tobytes() == cells.indices.tobytes() and copy.shares_grid(cells) is False
    with pytest.raises(ReferenceError, match="the cell set's grid no longer exists"):
        cells.grid
    assert repr(cells) == f"CellSet(grid=<freed>, indices={cells.indices!r})"
