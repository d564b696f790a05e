import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poincheck import forms, numerics
from poincheck.config import load_config
from poincheck.forms import (
    KIND_FLOOR,
    KIND_FRACTIONAL,
    KIND_LOCAL,
    KernelSpec,
    kernel_energies,
    kernel_energy,
    kernel_from_json,
    kernel_to_json,
    local_energy,
    local_energy_rows,
    pair_coefficient_matrix,
    transfer_constant,
    weighted_gradient_constant,
)
from poincheck.numerics import SymmetricRowSums, ksum
from poincheck import grid as grid_module
from poincheck.grid import (
    CellSet,
    GridFunction,
    Probes,
    ball_cells,
    build_grid,
    deviation_p,
    deviation_p_rows,
    cell_weights,
    full_cells,
    make_suite,
)
from poincheck.runner import run_verify
from poincheck.weights import UNIT_WEIGHT, layer_cake, make_step_profile, profile_from_json
from conftest import (
    centre_difference_kernel_energy,
    centre_difference_pair_matrix,
    formed_rows,
    fsum_pair_energy,
    naive_kernel_energy,
    naive_local_energy,
    pair_term_matrix,
    product_pair_matrix,
)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("unknown")
    with pytest.raises(ValueError):
        KernelSpec(KIND_FRACTIONAL, s=1.0)
    with pytest.raises(ValueError):
        KernelSpec(KIND_FRACTIONAL, s=0.5, R=0.5)
    with pytest.raises(ValueError):
        KernelSpec(KIND_FLOOR, c=0.0)


def test_kernel_spec_refuses_nan_truncation():
    # nan fails every comparison: R = nan is refused, not taken as "not
    # below 1".
    with pytest.raises(ValueError, match="truncation parameter must be >= 1, got nan"):
        KernelSpec(KIND_FRACTIONAL, s=0.5, R=math.nan)
    with pytest.raises(ValueError, match="truncation parameter"):
        kernel_from_json({"kind": KIND_FRACTIONAL, "s": 0.5, "R": math.nan})


def test_kernel_spec_refuses_nan_floor():
    # Likewise c = nan is refused, not taken as "not at most 0".
    with pytest.raises(ValueError, match="kernel floor must be positive, got nan"):
        KernelSpec(KIND_FLOOR, c=math.nan)
    with pytest.raises(ValueError, match="kernel floor"):
        kernel_from_json({"kind": KIND_FLOOR, "c": math.nan})


def test_kernel_api_inventory():
    # The exponent is an argument of each energy, never a kernel field, so
    # a kernel round-trips through JSON whatever p it is used at.
    assert [f.name for f in dataclasses.fields(KernelSpec)] == ["kind", "s", "R", "c"]
    assert not hasattr(KernelSpec, "with_p")
    params = list(inspect.signature(kernel_energy).parameters)
    assert params == ["u", "cells", "kernel", "p", "weight"]
    for spec in (
        KernelSpec(KIND_FRACTIONAL, s=0.5),
        KernelSpec(KIND_FRACTIONAL, s=0.8, R=4.0),
        KernelSpec(KIND_FLOOR, c=2.0),
    ):
        assert kernel_from_json(json.loads(json.dumps(kernel_to_json(spec)))) == spec
    g = build_grid(1, 4)
    u = GridFunction(g, np.arange(4.0))
    with pytest.raises(ValueError, match="p >= 1"):
        kernel_energy(u, full_cells(g), KernelSpec(KIND_FRACTIONAL, s=0.5), 0.9)


def test_kernel_spec_json_round_trip():
    spec = KernelSpec(KIND_FRACTIONAL, s=0.8, R=4.0)
    doc = json.loads(json.dumps(kernel_to_json(spec)))
    assert kernel_from_json(doc) == spec
    assert doc == {"kind": "fractional", "s": 0.8, "R": 4.0}
    with pytest.raises(ValueError):
        kernel_from_json({"kind": "fractional", "s": 0.5, "horizon": 2})
    with pytest.raises(ValueError, match="'p'"):
        kernel_from_json({"kind": "fractional", "s": 0.5, "p": 2.0})


def test_local_energy_constant_is_zero():
    g = build_grid(1, 8)
    u = GridFunction(g, np.full(8, 4.0))
    assert local_energy(u, full_cells(g), 2.0) == 0.0


def test_local_energy_slope_hand_value_and_convergence():
    g = build_grid(1, 4)
    u = GridFunction(g, g.centers[:, 0])
    assert local_energy(u, full_cells(g), 2.0) == pytest.approx(1.5, rel=1e-15)
    errors = []
    for N in (64, 256):
        gN = build_grid(1, N)
        uN = GridFunction(gN, gN.centers[:, 0])
        errors.append(abs(local_energy(uN, full_cells(gN), 2.0) - 2.0))
    assert errors[1] < errors[0] / 2  # one-sided boundary error shrinks with h


def test_local_energy_indicator_jump():
    g = build_grid(1, 4)
    u = GridFunction(g, (g.centers[:, 0] > 0).astype(float))
    assert local_energy(u, full_cells(g), 1.0) == pytest.approx(1.0, rel=1e-15)


def test_local_energy_matches_naive(rng):
    prof = make_step_profile([0.65], [2.0, 1.0])
    for d, N in ((1, 12), (2, 8)):
        g = build_grid(d, N)
        for _ in range(5):
            u = GridFunction(g, rng.standard_normal(g.cell_count))
            for cells in (full_cells(g), ball_cells(g, 0.7)):
                for p in (1.0, 2.0, 3.0):
                    got = local_energy(u, cells, p, weight=prof)
                    want = naive_local_energy(u, cells, p, weight=prof)
                    assert got == pytest.approx(want, rel=1e-12)


def test_kernel_energy_constant_is_zero():
    g = build_grid(1, 8)
    u = GridFunction(g, np.full(8, 2.0))
    assert kernel_energy(u, full_cells(g), KernelSpec(KIND_FRACTIONAL, s=0.5), 2.0) == 0.0


def test_kernel_energy_hand_value():
    g = build_grid(1, 4)
    u = GridFunction(g, np.array([0.0, 0.0, 0.0, 1.0]))
    spec = KernelSpec(KIND_FRACTIONAL, s=0.5)
    want = 2 * 0.25 * (4.0 / 9.0 + 1.0 + 4.0)
    assert kernel_energy(u, full_cells(g), spec, 2.0) == pytest.approx(want, rel=1e-14)


def test_kernel_energy_truncation_hand_value():
    g = build_grid(1, 4)
    u = GridFunction(g, np.array([0.0, 0.0, 0.0, 1.0]))
    spec = KernelSpec(KIND_FRACTIONAL, s=0.5, R=2.0)
    assert kernel_energy(u, full_cells(g), spec, 2.0) == pytest.approx(2.0, rel=1e-14)


def test_kernel_energy_rejects_local_kind():
    g = build_grid(1, 4)
    u = GridFunction(g, np.zeros(4))
    with pytest.raises(ValueError):
        kernel_energy(u, full_cells(g), KernelSpec(KIND_LOCAL), 2.0)


def test_kernel_energy_symmetries(rng):
    g = build_grid(1, 32)
    vals = rng.standard_normal(32)
    cells = full_cells(g)
    prof = make_step_profile([0.7], [2.0, 1.0])
    spec = KernelSpec(KIND_FRACTIONAL, s=0.4, R=2.0)
    base = kernel_energy(GridFunction(g, vals), cells, spec, 3.0, weight=prof)
    flipped = kernel_energy(GridFunction(g, -vals), cells, spec, 3.0, weight=prof)
    shifted = kernel_energy(GridFunction(g, vals + 3.5), cells, spec, 3.0, weight=prof)
    assert flipped == pytest.approx(base, rel=1e-12)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_kernel_energy_monotone_in_truncation(rng):
    g = build_grid(1, 24)
    u = GridFunction(g, rng.standard_normal(24))
    cells = full_cells(g)
    prev = kernel_energy(u, cells, KernelSpec(KIND_FRACTIONAL, s=0.5), 2.0)
    for R in (1.0, 2.0, 4.0, 8.0):
        cur = kernel_energy(u, cells, KernelSpec(KIND_FRACTIONAL, s=0.5, R=R), 2.0)
        assert cur <= prev + 1e-15
        prev = cur


def test_kernel_energy_weight_monotonicity(rng):
    g = build_grid(1, 24)
    u = GridFunction(g, rng.standard_normal(24))
    cells = full_cells(g)
    spec = KernelSpec(KIND_FRACTIONAL, s=0.6)
    small = make_step_profile([0.6], [1.0, 0.5])  # levels <= 1 everywhere
    assert kernel_energy(u, cells, spec, 2.0, weight=small) <= kernel_energy(u, cells, spec, 2.0)


def test_kernel_energy_matches_naive(rng):
    prof = make_step_profile([0.65], [2.0, 1.0])
    specs = [
        (KernelSpec(KIND_FRACTIONAL, s=0.5), 2.0),
        (KernelSpec(KIND_FRACTIONAL, s=0.8, R=2.0), 1.0),
        (KernelSpec(KIND_FLOOR, c=1.0), 2.0),
    ]
    for d, N in ((1, 16), (2, 8)):
        g = build_grid(d, N)
        for _ in range(3):
            u = GridFunction(g, rng.standard_normal(g.cell_count))
            for spec, p in specs:
                for weight, oracle_weight in ((UNIT_WEIGHT, None), (prof, prof)):
                    got = kernel_energy(u, full_cells(g), spec, p, weight=weight)
                    want = naive_kernel_energy(u, full_cells(g), spec, p, weight=oracle_weight)
                    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d,N", [(1, 8), (1, 16), (1, 32), (1, 64), (2, 8), (2, 16), (2, 32)])
def test_offset_table_equals_centre_differences(rng, d, N):
    # N is a power of two, so the offset table must reproduce the kernel of
    # the center differences bit for bit.
    g = build_grid(d, N)
    u = GridFunction(g, rng.standard_normal(g.cell_count))
    prof = make_step_profile([0.3, 0.65], [3.0, 2.0, 1.0])
    specs = [
        KernelSpec(KIND_FRACTIONAL, s=0.5),
        KernelSpec(KIND_FRACTIONAL, s=0.8, R=2.0),
        KernelSpec(KIND_FLOOR, c=1.0),
    ]
    for spec in specs:
        for weight, oracle_weight in ((UNIT_WEIGHT, None), (prof, prof)):
            for cells in (full_cells(g), ball_cells(g, 0.6)):
                for p in (1.0, 2.0):
                    got = kernel_energy(u, cells, spec, p, weight=weight)
                    want = centre_difference_kernel_energy(u, cells, spec, p, oracle_weight)
                    assert got == want
                got_c = pair_coefficient_matrix(cells, spec, weight=weight)
                want_c = centre_difference_pair_matrix(g, cells, spec, oracle_weight)
                assert np.array_equal(got_c, want_c)


@pytest.mark.parametrize("d,N", [(1, 32), (1, 48), (2, 16), (2, 24)])
def test_pair_matrix_scaled_in_place_keeps_every_bit(d, N):
    # Scaling the gather in place changes no bit, the sign of each zero
    # included; the truncated kernel (R = 2) has zero entries off the
    # diagonal, and N = 48 is not a power of two.
    g = build_grid(d, N)
    prof = make_step_profile([0.3, 0.65], [3.0, 2.0, 1.0])
    specs = [
        KernelSpec(KIND_FRACTIONAL, s=0.5),
        KernelSpec(KIND_FRACTIONAL, s=0.8, R=2.0),
        KernelSpec(KIND_FLOOR, c=1.0),
    ]
    for spec in specs:
        for weight in (UNIT_WEIGHT, prof):
            for cells in (full_cells(g), ball_cells(g, 0.6)):
                got = pair_coefficient_matrix(cells, spec, weight=weight)
                want = product_pair_matrix(g, cells, spec, weight)
                assert got.tobytes() == want.tobytes()
    truncated = pair_coefficient_matrix(full_cells(g), specs[1])
    assert np.any(truncated[~np.eye(len(truncated), dtype=bool)] == 0.0)


_BLOCKING_KERNELS = [
    KernelSpec(KIND_FRACTIONAL, s=0.5),
    KernelSpec(KIND_FRACTIONAL, s=0.5, R=1.0),
    KernelSpec(KIND_FRACTIONAL, s=0.3, R=2.0),
    KernelSpec(KIND_FRACTIONAL, s=0.7, R=3.0),
    KernelSpec(KIND_FRACTIONAL, s=0.5, R=5.0),
    KernelSpec(KIND_FLOOR, c=1.0),
]
_BLOCKING_GRIDS = [(d, N) for d in (1, 2) for N in (30, 32, 48, 64)]
_BLOCKING_VALUES = ("smooth", "constant", "ties", "wide")


def _blocking_values(g, kind):
    rng = np.random.default_rng(g.N)
    smooth = np.sin(3.0 * g.centers[:, 0]) + g.norms**2 + 0.1 * rng.standard_normal(g.cell_count)
    if kind == "smooth":
        return smooth
    if kind == "constant":
        return np.full(g.cell_count, 0.7)  # every term 0
    if kind == "ties":
        return np.round(4.0 * smooth)  # a dozen values, so most rows hold many zero terms
    # Magnitudes 2^-60 .. 2^60: the terms span more than 100 bits, so the
    # rows of one strip finish at different passes.
    exponents = rng.permutation(np.linspace(-60.0, 60.0, g.cell_count))
    return rng.choice([-1.0, 1.0], g.cell_count) * (1.0 + rng.random(g.cell_count)) * 2.0**exponents


@pytest.mark.parametrize("d,N", _BLOCKING_GRIDS)
def test_kernel_energy_bit_identical_to_full_width_oracle(d, N):
    # The oracle forms every row at full width, 256 rows at a time, and sums
    # it by ``fsum``; upper-triangle strips on one extraction schedule, and
    # truncated kernels clipped to their reach, must not move a bit.  At
    # 2-d N = 32 and R = 2, 1/R = 8h is a lattice distance, so the
    # truncation edge is exact.
    g = build_grid(d, N)
    values = {kind: _blocking_values(g, kind) for kind in _BLOCKING_VALUES}
    weights = [
        UNIT_WEIGHT,
        make_step_profile([0.75], [2.0, 1.0]),
        profile_from_json({"type": "power", "beta": 1.0}),
    ]
    ps = [1.0, 1.5, 2.0]
    for i, kernel in enumerate(_BLOCKING_KERNELS):
        # Each kernel takes every ball once, and the weights and exponents
        # turn with the kernel, so every pair of them is met with the smooth
        # function; the other three functions turn with the ball on top.
        for j, t in enumerate((1.0, 0.75, 0.5, 0.3)):
            if (d, t) == (2, 1.0) and N >= 48 and kernel.R not in (None, 5.0):
                continue  # the oracle takes about 1 s on these 1,804 and 3,228 cells
            cells = ball_cells(g, t)
            weight, p = weights[(i + j) % 3], ps[(i + 2 * j) % 3]
            for kind in ("smooth", _BLOCKING_VALUES[1 + (i + j) % 3]):
                u = GridFunction(g, values[kind])
                got = kernel_energy(u, cells, kernel, p, weight)
                want = fsum_pair_energy(u, cells, kernel, p, weight)
                assert got.hex() == want.hex(), (kernel, t, weight, p, kind)


@pytest.mark.parametrize("d,N", _BLOCKING_GRIDS)
def test_reach_bounds_every_nonzero_kernel_offset(d, N):
    g = build_grid(d, N)
    for kernel in _BLOCKING_KERNELS:
        table = forms._offset_kernel(g, kernel, 2.0)[0].reshape((2 * N - 1,) * d)
        axis0 = np.abs(np.nonzero(table)[0] - (N - 1))
        reach = forms._reach(g, kernel)
        assert axis0.max() <= reach
        if kernel.R is None:
            assert reach == N - 1
        else:
            assert axis0.max() >= reach - 2  # the bound is close, so it clips


def test_pair_energy_strips_tile_the_rows(monkeypatch):
    # The strips of a pair energy tile its upper triangle: each covers its
    # rows once, from its first row's column rightwards, with at most
    # ``numerics.BLOCK_ELEMENTS`` terms, and the columns it drops hold only
    # zero terms.  Truncated kernels drop some on the 812-cell ball; the
    # others none.  Strips are sized by their clipped width, so every strip
    # but the last holds between half and all of the budget.  A set of at
    # most 2^16 terms is one strip, and no set whose bound fits is summed
    # as full rows.
    strips = []
    add = SymmetricRowSums.add

    def recording(self, strip, start):
        strips.append((start, strip.copy()))
        add(self, strip, start)

    def full_rows(matrix):
        raise AssertionError("full rows summed for a set whose bound fits")

    monkeypatch.setattr(SymmetricRowSums, "add", recording)
    monkeypatch.setattr(forms, "ksum_rows", full_rows)
    for d, N, t in ((2, 32, 1.0), (1, 32, 1.0), (2, 32, 0.5), (2, 16, 1.0)):
        g = build_grid(d, N)
        u = GridFunction(g, np.sin(3.0 * g.centers[:, 0]) + g.centers[:, -1])
        cells = ball_cells(g, t)
        m = len(cells)
        for kernel in (
            KernelSpec(KIND_FRACTIONAL, s=0.5, R=2.0),
            KernelSpec(KIND_FRACTIONAL, s=0.5),
            KernelSpec(KIND_FLOOR, c=1.0),
        ):
            strips.clear()
            kernel_energy(u, cells, kernel, 2.0)
            terms = pair_term_matrix(u, cells, kernel, 2.0)
            firsts = [start for start, _ in strips]
            lasts = [start + strip.shape[0] for start, strip in strips]
            assert firsts[0] == 0 and firsts[1:] == lasts[:-1] and lasts[-1] == m
            widths = []
            for start, strip in strips:
                k, w = strip.shape
                assert strip.size <= numerics.BLOCK_ELEMENTS
                assert strip.tobytes() == terms[start : start + k, start : start + w].tobytes()
                assert not terms[start : start + k, start + w :].any()
                widths.append((start, w))
            for _, strip in strips[:-1]:
                assert strip.size >= numerics.BLOCK_ELEMENTS // 2, (d, N, t, kernel)
            if m * m <= numerics.BLOCK_ELEMENTS:
                assert len(strips) == 1, (d, N, t)
            elif kernel.R is None:
                assert all(w == m - start for start, w in widths)
            else:  # the strips of the first half end well before the last column
                assert all(w < m - start for start, w in widths if start < m // 2)


def test_pair_energy_rows_summed_again_in_full_stay_few(monkeypatch, tmp_path):
    # A pair energy's rows come from one extraction and a float tail, and
    # the rows whose rounding the tail's bound leaves open are formed and
    # summed again in full.  Those give the same floats, so a bound gone
    # wide would show only in time; this counts them.  ball2d-p2 verify
    # (the 812-cell ball, its suite and profiles) sums 63,504 rows, of
    # which 1,943 (3.1%) were summed again when this was written; 5% is
    # the limit.
    counts = {"rows": 0, "again": 0}
    sums = SymmetricRowSums.sums

    def counting(self, full_rows):
        def again(f, rows):
            counts["again"] += rows.size
            return full_rows(f, rows)

        out = sums(self, again)
        counts["rows"] += out.size
        return out

    monkeypatch.setattr(SymmetricRowSums, "sums", counting)
    config = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "ball2d-p2.json"
    run_verify(load_config(config), tmp_path)
    assert counts["rows"] == 63504
    assert counts["again"] <= 0.05 * counts["rows"], counts


@pytest.mark.parametrize("d,R", [(2, 2.0), (2, 5.0), (2, None), (1, 2.0)])
def test_overflowing_pairs_beyond_the_kernel_reach_add_nothing(d, R):
    # |u_i - u_j|^2 overflows to inf on every pair across x = 0.  Where the
    # truncated kernel is zero such a pair contributes exactly 0, not
    # inf * 0 = nan, so the energy is inf whether or not pairs are cut.
    g = build_grid(d, 32)
    kernel = KernelSpec(KIND_FRACTIONAL, s=0.5, R=R)
    u = GridFunction(g, np.where(g.centers[:, 0] < 0.0, 1e200, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        assert kernel_energy(u, full_cells(g), kernel, 2.0) == math.inf
        assert kernel_energy(u, ball_cells(g, 0.5), kernel, 2.0) == math.inf
        # So does a pair with a zero weight: w = 0 past radius 0.75.
        cut = make_step_profile([0.75], [1.0, 0.0])
        assert kernel_energy(u, full_cells(g), kernel, 2.0, cut) == math.inf
    # Finite terms whose bound overflows are summed as before.
    big = GridFunction(g, np.where(g.centers[:, 0] < 0.0, 1e150, 0.0))
    for p in (1.0, 2.0):
        got = kernel_energy(big, full_cells(g), kernel, p)
        assert got.hex() == fsum_pair_energy(big, full_cells(g), kernel, p).hex()


def _count_table_builds(monkeypatch):
    builds = []
    original = forms._offset_kernel

    def counted(grid, kernel, p):
        builds.append((kernel, p))
        return original(grid, kernel, p)

    monkeypatch.setattr(forms, "_offset_kernel", counted)
    return builds


def _energies(u):
    """u's memoized pair energies, by (cells, kernel, p, weight)."""
    return {key[1:]: e for key, e in u._memo.items() if key[0] == "forms.kernel_energy"}


def _deviations(u):
    """u's memoized deviations, by (cells, p, profile)."""
    return {key[1:]: e for key, e in u._memo.items() if key[0] == "grid.deviation_p"}


def test_kernel_energy_memo_returns_stored_energy(rng, monkeypatch):
    # One table build per suite miss: the first call fills every member.
    builds = _count_table_builds(monkeypatch)
    g = build_grid(2, 8)
    suite = make_suite(GridFunction(g, rng.standard_normal(g.cell_count)) for _ in range(3))
    spec = KernelSpec(KIND_FRACTIONAL, s=0.5)
    first = kernel_energy(suite[1], ball_cells(g, 0.6), spec, 2.0)
    assert len(builds) == 1
    assert all(len(_energies(u)) == 1 for u in suite)
    assert kernel_energy(suite[1], ball_cells(g, 0.6), spec, 2.0) is first
    for u in suite:
        assert kernel_energy(u, ball_cells(g, 0.6), spec, 2.0) == (
            centre_difference_kernel_energy(u, ball_cells(g, 0.6), spec, 2.0)
        )
    assert len(builds) == 1
    # The memo is keyed by the set object: an equal copy of the set gives
    # the same float, but it is another key, filled by a build of its own.
    cells = dataclasses.replace(ball_cells(g, 0.6))
    assert cells is not ball_cells(g, 0.6)
    assert kernel_energy(suite[1], cells, spec, 2.0) == first
    assert len(builds) == 2
    assert all(len(_energies(u)) == 2 for u in suite)


def test_kernel_energy_memo_keys(rng, monkeypatch):
    builds = _count_table_builds(monkeypatch)
    g = build_grid(2, 8)
    suite = make_suite(GridFunction(g, rng.standard_normal(g.cell_count)) for _ in range(3))
    spec = KernelSpec(KIND_FRACTIONAL, s=0.5)
    prof = make_step_profile([0.65], [2.0, 1.0])
    calls = [
        (full_cells(g), spec, 2.0, UNIT_WEIGHT),
        (ball_cells(g, 0.6), spec, 2.0, UNIT_WEIGHT),
        (full_cells(g), KernelSpec(KIND_FRACTIONAL, s=0.5, R=2.0), 2.0, UNIT_WEIGHT),
        (full_cells(g), KernelSpec(KIND_FRACTIONAL, s=0.5, R=4.0), 2.0, UNIT_WEIGHT),
        (full_cells(g), spec, 2.0, prof),
        (full_cells(g), spec, 2.0, make_step_profile([0.65], [3.0, 1.0])),
        (full_cells(g), spec, 3.0, UNIT_WEIGHT),
    ]
    # Each key misses on one member (the members take turns) and is then
    # stored for all: one table build per key.
    for j, (cells, kernel, p, w) in enumerate(calls):
        kernel_energy(suite[j % 3], cells, kernel, p, weight=w)
    assert len(builds) == len(calls)
    for u in suite:
        assert len(_energies(u)) == len(calls)
        energies = [kernel_energy(u, cells, kernel, p, weight=w) for cells, kernel, p, w in calls]
        assert len(set(energies)) == len(calls)
        for (cells, kernel, p, w), energy in zip(calls, energies):
            oracle_weight = None if w is UNIT_WEIGHT else w
            assert energy == centre_difference_kernel_energy(u, cells, kernel, p, oracle_weight)
    # A key holds the set object itself.  Equal kernels and profiles built
    # from new objects hit the stored entries; the default weight is
    # UNIT_WEIGHT, an equal profile is the same key, and the unit ball is
    # the full set.
    u = suite[0]
    twin_spec = KernelSpec(KIND_FRACTIONAL, s=0.5)
    again = kernel_energy(
        u, full_cells(g), twin_spec, 2.0, weight=make_step_profile([0.65], [2.0, 1.0])
    )
    assert again is _energies(u)[(full_cells(g), spec, 2.0, prof)]
    stored = _energies(u)[(full_cells(g), spec, 2.0, UNIT_WEIGHT)]
    assert kernel_energy(u, full_cells(g), twin_spec, 2.0) is stored
    assert kernel_energy(u, full_cells(g), spec, 2.0, make_step_profile([], [1.0])) is stored
    assert kernel_energy(u, ball_cells(g, 1.0), spec, 2.0) is stored
    assert len(builds) == len(calls)


def test_kernel_energy_memo_belongs_to_one_function(rng, monkeypatch):
    builds = _count_table_builds(monkeypatch)
    g = build_grid(1, 16)
    vals = rng.standard_normal(g.cell_count)
    u = GridFunction(g, vals)
    spec = KernelSpec(KIND_FLOOR, c=1.0)
    energy = kernel_energy(u, full_cells(g), spec, 2.0)
    twin = GridFunction(g, vals)
    assert _energies(twin) == {}
    assert kernel_energy(twin, full_cells(g), spec, 2.0) == energy
    assert len(builds) == 2
    # A miss fills its own suite only; a member of another suite with the
    # same values takes its own build.
    first = make_suite([GridFunction(g, vals), GridFunction(g, 2.0 * vals)])
    second = make_suite([GridFunction(g, vals)])
    assert kernel_energy(first[0], full_cells(g), spec, 2.0) == energy
    assert _energies(first[1]) and _energies(second[0]) == {}
    assert kernel_energy(second[0], full_cells(g), spec, 2.0) == energy
    assert len(builds) == 4


def test_offset_geometry_is_computed_once_per_grid(rng):
    # Every kernel table of a grid, at every p, reads the one (distances,
    # keys, center) the grid keeps; a table is the kernel of those
    # distances.
    g = build_grid(2, 8)
    assert "offsets" not in vars(g)
    u = GridFunction(g, rng.standard_normal(g.cell_count))
    for kernel in (KernelSpec(KIND_FRACTIONAL, s=0.5), KernelSpec(KIND_FRACTIONAL, s=0.7, R=2.0)):
        for p in (1.0, 2.0):
            kernel_energy(u, ball_cells(g, 0.6), kernel, p)
            pair_coefficient_matrix(full_cells(g), kernel)
            distances, keys, center = vars(g)["offsets"]
            table, got_keys, got_center = forms._offset_kernel(g, kernel, p)
            assert got_keys is keys and got_center == center
            assert table.tobytes() == forms._kernel_block(distances, kernel, p, 2).tobytes()
    assert g.offsets[0] is distances
    assert not distances.flags.writeable and not keys.flags.writeable
    assert "offsets" not in vars(build_grid(2, 8))


def test_deviation_memo_fills_the_suite_in_one_row_call(rng, monkeypatch):
    rows_calls = []
    rows = grid_module.deviation_p_rows

    def counted(values, *args, **kwargs):
        rows_calls.append(len(values))
        return rows(values, *args, **kwargs)

    monkeypatch.setattr(grid_module, "deviation_p_rows", counted)
    g = build_grid(1, 32)
    values = rng.standard_normal((4, g.cell_count))
    suite = make_suite(GridFunction(g, v) for v in values)
    prof = make_step_profile([0.5], [2.0, 1.0])
    cells = ball_cells(g, 0.75)
    got = [deviation_p(u, cells, 1.5, prof) for u in suite]
    assert rows_calls == [4]
    assert deviation_p(suite[2], cells, 1.5, make_step_profile([0.5], [2.0, 1.0])) is got[2]
    assert rows_calls == [4]
    for v, dev in zip(values, got):
        assert dev == rows(v[None, :], cells, 1.5, prof)[0]
    # An equal copy of the set is another key: the same floats, filled for
    # the suite in a call of its own.  A lone function fills itself only.
    copy = dataclasses.replace(cells)
    assert deviation_p(suite[2], copy, 1.5, prof) == got[2]
    assert [deviation_p(u, copy, 1.5, prof) for u in suite] == got
    lone = GridFunction(g, values[0])
    assert deviation_p(lone, cells, 1.5, prof) == got[0]
    assert rows_calls == [4, 4, 1]
    assert len(_deviations(suite[0])) == 2 and len(_deviations(lone)) == 1


def test_kernel_energy_memo_is_invisible(rng):
    g = build_grid(1, 8)
    u = GridFunction(g, rng.standard_normal(g.cell_count))
    before_repr = repr(u)
    before_values = u.values.copy()
    kernel_energy(u, full_cells(g), KernelSpec(KIND_FRACTIONAL, s=0.5), 2.0)
    assert _energies(u)
    assert repr(u) == before_repr == f"GridFunction(grid={g!r}, values={u.values!r})"
    assert np.array_equal(u.values, before_values)


def test_discrete_jensen_chain(rng):
    # Constant-kernel pair energy dominates |cells| h^d times the deviation.
    for d, N in ((1, 20), (2, 10)):
        g = build_grid(d, N)
        for _ in range(10):
            u = GridFunction(g, rng.standard_normal(g.cell_count))
            for t in (0.6, 1.0):
                cells = ball_cells(g, t)
                for p in (1.0, 2.0, 3.5):
                    energy = kernel_energy(u, cells, KernelSpec(KIND_FLOOR, c=1.0), p)
                    bound = cells.measure * deviation_p(u, cells, p)
                    assert energy >= bound * (1.0 - 1e-10)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=-10, max_value=10, allow_nan=False),
    b=st.floats(min_value=-10, max_value=10, allow_nan=False),
    p=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
)
def test_convexity_tangent_inequality(a, b, p):
    # |a+b|^p >= |a|^p + p b |a|^(p-1) sgn(a): tangent-line bound for |.|^p.
    lhs = abs(a + b) ** p
    sgn = 0.0 if a == 0.0 else math.copysign(1.0, a)
    rhs = abs(a) ** p + (0.0 if sgn == 0.0 else b * p * abs(a) ** (p - 1.0) * sgn)
    assert lhs >= rhs - 1e-10 * (abs(lhs) + abs(rhs) + 1.0)


def test_transfer_constant_values():
    assert transfer_constant(1, 1, make_step_profile([], [1.0])) == 16.0
    assert transfer_constant(2, 2, make_step_profile([], [1.0])) == 256.0
    assert transfer_constant(1, 1, make_step_profile([0.3], [2.0, 1.0])) == 32.0


def test_weighted_gradient_constant_values():
    one = make_step_profile([], [1.0])
    assert weighted_gradient_constant(2, 1, one, 1.0) == 128.0
    assert weighted_gradient_constant(1, 2, one, 0.5) == 16.0
    triple = make_step_profile([0.4], [3.0, 1.0])  # center/half level ratio 3
    assert weighted_gradient_constant(2, 1, triple, 1.0) == 384.0
    with pytest.raises(ValueError):
        weighted_gradient_constant(2, 1, one, 0.0)


@pytest.mark.parametrize(
    "weight",
    [
        None,
        make_step_profile([0.75], [2.0, 1.0]),
        profile_from_json({"type": "power", "beta": 1.0}, samples=16),
    ],
)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("radius", [None, 0.6])
@pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
def test_local_energy_rows_equal_scalar(d, N, radius, p, weight):
    g = build_grid(d, N)
    cells = full_cells(g) if radius is None else ball_cells(g, radius)
    rows = np.random.default_rng(4).standard_normal((5, g.cell_count))
    rows *= np.array([1e-3, 1.0, 7.0, 1e4, 0.5])[:, None]
    # weight None: both calls take the default, UNIT_WEIGHT.
    weighting = () if weight is None else (weight,)
    got = local_energy_rows(rows, cells, p, *weighting)
    assert got.shape == (5,)
    for r in range(5):
        assert got[r] == local_energy(GridFunction(g, rows[r]), cells, p, *weighting)


_SUITE_GRIDS = {(d, N): build_grid(d, N) for d, N in ((1, 32), (2, 16), (2, 32))}
_SUITE_KERNELS = (
    KernelSpec(KIND_FRACTIONAL, s=0.5),
    KernelSpec(KIND_FRACTIONAL, s=0.3, R=4.0),
    KernelSpec(KIND_FRACTIONAL, s=0.8, R=2.0),
    KernelSpec(KIND_FLOOR, c=1.0),
)
_SUITE_WEIGHTS = (UNIT_WEIGHT, make_step_profile([0.4, 0.7], [3.0, 1.5, 1.0]))


def _suite_values(grid, kinds, rng):
    """One row of values per member kind."""
    n = grid.cell_count
    smooth = np.sin(3.0 * grid.centers[:, 0]) + grid.centers[:, -1]
    make = {
        "random": lambda: rng.standard_normal(n),
        "smooth": lambda: smooth,
        "constant": lambda: np.full(n, rng.standard_normal()),
        "tied": lambda: rng.integers(-2, 3, n).astype(float),  # many equal values
        "tiny": lambda: rng.standard_normal(n) * 2.0**-600,
        "huge": lambda: np.where(grid.centers[:, 0] < 0.0, 1e200, 0.0),  # bound overflows
    }
    return np.array([make[kind]() for kind in kinds])


@settings(max_examples=60, deadline=None)
@given(
    grid_key=st.sampled_from(sorted(_SUITE_GRIDS)),
    t=st.sampled_from((1.0, 0.75, 0.5)),
    kernel=st.sampled_from(_SUITE_KERNELS),
    p=st.sampled_from((1.0, 2.0, 3.0)),
    weight=st.sampled_from(_SUITE_WEIGHTS),
    kinds=st.lists(
        st.sampled_from(("random", "smooth", "constant", "tied", "tiny", "huge")), min_size=1, max_size=8
    ),
    first=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_suite_energies_and_deviations_equal_lone_calls(grid_key, t, kernel, p, weight, kinds, first, seed):
    # The first call on a suite member computes that key for the whole
    # suite at once; every member's energy and deviation must be the float
    # the same values give as a lone function, bit for bit.  A "huge"
    # member's bound overflows at p >= 2, so it takes full rows beside the
    # others' strips.
    g = _SUITE_GRIDS[grid_key]
    values = _suite_values(g, kinds, np.random.default_rng(seed))
    suite = make_suite(GridFunction(g, v) for v in values)
    cells = ball_cells(g, t)
    first %= len(suite)
    with np.errstate(over="ignore", invalid="ignore"):
        kernel_energy(suite[first], cells, kernel, p, weight)
        deviation_p(suite[first], cells, p, weight)
        assert all(len(_energies(u)) == len(_deviations(u)) == 1 for u in suite)
        for u, v in zip(suite, values):
            lone = GridFunction(g, v)
            got = kernel_energy(u, cells, kernel, p, weight)
            assert got.hex() == kernel_energy(lone, cells, kernel, p, weight).hex()
            assert deviation_p(u, cells, p, weight).hex() == deviation_p(lone, cells, p, weight).hex()


_FILL_WEIGHTS = (
    UNIT_WEIGHT,
    make_step_profile([0.75], [2.0, 1.0]),
    profile_from_json({"type": "power", "beta": 1.0}, samples=4),
    make_step_profile([0.4, 0.7], [3.0, 1.5, 1.0]),
    make_step_profile([0.75], [1.0, 0.0]),  # zero weight past radius 0.75
)


def _count_pair_calls(monkeypatch):
    """The weights of each ``forms._pair_energies`` call, in call order."""
    calls = []
    original = forms._pair_energies

    def counted(functions, cells, kernel, p, weights):
        calls.append(list(weights))
        return original(functions, cells, kernel, p, weights)

    monkeypatch.setattr(forms, "_pair_energies", counted)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    grid_key=st.sampled_from(sorted(_SUITE_GRIDS)),
    t=st.sampled_from((1.0, 0.5)),
    kernel=st.sampled_from(_SUITE_KERNELS),
    p=st.sampled_from((1.0, 1.5, 2.0, 3.0)),
    weights=st.lists(st.sampled_from(_FILL_WEIGHTS), min_size=1, max_size=4),
    kinds=st.lists(
        st.sampled_from(("random", "smooth", "constant", "tied", "tiny", "huge")), min_size=1, max_size=5
    ),
    first=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_multi_weight_energies_equal_lone_calls(grid_key, t, kernel, p, weights, kinds, first, seed):
    # One kernel_energies call fills every (member, weight) key of the
    # suite in one pair-energy call, and each energy is the float a lone
    # function gives under that weight alone, bit for bit.  Weights may
    # repeat; a "huge" member's bound overflows at p >= 2, so it takes full
    # rows beside the others' strips.
    g = _SUITE_GRIDS[grid_key]
    values = _suite_values(g, kinds, np.random.default_rng(seed))
    suite = make_suite(GridFunction(g, v) for v in values)
    cells = ball_cells(g, t)
    first %= len(suite)
    calls = []
    original = forms._pair_energies

    def counted(functions, *args):
        calls.append(len(functions))
        return original(functions, *args)

    with np.errstate(over="ignore", invalid="ignore"):
        forms._pair_energies = counted
        try:
            got = kernel_energies(suite[first], cells, kernel, p, weights)
        finally:
            forms._pair_energies = original
        assert calls == [len(suite)]
        assert all(len(_energies(u)) == len(set(weights)) for u in suite)
        for u, v in zip(suite, values):
            lone = GridFunction(g, v)
            for weight in weights:
                stored = kernel_energy(u, cells, kernel, p, weight)
                assert stored.hex() == kernel_energy(lone, cells, kernel, p, weight).hex()
        assert got == [kernel_energy(suite[first], cells, kernel, p, w) for w in weights]


def test_multi_weight_fill_with_one_unfit_bound_takes_full_rows_only(monkeypatch):
    # A member whose bound fits the schedule under the unit weight but not
    # under a weight of level 2^40 sends the whole call to full-width rows:
    # itself under both weights, and beside it a member that fits under
    # both.  Every energy is still the lone call's float, which for each
    # fitting pair comes from strips.
    calls = _count_pair_calls(monkeypatch)
    g = build_grid(2, 16)
    cells = full_cells(g)
    kernel = KernelSpec(KIND_FRACTIONAL, s=0.5)
    heavy = make_step_profile([0.5], [2.0**40, 1.0])
    kmax = float(forms._offset_kernel(g, kernel, 2.0)[0].max())
    spread = math.sqrt(2.0**880 / kmax)  # bound 2^881 under the unit weight, 2^921 under heavy
    edge = np.where(g.centers[:, 0] < 0.0, spread, 0.0) * (1.0 + 0.01 * g.norms)
    values = [edge, np.sin(3.0 * g.centers[:, 0])]
    suite = make_suite(GridFunction(g, v) for v in values)
    strips = _count_strips(monkeypatch)
    got = kernel_energies(suite[0], cells, kernel, 2.0, [UNIT_WEIGHT, heavy])
    assert len(calls) == 1 and strips == []
    for u, v in zip(suite, values):
        for weight in (UNIT_WEIGHT, heavy):
            lone = kernel_energy(GridFunction(g, v), cells, kernel, 2.0, weight)
            assert kernel_energy(u, cells, kernel, 2.0, weight).hex() == lone.hex()
    assert math.isfinite(got[1])


def _count_strips(monkeypatch):
    """The shape of each strip added to a ``SymmetricRowSums``."""
    shapes = []
    add = SymmetricRowSums.add

    def recording(self, strip, start):
        shapes.append(strip.shape)
        add(self, strip, start)

    monkeypatch.setattr(SymmetricRowSums, "add", recording)
    return shapes


def test_kernel_energies_fill_only_missing_keys(rng, monkeypatch):
    # Keys the function already holds are neither recomputed nor replaced,
    # and repeated or equal weights are one key.
    calls = _count_pair_calls(monkeypatch)
    g = build_grid(2, 8)
    suite = make_suite(GridFunction(g, rng.standard_normal(g.cell_count)) for _ in range(3))
    cells = full_cells(g)
    kernel = KernelSpec(KIND_FLOOR, c=1.0)
    step = make_step_profile([0.75], [2.0, 1.0])
    kernel_energy(suite[1], cells, kernel, 2.0, step)
    assert calls == [[step]]
    stored = _energies(suite[0])[(cells, kernel, 2.0, step)]
    energies = kernel_energies(
        suite[0], cells, kernel, 2.0, [UNIT_WEIGHT, step, make_step_profile([], [1.0]), _FILL_WEIGHTS[2]]
    )
    assert calls == [[step], [UNIT_WEIGHT, _FILL_WEIGHTS[2]]]
    assert energies[1] is stored and energies[2] is energies[0]
    again = kernel_energies(suite[2], cells, kernel, 2.0, [step, UNIT_WEIGHT])
    assert again == [kernel_energy(suite[2], cells, kernel, 2.0, w) for w in (step, UNIT_WEIGHT)]
    assert len(calls) == 2
    with pytest.raises(ValueError, match="p >= 1"):
        kernel_energies(suite[0], cells, kernel, 0.5, [UNIT_WEIGHT])
    with pytest.raises(ValueError, match="empty cell set"):
        kernel_energies(suite[0], CellSet(g, []), kernel, 2.0, [UNIT_WEIGHT])


_PROBE_GRIDS = {
    (d, N): build_grid(d, N) for d, N in ((1, 16), (1, 32), (2, 8), (2, 16), (2, 32))
}
_PROBE_WEIGHTS = (
    UNIT_WEIGHT,
    make_step_profile([0.75], [2.0, 1.0]),
    profile_from_json({"type": "power", "beta": 1.0}, samples=16),
)


def _rows_outcome(functional, rows, *args):
    """The floats of a row functional, or the type and text of what it raised."""
    try:
        return functional(rows, *args).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _probe_values(g, kind, weight, rng):
    """Values of one kind on the grid.  "ascent" values are weighted-mean-
    zero and of unit norm, as ``ratio_ascent`` recenters its iterates, so
    most of their probes share a center."""
    n = g.cell_count
    if kind == "ascent":
        w, total = cell_weights(full_cells(g), weight)
        vals = rng.standard_normal(n)
        vals = vals - ksum(vals * w) / total
        return vals / np.linalg.norm(vals)
    scale = {"huge": 2.0**500, "tiny": 2.0**-500, "overflow": 2.0**511}.get(kind, 1.0)
    return {
        "constant": lambda: np.full(n, rng.standard_normal()),
        "zero": lambda: np.zeros(n),
    }.get(kind, lambda: rng.standard_normal(n) * scale)()


def _probes_of(values, step=1.0):
    """The ascent's probes of ``values``, scaled by ``step``."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(values)  # inf for "overflow" in 1-d
    return Probes(values, step * (1e-6 * norm if norm > 0.0 else 1e-6))


@settings(max_examples=150, deadline=None)
@given(
    grid_key=st.sampled_from(sorted(_PROBE_GRIDS)),
    t=st.sampled_from((1.0, 0.75, 0.5)),
    p=st.sampled_from((1.0, 1.5, 2.0, 3.0)),
    weight=st.sampled_from(_PROBE_WEIGHTS),
    kind=st.sampled_from(("random", "ascent", "constant", "zero", "huge", "tiny", "overflow")),
    step=st.sampled_from((1.0, 1e6, 1e-12)),
    seed=st.integers(0, 2**32 - 1),
)
def test_probe_forms_equal_formed_rows(grid_key, t, p, weight, kind, step, seed):
    # deviation_p_rows and local_energy_rows evaluate Probes without forming
    # them; each float must be the one the formed rows give, bit for bit,
    # or both must raise alike.  Balls below t = 1 leave probes outside the
    # set.  A constant row has zero energy, a step of 1e-12 of the ascent's
    # delta leaves it so, and "overflow" terms reach inf at p >= 2.  The
    # 2-d N = 32 grid has the 812 cells of the 2-d workloads.
    g = _PROBE_GRIDS[grid_key]
    values = _probe_values(g, kind, weight, np.random.default_rng(seed))
    cells = full_cells(g) if t == 1.0 else ball_cells(g, t)
    with np.errstate(over="ignore", invalid="ignore"):
        probes = _probes_of(values, step)
        rows = formed_rows(probes)
        for functional, args in (
            (deviation_p_rows, (cells, p, weight)),
            (local_energy_rows, (cells, p, weight)),
        ):
            want = _rows_outcome(functional, rows, *args)
            assert _rows_outcome(functional, probes, *args) == want


@pytest.mark.parametrize("kind", ["ascent", "random", "overflow"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "d,weight",
    [(1, _PROBE_WEIGHTS[2]), (2, _PROBE_WEIGHTS[1])],
    ids=["1d-power", "2d-step"],
)
def test_deviation_rows_of_many_sets_equal_one_call_per_set(d, weight, p, kind):
    # The transfer rhs takes the balls of all layer-cake atoms in one call:
    # the 8 of the demo's power profile (16 samples, 8 of them past 1/2) on
    # 1-d N = 32, the 2 of the step profile on 2-d N = 32.  Row t must be
    # the floats of the call on ball t alone, bit for bit, for probes
    # (outside every ball but the last) and formed rows; where one call per
    # set raises, so does the one call, alike.
    g = build_grid(d, 32)
    balls = [ball_cells(g, t) for t, _ in layer_cake(weight).atoms]
    assert len(balls) == (8 if d == 1 else 2)
    assert all(len(b) < g.cell_count for b in balls[:-1])
    values = _probe_values(g, kind, weight, np.random.default_rng(d * 10 + int(2 * p)))
    with np.errstate(over="ignore", invalid="ignore"):
        probes = _probes_of(values)
        for rows in (probes, formed_rows(probes)[:: 8 * d - 7]):
            each = [_rows_outcome(deviation_p_rows, rows, b, p) for b in balls]
            raised = [e for e in each if isinstance(e, tuple)]
            want = raised[0] if raised else b"".join(each)
            assert _rows_outcome(deviation_p_rows, rows, balls, p) == want


def test_probe_deviations_form_one_row_per_distinct_center(monkeypatch):
    # The probes of an ascent iterate share few centers, and the terms about
    # each distinct center are formed once: on the 812 cells of the 2-d
    # N = 32 ball at p = 1, a probe call hands the sums the m terms of the
    # centers' row and m per distinct center, where a row per probe would
    # hand them m more per probe.
    g = build_grid(2, 32)
    weight = _PROBE_WEIGHTS[1]
    cells, m = full_cells(g), g.cell_count
    probes = _probes_of(_probe_values(g, "ascent", weight, np.random.default_rng(5)))
    w, total = cell_weights(cells, weight)
    centers = np.unique(numerics.ksum_rows(formed_rows(probes) * w) / total)
    assert centers.size < 40
    summed = []
    for name in ("ksum_rows", "ksum_replaced"):

        def counted(rows, *args, _sum=getattr(grid_module, name)):
            summed.append(np.size(rows))
            return _sum(rows, *args)

        monkeypatch.setattr(grid_module, name, counted)
    deviation_p_rows(probes, cells, 1.0, weight)
    assert sum(summed) - m == centers.size * m


@pytest.mark.parametrize("d", [1, 2])
def test_ascent_probes_take_the_few_term_kernel_from_its_crossover(monkeypatch, d):
    # On the 812 cells of the 2-d N = 32 ball the probe calls of an ascent
    # iterate sum their variants by the few-term kernel, all of them; the
    # 32 probes of 1-d N = 32 stay below the crossover.  Either way each
    # float is the one the formed rows give.
    g = build_grid(d, 32)
    weight = _PROBE_WEIGHTS[1]
    probes = _probes_of(_probe_values(g, "ascent", weight, np.random.default_rng(5)))
    rows = formed_rows(probes)
    kernel = numerics._expansion_sums
    blocks = []

    def counted(block):
        blocks.append(len(block))
        return kernel(block)

    for functional in (deviation_p_rows, local_energy_rows):
        want = functional(rows, full_cells(g), 1.0, weight)
        blocks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "_expansion_sums", counted)
            got = functional(probes, full_cells(g), 1.0, weight)
        assert got.tobytes() == want.tobytes()
        if d == 1:
            assert blocks == []
        else:
            assert blocks and min(blocks) >= numerics._EXPANSION_MIN_VARIANTS
            assert sum(blocks) >= g.cell_count


def test_probes_form_the_bumped_rows():
    values = np.array([1.0, -2.0, 0.5])
    probes = Probes(values, 0.25)
    rows = np.tile(values, (4, 1))  # the three probes, then the base
    rows[[0, 1, 2], [0, 1, 2]] += 0.25
    assert probes.shape == (4, 3) and len(probes) == 4
    assert formed_rows(probes).tobytes() == rows.tobytes()
    assert probes.bumped.tobytes() == (values + 0.25).tobytes()
    g = build_grid(1, 8)
    with pytest.raises(ValueError, match="rows of 8"):
        local_energy_rows(probes, full_cells(g), 2.0)
    with pytest.raises(ValueError, match="rows of 8"):
        deviation_p_rows(probes, full_cells(g), 2.0)


def _record_remainders(monkeypatch):
    """What each ``SymmetricRowSums.add`` leaves in its strip (the
    remainders of its one extraction), in call order."""
    left = []
    add = SymmetricRowSums.add

    def recording(self, strip, start):
        add(self, strip, start)
        left.append(strip.copy())

    monkeypatch.setattr(SymmetricRowSums, "add", recording)
    return left


@pytest.mark.parametrize("kernel", _SUITE_KERNELS)
@pytest.mark.parametrize("N", [32, 64])
def test_suite_strips_take_no_more_passes_than_lone_functions(N, kernel, monkeypatch):
    # The 1-d sets are one strip for up to 8 functions.  Each strip is
    # extracted once, and each member at its own bound: what the suite's
    # strip leaves of a member is what the member's lone strip leaves, bit
    # for bit, so a member at 2^-600 or a constant one changes nothing of
    # the others (with one bound for all they would lose their low bits).
    left = _record_remainders(monkeypatch)
    g = build_grid(1, N)
    kinds = ("smooth", "random", "tiny", "constant", "tied", "random")
    values = _suite_values(g, kinds, np.random.default_rng(N))
    cells = full_cells(g)
    for p in (1.0, 2.0, 3.0):
        left.clear()
        for v in values:
            kernel_energy(GridFunction(g, v), cells, kernel, p)
        alone = list(left)
        assert len(alone) == len(kinds)
        left.clear()
        kernel_energy(make_suite(GridFunction(g, v) for v in values)[0], cells, kernel, p)
        assert len(left) == 1 and left[0].shape == (len(kinds),) + alone[0].shape
        for member, lone in zip(left[0], alone):
            assert member.tobytes() == lone.tobytes(), p


_EMPTY_SET = "cannot take energy over an empty cell set"
_LOW_P = "exponent must satisfy p >= 1, got 0.5"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: local_energy_rows(np.zeros((1, 4)), CellSet(g, []), 2.0), _EMPTY_SET),
        (lambda g: local_energy_rows(np.zeros((1, 4)), full_cells(g), 0.5), _LOW_P),
        (
            lambda g: kernel_energy(
                GridFunction(g, np.arange(4.0)), CellSet(g, []), KernelSpec(KIND_FRACTIONAL, s=0.5), 2.0
            ),
            _EMPTY_SET,
        ),
        (lambda g: transfer_constant(0.5, 1, UNIT_WEIGHT), _LOW_P),
        (lambda g: transfer_constant(2.0, 3, UNIT_WEIGHT), "unsupported dimension 3"),
    ],
    ids=["local-empty", "local-p", "kernel-empty", "transfer-p", "transfer-d"],
)
def test_forms_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(build_grid(1, 4))
