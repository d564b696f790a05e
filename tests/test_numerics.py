import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from poincheck.forms import KIND_FLOOR, KIND_FRACTIONAL, KernelSpec, kernel_energy
from poincheck import numerics
from poincheck.grid import GridFunction, build_grid, full_cells
from poincheck.numerics import (
    _EXPANSION_MIN_VARIANTS,
    _KERNEL_MIN_ELEMENTS,
    SymmetricRowSums,
    ksum,
    ksum_replaced,
    ksum_rows,
)
from poincheck.weights import UNIT_WEIGHT, make_step_profile
from conftest import fsum_pair_energy


def _wide_values(n, seed):
    """Signed values whose magnitudes span about 1e-20 to 1e20."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-20.0, 20.0, n)


def _fsum_rows(matrix):
    """Per-row ``math.fsum``: the oracle, as k floats or the exception raised."""
    try:
        return np.array([math.fsum(row.tolist()) for row in matrix], dtype=float)
    except (OverflowError, ValueError) as exc:
        return exc


def _assert_same_as_fsum(matrix):
    """``ksum_rows`` returns the oracle's floats bit for bit (signed zeros
    and nan included) or raises the oracle's exception."""
    want = _fsum_rows(matrix)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            ksum_rows(matrix)
        assert str(info.value) == str(want)
        return
    got = ksum_rows(matrix)
    assert got.dtype == np.float64 and got.shape == (matrix.shape[0],)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 812, 65535, 65536, 65537, 200000])
def test_ksum_is_exactly_rounded(n):
    x = _wide_values(n, n)
    assert ksum(x) == math.fsum(x.tolist())
    assert ksum(x[::-1].reshape(-1, 1)) == math.fsum(x.tolist())


def test_ksum_takes_iterables_and_empty_arrays():
    assert ksum(iter([0.1] * 10)) == math.fsum([0.1] * 10)
    assert ksum([1e100, 1.0, -1e100]) == 1.0
    assert ksum(np.array([], dtype=float)) == 0.0
    assert ksum(np.arange(5000)) == math.fsum(range(5000))


def test_ksum_rows_sums_each_row_exactly():
    m = _wide_values(7 * 812, 9).reshape(7, 812)
    got = ksum_rows(m)
    assert got.shape == (7,)
    for r in range(7):
        assert got[r] == math.fsum(m[r].tolist())
    assert np.array_equal(ksum_rows(m[:, :5]), [math.fsum(row.tolist()) for row in m[:, :5]])


# Row lengths around every power of two up to 2^13, where the bit budget
# b = min(51, 53 - n.bit_length()) steps down.
_LENGTHS = sorted({0, 1, 2, 3} | {2**j + e for j in range(2, 14) for e in (-1, 0, 1)})


_STYLES = ("wide", "subnormal", "cancel", "zeros", "full")


def _row(style, lo, hi, n, rng):
    if style == "wide":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(lo, hi, n)
    if style == "subnormal":
        row = rng.integers(-(2**20), 2**20, n) * 5e-324
        row[rng.random(n) < 0.2] *= 2.0**60
        return row
    if style == "cancel":
        half = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-30.0, 30.0, n // 2)
        return rng.permutation(np.concatenate([half, -half, rng.standard_normal(n % 2) * 1e-40]))
    if style == "zeros":
        return np.where(rng.random(n) < 0.5, -0.0, 0.0)
    # Full-mantissa entries of one sign close below the row's top, which
    # fill the chunk sums' bit budget, plus a tail that lands in later
    # chunks.
    row = rng.choice([-1.0, 1.0]) * np.ldexp(1.0 - rng.random(n) * 2.0**-8, 7)
    row[rng.random(n) < 0.1] *= 2.0**-40
    return row


@st.composite
def _blocks(draw):
    """A (k, n) block whose rows mix the entries a reduction gets wrong.

    Rows cycle through up to eight drawn styles; ``wide`` rows take
    magnitudes from ``10^lo`` to ``10^hi`` within 1e-300 to 1e300.
    """
    n = draw(st.sampled_from(_LENGTHS))
    # Both sides of the crossover: k * n below it and at or above it.
    k = draw(st.integers(0, max(1, (4 * _KERNEL_MIN_ELEMENTS) // max(n, 1))))
    lo = st.floats(-300.0, 300.0)
    styles = draw(st.lists(st.tuples(st.sampled_from(_STYLES), lo, lo), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for i in range(k):
        style, a, b = styles[i % len(styles)]
        rows.append(_row(style, min(a, b), max(a, b), n, rng))
    return np.array(rows, dtype=float).reshape(k, n)


@settings(max_examples=300, deadline=None)
@given(_blocks())
def test_ksum_rows_equals_fsum_per_row(block):
    _assert_same_as_fsum(block)


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 6), st.sampled_from(_LENGTHS[:16])),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
)
def test_ksum_rows_equals_fsum_on_any_finite_floats(block):
    # Every finite float, up to the largest: rows at 2^900 and above, and
    # the sums that overflow there, go to ``fsum``.
    _assert_same_as_fsum(np.tile(block, (1, 1 + _KERNEL_MIN_ELEMENTS // max(block.size, 1))))
    _assert_same_as_fsum(block)


_REPLACEMENTS = (0.0, -0.0, 1.0, -1e-300, 5e-324, 2.0**899, 2.0**900, -1.7e308, math.inf, -math.inf, math.nan)


@settings(max_examples=200, deadline=None)
@given(
    style=st.sampled_from(_STYLES + ("special",)),
    n=st.sampled_from([n for n in _LENGTHS if n > 0]),
    j=st.integers(1, 3),
    k=st.integers(0, 12),
    s=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(style="wide", n=256, j=1, k=6, s=2, seed=1)
@example(style="cancel", n=812, j=2, k=5, s=3, seed=2)
@example(style="subnormal", n=1025, j=3, k=4, s=1, seed=3)
@example(style="special", n=4097, j=2, k=7, s=2, seed=4)
@example(style="cancel", n=812, j=3, k=_EXPANSION_MIN_VARIANTS - 1, s=3, seed=5)
@example(style="wide", n=812, j=3, k=_EXPANSION_MIN_VARIANTS, s=3, seed=6)
@example(style="full", n=812, j=12, k=1624, s=1, seed=7)
@example(style="special", n=64, j=2, k=_EXPANSION_MIN_VARIANTS, s=2, seed=8)
@example(style="zeros", n=33, j=1, k=_EXPANSION_MIN_VARIANTS, s=1, seed=9)
def test_ksum_replaced_equals_fsum_of_each_variant(style, n, j, k, s, seed):
    # Variants of j rows with up to s entries replaced, some by values that
    # overflow, cancel or are not finite: each sum is fsum of the variant,
    # bit for bit, or fsum's exception.  The examples are rows of 256
    # entries and more, as long as the 812-cell rows of a 2-d ascent, and
    # variant counts on both sides of the crossover to the expansion kernel
    # (1,624 variants of 812-entry rows: the two probe sets of one
    # ascent step's deviation).
    rng = np.random.default_rng(seed)
    if style == "special":
        rows = rng.choice(_REPLACEMENTS, (j, n))
    else:
        rows = np.array([_row(style, -30.0, 30.0, n, rng) for _ in range(j)])
    of = rng.integers(0, j, k)
    at = np.full((k, s), -1, dtype=np.int64)
    for r in range(k):
        picks = rng.permutation(n)[:s]
        at[r, : picks.size] = np.where(rng.random(picks.size) < 0.2, -1, picks)
    new = np.where(
        rng.random((k, s)) < 0.3,
        rng.choice(_REPLACEMENTS, (k, s)),
        rng.standard_normal((k, s)) * 10.0 ** rng.uniform(-30.0, 30.0, (k, s)),
    )
    if k and style == "cancel":
        at[0] = -1  # the row itself, whose sum is zero at even n
    variants = rows[of].reshape(k, n)
    for r in range(k):
        used = at[r] >= 0
        variants[r, at[r, used]] = new[r, used]
    want = _fsum_rows(variants)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            ksum_replaced(rows, of, at, new)
        assert str(info.value) == str(want)
        return
    assert ksum_replaced(rows, of, at, new).tobytes() == want.tobytes()


_FEW_TERM_STYLES = ("wide", "subnormal", "cancel", "tie", "zeros")


def _few_terms(style, rows, k, rng):
    """A (rows, k) block of one style, finite and below 2^900."""
    shape = (rows, k)
    if style == "wide":
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-300.0, 270.0, shape)
    if style == "subnormal":
        block = rng.integers(-(2**20), 2**20, shape) * 5e-324
        block[rng.random(shape) < 0.2] *= 2.0**60
        return block
    if style == "cancel":  # entries and their negations, so sums of zero
        half_shape = (rows, (k + 1) // 2)
        half = rng.standard_normal(half_shape) * 10.0 ** rng.uniform(-30.0, 30.0, half_shape)
        return np.concatenate([half, -half], axis=1)[:, :k]
    if style == "tie":  # a, then half an ulp of a, then less (or nothing)
        a = rng.standard_normal(rows) * 10.0 ** rng.uniform(-20.0, 20.0, rows)
        half = np.spacing(np.abs(a)) / 2.0 * rng.choice([-1.0, 1.0], rows)
        tiny = half * np.ldexp(rng.choice([-1.0, 0.0, 1.0], rows), -rng.integers(1, 60, rows))
        return np.column_stack([a, half, tiny] + [np.zeros(rows)] * k)[:, :k]
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


@st.composite
def _few_term_blocks(draw):
    """A (rows, k) block for ``_expansion_sums``: 1 to 12 columns, up to
    3,248 rows (4 functions of the 812-cell 2-d ball).  Rows take their
    style in turn from up to five drawn, then zero components land
    anywhere and each row's entries are shuffled."""
    k = draw(st.integers(1, 12))
    rows = draw(st.sampled_from([1, 2, 7, 64, 255, 256, 812, 3248]))
    styles = draw(st.lists(st.sampled_from(_FEW_TERM_STYLES), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = np.empty((rows, k))
    for i, style in enumerate(styles):
        block[i :: len(styles)] = _few_terms(style, len(block[i :: len(styles)]), k, rng)
    zero = rng.random(block.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    block[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, -0.0, 0.0)
    return rng.permuted(block, axis=1)


@settings(max_examples=200, deadline=None)
@given(_few_term_blocks())
@example(np.array([[-(2.0**-70), -(2.0**-129), float.fromhex("0x1.0dc24da92128cp-17")]]))  # a tie
@example(  # a tie, with a zero component between the break and the rest below it
    np.array([[0.0, float.fromhex("0x1.a8e52b623acfbp+31"), 0.0, -float.fromhex("0x1.7bb9704d3791ep+23"),
               -float.fromhex("0x1.a8e52b623acfbp+31"), -float.fromhex("0x1.ca830879a6b78p+32")]])
)
@example(np.array([[-0.0, -0.0], [0.0, -0.0], [1e300, -1e300]]))  # zero sums
def test_expansion_sums_equal_fsum(block):
    # The few-term kernel is fsum of each row, bit for bit: exact ties are
    # settled by the next nonzero component past zero ones, and a zero
    # sum takes fsum's sign.
    want = np.array([math.fsum(row) for row in block.tolist()])
    assert numerics._expansion_sums(block).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2**j + e for j in (3, 8, 11, 13) for e in (-1, 0, 1)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ksum_rows_fills_the_bit_budget(n, sign):
    # n entries of one sign, each with a full mantissa close below the
    # row's top, give chunk sums of almost 2^53 grid units; one tiny entry
    # per row then decides the rounding of the total.
    rng = np.random.default_rng(n)
    k = max(2, _KERNEL_MIN_ELEMENTS // n + 1)
    block = sign * np.ldexp(1.0 - rng.random((k, n)) * 2.0**-12, 3)
    block[:, 0] = sign * 2.0**-60 * rng.random(k)
    _assert_same_as_fsum(block)


@pytest.mark.parametrize("n", [1, 2, 3, 1024, 4097])
def test_ksum_rows_of_signed_zeros(n):
    k = max(1, 2 * _KERNEL_MIN_ELEMENTS // n)
    for fill in (-0.0, 0.0):
        _assert_same_as_fsum(np.full((k, n), fill))
    mixed = np.full((k, n), -0.0)
    mixed[:, n // 2] = 0.0
    _assert_same_as_fsum(mixed)
    # A nonzero row that cancels exactly, beside negative zeros.
    cancel = np.full((k, n + 2), -0.0)
    cancel[:, 0], cancel[:, -1] = 3.5, -3.5
    _assert_same_as_fsum(cancel)


def test_ksum_rows_empty_shapes():
    assert ksum_rows(np.zeros((0, 5000))).shape == (0,)
    assert ksum_rows(np.zeros((5000, 0))).tobytes() == np.zeros(5000).tobytes()
    assert ksum_rows(np.zeros((0, 0))).shape == (0,)


@pytest.mark.parametrize("order", ["C", "F"])
def test_ksum_rows_leaves_its_argument_unchanged(order):
    # Rows that finish at different passes, in a block above the crossover:
    # small integers (one pass), full mantissas over 120 bits of range
    # (several), rows far below the block's peak and rows that cancel to
    # zero.  No row goes to ``fsum``, so the extraction gets the argument
    # itself, not a copy.  The block is read-only, so a write into it
    # raises, and its bytes are compared too.
    rng = np.random.default_rng(404)
    k, n = 12, 400
    block = np.empty((k, n))
    for r in range(k):
        kind = r % 4
        if kind == 0:
            block[r] = rng.integers(-1000, 1000, n)
        elif kind == 1:
            block[r] = rng.standard_normal(n) * 2.0 ** rng.uniform(-60.0, 60.0, n)
        elif kind == 2:
            block[r] = rng.standard_normal(n) * 2.0**-300
        else:
            block[r] = 0.0
            block[r, :2] = 1e10, -1e10
    block = np.asarray(block, order=order)
    before = block.tobytes(order="A")
    block.setflags(write=False)
    assert block[:, ::2].size >= _KERNEL_MIN_ELEMENTS
    _assert_same_as_fsum(block)
    _assert_same_as_fsum(block[:, ::2])  # a strided view, still above it
    assert block.tobytes(order="A") == before


def test_ksum_rows_longest_fixed_schedule(monkeypatch):
    # One row near 2^899 sets ``top`` for the whole block, so the rows at
    # 2^-1000 and at subnormal scale take zero chunks for dozens of passes
    # and finish only at the bottom of the schedule, the pass whose unit is
    # 2^-1074.  Each row is also one ``ksum`` above the crossover.
    passes = []
    extract = numerics._passes

    def counting(*args, **kwargs):
        for item in extract(*args, **kwargs):
            passes.append(item[0].size)
            yield item

    monkeypatch.setattr(numerics, "_passes", counting)
    rng = np.random.default_rng(899)
    n = 2100
    sign = rng.choice([-1.0, 1.0], (4, n))
    block = np.empty((4, n))
    block[0] = np.ldexp(1.0 - 0.5 * rng.random(n), 899)
    block[1] = np.ldexp(1.0 - 0.5 * rng.random(n), -1000)
    block[2] = rng.integers(1, 2**30, n) * 2.0**-1074
    block[3] = 2.0 ** rng.uniform(-1074.0, -1000.0, n)
    block *= sign
    assert block.size >= _KERNEL_MIN_ELEMENTS and np.abs(block).max() < 2.0**899
    _assert_same_as_fsum(block)
    # top = 899 and b = 41 for 2,100 columns, so pass j's unit is
    # 2^(858 - 42 j); it reaches 2^-1074 at j = 46, the last of 47 passes,
    # which every row but the one near 2^899 lives to.
    assert len(passes) == 47 and passes[-1] == 3
    for row in block:
        assert np.array([ksum(row)]).tobytes() == _fsum_rows(row[None, :]).tobytes()


def _with_rows(bad_rows, n=2100, k=8):
    block = _wide_values(k * n, 5).reshape(k, n)
    for r, row in bad_rows.items():
        block[r, : len(row)] = row
    return block


@pytest.mark.parametrize(
    "bad",
    [
        {3: [math.inf]},
        {3: [-math.inf, 1.0]},
        {3: [math.nan]},
        {3: [math.inf], 5: [math.nan]},
        {3: [1e308, -1e308, 1e300]},  # large but finite sum
        {3: [2.0**900], 6: [-(2.0**1023), 2.0**1023]},
        {2: [math.inf, -math.inf]},  # inf - inf: ValueError
        {2: [1e308, 1e308]},  # overflow: OverflowError
        {2: [1e308, 1e308], 5: [math.inf, -math.inf]},  # first row decides
        {2: [math.inf, -math.inf], 5: [1e308, 1e308]},
    ],
)
def test_ksum_rows_non_finite_and_overflowing_rows_act_as_fsum(bad):
    # Rows of 2,100 entries: the block, and each row as one ``ksum``, are
    # above the crossover.
    block = _with_rows(bad)
    _assert_same_as_fsum(block)
    flat = block[list(bad)].ravel()
    want = _fsum_rows(flat[None, :])
    if isinstance(want, Exception):
        with pytest.raises(type(want)):
            ksum(flat)
    else:
        assert np.array([ksum(flat)]).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize(
    "kernel",
    [KernelSpec(KIND_FRACTIONAL, s=0.5), KernelSpec(KIND_FRACTIONAL, s=0.3, R=4.0), KernelSpec(KIND_FLOOR, c=1.0)],
)
def test_pair_energy_equals_per_row_fsum(p, kernel):
    grid = build_grid(2, 32)
    cells = full_cells(grid)
    x, y = grid.centers[:, 0], grid.centers[:, 1]
    rng = np.random.default_rng(32)
    weight = make_step_profile([0.3, 0.7], [4.0, 2.0, 1.0])
    for values in (np.sin(3.0 * x) + y**2, rng.standard_normal(grid.cell_count)):
        for w in (UNIT_WEIGHT, weight):
            got = kernel_energy(GridFunction(grid, values), cells, kernel, p, w)
            want = fsum_pair_energy(GridFunction(grid, values), cells, kernel, p, w)
            assert got.hex() == want.hex()


@st.composite
def _symmetric_strips(draw):
    """A symmetric (m, m) matrix and strips of its upper triangle.

    Entries take one drawn style per row of the upper triangle: magnitudes
    from ``10^lo`` to ``10^hi``, the same with random signs, subnormals, or
    full mantissas close below one top that fill the chunk sums' bit
    budget.  Some rows are zero.  The rows are cut into strips; each strip
    ends at a drawn column past which its rows, and by symmetry those
    columns, are zero.
    """
    m = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bounds = draw(st.tuples(st.floats(-300.0, 250.0), st.floats(-300.0, 250.0)))
    lo, hi = sorted(x + 0.0 for x in bounds)  # + 0.0: numpy refuses uniform(0.0, -0.0)
    styles = draw(st.lists(st.sampled_from(("wide", "signed", "subnormal", "full")), min_size=1, max_size=3))
    upper = np.empty((m, m))
    for i in range(m):
        style = styles[i % len(styles)]
        if style in ("wide", "signed"):
            upper[i] = rng.random(m) * 10.0 ** rng.uniform(lo, hi, m)
            if style == "signed":
                upper[i] *= rng.choice([-1.0, 1.0], m)
        elif style == "subnormal":
            upper[i] = rng.integers(0, 2**20, m) * 5e-324
        else:
            upper[i] = np.ldexp(1.0 - rng.random(m) * 2.0**-8, 7)
            upper[i, rng.random(m) < 0.1] *= 2.0**-40
    upper += 0.0  # no negative zeros
    matrix = np.triu(upper)
    matrix += np.triu(matrix, 1).T  # adds to zeros only: exact
    zero = rng.random(m) < draw(st.sampled_from((0.0, 0.1, 0.5)))
    matrix[zero] = 0.0
    matrix[:, zero] = 0.0
    cuts = draw(st.lists(st.integers(1, max(1, m - 1)), max_size=12, unique=True))
    firsts = sorted({0, *(c for c in cuts if c < m)})
    strips = []
    for start, stop in zip(firsts, firsts[1:] + [m]):
        end = draw(st.integers(stop, m))
        matrix[start:stop, end:] = 0.0
        matrix[end:, start:stop] = 0.0
        strips.append((start, stop, end))
    slack = draw(st.integers(0, 8))
    return matrix, strips, float(np.abs(matrix).max()) * 2.0**slack


def _full_rows_of(stack, asked):
    """``full_rows`` for ``SymmetricRowSums.sums`` from a stack of formed
    matrices, recording each call's (matrix, rows) in ``asked``."""

    def full_rows(f, rows):
        assert 2 * rows.size * stack.shape[-1] <= numerics.BLOCK_ELEMENTS or rows.size == 1
        asked.append((f, rows.tolist()))
        return stack[f, rows]

    return full_rows


def _fsum_of_rows(matrix):
    return np.array([math.fsum(row.tolist()) for row in matrix])


@settings(max_examples=200, deadline=None)
@given(_symmetric_strips())
def test_symmetric_row_sums_equal_fsum_of_full_rows(case):
    # Each row is ``fsum`` of the full row, whether the tail's bound settles
    # it or the row is asked for in full; a row is asked for once at most.
    matrix, strips, bound = case
    sums = SymmetricRowSums(len(matrix), bound)
    for start, stop, end in strips:
        sums.add(matrix[start:stop, start:end].copy(), start)
    asked = []
    got = sums.sums(_full_rows_of(matrix[None], asked))
    assert got.tobytes() == _fsum_of_rows(matrix).tobytes()
    redone = [row for f, rows in asked for row in rows]
    assert all(f == 0 for f, _ in asked) and len(redone) == len(set(redone))


@settings(max_examples=100, deadline=None)
@given(_symmetric_strips(), st.lists(st.sampled_from((0, 40, -300, -600, -1000, None)), min_size=1, max_size=5))
def test_stacked_row_sums_equal_fsum_and_lone_passes(case, scales):
    # A stack of the drawn matrix at several scales (None: all zeros) on the
    # same strips.  Each strip is extracted once: what ``add`` leaves in it
    # is, for each matrix, what it leaves for that matrix alone, at its own
    # bound.  Each matrix's row sums are ``fsum`` of its full rows and the
    # floats it gives alone, and the rows asked for in full are its own.
    matrix, strips, bound = case
    stack = np.array([matrix * 0.0 if e is None else np.ldexp(matrix, e) for e in scales])
    bounds = [0.0 if e is None else math.ldexp(bound, e) for e in scales]
    stacked = SymmetricRowSums(len(matrix), bounds)
    left = []
    for start, stop, end in strips:
        strip = stack[:, start:stop, start:end].copy()
        stacked.add(strip, start)
        left.append(strip)
    asked = []
    got = stacked.sums(_full_rows_of(stack, asked))
    want = np.array([_fsum_of_rows(layer) for layer in stack])
    assert got.shape == (len(scales), len(matrix))
    assert got.tobytes() == want.tobytes()
    for f, (layer, layer_bound) in enumerate(zip(stack, bounds)):
        sums = SymmetricRowSums(len(matrix), layer_bound)
        for (start, stop, end), strip in zip(strips, left):
            alone = layer[start:stop, start:end].copy()
            sums.add(alone, start)
            assert alone.tobytes() == strip[f].tobytes()
        assert sums.sums(_full_rows_of(layer[None], [])).tobytes() == got[f].tobytes()
    assert {f for f, _ in asked} <= set(range(len(scales)))


@pytest.mark.parametrize("scale", [0, -30, 400, -900])
@pytest.mark.parametrize("base", [1.0, 1.5, -1.0, -1.5])
def test_symmetric_row_sums_planted_ties_reach_full_rows(base, scale):
    # Rows whose extracted part is ``base`` and whose remainders add an
    # exact half-gap of it (the gap above, or the narrower one below a
    # power of two) plus one entry far below, of either sign, that decides
    # the rounding.  A float tail cannot settle them, so each reaches
    # ``full_rows`` and comes out as ``fsum``.  Row i of the first k holds
    # base on its diagonal and its small entries in four columns of its
    # own past the first k, so the strips' column sums carry them too.
    k = 8
    m = 5 * k
    matrix = np.zeros((m, m))
    ulp = math.ulp(abs(base))
    lower = ulp / 2.0 if abs(base) == 1.0 else ulp  # gap below |base|
    for i in range(k):
        away, sign = i % 2 == 0, 1.0 if i % 4 < 2 else -1.0
        half = ulp / 2.0 if away else -lower / 2.0
        tiny = sign * ulp * 2.0**-48
        big = 2.0**4 * ulp  # a remainder pair that cancels and widens the bound
        entries = [math.copysign(1.0, base) * half, tiny, big, -big]
        matrix[i, i] = base
        cols = k + 4 * i + np.arange(4)
        matrix[i, cols] = entries
        matrix[cols, i] = entries
    matrix = np.ldexp(matrix, scale)
    want = _fsum_of_rows(matrix)
    assert len({x.hex() for x in want[:k]}) >= 2  # the tiny entries decide
    sums = SymmetricRowSums(m, float(np.abs(matrix).max()))
    for start in range(0, m, 6):
        sums.add(matrix[start : start + 6, start:].copy(), start)
    asked = []
    assert sums.sums(_full_rows_of(matrix[None], asked)).tobytes() == want.tobytes()
    redone = {row for _, rows in asked for row in rows}
    assert set(range(k)) <= redone


def test_symmetric_row_sums_zero_and_subnormal_rows():
    # Zero rows are settled without full rows, under any bound; so is a
    # matrix of subnormals at its own bound, whose one extraction takes
    # every bit.  Subnormal rows under a large bound are asked for in full.
    rng = np.random.default_rng(1074)
    m = 60
    tiny = np.triu(rng.integers(1, 2**20, (m, m)) * 5e-324)
    tiny += np.triu(tiny, 1).T
    tiny[::3] = 0.0
    tiny[:, ::3] = 0.0
    big = tiny.copy()
    big[1, 1] = 1e10
    for matrix in (np.zeros((m, m)), tiny, big):
        sums = SymmetricRowSums(m, float(matrix.max()))
        for start in range(0, m, 7):
            sums.add(matrix[start : start + 7, start:].copy(), start)
        asked = []
        assert sums.sums(_full_rows_of(matrix[None], asked)).tobytes() == _fsum_of_rows(matrix).tobytes()
        redone = {row for _, rows in asked for row in rows}
        assert not redone & set(range(0, m, 3))
        if matrix is tiny:
            assert not redone
        elif matrix is big:
            assert redone


def test_symmetric_row_sums_bound():
    def never(f, rows):
        raise AssertionError("full rows asked for a zero matrix")

    assert SymmetricRowSums.accepts(0.0) and SymmetricRowSums.accepts(2.0**900 * (1 - 2**-53))
    for bad in (-1.0, 2.0**900, math.inf, math.nan):
        assert not SymmetricRowSums.accepts(bad)
        with pytest.raises(ValueError):
            SymmetricRowSums(4, bad)
    assert SymmetricRowSums(3, 0.0).sums(never).tobytes() == np.zeros(3).tobytes()
