import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poincheck.numerics import ksum
from poincheck.weights import (
    LayerCakeMeasure,
    eval_weight,
    layer_cake,
    make_step_profile,
    profile_from_json,
    reconstruct,
    sample_profile,
    truncate_profile,
)
from conftest import random_step_profile


def test_make_step_profile_constant():
    prof = make_step_profile([], [1.0])
    assert prof.values == (1.0,)
    assert eval_weight(prof, 0.99) == 1.0


def test_make_step_profile_one_step():
    prof = make_step_profile([0.75], [2.0, 1.0])
    assert eval_weight(prof, 0.5) == 2.0
    assert eval_weight(prof, 0.75) == 1.0  # right-continuous at the breakpoint


def test_make_step_profile_rejects_increasing_values():
    with pytest.raises(ValueError, match="nonincreasing"):
        make_step_profile([0.6], [1.0, 2.0])


def test_make_step_profile_rejects_bad_breakpoints():
    with pytest.raises(ValueError):
        make_step_profile([1.2], [2.0, 1.0])
    with pytest.raises(ValueError):
        make_step_profile([0.5, 0.5], [3.0, 2.0, 1.0])


def test_profile_rejects_vanishing_at_half():
    with pytest.raises(ValueError, match="positive at radius 1/2"):
        make_step_profile([0.4], [1.0, 0.0])


def test_sample_profile_quadratic():
    prof = sample_profile(lambda t: 1.0 - t * t, 2)
    assert prof.breakpoints == (0.5,)
    assert prof.values == (1.0, 0.75)


def test_sample_profile_constant_collapses():
    prof = sample_profile(lambda t: 1.0, 7)
    assert prof.breakpoints == ()
    assert prof.values == (1.0,)


def test_sample_profile_rejects_increasing_map():
    with pytest.raises(ValueError, match="increasing"):
        sample_profile(lambda t: t, 2)


def test_sample_profile_dominates_the_map(rng):
    prof = sample_profile(lambda t: (1.0 - t) ** 2, 9)
    radii = rng.uniform(0.0, 0.999, size=200)
    assert np.all(eval_weight(prof, radii) >= (1.0 - radii) ** 2 - 1e-15)


def test_eval_weight_bounds():
    prof = make_step_profile([], [1.0])
    with pytest.raises(ValueError):
        eval_weight(prof, 1.0)
    with pytest.raises(ValueError):
        eval_weight(prof, -0.1)


def test_layer_cake_constant():
    measure = layer_cake(make_step_profile([], [1.0]))
    assert measure.atoms == ((1.0, 1.0),)


def test_layer_cake_one_step():
    prof = make_step_profile([0.75], [2.0, 1.0])
    measure = layer_cake(prof)
    assert measure.atoms == ((0.75, 1.0), (1.0, 1.0))
    assert reconstruct(measure, 0.8) == 1.0 == eval_weight(prof, 0.8)


def test_layer_cake_absorbs_inner_jumps():
    prof = make_step_profile([0.4], [3.0, 1.0])
    measure = layer_cake(prof)
    assert measure.atoms == ((1.0, 1.0),)
    for r in np.linspace(0.51, 0.99, 25):
        assert reconstruct(measure, float(r)) == eval_weight(prof, float(r))


def test_layer_cake_jump_exactly_at_half_is_no_atom():
    prof = make_step_profile([0.5], [2.0, 1.0])
    measure = layer_cake(prof)
    assert measure.atoms == ((1.0, 1.0),)
    assert ksum([w for _, w in measure.atoms]) == prof.half_value == 1.0


def test_reconstruct_examples():
    m1 = LayerCakeMeasure(((1.0, 1.0),))
    assert reconstruct(m1, 0.9) == 1.0
    m2 = LayerCakeMeasure(((0.75, 1.0), (1.0, 1.0)))
    assert reconstruct(m2, 0.8) == 1.0
    assert reconstruct(m2, 0.6) == 2.0
    with pytest.raises(ValueError):
        reconstruct(m2, 0.5)
    with pytest.raises(ValueError):
        reconstruct(m2, 1.0)


def test_measure_validation():
    with pytest.raises(ValueError):
        LayerCakeMeasure(((0.4, 1.0),))
    with pytest.raises(ValueError):
        LayerCakeMeasure(((0.8, 1.0), (0.7, 1.0)))
    with pytest.raises(ValueError, match="positive"):
        LayerCakeMeasure(((0.8, 0.0), (1.0, 0.0)))


def test_truncate_profile_examples():
    prof = make_step_profile([0.75], [2.0, 1.0])
    assert truncate_profile(prof) == prof
    prof2 = make_step_profile([0.3, 0.75], [4.0, 2.0, 1.0])
    assert truncate_profile(prof2) == make_step_profile([0.75], [2.0, 1.0])
    const = make_step_profile([], [1.0])
    assert truncate_profile(const) == const


def test_round_trip_random_profiles(rng):
    for _ in range(200):
        prof = random_step_profile(rng)
        measure = layer_cake(prof)
        for r in rng.uniform(0.5000001, 0.9999, size=50):
            got = reconstruct(measure, float(r))
            want = eval_weight(prof, float(r))
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))


def test_reconstruction_monotone_right_continuous(rng):
    for _ in range(25):
        prof = random_step_profile(rng)
        measure = layer_cake(prof)
        radii = np.sort(rng.uniform(0.51, 0.99, size=40))
        vals = [reconstruct(measure, float(r)) for r in radii]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        # right-continuity at each atom inside the open annulus
        for t, _ in measure.atoms:
            if 0.5 < t < 0.99:
                at = reconstruct(measure, t)
                just_right = reconstruct(measure, t + 1e-12)
                assert at == just_right


def test_truncation_sandwich(rng):
    for _ in range(50):
        prof = random_step_profile(rng)
        capped = truncate_profile(prof)
        lower = prof.half_value / prof.center_value
        for r in rng.uniform(0.0, 0.999, size=30):
            full = eval_weight(prof, float(r))
            trunc = eval_weight(capped, float(r))
            assert trunc <= full + 1e-15
            assert lower * full <= trunc + 1e-15


def test_total_mass_equals_level_at_half(rng):
    for _ in range(50):
        prof = random_step_profile(rng)
        mass = ksum([w for _, w in layer_cake(prof).atoms])
        assert mass == pytest.approx(prof.half_value, rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False), min_size=1, max_size=11
    ),
    breaks=st.lists(
        st.floats(min_value=0.02, max_value=0.98, allow_nan=False), max_size=10, unique=True
    ),
    r=st.floats(min_value=0.5001, max_value=0.9999),
)
def test_round_trip_property(data, breaks, r):
    breaks = sorted(breaks)
    values = sorted(data, reverse=True)[: len(breaks) + 1]
    while len(values) < len(breaks) + 1:
        values.append(values[-1])
    prof = make_step_profile(breaks, values)
    assert reconstruct(layer_cake(prof), r) == pytest.approx(
        eval_weight(prof, r), rel=1e-15, abs=1e-15
    )


def test_profile_json_round_trip():
    prof = make_step_profile([0.3, 0.75], [4.0, 2.0, 1.0])
    doc = {"type": "step", "breakpoints": [0.3, 0.75], "values": [4.0, 2.0, 1.0]}
    assert profile_from_json(json.loads(json.dumps(doc))) == prof


def test_power_profile_from_json():
    prof = profile_from_json({"type": "power", "beta": 2.0}, samples=8)
    assert prof.values[0] == 1.0
    assert prof.value_at(0.5) == 0.25  # 0.5 is a left sample point for m=8
    assert prof.value_at(0.4) == (1.0 - 3.0 / 8.0) ** 2
    with pytest.raises(ValueError):
        profile_from_json({"type": "power", "beta": -1.0})
    with pytest.raises(ValueError):
        profile_from_json({"type": "spline"})
