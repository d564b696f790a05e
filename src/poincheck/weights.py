"""Radially decreasing step weights and their layer-cake measures.

A weight on the unit ball is radial, ``w(x) = profile(|x|)``, with a
nonincreasing, right-continuous step profile that is strictly positive at
radius 1/2.  On the outer annulus every such profile is a superposition of
ball indicators integrated against a finite atomic measure supported on
(1/2, 1]:

    profile(r) = sum of atom masses at radii t > r,      1/2 < r < 1.

Step profiles make this representation exact in both directions, which is
what the round-trip invariants below rely on.  Jumps at radii <= 1/2 do
not show up in the measure (its domain starts right of 1/2); the profile
still evaluates from its own levels there.

The unweighted case is ``UNIT_WEIGHT`` (w = 1, one atom of mass 1 at
t = 1), the default of every optional weight or profile parameter; its
level 1.0 multiplies exactly, so unweighted needs no code path of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import ksum

__all__ = [
    "RadialProfile",
    "LayerCakeMeasure",
    "UNIT_WEIGHT",
    "make_step_profile",
    "sample_profile",
    "eval_weight",
    "layer_cake",
    "reconstruct",
    "truncate_profile",
    "describe_profile",
    "profile_from_json",
]


@dataclass(frozen=True)
class RadialProfile:
    """Nonincreasing right-continuous step function on [0, 1).

    ``values[i]`` is the level on ``[breakpoints[i-1], breakpoints[i])``
    with the conventions breakpoint ``-1`` = 0 and breakpoint ``m`` = 1.
    Intervals are half-open on the right, so the level at a breakpoint is
    the one to its right (right-continuity).
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    _breaks_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _values_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(breaks) + 1:
            raise ValueError(
                f"need len(values) == len(breakpoints) + 1, "
                f"got {len(vals)} values for {len(breaks)} breakpoints"
            )
        for b in breaks:
            if not (0.0 < b < 1.0):
                raise ValueError(f"breakpoint {b} outside (0, 1)")
        if any(b1 >= b2 for b1, b2 in zip(breaks, breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        for v in vals:
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"levels must be finite and nonnegative, got {v}")
        if any(v1 < v2 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("levels must be nonincreasing (monotone weight)")
        object.__setattr__(self, "_breaks_arr", np.asarray(breaks, dtype=float))
        object.__setattr__(self, "_values_arr", np.asarray(vals, dtype=float))
        if self.value_at(0.5) <= 0.0:
            raise ValueError("profile must be positive at radius 1/2")

    def value_at(self, radius: float) -> float:
        """Level at a single radius in [0, 1)."""
        return float(eval_weight(self, radius))

    @property
    def center_value(self) -> float:
        """Level at the origin."""
        return self.values[0]

    @property
    def half_value(self) -> float:
        """Level at radius 1/2 (equals the total layer-cake mass)."""
        return self.value_at(0.5)


@dataclass(frozen=True)
class LayerCakeMeasure:
    """Finite atomic measure on (1/2, 1]: ``atoms`` is ((t_1, w_1), ...)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(t), float(w)) for t, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        for t, w in atoms:
            if not (0.5 < t <= 1.0):
                raise ValueError(f"atom location {t} outside (1/2, 1]")
            if not np.isfinite(w) or w < 0.0:
                raise ValueError(f"atom mass must be finite and nonnegative, got {w}")
        locs = [t for t, _ in atoms]
        if any(t1 >= t2 for t1, t2 in zip(locs, locs[1:])):
            raise ValueError("atom locations must be strictly increasing")
        if all(w == 0.0 for _, w in atoms):
            raise ValueError("measure must be positive (some atom mass > 0)")

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.atoms)


def make_step_profile(
    breakpoints: Sequence[float], values: Sequence[float]
) -> RadialProfile:
    """Build a step profile from explicit breakpoints and levels."""
    return RadialProfile(tuple(breakpoints), tuple(values))


def _collapse(breaks: list[float], vals: list[float]) -> tuple[list[float], list[float]]:
    out_b: list[float] = []
    out_v: list[float] = [vals[0]]
    for b, v in zip(breaks, vals[1:]):
        if v != out_v[-1]:
            out_b.append(b)
            out_v.append(v)
    return out_b, out_v


def sample_profile(fn: Callable[[float], float], m: int) -> RadialProfile:
    """Step approximation from above of a nonincreasing map on [0, 1).

    Samples ``fn`` at the left endpoints of ``m`` uniform subintervals, so
    the step profile dominates ``fn`` pointwise.  Redundant breakpoints
    (equal consecutive levels) are dropped.
    """
    if m < 1:
        raise ValueError(f"need at least one subinterval, got m={m}")
    points = [i / m for i in range(m)]
    vals = [float(fn(t)) for t in points]
    if any(v1 < v2 for v1, v2 in zip(vals, vals[1:])):
        raise ValueError("sampled map is increasing somewhere on [0, 1)")
    breaks, vals = _collapse(points[1:], vals)
    return RadialProfile(tuple(breaks), tuple(vals))


def eval_weight(profile: RadialProfile, radius):
    """Profile level at ``radius`` (scalar or array), radii in [0, 1)."""
    r = np.asarray(radius, dtype=float)
    if np.any(r < 0.0) or np.any(r >= 1.0):
        raise ValueError("radius must lie in [0, 1)")
    idx = np.searchsorted(profile._breaks_arr, r, side="right")
    out = profile._values_arr[idx]
    if np.ndim(radius) == 0:
        return float(out)
    return out


UNIT_WEIGHT = RadialProfile((), (1.0,))


def layer_cake(profile: RadialProfile) -> LayerCakeMeasure:
    """Atomic measure representing the profile on the outer annulus.

    One atom per breakpoint strictly right of 1/2 carrying that jump,
    plus an atom at 1 carrying the terminal level.  Jumps at radii <= 1/2
    are folded into the total (the measure only sees the profile right of
    1/2); zero jumps produce no atom.
    """
    atoms: list[tuple[float, float]] = []
    for i, b in enumerate(profile.breakpoints):
        if b > 0.5:
            jump = profile.values[i] - profile.values[i + 1]
            if jump > 0.0:
                atoms.append((b, jump))
    atoms.append((1.0, profile.values[-1]))
    return LayerCakeMeasure(tuple(atoms))


def reconstruct(measure: LayerCakeMeasure, radius: float) -> float:
    """Total mass strictly past ``radius``; inverts :func:`layer_cake`.

    Defined on the open annulus radii (1/2, 1) where the layer-cake
    representation determines the weight.
    """
    if not (0.5 < radius < 1.0):
        raise ValueError("radius must lie in (1/2, 1)")
    return ksum([w for t, w in measure.atoms if t > radius])


def truncate_profile(profile: RadialProfile) -> RadialProfile:
    """Cap the profile at its level at radius 1/2.

    The result is constant on [0, 1/2] and agrees with the input beyond;
    it has the same layer-cake measure.
    """
    cap = profile.half_value
    vals = [min(v, cap) for v in profile.values]
    breaks, vals = _collapse(list(profile.breakpoints), vals)
    return RadialProfile(tuple(breaks), tuple(vals))


def describe_profile(profile: RadialProfile) -> str:
    """Compact deterministic descriptor used in report rows."""
    b = ",".join(repr(x) for x in profile.breakpoints)
    v = ",".join(repr(x) for x in profile.values)
    return f"step(b=[{b}];v=[{v}])"


def profile_from_json(obj: dict, samples: int = 16) -> RadialProfile:
    """Parse a profile spec.

    ``{"type": "step", "breakpoints": [...], "values": [...]}`` is taken
    literally; ``{"type": "power", "beta": b}`` means the map
    ``t -> (1 - t) ** b`` sampled from above on ``samples`` subintervals.
    """
    kind = obj.get("type")
    if kind == "step":
        return make_step_profile(obj["breakpoints"], obj["values"])
    if kind == "power":
        beta = float(obj["beta"])
        if beta < 0.0:
            raise ValueError("power profile needs beta >= 0")
        return sample_profile(lambda t: (1.0 - t) ** beta, samples)
    raise ValueError(f"unknown profile type: {kind!r}")
