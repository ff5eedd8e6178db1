"""Executable lemniscate constructions.

Three mechanisms that generate the Bernoulli lemniscate (a three-stick
antiparallelogram, a secant-chord construction on a circle, and a
right-angle two-stick linkage), plus the inversion correspondence with
the equilateral hyperbola, the tangent circle at a curve point, and the
angle-doubling normal construction.

Each construction is one numpy kernel (the `*_array` functions): a
parameter array, or points as rows of an (N, 2) array, in; (N, 2) arrays
out. The scalar functions are one-row calls of their kernel. Each of the
three mechanisms has one state type, a NamedTuple that serves both: a
sweep holds arrays of shape (N,) and (N, 2), one solve holds floats and
Points. (Across the package, a type that only holds values is a
NamedTuple; one that validates its input, wraps one array or is mutable
is a dataclass.) A kernel that meets an invalid parameter raises the
construction's GeometryError naming the first offending parameter, or
ValueError for an angle that is not finite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .curves import (
    BernoulliConfig,
    EquilateralHyperbola,
    on_curve,
)
from .errors import (
    DoublePoint,
    NoChord,
    NotOnCurve,
    OutOfReach,
    UndefinedCenter,
)
from .geometry import (
    SQRT2,
    Circle,
    Line,
    Point,
    angle_array,
    invert_point_array,
    line_circle_array,
    line_line_intersection_array,
    reflect_across_line_array,
    row_cross,
    row_dot,
    row_norm,
    row_perp,
    row_point,
    row_rotate,
    row_unit,
    rows,
    xy,
)


def _row(states):
    """Row 0 of a sweep's states as the state of one solve: parameters as
    floats, points as Points (None for a NaN row)."""

    def value(v):
        v = v[0].tolist()  # a float, or a row's [x, y]
        return v if isinstance(v, float) else None if math.isnan(v[0]) else Point(*v)

    return type(states)(*map(value, states))


class ThreeBarState(NamedTuple):
    """Solved three-stick configuration: theta a float and points Points
    for one solve, theta (N,) and points (N, 2) for a sweep.

    Sticks f1->a and f2->b have length c*sqrt(2), the coupler a->b has
    length 2c, and x is the coupler midpoint. p is the intersection of the
    stick lines and q its mirror image in the focal axis: None, or NaN rows,
    where the lines are parallel, as on the whole same-side branch (no solve).
    """

    theta: float | np.ndarray
    a: Point | np.ndarray
    b: Point | np.ndarray
    x: Point | np.ndarray
    p: Point | np.ndarray | None
    q: Point | np.ndarray | None


class MaclaurinSample(NamedTuple):
    """Chord a->b of the construction circle cut by the secant at angle phi,
    with the chord length laid off both ways from the center onto x, x_prime.
    A float and Points for one sample, (N,) and (N, 2) arrays for a sweep."""

    phi: float | np.ndarray
    a: Point | np.ndarray
    b: Point | np.ndarray
    x: Point | np.ndarray
    x_prime: Point | np.ndarray


class RightAngleState(NamedTuple):
    """Crank point a with |f1 a| = c and the two coupler tips x, y seen
    from the double point at a right angle to the crank. A float and
    Points for one solve, (N,) and (N, 2) arrays for a sweep."""

    alpha: float | np.ndarray
    a: Point | np.ndarray
    x: Point | np.ndarray
    y: Point | np.ndarray


def three_bar_solve(B: BernoulliConfig, theta: float, side: str = "opposite") -> ThreeBarState:
    """Solve the three-stick linkage at crank angle theta (see three_bar_array)."""
    return _row(three_bar_array(B, [theta], side))


def three_bar_array(B: BernoulliConfig, theta, side: str = "opposite") -> ThreeBarState:
    """Solve the three-stick linkage at each crank angle, in closed form.

    theta is the angle of stick f1->a measured from the f1->f2 direction.
    The crossed (opposite-side) branch traces the lemniscate: f1-a-f2-b
    is an isosceles trapezoid, so b is f1 reflected in the perpendicular
    bisector of a-f2. The parallelogram (same-side) branch, b = a + f2 - f1,
    traces a circle of radius c*sqrt(2) about the double point; its stick
    lines are always parallel, so its p and q are NaN rows, with no solve.
    Every crank angle solves, unless a stick is too short for the floats
    about its focus (ValueError); at theta = 0 and pi, x is a vertex.
    """
    if side not in ("opposite", "same"):
        raise ValueError(f"side must be 'opposite' or 'same', got {side!r}")
    theta = angle_array("theta", theta)
    B.center  # refuses foci whose midpoint overflows; the sums below would write inf and NaN
    c = B.half_distance
    f1, f2, u = xy(B.f1), xy(B.f2), xy(B.axis_unit)
    a = f1 + row_rotate(u, theta) * (c * SQRT2)
    if side == "same":
        b = a + (f2 - f1)
    else:
        b = reflect_across_line_array(0.5 * (a + f2), row_perp(row_unit(f2 - a)), f1)
    # far from the origin a stick can be shorter than the float spacing there: its tip
    # rounds onto its focus and its direction is 0/0, not a parallel pair
    bad = np.flatnonzero((a == f1).all(axis=-1) | (b == f2).all(axis=-1))
    if bad.size:
        first = float(theta.ravel()[bad[0]])
        raise ValueError(f"a stick rounds onto its focus at theta = {first}: foci {B.f1}, {B.f2}")
    x = 0.5 * (a + b)
    if side == "same":  # the sticks are parallel: p and q do not exist, so nothing is solved for them
        nan = np.full(theta.shape, np.nan)
        return ThreeBarState(theta, a, b, x, rows(nan, nan), rows(nan, nan))
    p = line_line_intersection_array(f1, row_unit(a - f1), f2, row_unit(b - f2))
    q = reflect_across_line_array(f1, u, p)
    return ThreeBarState(theta, a, b, x, p, q)


def maclaurin_sample(B: BernoulliConfig, phi: float) -> MaclaurinSample:
    """Secant-chord construction at secant angle phi (see maclaurin_array)."""
    return _row(maclaurin_array(B, [phi]))


def maclaurin_array(B: BernoulliConfig, phi) -> MaclaurinSample:
    """Secant-chord construction at each secant angle.

    The secant through the double point at angle phi (measured from the
    center-to-f1 direction) cuts the circle of radius c/sqrt(2) about f1
    in a chord a->b; x and x_prime lie on the secant at distance |ab|
    from the center, one to each side. A tangent secant gives a = b and
    x = x_prime = o; a secant that misses the circle raises NoChord.
    """
    phi = angle_array("phi", phi)
    o = xy(B.center)
    f1 = xy(B.f1)
    r = B.half_distance / SQRT2
    d = row_rotate(row_unit(f1 - o), phi)
    a, b, h2 = line_circle_array(o, d, f1, r)
    misses = h2 < -1e-12 * r * r
    if misses.any():
        raise NoChord(f"secant at phi = {float(phi[misses][0])} misses the construction circle")
    length = row_norm(a - b)[..., None]
    return MaclaurinSample(phi, a, b, o + d * length, o - d * length)


def right_angle_solve(B: BernoulliConfig, alpha: float) -> RightAngleState:
    """Solve the right-angle linkage at crank angle alpha (see right_angle_array)."""
    return _row(right_angle_array(B, [alpha]))


def right_angle_array(B: BernoulliConfig, alpha) -> RightAngleState:
    """Solve the right-angle linkage at each crank angle.

    a runs on the circle of radius c about f1 (alpha measured from the
    direction toward the double point); the sticks a->x and a->y of
    length c*sqrt(2) are held so that the mid-stick ties to the double
    point force a right angle there. Then |ox| = c*sqrt(2*cos(alpha))
    and x sits at polar angle alpha/2, which also resolves the removable
    singularity at alpha = 0 by continuity. cos(alpha) < 0 raises
    OutOfReach.
    """
    alpha = angle_array("alpha", alpha)
    cos_a = np.cos(alpha)
    out = cos_a < 0.0
    if out.any():
        raise OutOfReach(f"crank at alpha = {float(alpha[out][0])} puts the double point out of reach")
    c = B.half_distance
    u = xy(B.axis_unit)
    a = xy(B.f1) + row_rotate(u, alpha) * c
    r = (c * np.sqrt(2.0 * cos_a))[..., None]
    w = row_rotate(u, 0.5 * alpha)
    o = xy(B.center)
    return RightAngleState(alpha, a, o + w * r, o - w * r)


def invert_between(B: BernoulliConfig, p: Point) -> Point:
    """Inversion in the circle about the double point through the foci
    (see invert_between_array)."""
    return row_point(invert_between_array(B, xy(p)))


def invert_between_array(B: BernoulliConfig, p) -> np.ndarray:
    """Images of the rows of p under the inversion in the circle about the
    double point through the foci.

    Maps lemniscate points to equilateral-hyperbola points (same foci)
    and back; the double point itself maps to infinity (CenterSingular).
    """
    return invert_point_array(xy(B.center), B.half_distance, p)


def tangent_circle_at(state: ThreeBarState) -> Circle:
    """Circle centered at the stick-line intersection p through x and the
    double point; it touches the lemniscate at x (see tangent_circle_array)."""
    points = (np.full((1, 2), np.nan) if p is None else xy(p)[None] for p in state[1:])
    center, radius = tangent_circle_array(ThreeBarState(np.array([state.theta]), *points))
    return Circle(row_point(center[0]), float(radius[0]))


def tangent_circle_array(states: ThreeBarState) -> tuple[np.ndarray, np.ndarray]:
    """Centers (N, 2) and radii (N,) of the tangent circles of the states.

    Raises UndefinedCenter, naming the crank angle, where the stick lines
    are parallel.
    """
    parallel = np.isnan(states.p[..., 0])
    if parallel.any():
        raise UndefinedCenter(
            f"stick lines are parallel at theta = {float(states.theta[parallel][0])}; "
            "the tangent circle has no center"
        )
    return states.p, row_norm(states.p - states.x)


def normal_by_angle(B: BernoulliConfig, x: Point) -> Line:
    """Normal line to the lemniscate at x by angle doubling (see
    normal_by_angle_array)."""
    return Line(x, row_point(normal_by_angle_array(B, xy(x)[None])[0]))


def normal_by_angle_array(B: BernoulliConfig, x) -> np.ndarray:
    """Unit directions (N, 2) of the normals at the curve points x (N, 2).

    The normal through x forms an unsigned angle of 2 * angle(x, o, f1)
    with the line o->x; the rotation sense swings the ray x->o toward
    the ray x->f1. Matches the direction of the field gradient. Raises
    NotOnCurve for a point off the lemniscate and DoublePoint at o.
    """
    x = np.asarray(x, dtype=float)
    off = ~on_curve(B.lemniscate, x)
    if off.any():
        raise NotOnCurve(f"point {row_point(x[off][0])} is not on the lemniscate")
    o, f1 = xy(B.center), xy(B.f1)
    to_o = o - x
    at_o = row_norm(to_o) <= 1e-12 * B.half_distance
    if at_o.any():
        raise DoublePoint(
            f"two branches cross at the double point {row_point(x[at_o][0])}; no single normal"
        )
    # the unsigned angle at o between the rays to x and to f1, atan2(|cross|, dot):
    # o->x is longer than 1e-12 c here and o->f1 is c long, so neither is degenerate
    delta = np.arctan2(np.abs(row_cross(-to_o, f1 - o)), row_dot(-to_o, f1 - o))
    phi0 = np.arctan2(to_o[..., 1], to_o[..., 0])
    turn = np.arctan2(f1[1] - x[..., 1], f1[0] - x[..., 0]) - phi0
    swing = turn - math.tau * np.round(turn / math.tau)  # math.remainder(turn, tau)
    ang = phi0 + np.where(swing >= 0.0, 1.0, -1.0) * 2.0 * delta
    return rows(np.cos(ang), np.sin(ang))


def hyperbola_of(B: BernoulliConfig) -> EquilateralHyperbola:
    """The equilateral hyperbola sharing B's foci (the inversion partner)."""
    return EquilateralHyperbola(B.f1, B.f2)
