"""Numerical verification sweeps over every identity the package encodes.

Each check drives a construction through a dense parameter sweep and
measures the worst residual against an independent arithmetic oracle
(distance products, defining relations, finite differences, sampled
memberships). A sweep is one call of the construction's array kernel,
reduced with numpy. Residuals are scale-free: each is divided by the
power of the half focal distance c that matches its dimension (c for
lengths, c^2 for products of lengths, c^4 for the Bernoulli field), so
one tolerance holds at any similarity placement of the foci. The CLI's
`verify` subcommand runs everything and fails on any violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    BernoulliConfig,
    EquilateralHyperbola,
    PolynomialLemniscate,
    bernoulli_area,
    bernoulli_polar_array,
    expand_coefficients,
    hyperbola_gradient_array,
    hyperbola_point_array,
    hyperbola_residual_array,
    lemniscate_field_array,
    lemniscate_gradient_array,
    unit_hyperbola_foci,
)
from .constructions import (
    hyperbola_of,
    invert_between_array,
    maclaurin_array,
    normal_by_angle_array,
    right_angle_array,
    tangent_circle_array,
    three_bar_array,
)
from .geometry import (
    SQRT2,
    Point,
    invert_line_array,
    invert_point_array,
    line_line_intersection_array,
    reflect_across_line_array,
    row_cross,
    row_dot,
    row_norm,
    row_perp,
    row_unit,
    xy,
)
from .tracer import bernoulli_window, contour_area, trace

TAU = math.tau


@dataclass(frozen=True)
class Check:
    """A named worst-case residual against its tolerance."""

    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _worst(*residuals) -> float:
    """Largest absolute value over the residual arrays (0 when all are empty)."""
    return max((float(np.max(np.abs(r))) for r in residuals if np.size(r)), default=0.0)


def _field(L, pts):
    return lemniscate_field_array(L, pts[..., 0], pts[..., 1])


def polar_angles(count: int, margin: float = 0.0) -> np.ndarray:
    """Angles across both lobes where the polar radius is defined."""
    half = count // 2
    span = math.pi / 2 - 2 * margin
    t = -math.pi / 4 + margin + span * (np.arange(half) + 0.5) / half
    return np.stack((t, t + math.pi), axis=-1).ravel()[:count]


def sweep_angles(count: int, avoid_multiples_of: float | None = None, tol: float = 1e-9) -> np.ndarray:
    """(k + 1/2) * tau / count grid, optionally skipping near-degenerate values."""
    t = (np.arange(count) + 0.5) * TAU / count
    if avoid_multiples_of is not None:
        r = t - avoid_multiples_of * np.round(t / avoid_multiples_of)
        t = t[np.abs(r) >= tol]
    return t


def check_defining_product(B: BernoulliConfig, count: int = 10_000) -> Check:
    c2 = B.half_distance**2
    x = bernoulli_polar_array(B, polar_angles(count))
    product = row_norm(x - xy(B.f1)) * row_norm(x - xy(B.f2))
    return Check("defining_product", _worst(product - c2) / c2, 1e-10)


def threebar_states(B: BernoulliConfig, count: int, side: str = "opposite"):
    return three_bar_array(B, sweep_angles(count), side)


def check_threebar(B: BernoulliConfig, states) -> list[Check]:
    c = B.half_distance
    f1, f2 = xy(B.f1), xy(B.f2)
    # isosceles trapezoid f1-a-f2-b: the legs f1a, f2b are equal by
    # construction, so the testable content is that the bases a->f2
    # and b->f1 are parallel
    trapezoid = row_cross(row_unit(f2 - states.a), row_unit(f1 - states.b))
    lengths = (
        row_norm(states.a - f1) - c * SQRT2,
        row_norm(states.b - f2) - c * SQRT2,
        row_norm(states.a - states.b) - 2.0 * c,
    )
    return [
        Check("threebar_field", _worst(_field(B.lemniscate, states.x)) / c**4, 1e-8),
        Check("threebar_trapezoid", _worst(trapezoid), 1e-9),
        Check("threebar_stick_lengths", _worst(*lengths) / c, 1e-10),
    ]


def check_inversion_pairing(B: BernoulliConfig, states) -> list[Check]:
    H = hyperbola_of(B)
    o = xy(B.center)
    c = B.half_distance
    c2 = c**2
    states = states.select(~np.isnan(states.p[:, 0]))
    ox = states.x - o
    oq = states.q - o
    membership = _worst(hyperbola_residual_array(H, states.p), hyperbola_residual_array(H, states.q))
    pairing = _worst(row_norm(ox) * row_norm(oq) - c2)
    ray = max(
        _worst(row_cross(row_unit(ox), row_unit(oq))),
        _worst(np.maximum(0.0, -row_dot(ox, oq))) / c2,
    )
    return [
        Check("hyperbola_membership_pq", membership / c, 1e-8),
        Check("inversion_pairing", pairing / c2, 1e-8),
        Check("inversion_ray", ray, 1e-8),
    ]


def check_hyperbola_inverse(B: BernoulliConfig, count: int = 1_000) -> Check:
    H = hyperbola_of(B)
    half = count // 2
    t = -3.0 + 6.0 * (np.arange(half) + 0.5) / half
    q = np.concatenate([hyperbola_point_array(H, t, branch) for branch in (1, -1)])
    x = invert_between_array(B, q)
    return Check("hyperbola_inverse_direction", _worst(_field(B.lemniscate, x)) / B.half_distance**4, 1e-8)


def check_sameside_locus(B: BernoulliConfig, count: int = 10_000) -> Check:
    c = B.half_distance
    states = threebar_states(B, count, side="same")
    return Check("sameside_locus", _worst(row_norm(states.x - xy(B.center)) - c * SQRT2) / c, 1e-8)


def check_maclaurin(B: BernoulliConfig, count: int = 10_000) -> list[Check]:
    L = B.lemniscate
    c = B.half_distance
    o = xy(B.center)
    phi = -math.pi / 4 + (np.arange(count) + 0.5) * (math.pi / 2) / count
    s = maclaurin_array(B, phi)
    chord = row_norm(s.a - s.b)
    return [
        Check("maclaurin_field", _worst(_field(L, s.x), _field(L, s.x_prime)) / c**4, 1e-8),
        Check(
            "maclaurin_chord_identity",
            _worst(row_norm(s.x - o) - chord, row_norm(s.x_prime - o) - chord) / c,
            1e-10,
        ),
    ]


def check_rightangle(B: BernoulliConfig, count: int = 10_000) -> list[Check]:
    L = B.lemniscate
    o = xy(B.center)
    u = xy(B.axis_unit)
    c = B.half_distance
    alpha = -math.pi / 2 + (np.arange(count) + 0.5) * math.pi / count
    st = right_angle_array(B, alpha)
    right = []
    sticks = []
    for tip in (st.x, st.y):
        stick = row_norm(st.a - tip)
        right.append(row_norm(tip - o) ** 2 + row_norm(st.a - o) ** 2 - stick**2)
        sticks.append(stick - c * SQRT2)
    lobe_margin = min(np.min(row_dot(st.x - o, u)), np.min(-row_dot(st.y - o, u)))
    return [
        Check("rightangle_field", _worst(_field(L, st.x), _field(L, st.y)) / c**4, 1e-8),
        Check("rightangle_right_angle", max(_worst(*right) / c**2, _worst(*sticks) / c), 1e-10),
        Check("rightangle_lobe_separation", max(0.0, -float(lobe_margin)) / c, 0.0),
    ]


def check_normals(B: BernoulliConfig, count: int = 1_000) -> Check:
    x = bernoulli_polar_array(B, polar_angles(count, margin=0.02))
    normal = normal_by_angle_array(B, x)
    g = row_unit(lemniscate_gradient_array(B.lemniscate, x[:, 0], x[:, 1]))
    angle = np.arcsin(np.clip(row_cross(normal, g), -1.0, 1.0))
    return Check("normal_vs_gradient_angle", _worst(angle), 1e-8)


def check_tangent_circle(B: BernoulliConfig, count: int = 1_000) -> list[Check]:
    L = B.lemniscate
    H = hyperbola_of(B)
    o = xy(B.center)
    c = B.half_distance
    # pad the grid so at least `count` states survive after skipping the
    # crank angles where the stick lines are parallel or x hits o; near
    # those angles the tangent circle degenerates (radius to infinity)
    states = three_bar_array(B, sweep_angles(count + count // 4, avoid_multiples_of=math.pi / 4, tol=5e-2))
    states = states.select(~np.isnan(states.p[:, 0]))
    center, radius = tangent_circle_array(states)
    radial = row_unit(states.x - center)
    grad = row_unit(lemniscate_gradient_array(L, states.x[:, 0], states.x[:, 1]))

    # the circle center also sits on the normal at x and on the
    # perpendicular from o to the hyperbola tangent at q
    rebuilt = line_line_intersection_array(
        states.x, normal_by_angle_array(B, states.x), o, row_unit(hyperbola_gradient_array(H, states.q))
    )
    rebuilt_off = row_norm(rebuilt - center)

    slope_deficit = np.maximum(0.0, 1.9 - _contact_slope(L, center, radius, states.x, c))
    return [
        Check("tangent_circle_alignment", _worst(row_cross(radial, grad)), 1e-8),
        Check("tangent_circle_through_o", _worst(radius - row_norm(center - o)) / c, 1e-9),
        Check("tangent_circle_center_rebuild", _worst(rebuilt_off[~np.isnan(rebuilt_off)]) / c, 1e-8),
        Check("tangent_contact_slope_deficit", _worst(slope_deficit), 1e-9),
    ]


def _contact_slope(L, center, radius, x, c: float) -> np.ndarray:
    """Least-squares log-log slope of |field| along each circle near its x,
    over arc steps of 1e-2 c, 1e-3 c and 1e-4 c; 2 where the field is 0."""
    steps = np.array((1e-2, 1e-3, 1e-4)) * c
    base = np.arctan2(x[:, 1] - center[:, 1], x[:, 0] - center[:, 0])
    ang = base[:, None] + steps / radius[:, None]
    value = np.abs(
        lemniscate_field_array(
            L,
            center[:, 0:1] + radius[:, None] * np.cos(ang),
            center[:, 1:2] + radius[:, None] * np.sin(ang),
        )
    )
    exact = (value == 0.0).any(axis=1)
    lx = np.log(steps)
    ly = np.log(np.where(value == 0.0, 1.0, value))
    dx = lx - lx.mean()
    slope = ((ly - ly.mean(axis=1, keepdims=True)) * dx).sum(axis=1) / (dx * dx).sum()
    return np.where(exact, 2.0, slope)


def check_lemma1(pair_count: int = 1_000, samples_per_line: int = 50, seed: int = 42) -> list[Check]:
    import random

    rng = random.Random(seed)
    pairs = []
    for _ in range(pair_count):
        center = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        radius, ang = rng.uniform(0.5, 2.0), rng.uniform(0.0, math.pi)
        offset = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        pairs.append((*center, radius, ang, offset))
    cx, cy, radius, ang, offset = np.array(pairs).T
    center = np.stack((cx, cy), axis=-1)
    direction = np.stack((np.cos(ang), np.sin(ang)), axis=-1)
    anchor = center + row_perp(direction) * offset[:, None]
    image_center, image_radius = invert_line_array(center, radius, anchor, direction)

    # samples_per_line points of each line, inverted, must land on its image
    # circle, which also passes through the center of inversion
    t = -5.0 + 10.0 * (np.arange(samples_per_line) + 0.5) / samples_per_line
    samples = anchor[:, None] + direction[:, None] * t[:, None]
    images = invert_point_array(center[:, None], radius[:, None], samples)
    on_circle = row_norm(images - image_center[:, None]) - image_radius[:, None]
    through_center = row_norm(center - image_center) - image_radius
    # the circle's center is the image of the center mirrored in the line
    mirrored = reflect_across_line_array(anchor, direction, center)
    center_off = row_norm(invert_point_array(center, radius, mirrored) - image_center)
    return [
        Check("line_inversion_on_circle", _worst(on_circle, through_center), 1e-9),
        Check("line_inversion_center", _worst(center_off), 1e-9),
    ]


def check_coefficients(seed: int = 42) -> Check:
    import random

    rng = random.Random(seed)
    worst = 0.0
    for n in (1, 2, 3, 5):
        foci = tuple(Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(n))
        L = PolynomialLemniscate(foci, rng.uniform(0.5, 2.0))
        table = expand_coefficients(L)
        x, y = np.array([(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(100)]).T
        f = lemniscate_field_array(L, x, y)
        magnitude = (f + L.level) + L.level  # product term plus level, both >= 0
        worst = max(worst, _worst((table.evaluate_array(x, y) - f) / np.maximum(1.0, magnitude)))
    return Check("coefficient_pointwise", worst, 1e-9)


def check_unit_hyperbola(count: int = 100) -> list[Check]:
    H = EquilateralHyperbola(*unit_hyperbola_foci())
    t = 0.1 * (10.0 / 0.1) ** (np.arange(count) / (count - 1))
    q = np.stack((t, 1.0 / t), axis=-1)
    # the tangent at q (perpendicular to the gradient of the quadratic
    # form) meets the axes at r and s, and q is the midpoint of rs
    tangent = row_unit(row_perp(hyperbola_gradient_array(H, q)))
    origin = np.zeros(2)
    r = line_line_intersection_array(q, tangent, origin, np.array((1.0, 0.0)))
    s = line_line_intersection_array(q, tangent, origin, np.array((0.0, 1.0)))
    return [
        Check("unit_hyperbola_residual", _worst(hyperbola_residual_array(H, q)), 1e-9),
        Check("tangent_midpoint", _worst(row_norm(0.5 * (r + s) - q)), 1e-12),
    ]


def check_area(B: BernoulliConfig, grid: int = 512) -> Check:
    c = B.half_distance
    w = bernoulli_window(B, grid, 1.6 * c, 0.8 * c)
    contours = trace(B.lemniscate, w)
    total = sum(contour_area(c) for c in contours if c.closed)
    exact = bernoulli_area(B)
    return Check(f"area_grid_{grid}", abs(total - exact) / exact, 1e-3)


def run_verification(
    B: BernoulliConfig,
    *,
    sweep: int = 10_000,
    dense: int = 1_000,
    grid: int = 512,
) -> list[Check]:
    """Run every sweep at the given sample counts and collect the checks."""
    checks = [check_defining_product(B, sweep)]
    states = threebar_states(B, sweep)
    checks += check_threebar(B, states)
    checks += check_inversion_pairing(B, states)
    del states  # not held through the trace in check_area
    checks.append(check_hyperbola_inverse(B, dense))
    checks.append(check_sameside_locus(B, sweep))
    checks += check_maclaurin(B, sweep)
    checks += check_rightangle(B, sweep)
    checks.append(check_normals(B, dense))
    checks += check_tangent_circle(B, dense)
    checks += check_lemma1(dense)
    checks.append(check_coefficients())
    checks += check_unit_hyperbola()
    checks.append(check_area(B, grid))
    return checks


def format_report(checks: list[Check]) -> str:
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{c.name:<{width}}  max residual {c.max_residual:.3e}  tol {c.tolerance:.1e}  {status}")
    failed = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return "\n".join(lines)
