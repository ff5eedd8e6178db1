"""Numerical verification sweeps over every identity the package encodes.

Each check drives a construction through a dense parameter sweep, one
array kernel call reduced with numpy, and measures the worst residual
against an independent arithmetic oracle (distance products, defining
relations, finite differences, sampled memberships, and the exact area
2c^2 against the traced area plus each chord's curvature segment, fourth
order in the cell size). Residuals are scale-free: each is divided by the
power of the half focal distance c that matches its dimension (c for
lengths, c^2 for areas and products of lengths, c^4 for the Bernoulli
field), so one tolerance holds at any similarity placement of the foci.
Each residual array is reduced to its worst value as soon as it is
formed, every sweep of run_verification, of `sweep` or `dense` rows, is
built and solved _ROWS rows at a time (lemma 1's lines too, inverting as
many samples a line at a time as _ROWS rows hold), and a sweep that two
checks share keeps only the fields a later check reads: the peak is one block.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

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
    rows,
    xy,
)
from .tracer import bernoulli_window, contour_area, trace

_ROWS = 5_000  # the most rows a kernel call takes, so the peak is one block's; even: hyperbola blocks start on branch 1


class Check(NamedTuple):
    """A named worst-case residual against its tolerance."""

    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _worst(*residuals) -> float:
    """Largest absolute value over the residual arrays and floats: 0 if all are empty, NaN if any holds one."""
    worst = [abs(r) if isinstance(r, float) else float(np.max(np.abs(r), initial=0.0)) for r in residuals]
    return math.nan if any(map(math.isnan, worst)) else max(worst, default=0.0)


def _in_blocks(check, B, n: int, grid) -> list[Check]:
    """check(B, grid(i)) on consecutive blocks i of at most _ROWS indices in range(n), built one at a time. Each Check
    takes the worst over the blocks: exact, as a residual is a max over rows divided by a positive constant after it."""
    blocks = [check(B, grid(np.arange(k, min(k + _ROWS, n)))) for k in range(0, n, _ROWS)]
    return [Check(same[0].name, _worst(*(c.max_residual for c in same)), same[0].tolerance) for same in zip(*blocks)]


def _refuse_below_one(**counts) -> None:
    """ValueError naming the first sample count below 1: a sweep of no rows would pass every check it reaches."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")


def _off_curve(B: BernoulliConfig, *points) -> float:
    """Largest |field of B's lemniscate| over the rows of the points arrays, over c**4."""
    fields = [_worst(lemniscate_field_array(B.lemniscate, p[..., 0], p[..., 1])) for p in points]  # one at a time
    return _worst(*fields) / B.half_distance**4


def polar_angles(count: int, margin: float, i) -> np.ndarray:
    """The angles at the indices i of count where the polar radius is defined, alternately in each lobe."""
    span = math.pi / 2 - 2 * margin
    return -math.pi / 4 + margin + span * (i // 2 + 0.5) / ((count + 1) // 2) + math.pi * (i % 2)


def sweep_angles(count: int, at=None) -> np.ndarray:
    """The (k + 1/2) * tau / count grid, at every k or at the indices at."""
    return ((np.arange(count) if at is None else at) + 0.5) * math.tau / count


def check_defining_product(B: BernoulliConfig, t) -> list[Check]:
    c2 = B.half_distance**2
    x = bernoulli_polar_array(B, t)
    product = row_norm(x - xy(B.f1)) * row_norm(x - xy(B.f2))
    return [Check("defining_product", _worst(product - c2) / c2, 1e-10)]


def threebar_states(B: BernoulliConfig, theta, side: str = "opposite"):
    return three_bar_array(B, theta, side)


def check_threebar(B: BernoulliConfig, states) -> list[Check]:
    c = B.half_distance
    f1, f2 = xy(B.f1), xy(B.f2)
    # isosceles trapezoid f1-a-f2-b: the legs f1a, f2b are equal by
    # construction, so the testable content is that the bases a->f2
    # and b->f1 are parallel
    trapezoid = _worst(row_cross(row_unit(f2 - states.a), row_unit(f1 - states.b)))
    lengths = _worst(
        _worst(row_norm(states.a - f1) - c * SQRT2),
        _worst(row_norm(states.b - f2) - c * SQRT2),
        _worst(row_norm(states.a - states.b) - 2.0 * c),
    )
    return [
        Check("threebar_field", _off_curve(B, states.x), 1e-8),
        Check("threebar_trapezoid", trapezoid, 1e-9),
        Check("threebar_stick_lengths", lengths / c, 1e-10),
    ]


def _threebar(B: BernoulliConfig, theta) -> list[Check]:  # the three-stick sweep that two checks share
    states = threebar_states(B, theta)
    found = check_threebar(B, states)
    states = states._replace(a=None, b=None)  # check_inversion_pairing reads x, p and q alone
    return found + check_inversion_pairing(B, states)


def check_inversion_pairing(B: BernoulliConfig, states) -> list[Check]:
    H = hyperbola_of(B)
    o = xy(B.center)
    c = B.half_distance
    c2 = c**2
    keep = ~np.isnan(states.p[:, 0])  # parallel stick lines leave NaN rows, dropped from each residual
    ox = states.x - o
    oq = states.q - o
    membership = _worst(*[_worst(hyperbola_residual_array(H, r)[keep]) for r in (states.p, states.q)])
    pairing = _worst((row_norm(ox) * row_norm(oq) - c2)[keep])
    with np.errstate(invalid="ignore"):  # x can sit on o only in a parallel row: 0/0, then dropped
        behind = _worst(np.maximum(0.0, -row_dot(ox, oq))[keep]) / c2
        ray = _worst(_worst(row_cross(row_unit(ox), row_unit(oq))[keep]), behind)  # ox and oq are not read after
    return [
        Check("hyperbola_membership_pq", membership / c, 1e-8),
        Check("inversion_pairing", pairing / c2, 1e-8),
        Check("inversion_ray", ray, 1e-8),
    ]


def check_hyperbola_inverse(B: BernoulliConfig, t) -> list[Check]:  # t alternates branches 1 and -1, from 1 on
    H = hyperbola_of(B)
    q = np.concatenate([hyperbola_point_array(H, t[k::2], branch) for k, branch in enumerate((1, -1))])
    return [Check("hyperbola_inverse_direction", _off_curve(B, invert_between_array(B, q)), 1e-8)]


def check_sameside_locus(B: BernoulliConfig, theta) -> list[Check]:
    c = B.half_distance
    x = threebar_states(B, theta, side="same").x
    return [Check("sameside_locus", _worst(row_norm(x - xy(B.center)) - c * SQRT2) / c, 1e-8)]


def check_maclaurin(B: BernoulliConfig, phi) -> list[Check]:
    c = B.half_distance
    o = xy(B.center)
    s = maclaurin_array(B, phi)
    chord = row_norm(s.a - s.b)
    return [
        Check("maclaurin_field", _off_curve(B, s.x, s.x_prime), 1e-8),
        Check(
            "maclaurin_chord_identity",
            _worst(_worst(row_norm(s.x - o) - chord), _worst(row_norm(s.x_prime - o) - chord)) / c,
            1e-10,
        ),
    ]


def check_rightangle(B: BernoulliConfig, alpha) -> list[Check]:
    o = xy(B.center)
    u = xy(B.axis_unit)
    c = B.half_distance
    st = right_angle_array(B, alpha)
    crank2 = row_norm(st.a - o) ** 2
    right = sticks = 0.0
    for tip in (st.x, st.y):
        stick = row_norm(st.a - tip)
        right = _worst(right, _worst(row_norm(tip - o) ** 2 + crank2 - stick**2))
        sticks = _worst(sticks, _worst(stick - c * SQRT2))
    crossing = _worst(_worst(np.maximum(0.0, -row_dot(st.x - o, u))), _worst(np.maximum(0.0, row_dot(st.y - o, u))))
    return [
        Check("rightangle_field", _off_curve(B, st.x, st.y), 1e-8),
        Check("rightangle_right_angle", _worst(right / c**2, sticks / c), 1e-10),
        Check("rightangle_lobe_separation", crossing / c, 0.0),
    ]


def check_normals(B: BernoulliConfig, theta) -> list[Check]:
    x = bernoulli_polar_array(B, theta)
    normal = normal_by_angle_array(B, x)
    g = row_unit(lemniscate_gradient_array(B.lemniscate, x[:, 0], x[:, 1]))
    angle = np.arcsin(np.clip(row_cross(normal, g), -1.0, 1.0))
    return [Check("normal_vs_gradient_angle", _worst(angle), 1e-8)]


def check_tangent_circle(B: BernoulliConfig, t) -> list[Check]:
    L = B.lemniscate
    H = hyperbola_of(B)
    o = xy(B.center)
    c = B.half_distance
    # skip the crank angles within 5e-2 of a multiple of pi/4, where the stick lines are parallel
    # (the only NaN p) or x hits o; near those angles the tangent circle degenerates (radius to infinity)
    states = three_bar_array(B, t[np.abs(t - math.pi / 4 * np.round(t / (math.pi / 4))) >= 5e-2])
    center, radius = tangent_circle_array(states)
    slope_deficit = _worst(np.maximum(0.0, 1.9 - _contact_slope(L, center, radius, states.x, c)))  # its (N, 3) first
    radial = row_unit(states.x - center)
    grad = row_unit(lemniscate_gradient_array(L, states.x[:, 0], states.x[:, 1]))

    # the circle center also sits on the normal at x and on the
    # perpendicular from o to the hyperbola tangent at q
    rebuilt = line_line_intersection_array(
        states.x, normal_by_angle_array(B, states.x), o, row_unit(hyperbola_gradient_array(H, states.q))
    )
    rebuilt_off = row_norm(rebuilt - center)
    return [
        Check("tangent_circle_alignment", _worst(row_cross(radial, grad)), 1e-8),
        Check("tangent_circle_through_o", _worst(radius - row_norm(center - o)) / c, 1e-9),
        Check("tangent_circle_center_rebuild", _worst(rebuilt_off) / c, 1e-8),
        Check("tangent_contact_slope_deficit", slope_deficit, 1e-9),
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
    slope = np.polyfit(np.log(steps), np.log(np.where(value == 0.0, 1.0, value)).T, 1)[0]
    return np.where(exact, 2.0, slope)


def check_lemma1(pair_count: int = 1_000) -> list[Check]:
    _refuse_below_one(pair_count=pair_count)
    return _in_blocks(_lemma1, random.Random(42), pair_count, len)  # each block draws its pairs after the last one's


def _lemma1(rng: random.Random, pair_count: int) -> list[Check]:
    draw, bits, u = rng.random, rng.getrandbits, []
    for _ in range(pair_count):  # six draws a pair, in one flat list
        u += draw(), draw(), draw(), draw()
        while (k := bits(2)) > 1:  # the sign as choice((-1.0, 1.0)) draws it on CPython 3.10 and 3.11
            pass
        u += (-1.0, 1.0)[k], draw()
    u = np.array(u).reshape(-1, 6).T
    # the floats of random.uniform(a, b), a + (b - a) * random(), where b - a is 2, 1.5, pi and 2.9
    center, radius, ang = rows(-1.0 + 2.0 * u[0], -1.0 + 2.0 * u[1]), 0.5 + 1.5 * u[2], 0.0 + math.pi * u[3]
    direction = rows(np.cos(ang), np.sin(ang))
    anchor = center + row_perp(direction) * (u[4] * (0.1 + 2.9 * u[5]))[:, None]  # the offset along perp(direction)
    image_center, image_radius = invert_line_array(center, radius, anchor, direction)

    # 50 points of each line, inverted, must land on its image circle,
    # which also passes through the center of inversion; as many samples
    # per line at a time as _ROWS rows hold, or one
    t = -5.0 + 10.0 * (np.arange(50) + 0.5) / 50
    group, on_circle = max(1, _ROWS // pair_count), []
    for g in np.split(t, range(group, len(t), group)):
        images = anchor + direction * g[:, None, None]  # (samples, lines) of points, then their images
        images = invert_point_array(center, radius, images)
        images -= image_center  # in the inversion's own array
        on_circle.append(_worst(row_norm(images) - image_radius))
    through_center = row_norm(center - image_center) - image_radius
    # the circle's center is the image of the center mirrored in the line
    mirrored = reflect_across_line_array(anchor, direction, center)
    center_off = row_norm(invert_point_array(center, radius, mirrored) - image_center)
    return [
        Check("line_inversion_on_circle", _worst(on_circle, through_center), 1e-9),
        Check("line_inversion_center", _worst(center_off), 1e-9),
    ]


def check_coefficients() -> Check:
    rng = random.Random(42)
    worst = 0.0
    # the floats of random.uniform(a, b), a + (b - a) * random(), drawn through random() alone, whose sequence
    # for a seed Python keeps across versions; b - a is 4, 1.5 and 6
    for n in (1, 2, 3, 5):
        foci = tuple(Point(-2.0 + 4.0 * rng.random(), -2.0 + 4.0 * rng.random()) for _ in range(n))
        L = PolynomialLemniscate(foci, 0.5 + 1.5 * rng.random())
        table = expand_coefficients(L)
        x, y = np.array([(-3.0 + 6.0 * rng.random(), -3.0 + 6.0 * rng.random()) for _ in range(100)]).T
        f = lemniscate_field_array(L, x, y)
        magnitude = (f + L.level) + L.level  # product term plus level, both >= 0
        worst = _worst(worst, _worst((table.evaluate_array(x, y) - f) / np.maximum(1.0, magnitude)))
    return Check("coefficient_pointwise", worst, 1e-9)


def check_unit_hyperbola() -> list[Check]:
    H = EquilateralHyperbola(*unit_hyperbola_foci())
    t = 0.1 * (10.0 / 0.1) ** (np.arange(100) / 99)  # 100 values from 0.1 to 10, geometrically spaced
    q = rows(t, 1.0 / t)
    # the tangent at q (perpendicular to the gradient of the quadratic
    # form) meets the axes at r and s, and q is the midpoint of rs
    tangent = row_unit(row_perp(hyperbola_gradient_array(H, q)))
    r, s = line_line_intersection_array(q, tangent, np.zeros(2), np.eye(2)[:, None])
    return [
        Check("unit_hyperbola_residual", _worst(hyperbola_residual_array(H, q)), 1e-9),
        Check("tangent_midpoint", _worst(row_norm(0.5 * (r + s) - q)), 1e-12),
    ]


def check_area(B: BernoulliConfig, grid: int = 512) -> Check:
    c = B.half_distance
    contours = trace(B.lemniscate, bernoulli_window(B, grid, 1.6 * c, 0.8 * c))
    total = sum(contour_area(k, B.lemniscate) for k in contours if k.closed)
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
    _refuse_below_one(sweep=sweep, dense=dense)
    checks = _in_blocks(check_defining_product, B, sweep, lambda i: polar_angles(sweep, 0.0, i))
    checks += _in_blocks(_threebar, B, sweep, lambda i: sweep_angles(sweep, i))
    checks += _in_blocks(check_hyperbola_inverse, B, dense, lambda i: -3.0 + 6.0 * (i // 2 + 0.5) / ((dense + 1) // 2))
    checks += _in_blocks(check_sameside_locus, B, sweep, lambda i: sweep_angles(sweep, i))
    checks += _in_blocks(check_maclaurin, B, sweep, lambda i: -math.pi / 4 + (i + 0.5) * (math.pi / 2) / sweep)
    checks += _in_blocks(check_rightangle, B, sweep, lambda i: -math.pi / 2 + (i + 0.5) * math.pi / sweep)
    checks += _in_blocks(check_normals, B, dense, lambda i: polar_angles(dense, 0.02, i))
    # a quarter more crank angles than dense, for those that check_tangent_circle skips
    checks += _in_blocks(check_tangent_circle, B, dense + dense // 4, lambda i: sweep_angles(dense + dense // 4, i))
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
