"""Acceptance criteria for the canonical configuration (foci (-1,0), (1,0)).

Each test runs one numbered criterion at its stated tolerance and prints
a pass/fail line (visible with pytest -s or in the captured output).
"""

import math
import os
import random
import subprocess
import sys

import pytest

import lemniscate
from lemniscate import (
    BernoulliConfig,
    EquilateralHyperbola,
    InversionMap,
    Line,
    Point,
    PolynomialLemniscate,
    TraceWindow,
    bernoulli_polar_point,
    contour_area,
    expand_coefficients,
    hyperbola_point,
    hyperbola_residual,
    hyperbola_tangent_at,
    invert_between,
    invert_line,
    invert_point,
    lemniscate_field,
    lemniscate_gradient,
    line_line_intersection,
    maclaurin_sample,
    normal_by_angle,
    reflect_across_line,
    right_angle_solve,
    tangent_circle_at,
    three_bar_solve,
    trace,
    unit_hyperbola_foci,
)

SQRT2 = math.sqrt(2.0)
B = BernoulliConfig(Point(-1.0, 0.0), Point(1.0, 0.0))
L = B.lemniscate
O = Point(0.0, 0.0)
F1 = B.f1


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def polar_angles(count, margin=0.0):
    half = count // 2
    span = math.pi / 2 - 2 * margin
    out = []
    for k in range(half):
        t = -math.pi / 4 + margin + span * (k + 0.5) / half
        out.append(t)
        out.append(t + math.pi)
    return out


@pytest.fixture(scope="module")
def opposite_states():
    return [three_bar_solve(B, (k + 0.5) * math.tau / 10_000) for k in range(10_000)]


def test_criterion_01_defining_relation():
    worst = max(
        abs(
            (p := bernoulli_polar_point(B, t)).distance_to(B.f1) * p.distance_to(B.f2)
            - 1.0
        )
        for t in polar_angles(10_000)
    )
    report(1, "defining relation |F1 X||F2 X| = |F1 O||F2 O|", worst <= 1e-10,
           f"max |product - 1| = {worst:.3e} <= 1e-10 over 10^4 polar points")


def test_criterion_02_area():
    errors = {}
    for grid in (512, 1024):
        contours = trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, grid, grid))
        total = sum(contour_area(c) for c in contours)
        errors[grid] = abs(total - 2.0) / 2.0
    ok = errors[512] <= 1e-3 and errors[1024] <= 3e-4 and errors[1024] <= errors[512]
    report(2, "traced area = |F1 F2|^2 / 2", ok,
           f"rel err {errors[512]:.3e} @512 (<=1e-3), {errors[1024]:.3e} @1024 (<=3e-4), monotone")


def test_criterion_03_three_bar_sweep(opposite_states):
    worst_field = max(abs(lemniscate_field(L, st.x)) for st in opposite_states)
    worst_trapezoid = max(
        abs((B.f2 - st.a).unit().cross((B.f1 - st.b).unit())) for st in opposite_states
    )
    pinned = three_bar_solve(B, math.pi / 2).x.distance_to(Point(-2.0 / 3.0, SQRT2 / 3.0))
    ok = worst_field <= 1e-8 and worst_trapezoid <= 1e-9 and pinned <= 1e-12
    report(3, "three-stick construction sweep", ok,
           f"10^4 solves: field {worst_field:.3e} <= 1e-8, trapezoid {worst_trapezoid:.3e} <= 1e-9, "
           f"pinned X offset {pinned:.3e} <= 1e-12")


def test_criterion_04_inversion_theorem(opposite_states):
    H = EquilateralHyperbola(B.f1, B.f2)
    worst_pair = 0.0
    worst_membership = 0.0
    used = 0
    for st in opposite_states:
        if st.q is None:
            continue
        used += 1
        worst_pair = max(worst_pair, abs((st.x - O).norm() * (st.q - O).norm() - 1.0))
        worst_membership = max(worst_membership, abs(hyperbola_residual(H, st.q)))
    worst_inverse = 0.0
    for k in range(500):
        t = -3.0 + 6.0 * (k + 0.5) / 500
        for branch in (1, -1):
            x = invert_between(B, hyperbola_point(H, t, branch))
            worst_inverse = max(worst_inverse, abs(lemniscate_field(L, x)))
    ok = used >= 9990 and worst_pair <= 1e-8 and worst_membership <= 1e-8 and worst_inverse <= 1e-8
    report(4, "inversion theorem |OX||OQ| = |OF1|^2", ok,
           f"{used} states: pairing {worst_pair:.3e}, Q membership {worst_membership:.3e}, "
           f"10^3 hyperbola points invert to field {worst_inverse:.3e}, all <= 1e-8")


def test_criterion_05_maclaurin_sweep():
    worst = 0.0
    for k in range(10_000):
        phi = -math.pi / 4 + (k + 0.5) * (math.pi / 2) / 10_000
        s = maclaurin_sample(B, phi)
        worst = max(worst, abs(lemniscate_field(L, s.x)), abs(lemniscate_field(L, s.x_prime)))
    axis = maclaurin_sample(B, 0.0)
    vertex_offset = max(
        axis.x.distance_to(Point(-SQRT2, 0.0)), axis.x_prime.distance_to(Point(SQRT2, 0.0))
    )
    ok = worst <= 1e-8 and vertex_offset <= 1e-12
    report(5, "secant construction |AB| = |OX| = |OX'|", ok,
           f"10^4 secants: field {worst:.3e} <= 1e-8, axis vertices offset {vertex_offset:.3e} <= 1e-12")


def test_criterion_06_right_angle_sweep():
    u = B.axis_unit
    worst = 0.0
    lobes_ok = True
    for k in range(10_000):
        alpha = -math.pi / 2 + (k + 0.5) * math.pi / 10_000
        st = right_angle_solve(B, alpha)
        worst = max(worst, abs(lemniscate_field(L, st.x)), abs(lemniscate_field(L, st.y)))
        lobes_ok = lobes_ok and u.dot(st.x - O) > 0.0 > u.dot(st.y - O)
    pinned = right_angle_solve(B, math.pi / 3).x.distance_to(Point(math.sqrt(3) / 2, 0.5))
    ok = worst <= 1e-8 and pinned <= 1e-12 and lobes_ok
    report(6, "right-angle linkage sweep", ok,
           f"10^4 cranks: field {worst:.3e} <= 1e-8, pinned X offset {pinned:.3e} <= 1e-12, "
           f"X/Y in disjoint lobes: {lobes_ok}")


def tangent_states():
    # >= 10^3 states, skipping 0.05 rad around the cranks where the stick
    # lines are parallel and the tangent circle degenerates
    states = []
    for k in range(1_250):
        t = (k + 0.5) * math.tau / 1_250
        if abs(math.remainder(t, math.pi / 4)) < 0.05:
            continue
        st = three_bar_solve(B, t)
        if st.p is not None:
            states.append(st)
    return states


def test_criterion_07_tangent_circle():
    states = tangent_states()
    worst_cross = 0.0
    min_slope = math.inf
    for st in states:
        circle = tangent_circle_at(st)
        radial = (st.x - circle.center).unit()
        grad = lemniscate_gradient(L, st.x).unit()
        worst_cross = max(worst_cross, abs(radial.cross(grad)))
        base = math.atan2(st.x.y - circle.center.y, st.x.x - circle.center.x)
        values = []
        for s in (1e-2, 1e-3, 1e-4):
            ang = base + s / circle.radius
            p = Point(
                circle.center.x + circle.radius * math.cos(ang),
                circle.center.y + circle.radius * math.sin(ang),
            )
            values.append(math.log(abs(lemniscate_field(L, p))))
        xs = [math.log(s) for s in (1e-2, 1e-3, 1e-4)]
        mx = sum(xs) / 3
        my = sum(values) / 3
        slope = sum((a - mx) * (b - my) for a, b in zip(xs, values)) / sum(
            (a - mx) ** 2 for a in xs
        )
        min_slope = min(min_slope, slope)
    ok = len(states) >= 1_000 and worst_cross <= 1e-8 and min_slope >= 1.9
    report(7, "tangent circle touches the curve", ok,
           f"{len(states)} states: radius-gradient cross {worst_cross:.3e} <= 1e-8, "
           f"contact slope {min_slope:.3f} >= 1.9")


def test_criterion_08_normal_construction():
    worst = 0.0
    for t in polar_angles(1_000, margin=0.02):
        x = bernoulli_polar_point(B, t)
        line = normal_by_angle(B, x)
        grad = lemniscate_gradient(L, x).unit()
        sin_dev = abs(line.direction.cross(grad))
        worst = max(worst, math.asin(min(1.0, sin_dev)))
    report(8, "angle-doubling normal matches gradient", worst <= 1e-8,
           f"10^3 on-curve points: angular deviation {worst:.3e} rad <= 1e-8")


def test_criterion_09_line_inversion_lemma():
    rng = random.Random(42)
    worst_on = 0.0
    worst_center = 0.0
    for _ in range(1_000):
        inv = InversionMap(Point(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0.5, 2.0))
        ang = rng.uniform(0.0, math.pi)
        direction = Point(math.cos(ang), math.sin(ang))
        anchor = inv.center + direction.perp() * (rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0))
        line = Line(anchor, direction)
        circle = invert_line(inv, line)
        for k in range(50):
            t = -5.0 + 10.0 * (k + 0.5) / 50
            image = invert_point(inv, line.point_at(t))
            worst_on = max(worst_on, abs(image.distance_to(circle.center) - circle.radius))
        mirrored = reflect_across_line(line, inv.center)
        worst_center = max(
            worst_center, invert_point(inv, mirrored).distance_to(circle.center)
        )
    ok = worst_on <= 1e-9 and worst_center <= 1e-9
    report(9, "line inversion lemma", ok,
           f"10^3 pairs x 50 samples on circle within {worst_on:.3e} <= 1e-9, "
           f"center remark within {worst_center:.3e} <= 1e-9")


def test_criterion_10_coefficient_expansion():
    rng = random.Random(7)
    worst = 0.0
    degrees_ok = True
    for n in (1, 2, 3, 5):
        foci = tuple(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n))
        lem = PolynomialLemniscate(foci, rng.uniform(0.5, 2.0))
        table = expand_coefficients(lem)
        degrees_ok = degrees_ok and table.degree == 2 * n
        # the degree-2n form must be exactly (x^2 + y^2)^n
        for i in range(2 * n + 1):
            expected = math.comb(n, i // 2) if i % 2 == 0 else 0.0
            degrees_ok = degrees_ok and abs(table.coefficient(i, 2 * n - i) - expected) <= 1e-9
        for _ in range(100):
            p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            f = lemniscate_field(lem, p)
            magnitude = max(1.0, f + 2 * lem.level)
            worst = max(worst, abs(table.evaluate(p) - f) / magnitude)
    ok = worst <= 1e-9 and degrees_ok
    report(10, "coefficient expansion", ok,
           f"n in (1,2,3,5): pointwise rel {worst:.3e} <= 1e-9, total degree exactly 2n: {degrees_ok}")


def test_criterion_11_reciprocal_hyperbola():
    f1, f2 = unit_hyperbola_foci()
    H = EquilateralHyperbola(f1, f2)
    worst_res = 0.0
    worst_mid = 0.0
    x_axis = Line(O, Point(1.0, 0.0))
    y_axis = Line(O, Point(0.0, 1.0))
    for k in range(100):
        t = 0.1 * (10.0 / 0.1) ** (k / 99.0)
        q = Point(t, 1.0 / t)
        worst_res = max(worst_res, abs(hyperbola_residual(H, q)))
        tangent = hyperbola_tangent_at(H, q)
        r = line_line_intersection(tangent, x_axis)
        s = line_line_intersection(tangent, y_axis)
        mid = Point(0.5 * (r.x + s.x), 0.5 * (r.y + s.y))
        worst_mid = max(worst_mid, mid.distance_to(q))
    ok = worst_res <= 1e-9 and worst_mid <= 1e-12
    report(11, "y = 1/x hyperbola with foci (+-sqrt2, +-sqrt2)", ok,
           f"100 points residual {worst_res:.3e} <= 1e-9, tangent midpoint {worst_mid:.3e} <= 1e-12")


def test_criterion_12_same_side_locus():
    worst = 0.0
    for k in range(10_000):
        t = (k + 0.5) * math.tau / 10_000
        st = three_bar_solve(B, t, side="same")
        worst = max(worst, abs(st.x.distance_to(O) - SQRT2))
    report(12, "same-side locus (derived conjecture: circle of radius c*sqrt2)",
           worst <= 1e-8, f"10^4 solves: | |OX| - sqrt2 | = {worst:.3e} <= 1e-8")


# The child imports the same lemniscate copy as this process, installed or not.
_PACKAGE_PARENT = os.path.dirname(os.path.dirname(lemniscate.__file__))


def _cli_bytes(args, hashseed, threads):
    result = subprocess.run(
        [sys.executable, "-m", "lemniscate.cli", *args],
        capture_output=True,
        env={
            "PYTHONHASHSEED": hashseed,
            "PYTHONPATH": _PACKAGE_PARENT,
            "PYTHONDONTWRITEBYTECODE": "1",
            "OMP_NUM_THREADS": threads,
            "OPENBLAS_NUM_THREADS": threads,
            "PATH": "/usr/bin:/bin",
        },
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_criterion_13_determinism():
    figure_args = ["figure", "--preset", "threebar", "--grid", "256"]
    trace_args = ["trace", "--grid", "256"]
    fig_equal = _cli_bytes(figure_args, "0", "1") == _cli_bytes(figure_args, "1", "4")
    trace_equal = _cli_bytes(trace_args, "0", "4") == _cli_bytes(trace_args, "1", "1")
    ok = fig_equal and trace_equal
    report(13, "byte-identical figure and trace output", ok,
           f"figure identical: {fig_equal}, trace identical: {trace_equal} "
           "across process seeds and thread counts")
