"""Planar primitive tests: examples pinned by hand plus property sweeps."""

import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lemniscate import (
    Circle,
    InversionMap,
    Line,
    Point,
    circle_circle_intersection,
    invert_line,
    invert_point,
    line_circle_intersection,
    line_line_intersection,
    reflect_across_line,
)
from lemniscate.errors import CenterSingular, Concentric, LineThroughCenter

SQRT2 = math.sqrt(2.0)

UNIT_INV = InversionMap(Point(0.0, 0.0), 1.0)

coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=math.pi, exclude_max=True, allow_nan=False)


def assert_close(p: Point, q: Point, tol=1e-12):
    assert p.distance_to(q) <= tol, f"{p} != {q}"


class TestInvertPoint:
    def test_fixed_on_circle(self):
        assert_close(invert_point(UNIT_INV, Point(1.0, 0.0)), Point(1.0, 0.0))

    def test_definition_formula(self):
        assert_close(invert_point(UNIT_INV, Point(2.0, 0.0)), Point(0.5, 0.0))

    def test_off_axis(self):
        # |OX|^2 = 4/9 + 2/9 = 2/3, scale factor r^2/|OX|^2 = 3/2
        p = Point(-2.0 / 3.0, SQRT2 / 3.0)
        assert_close(invert_point(UNIT_INV, p), Point(-1.0, SQRT2 / 2.0))

    def test_center_rejected(self):
        with pytest.raises(CenterSingular):
            invert_point(UNIT_INV, Point(0.0, 0.0))

    def test_center_guard_is_relative_to_the_radius(self):
        tiny = InversionMap(Point(0.0, 0.0), 1e-13)
        assert_close(invert_point(tiny, Point(1e-14, 0.0)), Point(1e-12, 0.0), tol=1e-24)
        with pytest.raises(CenterSingular):
            invert_point(tiny, Point(1e-26, 0.0))
        with pytest.raises(CenterSingular):
            invert_point(InversionMap(Point(0.0, 0.0), 1e13), Point(1e-2, 0.0))

    @given(
        cx=coords,
        cy=coords,
        radius=st.floats(min_value=0.5, max_value=2.0),
        direction=st.floats(min_value=0.0, max_value=math.tau),
        logdist=st.floats(min_value=-3.0, max_value=3.0),
    )
    @example(cx=3.0, cy=2.0, radius=0.5, direction=2.7973558061080035, logdist=3.0)
    @settings(max_examples=200)
    def test_involution_and_product(self, cx, cy, radius, direction, logdist):
        inv = InversionMap(Point(cx, cy), radius)
        p = inv.center + Point(math.cos(direction), math.sin(direction)) * 10.0**logdist
        image = invert_point(inv, p)
        assert (p - inv.center).norm() * (image - inv.center).norm() == pytest.approx(
            radius * radius, rel=1e-12
        )
        # the image is rounded to about eps * |image| in absolute terms; the
        # way back multiplies that error by the inversion's stretch (d/r)^2
        # at the image, and the result is rounded to about eps * |p| again;
        # 16 covers the handful of roundings on each way
        stretch = ((p - inv.center).norm() / radius) ** 2
        bound = 16.0 * sys.float_info.epsilon * (stretch * image.norm() + p.norm())
        assert invert_point(inv, image).distance_to(p) <= max(1e-9, bound)


class TestReflect:
    def test_axis(self):
        line = Line(Point(0.0, 0.0), Point(1.0, 0.0))
        assert_close(reflect_across_line(line, Point(-1.0, -SQRT2 / 2)), Point(-1.0, SQRT2 / 2))

    def test_fixed_points(self):
        line = Line(Point(0.0, 0.0), Point(1.0, 0.0))
        assert_close(reflect_across_line(line, Point(0.3, 0.0)), Point(0.3, 0.0))

    def test_diagonal_swaps_coordinates(self):
        diag = Line(Point(0.0, 0.0), Point(1.0, 1.0))
        assert_close(reflect_across_line(diag, Point(2.0, 0.0)), Point(0.0, 2.0))

    @given(ax=coords, ay=coords, ang=angles, px=coords, py=coords)
    @settings(max_examples=200)
    def test_involution_and_distance(self, ax, ay, ang, px, py):
        line = Line(Point(ax, ay), Point(math.cos(ang), math.sin(ang)))
        p = Point(px, py)
        image = reflect_across_line(line, p)
        assert reflect_across_line(line, image).distance_to(p) <= 1e-12
        # signed distances to the line, positive on the left of its direction
        assert abs(line.direction.cross(p - line.anchor) + line.direction.cross(image - line.anchor)) <= 1e-12


class TestInvertLine:
    def test_vertical_x2(self):
        circle = invert_line(UNIT_INV, Line(Point(2.0, 0.0), Point(0.0, 1.0)))
        assert_close(circle.center, Point(0.25, 0.0))
        assert circle.radius == pytest.approx(0.25, abs=1e-12)

    def test_tangent_line_fixed_point(self):
        circle = invert_line(UNIT_INV, Line(Point(1.0, 0.0), Point(0.0, 1.0)))
        assert_close(circle.center, Point(0.5, 0.0))
        assert circle.radius == pytest.approx(0.5, abs=1e-12)
        assert abs(circle.center.distance_to(Point(1.0, 0.0)) - circle.radius) <= 1e-12

    def test_horizontal_radius_2(self):
        inv = InversionMap(Point(0.0, 0.0), 2.0)
        circle = invert_line(inv, Line(Point(0.0, 4.0), Point(1.0, 0.0)))
        assert_close(circle.center, Point(0.0, 0.5))
        assert circle.radius == pytest.approx(0.5, abs=1e-12)

    def test_through_center_rejected(self):
        with pytest.raises(LineThroughCenter):
            invert_line(UNIT_INV, Line(Point(0.0, 0.0), Point(1.0, 2.0)))

    def test_through_center_guard_is_relative_to_the_radius(self):
        tiny = InversionMap(Point(0.0, 0.0), 1e-13)
        circle = invert_line(tiny, Line(Point(0.0, 1e-14), Point(1.0, 0.0)))
        assert circle.radius == pytest.approx(0.5e-12, rel=1e-12)
        with pytest.raises(LineThroughCenter):
            invert_line(tiny, Line(Point(0.0, 1e-26), Point(1.0, 0.0)))

    def test_sample_and_check(self):
        # oracle: invert many points of the line, all must land on the circle
        line = Line(Point(2.0, 0.0), Point(0.0, 1.0))
        circle = invert_line(UNIT_INV, line)
        for k in range(100):
            t = -6.0 + 12.0 * (k + 0.5) / 100
            image = invert_point(UNIT_INV, line.point_at(t))
            assert abs(image.distance_to(circle.center) - circle.radius) <= 1e-12
        assert abs(circle.center.distance_to(UNIT_INV.center) - circle.radius) <= 1e-12

    @given(
        cx=coords,
        cy=coords,
        radius=st.floats(min_value=0.5, max_value=2.0),
        ang=angles,
        offset=st.floats(min_value=0.1, max_value=3.0),
        side=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=150)
    def test_center_remark(self, cx, cy, radius, ang, offset, side):
        # the image circle's center is the inversion of the reflected center
        inv = InversionMap(Point(cx, cy), radius)
        direction = Point(math.cos(ang), math.sin(ang))
        line = Line(inv.center + direction.perp() * (side * offset), direction)
        circle = invert_line(inv, line)
        mirrored = reflect_across_line(line, inv.center)
        assert invert_point(inv, mirrored).distance_to(circle.center) <= 1e-9


class TestCircleCircle:
    def test_externally_tangent(self):
        pts = circle_circle_intersection(Circle(Point(0, 0), 1.0), Circle(Point(2, 0), 1.0))
        assert len(pts) == 1
        assert_close(pts[0], Point(1.0, 0.0))

    def test_two_points_ordered(self):
        # radical-line solve by hand: the two circles meet at (1, sqrt2)
        # and (-1/3, -sqrt2/3); positive-side point comes first
        c1 = Circle(Point(1.0, 0.0), SQRT2)
        c2 = Circle(Point(-1.0, SQRT2), 2.0)
        pts = circle_circle_intersection(c1, c2)
        assert len(pts) == 2
        assert_close(pts[0], Point(1.0, SQRT2))
        assert_close(pts[1], Point(-1.0 / 3.0, -SQRT2 / 3.0))
        for p in pts:
            assert abs((p - c1.center).norm_sq() - c1.radius**2) <= 1e-10 * 4.0
            assert abs((p - c2.center).norm_sq() - c2.radius**2) <= 1e-10 * 4.0

    def test_disjoint(self):
        assert circle_circle_intersection(Circle(Point(0, 0), 1.0), Circle(Point(4, 0), 1.0)) == []

    def test_nested(self):
        assert circle_circle_intersection(Circle(Point(0, 0), 3.0), Circle(Point(0.5, 0), 1.0)) == []

    def test_concentric_rejected(self):
        with pytest.raises(Concentric):
            circle_circle_intersection(Circle(Point(0, 0), 1.0), Circle(Point(0, 0), 2.0))

    @given(
        x2=st.floats(min_value=-2.0, max_value=2.0),
        y2=st.floats(min_value=-2.0, max_value=2.0),
        r1=st.floats(min_value=0.3, max_value=2.5),
        r2=st.floats(min_value=0.3, max_value=2.5),
    )
    @settings(max_examples=200)
    def test_residuals(self, x2, y2, r1, r2):
        assume(math.hypot(x2, y2) > 1e-3)
        c1 = Circle(Point(0.0, 0.0), r1)
        c2 = Circle(Point(x2, y2), r2)
        for p in circle_circle_intersection(c1, c2):
            bound = 1e-10 * max(r1, r2) ** 2
            assert abs((p - c1.center).norm_sq() - r1 * r1) <= bound
            assert abs((p - c2.center).norm_sq() - r2 * r2) <= bound


class TestLineCircle:
    def test_through_center(self):
        circle = Circle(Point(-1.0, 0.0), 1.0 / SQRT2)
        pts = line_circle_intersection(Line(Point(0, 0), Point(1, 0)), circle)
        assert len(pts) == 2
        assert_close(pts[0], Point(-1.0 - 1.0 / SQRT2, 0.0))
        assert_close(pts[1], Point(-1.0 + 1.0 / SQRT2, 0.0))

    def test_tangent(self):
        circle = Circle(Point(-1.0, 0.0), 1.0 / SQRT2)
        pts = line_circle_intersection(Line(Point(0.0, 1.0 / SQRT2), Point(1, 0)), circle)
        assert len(pts) == 1
        assert_close(pts[0], Point(-1.0, 1.0 / SQRT2))

    def test_miss(self):
        pts = line_circle_intersection(Line(Point(0, 0), Point(0, 1)), Circle(Point(3, 0), 1.0))
        assert pts == []

    def test_sorted_by_parameter(self):
        line = Line(Point(5.0, 1.0), Point(-1.0, 0.0))
        pts = line_circle_intersection(line, Circle(Point(0.0, 1.0), 2.0))
        assert len(pts) == 2
        assert line.param_of(pts[0]) < line.param_of(pts[1])


class TestLineLine:
    def test_crossing(self):
        p = line_line_intersection(
            Line(Point(0, 0), Point(1, 1)), Line(Point(2, 0), Point(0, 1))
        )
        assert_close(p, Point(2.0, 2.0))

    def test_parallel(self):
        assert (
            line_line_intersection(Line(Point(0, 0), Point(1, 1)), Line(Point(1, 0), Point(2, 2)))
            is None
        )


def test_point_requires_finite_coordinates():
    with pytest.raises(ValueError):
        Point(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point(0.0, math.inf)


def test_line_normalizes_direction():
    line = Line(Point(0, 0), Point(3.0, 4.0))
    assert line.direction.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        Line(Point(0, 0), Point(0.0, 0.0))


def test_circle_radius_positive():
    with pytest.raises(ValueError):
        Circle(Point(0, 0), 0.0)
    with pytest.raises(ValueError):
        InversionMap(Point(0, 0), -1.0)
