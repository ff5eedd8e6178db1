"""Planar primitive tests: examples pinned by hand plus property sweeps."""

import math
import random
import sys

import numpy as np
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
from lemniscate.geometry import (
    line_circle_array,
    midpoint,
    reflect_across_line_array,
    row_norm,
    row_unit,
    rows,
    xy,
)

SQRT2 = math.sqrt(2.0)

UNIT_INV = InversionMap(Point(0.0, 0.0), 1.0)

coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=math.pi, exclude_max=True, allow_nan=False)


def assert_close(p: Point, q: Point, tol=1e-12):
    assert p.distance_to(q) <= tol, f"{p} != {q}"


def line_circle_by_points(l: Line, c: Circle) -> list[Point]:
    # the Point arithmetic of line_circle_intersection before its array form
    t0 = (c.center - l.anchor).dot(l.direction)
    closest = l.point_at(t0)
    h2 = c.radius * c.radius - (c.center - closest).norm_sq()
    if h2 < -1e-12 * c.radius * c.radius:
        return []
    if h2 <= 0.0:
        return [closest]
    h = math.sqrt(h2)
    return [l.point_at(t0 - h), l.point_at(t0 + h)]


def bits(points: list[Point]) -> list[tuple[str, str]]:
    return [(p.x.hex(), p.y.hex()) for p in points]


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


class TestReflectArray:
    """reflect_across_line_array builds its foot with rows: the bits of the
    broadcast form anchor + direction * t[..., None], stored coordinate-major."""

    @pytest.mark.parametrize(
        "anchor, direction, p",
        [
            (np.array((0.5, -1.25)), np.array((0.6, 0.8)), np.array((2.0, 3.0))),
            (np.array((-0.0, 0.0)), np.array((1.0, -0.0)), np.array((-0.0, -0.0))),
            (
                np.array((1.5, -0.5)),
                np.array((math.cos(0.7), math.sin(0.7))),
                rows(np.linspace(-3.0, 3.0, 9), -np.sin(np.arange(9.0))),
            ),
            (
                rows(np.linspace(-1.0, 1.0, 7), np.cos(np.arange(7.0))),
                rows(np.cos(np.arange(7.0) / 3), np.sin(np.arange(7.0) / 3)),
                np.array((0.25, -2.0)),
            ),
            (
                rows(np.linspace(0.0, 1.0, 4)[:, None], np.zeros((4, 3))),
                np.array((-0.0, 1.0)),
                rows(np.arange(3.0), -np.arange(3.0)),
            ),
        ],
        ids=["one-row", "negative-zero", "sweep", "broadcast-anchors", "broadcast-2-d"],
    )
    def test_equals_broadcast_form_bit_for_bit(self, anchor, direction, p):
        got = reflect_across_line_array(anchor, direction, p)
        v = p - anchor
        t = v[..., 0] * direction[..., 0] + v[..., 1] * direction[..., 1]
        expected = 2.0 * (anchor + direction * t[..., None]) - p
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert got.tolist() == expected.tolist()
        assert got[..., 0].flags.c_contiguous


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

    @pytest.mark.parametrize("order", [1, -1])
    def test_chord_is_cut_from_the_smaller_circle(self, order):
        # at a radius ratio of 1e5 each point lies on both circles to 1e-9 of the smaller
        # radius, in either argument order; a gap of 1e-3 of it is no tangency
        rng = random.Random(3)
        small = Circle(Point(0.3, -0.7), 1.5)
        for _ in range(200):
            u = Point(math.cos(ang := rng.uniform(0.0, math.tau)), math.sin(ang))
            big = Circle(small.center + u * (1e5 + rng.uniform(-1.4, 1.4)), 1e5)
            pts = circle_circle_intersection(*(small, big)[::order])
            assert len(pts) == 2
            for p in pts:
                for c in (small, big):
                    assert abs(p.distance_to(c.center) - c.radius) <= 1e-9 * small.radius
            apart = Circle(small.center + u * (1e5 + 1.5 * 1.001), 1e5)
            assert circle_circle_intersection(*(small, apart)[::order]) == []

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
        assert (pts[1] - pts[0]).dot(line.direction) > 0.0

    @given(
        coords, coords, angles, coords, coords,
        st.floats(min_value=0.01, max_value=3.0),
        st.sampled_from([None, -3, -1, 0, 1, 3]),
    )
    @settings(max_examples=500)
    @example(0.0, 1.0 / SQRT2, 0.0, -1.0, 0.0, 1.0 / SQRT2, None)  # test_tangent's pair
    def test_matches_point_arithmetic_bit_for_bit(self, ax, ay, angle, cx, cy, radius, ulps):
        line = Line(Point(ax, ay), Point(math.cos(angle), math.sin(angle)))
        center = Point(cx, cy)
        if ulps is not None:  # near-tangent: the radius within a few ulps of the distance to the line
            radius = abs((center - line.anchor).cross(line.direction))
            assume(radius > 1e-3)
            for _ in range(abs(ulps)):
                radius = math.nextafter(radius, math.copysign(math.inf, ulps))
        circle = Circle(center, radius)
        assert bits(line_circle_intersection(line, circle)) == bits(line_circle_by_points(line, circle))

    def test_array_rows_are_the_point_chords(self):
        # a sweep of lines through one anchor outside the circle: secants and misses
        rng = np.random.default_rng(5)
        angle = np.concatenate((rng.uniform(0.0, math.pi, 200), [0.0]))
        direction = rows(np.cos(angle), np.sin(angle))
        center, radius = Point(1.3, -0.7), 0.9
        a, b, h2 = line_circle_array(np.zeros(2), direction, xy(center), radius)
        assert a.shape == b.shape == (201, 2) and h2.shape == (201,)
        assert (h2 < 0.0).any() and (h2 > 0.0).any()
        for k in range(len(angle)):
            line = Line(Point(0.0, 0.0), Point(*direction[k].tolist()))
            want = line_circle_by_points(line, Circle(center, radius))
            got = [Point(*a[k].tolist()), Point(*b[k].tolist())]
            if len(want) == 1:
                want *= 2  # a touching line: both ends are the foot
            if want:
                assert bits(got) == bits(want)


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


def test_unit_of_the_zero_vector_is_refused():
    with pytest.raises(ValueError, match="cannot normalize the zero vector"):
        Point(0.0, 0.0).unit()


def test_circle_radius_positive():
    with pytest.raises(ValueError):
        Circle(Point(0, 0), 0.0)
    with pytest.raises(ValueError):
        InversionMap(Point(0, 0), -1.0)


def test_an_inversion_is_its_circle():
    assert InversionMap is Circle
    inv = InversionMap(Point(1.0, 2.0), 3.0)
    assert inv == Circle(Point(1.0, 2.0), 3.0) and repr(inv) == "Circle(center=Point(x=1.0, y=2.0), radius=3.0)"
    assert invert_point(inv, Point(4.0, 2.0)) == Point(4.0, 2.0)  # on the circle: fixed


class TestMidpoint:
    @given(*[st.floats(allow_nan=False, allow_infinity=False)] * 4)
    @example(5e-324, 0.0, -0.0, -5e-324)
    def test_finite_midpoint_is_the_halved_sum(self, ax, ay, bx, by):
        assume(math.isfinite(ax + bx) and math.isfinite(ay + by))
        m = midpoint(Point(ax, ay), Point(bx, by))
        assert (m.x, m.y) == (0.5 * (ax + bx), 0.5 * (ay + by))
        assert (math.copysign(1.0, m.x), math.copysign(1.0, m.y)) == (
            math.copysign(1.0, 0.5 * (ax + bx)),
            math.copysign(1.0, 0.5 * (ay + by)),
        )

    @pytest.mark.parametrize("a, b", [((1.7e308, 0.0), (1.7e308, 2.0)), ((0.0, -1e308), (1.0, -1e308))])
    def test_overflowing_sum_names_both_points(self, a, b):
        with pytest.raises(ValueError, match="midpoint") as info:
            midpoint(Point(*a), Point(*b))
        assert str(Point(*a)) in str(info.value) and str(Point(*b)) in str(info.value)


class TestRows:
    """rows is np.stack(np.broadcast_arrays(x, y), axis=-1), stored coordinate-major."""

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.float64(0.1), np.float64(-2.5)),
            (0.75, -0.0),
            (np.linspace(-1.0, 1.0, 7), -np.sin(np.arange(7.0))),
            (np.linspace(0.0, 1.0, 5)[:, None], np.cos(np.arange(3.0))),
            (np.arange(4.0), 3.0),
        ],
        ids=["0-d", "0-d-negative-zero", "1-d", "broadcast-2-d", "broadcast-scalar"],
    )
    def test_equals_stack_bit_for_bit(self, x, y):
        got = rows(x, y)
        expected = np.stack(np.broadcast_arrays(x, y), axis=-1)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert (got.view(np.int64) == expected.view(np.int64)).all()
        assert got.tobytes() == expected.tobytes() and got.tolist() == expected.tolist()
        assert got[..., 0].flags.c_contiguous and got[..., 1].flags.c_contiguous


class TestRowUnit:
    """row_unit divides each row by its norm in the array it is given, and returns that array."""

    @pytest.mark.parametrize(
        "v, zero",
        [
            (np.array([[3.0, -4.0], [0.0, 0.0], [1e-300, 2e-300], [-1e300, 5e299]]), [False, True, False, False]),
            # coordinate-major, as the kernels build their rows; the middle row is (0, 0)
            (rows(np.linspace(-2.0, 2.0, 9), np.sin(np.linspace(-2.0, 2.0, 9))), [False] * 4 + [True] + [False] * 4),
            (np.array([-0.6, 0.8]), False),
            (np.array([0.0, -0.0]), True),
            (np.arange(30.0).reshape(3, 5, 2) // 2 - 7.0, np.arange(15).reshape(3, 5) == 7),  # row k is (k - 7, k - 7)
        ],
        ids=["N-2", "N-2-coordinate-major", "2", "2-zero", "k-N-2"],
    )
    def test_is_the_old_division_written_into_its_argument(self, v, zero):
        with np.errstate(invalid="ignore"):  # a zero row is 0/0: NaN, as before
            expected = v / row_norm(v)[..., None]
            got = row_unit(v)
        assert got is v
        assert got.shape == expected.shape and (got.view(np.int64) == expected.view(np.int64)).all()
        assert (np.isnan(got).all(axis=-1) == zero).all()
