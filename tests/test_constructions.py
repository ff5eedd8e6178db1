"""Construction solver tests against the worked states and oracles."""

import math

import numpy as np
import pytest

from lemniscate import (
    BernoulliConfig,
    Point,
    hyperbola_residual,
    hyperbola_tangent_at,
    invert_between,
    lemniscate_field,
    lemniscate_gradient,
    line_line_intersection,
    maclaurin_sample,
    normal_by_angle,
    right_angle_solve,
    tangent_circle_at,
    three_bar_solve,
)
from lemniscate import constructions
from lemniscate.constructions import (
    _row,
    hyperbola_of,
    invert_between_array,
    maclaurin_array,
    normal_by_angle_array,
    right_angle_array,
    tangent_circle_array,
    three_bar_array,
)
from lemniscate.curves import (
    bernoulli_polar_array,
    bernoulli_polar_point,
    hyperbola_gradient_array,
    hyperbola_point_array,
    lemniscate_field_array,
    lemniscate_gradient_array,
)
from lemniscate.errors import (
    CenterSingular,
    DoublePoint,
    NoChord,
    NotOnCurve,
    OutOfReach,
    UndefinedCenter,
)
from lemniscate.geometry import Line
from lemniscate.verify import threebar_states

SQRT2 = math.sqrt(2.0)
B = BernoulliConfig(Point(-1.0, 0.0), Point(1.0, 0.0))
L = B.lemniscate
O = Point(0.0, 0.0)


def rows_at(states, k):
    """A sweep's states at the rows k (an index or a boolean mask), the point rows
    taken along the points' axis so that they stay coordinate-major."""
    return type(states)(*(v.T[..., k].T for v in states))


def one_row(states, k):
    """Row k of a sweep as a one-row sweep."""
    return type(states)(*(v[k : k + 1] for v in states))


class TestThreeBar:
    def test_pinned_state(self):
        # radical-line solve by hand at theta = pi/2
        st = three_bar_solve(B, math.pi / 2)
        assert st.a.distance_to(Point(-1.0, SQRT2)) <= 1e-12
        assert st.b.distance_to(Point(-1.0 / 3.0, -SQRT2 / 3.0)) <= 1e-12
        assert st.x.distance_to(Point(-2.0 / 3.0, SQRT2 / 3.0)) <= 1e-12
        product_sq = (st.x - B.f1).norm_sq() * (st.x - B.f2).norm_sq()
        assert product_sq == pytest.approx(1.0, abs=1e-12)

    def test_pinned_p_and_q(self):
        st = three_bar_solve(B, math.pi / 2)
        assert st.p.distance_to(Point(-1.0, -SQRT2 / 2)) <= 1e-12
        assert st.q.distance_to(Point(-1.0, SQRT2 / 2)) <= 1e-12
        assert abs(hyperbola_residual(hyperbola_of(B), st.q)) <= 1e-12
        assert st.x.norm() * st.q.norm() == pytest.approx(1.0, abs=1e-12)

    def test_same_side_branch(self):
        st = three_bar_solve(B, math.pi / 2, side="same")
        assert st.b.distance_to(Point(1.0, SQRT2)) <= 1e-12
        assert st.x.distance_to(Point(0.0, SQRT2)) <= 1e-12
        assert st.x.distance_to(O) == pytest.approx(SQRT2, abs=1e-12)
        # parallelogram branch: stick lines parallel, no p
        assert st.p is None and st.q is None

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_same_side_solves_no_intersection(self, monkeypatch, c):
        # the parallelogram's stick lines are parallel at every angle, so p and q are NaN rows
        # with nothing solved for them, at any distance of the foci from the origin
        calls = []

        def recorded(kernel):
            def call(*args):
                calls.append(kernel.__name__)
                return kernel(*args)

            return call

        for kernel in (constructions.line_line_intersection_array, constructions.reflect_across_line_array):
            monkeypatch.setattr(constructions, kernel.__name__, recorded(kernel))
        theta = (np.arange(64) + 0.5) * math.tau / 64
        for shift in (0.0, 1e3, 1e6, 1e9, 1e12):
            center, half = Point(shift * c, shift * c), Point(0.6 * c, 0.8 * c)  # tilted, half-distance c
            st = three_bar_array(BernoulliConfig(center - half, center + half), theta, "same")
            for v in (st.p, st.q):
                assert v.shape == (64, 2) and np.isnan(v).all()
                assert v[..., 0].flags.c_contiguous and v[..., 1].flags.c_contiguous
        assert calls == []
        three_bar_array(B, theta)
        assert set(calls) == {"line_line_intersection_array", "reflect_across_line_array"}

    def test_stick_lengths_and_midpoint(self):
        for k in range(200):
            theta = (k + 0.5) * math.tau / 200
            st = three_bar_solve(B, theta)
            assert abs(st.a.distance_to(B.f1) - SQRT2) <= 1e-10
            assert abs(st.b.distance_to(B.f2) - SQRT2) <= 1e-10
            assert abs(st.a.distance_to(st.b) - 2.0) <= 1e-10
            mid = Point(0.5 * (st.a.x + st.b.x), 0.5 * (st.a.y + st.b.y))
            assert st.x.distance_to(mid) == 0.0
            assert abs(lemniscate_field(L, st.x)) <= 1e-9

    def test_opposite_sides(self):
        for k in range(100):
            theta = (k + 0.5) * math.tau / 100
            st = three_bar_solve(B, theta)
            assert st.a.y * st.b.y < 0.0

    def test_degenerate_p_at_quarter_turn(self):
        # at theta = pi/4 the coupler midpoint hits o and the stick lines
        # are parallel; the state comes back without p and q
        st = three_bar_solve(B, math.pi / 4)
        assert st.p is None and st.q is None
        assert st.x.distance_to(O) <= 1e-12

    def test_non_finite_angle(self):
        with pytest.raises(ValueError, match="theta = nan is not a finite angle"):
            three_bar_solve(B, float("nan"))

    def test_side_validation(self):
        with pytest.raises(ValueError):
            three_bar_solve(B, 1.0, side="sideways")

    @pytest.mark.parametrize("side", ["opposite", "same"])
    def test_stick_that_rounds_onto_its_focus(self, side):
        # at theta = pi/2 the stick of length c*sqrt(2) is all along y, below ulp(1e300)
        far = BernoulliConfig(Point(-1.0, 1e300), Point(0.0, 1e300))
        three_bar_array(far, [0.0], side)
        with pytest.raises(ValueError, match=r"theta = 1\.5707963267948966: foci Point\(x=-1\.0, y=1e\+300\)"):
            three_bar_array(far, [0.0, math.pi / 2, math.pi], side)

    def test_general_pose(self):
        tilted = BernoulliConfig(Point(0.7, -0.3), Point(1.9, 1.1))
        for k in range(50):
            theta = (k + 0.5) * math.tau / 50
            st = three_bar_solve(tilted, theta)
            assert abs(lemniscate_field(tilted.lemniscate, st.x)) <= 1e-9


class TestThreeBarStateFields:
    """A solve and a sweep carry the same six fields; the branch is the caller's argument, not a field."""

    FIELDS = ("theta", "a", "b", "x", "p", "q")

    def test_solve(self):
        st = three_bar_solve(B, 2.0, side="same")
        assert st._fields == self.FIELDS and len(st) == 6

    def test_sweep_select_and_tangent_circle(self):
        states = three_bar_array(B, [2.0])
        assert states._fields == self.FIELDS
        circle = tangent_circle_at(three_bar_solve(B, 2.0))
        center, radius = tangent_circle_array(states)
        assert (circle.center.x, circle.center.y, circle.radius) == (*center[0].tolist(), float(radius[0]))


class TestRow:
    """_row, a sweep's row as the state of one solve, converts each field in one step: the
    same values and types as a per-field float() and Point(), and None for a NaN point row."""

    @staticmethod
    def by_fields(states, k):
        def value(v):
            if v.ndim == 1:
                return float(v[k])
            return None if np.isnan(v[k, 0]) else Point(float(v[k, 0]), float(v[k, 1]))

        return type(states)(*map(value, states))

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda: three_bar_array(B, [0.3, math.pi / 4, 2.0, math.pi]),
            lambda: three_bar_array(B, [0.3, math.pi / 4], side="same"),
            lambda: maclaurin_array(B, [-0.7, 0.0, math.pi / 4]),
            lambda: right_angle_array(B, [-1.5, 0.0, 1.0]),
        ],
        ids=["threebar", "threebar-same", "maclaurin", "rightangle"],
    )
    def test_values_and_types(self, sweep):
        states = sweep()
        for k in range(len(states[0])):
            got, want = _row(one_row(states, k)), self.by_fields(states, k)
            assert repr(got) == repr(want) and got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            assert type(got[0]) is float and all(type(v) in (Point, type(None)) for v in got[1:])

    def test_nan_point_row_is_none(self):
        s = _row(three_bar_array(B, [math.pi / 4]))  # the stick lines are parallel
        assert s.p is None and s.q is None and type(s.x) is Point


class TestMaclaurin:
    def test_axis_secant_reaches_vertices(self):
        s = maclaurin_sample(B, 0.0)
        assert s.x.distance_to(Point(-SQRT2, 0.0)) <= 1e-12
        assert s.x_prime.distance_to(Point(SQRT2, 0.0)) <= 1e-12
        assert s.a.distance_to(s.b) == pytest.approx(SQRT2, abs=1e-12)

    def test_tangent_secant_collapses_to_center(self):
        s = maclaurin_sample(B, math.pi / 4)
        assert s.a.distance_to(s.b) <= 1e-9
        assert s.x.distance_to(O) <= 1e-9
        assert s.x_prime.distance_to(O) <= 1e-9

    def test_thirty_degree_chord(self):
        # chord half-length sqrt(1/2 - sin^2 30) = 1/2, so |ab| = |ox| = 1
        s = maclaurin_sample(B, math.pi / 6)
        assert s.a.distance_to(s.b) == pytest.approx(1.0, abs=1e-12)
        assert s.x.distance_to(O) == pytest.approx(1.0, abs=1e-12)
        assert abs(lemniscate_field(L, s.x)) <= 1e-9

    def test_no_chord(self):
        with pytest.raises(NoChord):
            maclaurin_sample(B, math.pi / 3)

    def test_sweep_field_residual(self):
        c_over = 1.0 / SQRT2
        for k in range(500):
            phi = -math.pi / 4 + (k + 0.5) * (math.pi / 2) / 500
            s = maclaurin_sample(B, phi)
            assert abs(lemniscate_field(L, s.x)) <= 1e-9
            assert abs(lemniscate_field(L, s.x_prime)) <= 1e-9
            assert abs(s.a.distance_to(B.f1) - c_over) <= 1e-10
            assert abs(s.b.distance_to(B.f1) - c_over) <= 1e-10


class TestRightAngle:
    def test_pinned_state(self):
        st = right_angle_solve(B, math.pi / 3)
        assert st.a.distance_to(Point(-0.5, math.sqrt(3) / 2)) <= 1e-12
        assert st.x.distance_to(Point(math.sqrt(3) / 2, 0.5)) <= 1e-12
        product_sq = (st.x - B.f1).norm_sq() * (st.x - B.f2).norm_sq()
        assert product_sq == pytest.approx(1.0, abs=1e-12)

    def test_boundary_collapses_to_center(self):
        st = right_angle_solve(B, math.pi / 2)
        assert st.x.distance_to(O) <= 1e-7
        assert st.y.distance_to(O) <= 1e-7

    def test_crank_on_axis_by_continuity(self):
        st = right_angle_solve(B, 0.0)
        assert st.x.distance_to(Point(SQRT2, 0.0)) <= 1e-12
        assert st.a.distance_to(O) <= 1e-12

    def test_out_of_reach(self):
        with pytest.raises(OutOfReach):
            right_angle_solve(B, 2 * math.pi / 3)

    def test_sweep_invariants(self):
        for k in range(500):
            alpha = -math.pi / 2 + (k + 0.5) * math.pi / 500
            st = right_angle_solve(B, alpha)
            for tip in (st.x, st.y):
                assert abs(lemniscate_field(L, tip)) <= 1e-9
                # right angle at o: |o tip|^2 + |o a|^2 = |a tip|^2
                assert abs(
                    tip.norm_sq() + st.a.norm_sq() - (tip - st.a).norm_sq()
                ) <= 1e-10
                assert abs(st.a.distance_to(tip) - SQRT2) <= 1e-10
            assert st.x.x > 0.0 > st.y.x  # opposite lobes


class TestInvertBetween:
    def test_vertex_to_hyperbola_vertex(self):
        image = invert_between(B, Point(SQRT2, 0.0))
        assert image.distance_to(Point(1.0 / SQRT2, 0.0)) <= 1e-12

    def test_worked_point(self):
        image = invert_between(B, Point(-2.0 / 3.0, SQRT2 / 3.0))
        assert image.distance_to(Point(-1.0, SQRT2 / 2)) <= 1e-12
        assert abs(hyperbola_residual(hyperbola_of(B), image)) <= 1e-12

    def test_focus_fixed(self):
        image = invert_between(B, Point(1.0, 0.0))
        assert image.distance_to(Point(1.0, 0.0)) <= 1e-12

    def test_center_singular(self):
        with pytest.raises(CenterSingular):
            invert_between(B, O)


class TestTangentCircle:
    def test_pinned_circle(self):
        st = three_bar_solve(B, math.pi / 2)
        circle = tangent_circle_at(st)
        assert circle.center.distance_to(Point(-1.0, -SQRT2 / 2)) <= 1e-12
        assert circle.radius == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert abs(circle.radius - circle.center.distance_to(O)) <= 1e-12

    def test_radius_vector_parallel_to_gradient(self):
        st = three_bar_solve(B, math.pi / 2)
        circle = tangent_circle_at(st)
        radial = (st.x - circle.center).unit()
        grad = lemniscate_gradient(L, st.x).unit()
        assert abs(radial.cross(grad)) <= 1e-12

    def test_undefined_center(self):
        same = three_bar_solve(B, math.pi / 2, side="same")
        with pytest.raises(UndefinedCenter):
            tangent_circle_at(same)

    def test_second_order_contact(self):
        st = three_bar_solve(B, math.pi / 2)
        circle = tangent_circle_at(st)
        base = math.atan2(st.x.y - circle.center.y, st.x.x - circle.center.x)
        values = []
        for s in (1e-2, 1e-3, 1e-4):
            ang = base + s / circle.radius
            p = Point(
                circle.center.x + circle.radius * math.cos(ang),
                circle.center.y + circle.radius * math.sin(ang),
            )
            values.append(abs(lemniscate_field(L, p)))
        slope = (math.log(values[0]) - math.log(values[2])) / (math.log(1e-2) - math.log(1e-4))
        assert slope >= 1.9

    def test_axis_limit_puts_center_on_axis(self):
        # symmetry forces p onto the focal axis as x approaches the
        # vertex; the circle tends to the one on diameter o-vertex
        st = three_bar_solve(B, 0.01)
        circle = tangent_circle_at(st)
        assert abs(st.p.y) <= 0.02
        assert circle.radius == pytest.approx(SQRT2 / 2, abs=0.01)

    def test_center_on_normal_and_perpendicular(self):
        # the proof's characterization: p = normal at x intersected with
        # the perpendicular from o to the hyperbola tangent at q
        st = three_bar_solve(B, 2.0)
        circle = tangent_circle_at(st)
        tangent = hyperbola_tangent_at(hyperbola_of(B), st.q)
        rebuilt = line_line_intersection(
            normal_by_angle(B, st.x), Line(O, tangent.direction.perp())
        )
        assert rebuilt.distance_to(circle.center) <= 1e-8


class TestNormal:
    def test_vertex_normal_is_axis(self):
        line = normal_by_angle(B, Point(SQRT2, 0.0))
        assert abs(line.direction.cross(Point(1.0, 0.0))) <= 1e-12
        assert line.anchor.distance_to(Point(SQRT2, 0.0)) == 0.0

    def test_left_vertex(self):
        line = normal_by_angle(B, Point(-SQRT2, 0.0))
        assert abs(line.direction.cross(Point(1.0, 0.0))) <= 1e-12

    def test_worked_point(self):
        line = normal_by_angle(B, Point(-2.0 / 3.0, SQRT2 / 3.0))
        expected = math.atan2(5 * SQRT2, 2.0)
        actual = math.atan2(line.direction.y, line.direction.x) % math.pi
        assert actual == pytest.approx(expected, abs=1e-9)

    def test_matches_gradient_all_quadrants(self):
        for x in (
            Point(math.sqrt(3) / 2, 0.5),
            Point(math.sqrt(3) / 2, -0.5),
            Point(-2.0 / 3.0, SQRT2 / 3.0),
            Point(-2.0 / 3.0, -SQRT2 / 3.0),
        ):
            line = normal_by_angle(B, x)
            grad = lemniscate_gradient(L, x).unit()
            assert abs(line.direction.cross(grad)) <= 1e-8

    def test_double_point_rejected(self):
        with pytest.raises(DoublePoint):
            normal_by_angle(B, O)

    def test_not_on_curve(self):
        with pytest.raises(NotOnCurve):
            normal_by_angle(B, Point(0.9, 0.9))

    @pytest.mark.parametrize(
        "foci, point",
        [((-1e-3, 0.0, 1e-3, 0.0), (3e-3, 3e-3)), ((999.0, 0.0, 1001.0, 0.0), (1000.5, 0.9))],
    )
    def test_on_curve_test_is_scale_free(self, foci, point):
        # (3, 3) and (0.5, 0.9) are off the canonical curve; so are their
        # images under a scaling or a shift
        with pytest.raises(NotOnCurve):
            normal_by_angle(BernoulliConfig(Point(*foci[:2]), Point(*foci[2:])), Point(*point))

    def test_tiny_curve_point_is_not_the_double_point(self):
        c = 1e-13
        config = BernoulliConfig(Point(-c, 0.0), Point(c, 0.0))
        line = normal_by_angle(config, bernoulli_polar_point(config, math.pi / 6))
        expected = normal_by_angle(B, bernoulli_polar_point(B, math.pi / 6))
        assert line.direction.distance_to(expected.direction) <= 1e-12

    def test_tangent_accepted_at_a_large_scale(self):
        # the linkage's q is about 3e-8 off the hyperbola at c = 1e8
        config = BernoulliConfig(Point(-1e8, 0.0), Point(1e8, 0.0))
        tangent = hyperbola_tangent_at(hyperbola_of(config), three_bar_solve(config, 2.0).q)
        expected = hyperbola_tangent_at(hyperbola_of(B), three_bar_solve(B, 2.0).q)
        assert tangent.direction.distance_to(expected.direction) <= 1e-12


class TestThreeBarClosedForm:
    @pytest.mark.parametrize("c", [1.0, 1000.0])
    def test_vertices_at_zero_and_pi(self, c):
        config = BernoulliConfig(Point(-c, 0.0), Point(c, 0.0))
        for theta, vertex in ((0.0, Point(c * SQRT2, 0.0)), (math.pi, Point(-c * SQRT2, 0.0))):
            st = three_bar_solve(config, theta)
            assert st.x.distance_to(vertex) <= 1e-15 * c

    @pytest.mark.parametrize("c", [1.0, 1000.0])
    def test_double_point_at_quarter_turns(self, c):
        config = BernoulliConfig(Point(-c, 0.0), Point(c, 0.0))
        for theta in (math.pi / 4, -math.pi / 4):
            st = three_bar_solve(config, theta)
            assert st.x.distance_to(config.center) <= 1e-15 * c
            assert st.p is None and st.q is None

    def test_sweep_through_pi(self):
        # 9999 samples put one crank angle exactly at pi
        states = threebar_states(B, 9999)
        k = int(np.argmin(np.abs(states.theta - math.pi)))
        assert states.theta[k] == math.pi
        assert states.x[k, 0] == pytest.approx(-SQRT2, abs=1e-15)
        field = lemniscate_field_array(L, states.x[:, 0], states.x[:, 1])
        assert np.max(np.abs(field)) <= 1e-12


def _same_point(p, row):
    if p is None:
        return bool(np.isnan(row).all())
    return p.x == row[0] and p.y == row[1]


TILTED = BernoulliConfig(Point(0.7, -0.3), Point(1.9, 1.1))


@pytest.mark.parametrize("config", [B, TILTED], ids=["canonical", "tilted"])
class TestKernelParity:
    """Each scalar construction is row k of its kernel, bit for bit."""

    def test_three_bar(self, config):
        for side in ("opposite", "same"):
            theta = (np.arange(200) + 0.5) * math.tau / 200
            rows = three_bar_array(config, theta, side)
            for k in range(200):
                st = three_bar_solve(config, float(theta[k]), side)
                assert st == _row(one_row(rows, k))
                for name in ("a", "b", "x", "p", "q"):
                    assert _same_point(getattr(st, name), getattr(rows, name)[k])

    def test_maclaurin(self, config):
        phi = -math.pi / 4 + (np.arange(200) + 0.5) * (math.pi / 2) / 200
        rows = maclaurin_array(config, phi)
        for k in range(200):
            s = maclaurin_sample(config, float(phi[k]))
            for name in ("a", "b", "x", "x_prime"):
                assert _same_point(getattr(s, name), getattr(rows, name)[k])

    def test_right_angle(self, config):
        alpha = -math.pi / 2 + (np.arange(200) + 0.5) * math.pi / 200
        rows = right_angle_array(config, alpha)
        for k in range(200):
            st = right_angle_solve(config, float(alpha[k]))
            for name in ("a", "x", "y"):
                assert _same_point(getattr(st, name), getattr(rows, name)[k])

    def test_normal_and_inversion(self, config):
        t = -math.pi / 4 + 0.02 + (math.pi / 2 - 0.04) * (np.arange(100) + 0.5) / 100
        x = bernoulli_polar_array(config, np.concatenate((t, t + math.pi)))
        directions = normal_by_angle_array(config, x)
        images = invert_between_array(config, x)
        for k in range(200):
            point = Point(*x[k])
            line = normal_by_angle(config, point)
            assert line.anchor == point
            assert _same_point(line.direction, directions[k])
            assert _same_point(invert_between(config, point), images[k])

    def test_tangent_circle(self, config):
        theta = (np.arange(200) + 0.5) * math.tau / 200
        rows = three_bar_array(config, theta)
        rows = rows_at(rows, ~np.isnan(rows.p[:, 0]))
        centers, radii = tangent_circle_array(rows)
        for k in range(len(rows.theta)):
            circle = tangent_circle_at(three_bar_solve(config, float(rows.theta[k])))
            assert _same_point(circle.center, centers[k])
            assert circle.radius == radii[k]


class TestKernelErrors:
    """A kernel that meets a bad parameter inside a sweep names it."""

    def test_no_chord(self):
        with pytest.raises(NoChord, match=f"phi = {math.pi / 3}"):
            maclaurin_array(B, [0.1, math.pi / 3, 0.2])

    def test_out_of_reach(self):
        with pytest.raises(OutOfReach, match=f"alpha = {2 * math.pi / 3}"):
            right_angle_array(B, [0.0, 2 * math.pi / 3])

    def test_not_on_curve(self):
        with pytest.raises(NotOnCurve, match="0.9"):
            normal_by_angle_array(B, np.array([[SQRT2, 0.0], [0.9, 0.9]]))

    def test_double_point(self):
        with pytest.raises(DoublePoint):
            normal_by_angle_array(B, np.array([[SQRT2, 0.0], [0.0, 0.0]]))

    def test_undefined_center(self):
        rows = three_bar_array(B, [1.0, math.pi / 4])
        with pytest.raises(UndefinedCenter, match=f"theta = {math.pi / 4}"):
            tangent_circle_array(rows)

    def test_center_singular(self):
        with pytest.raises(CenterSingular):
            invert_between_array(B, np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_non_finite_angle(self):
        with pytest.raises(ValueError, match="theta = nan is not a finite angle"):
            three_bar_solve(B, float("nan"))

    def test_side_validation(self):
        with pytest.raises(ValueError, match="sideways"):
            three_bar_array(B, [1.0], side="sideways")


class TestCoordinateMajor:
    """A sweep stores each coordinate column contiguously (geometry.rows), so
    arithmetic on its rows loops along the points, not over the axis of 2."""

    def test_sweeps_store_coordinate_columns_contiguously(self):
        theta = (np.arange(64) + 0.5) * math.tau / 64
        opposite = three_bar_array(TILTED, theta)
        sweeps = [
            opposite,
            three_bar_array(TILTED, theta, "same"),
            maclaurin_array(TILTED, np.linspace(-0.7, 0.7, 64)),
            right_angle_array(TILTED, np.linspace(-1.5, 1.5, 64)),
        ]
        points = [v for s in sweeps for v in s if isinstance(v, np.ndarray) and v.ndim == 2]
        points.append(bernoulli_polar_array(TILTED, np.linspace(-0.7, 0.7, 64)))
        assert len(points) == 18
        for v in points:
            assert v.shape[-1] == 2 and v[..., 0].flags.c_contiguous

    def test_every_kernel_stores_both_columns_contiguously(self):
        # the README convention: (N, 2) results are stored coordinate-major
        theta = np.linspace(-0.7, 0.7, 64)
        x = bernoulli_polar_array(TILTED, theta)
        H = hyperbola_of(TILTED)
        q = hyperbola_point_array(H, np.linspace(-2.0, 2.0, 64), -1)
        sweeps = [
            three_bar_array(TILTED, (np.arange(64) + 0.5) * math.tau / 64),
            maclaurin_array(TILTED, theta),
            right_angle_array(TILTED, np.linspace(-1.5, 1.5, 64)),
        ]
        points = {
            "bernoulli_polar_array": x,
            "hyperbola_point_array": q,
            "hyperbola_gradient_array": hyperbola_gradient_array(H, q),
            "lemniscate_gradient_array": lemniscate_gradient_array(TILTED.lemniscate, x[:, 0], x[:, 1]),
            "invert_between_array": invert_between_array(TILTED, q),
            "normal_by_angle_array": normal_by_angle_array(TILTED, x),
        }
        for s in sweeps:
            for field, v in s._asdict().items():
                if isinstance(v, np.ndarray) and v.ndim == 2:
                    points[f"{type(s).__name__}.{field}"] = v
        assert len(points) == 6 + 5 + 4 + 3
        for name, v in points.items():
            assert v.shape == (64, 2), name
            assert v[..., 0].flags.c_contiguous and v[..., 1].flags.c_contiguous, name
