"""Curve representation tests: fields, gradients, expansion, hyperbola."""

import math
import random
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemniscate import (
    BernoulliConfig,
    EquilateralHyperbola,
    Point,
    PolynomialLemniscate,
    bernoulli_area,
    bernoulli_polar_point,
    expand_coefficients,
    hyperbola_point,
    hyperbola_residual,
    hyperbola_tangent_at,
    lemniscate_field,
    lemniscate_gradient,
    line_line_intersection,
    unit_hyperbola_foci,
)
from lemniscate.curves import (
    _curvature,
    _log_derivatives,
    bernoulli_polar_array,
    hyperbola_gradient_array,
    lemniscate_field_array,
    lemniscate_gradient_array,
    on_curve,
)
from lemniscate.errors import NotOnCurve, OutsideLobe, TooManyFoci
from lemniscate.geometry import Line, row_point, xy

SQRT2 = math.sqrt(2.0)

CANON = BernoulliConfig(Point(-1.0, 0.0), Point(1.0, 0.0))
CANON_L = CANON.lemniscate


def finite_difference_gradient(L, p, step=1e-6):
    fx = lemniscate_field(L, Point(p.x + step, p.y)) - lemniscate_field(L, Point(p.x - step, p.y))
    fy = lemniscate_field(L, Point(p.x, p.y + step)) - lemniscate_field(L, Point(p.x, p.y - step))
    return Point(fx / (2 * step), fy / (2 * step))


class TestField:
    def test_double_point(self):
        assert lemniscate_field(CANON_L, Point(0.0, 0.0)) == 0.0

    def test_vertex(self):
        # (sqrt2 - 1)^2 (sqrt2 + 1)^2 = 1, direct product
        assert abs(lemniscate_field(CANON_L, Point(SQRT2, 0.0))) <= 1e-15

    def test_focus_value(self):
        assert lemniscate_field(CANON_L, Point(1.0, 0.0)) == pytest.approx(-1.0, abs=1e-15)

    def test_sign_convention(self):
        assert lemniscate_field(CANON_L, Point(1.0, 0.05)) < 0.0  # inside a lobe
        assert lemniscate_field(CANON_L, Point(0.0, 0.5)) > 0.0  # outside

    @given(
        k=st.sampled_from([0.5, 3.0]),
        px=st.floats(min_value=-3, max_value=3),
        py=st.floats(min_value=-3, max_value=3),
    )
    @settings(max_examples=100)
    def test_scaling_covariance(self, k, px, py):
        p = Point(px, py)
        base = lemniscate_field(CANON_L, p)
        scaled = PolynomialLemniscate(
            tuple(f * k for f in CANON_L.foci), CANON_L.radius * k
        )
        assert lemniscate_field(scaled, p * k) == pytest.approx(
            base * k ** (2 * CANON_L.n), rel=1e-9, abs=1e-12
        )

    @staticmethod
    def seeded_field(L, x, y):
        # reference: the product started from ones, which 1.0 * q == q makes
        # equal to the evaluator's bit for bit
        acc = np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))
        for f in L.foci:
            acc *= (x - f.x) ** 2 + (y - f.y) ** 2
        acc -= L.level
        return acc

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_seeded_form_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e3):
            foci = tuple(Point(*p) for p in rng.uniform(-scale, scale, (n, 2)))
            L = PolynomialLemniscate(foci, scale * rng.uniform(0.3, 1.5))
            k = int(rng.integers(1, 9))
            # the band's shapes: node columns along x against node rows along y
            x = rng.uniform(-2.0 * scale, 2.0 * scale, (5, 1, k))
            y = rng.uniform(-2.0 * scale, 2.0 * scale, (1, 5, k))
            got, want = lemniscate_field_array(L, x, y), self.seeded_field(L, x, y)
            assert got.shape == want.shape == (5, 5, k)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            pts = rng.uniform(-2.0 * scale, 2.0 * scale, (2, 50))
            got, want = lemniscate_field_array(L, *pts), self.seeded_field(L, *pts)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_overflow_matches_the_seeded_form(self):
        L = PolynomialLemniscate(tuple(Point(float(k), 0.0) for k in range(4)), 1.0)
        x = np.array((1e40, 1e80, -1e160, 3.0, 1e300))[:, None]
        y = np.array((0.0, 1e80, 2.0))[None]
        with np.errstate(over="ignore"):
            got, want = lemniscate_field_array(L, x, y), self.seeded_field(L, x, y)
        assert np.isinf(got).sum() > 0 and np.isfinite(got).sum() > 0
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


    @staticmethod
    def product_loop(L, x, y):
        """The field as a product started at 1.0, each focus's term formed whole: dx * dx + dy * dy."""
        acc = 1.0
        for f in L.foci:
            dx, dy = x - f.x, y - f.y
            acc *= dx * dx + dy * dy
        acc -= L.level
        return acc

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_product_loop_bit_for_bit(self, n):
        # the first focus's term starts the product, as 1.0 * term is the term, and d *= d is
        # d * d: floats, rows, the band's broadcast and per-row or per-block levels give the same
        # bits and types, through products that overflow to inf and a 0 * inf that is NaN
        rng = np.random.default_rng(300 + n)
        foci = [Point(*rng.uniform(-2.0, 2.0, 2)) for _ in range(n)]
        x, y = rng.uniform(-3.0, 3.0, (2, 200))
        x[:4], y[:4] = (1e300, -1e160, 1e80, 3e38), (2.0, 1e160, -1e80, 1e38)
        curves = [PolynomialLemniscate(tuple(foci), rng.uniform(0.5, 2.0))]
        # 0 * inf in either order: one factor 0 at the origin, the other overflowing
        curves += [PolynomialLemniscate((Point(0.0, 0.0), Point(1e300, 0.0)) + tuple(foci[1:]), 1.0)]
        curves += [PolynomialLemniscate((Point(1e300, 0.0), Point(0.0, 0.0)) + tuple(foci[1:]), 1.0)]
        x[4:6], y[4:6] = 0.0, 0.0
        for L in curves:
            rows = SimpleNamespace(foci=L.foci, level=rng.uniform(0.1, 5.0, 200))  # a level a row, as refine takes
            blocks = SimpleNamespace(foci=L.foci, level=rows.level[:8])  # a level a block, as the band takes
            bx, by = x[:40].reshape(5, 1, 8), y[40:80].reshape(1, 5, 8)
            cases = [(L, x, y), (rows, x, y), (L, bx, by), (blocks, bx, by)]
            cases += [(L, float(u), float(v)) for u, v in zip(x[:12], y[:12])]
            for P, u, v in cases:
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = lemniscate_field_array(P, u, v), self.product_loop(P, u, v)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert math.isnan(lemniscate_field_array(curves[1], 0.0, 0.0))
        assert math.isnan(lemniscate_field_array(curves[2], 0.0, 0.0))


class TestOnCurve:
    def test_double_point(self):
        assert on_curve(CANON_L, [[0.0, 0.0]]).tolist() == [True]
        assert on_curve(CANON_L, xy(CANON.center)).item()

    @pytest.mark.parametrize(
        "radius, on",
        [(1.0 + 1e-10, True), (1.0 - 1e-10, True), (1.0 + 1e-9, False), (1.0 - 1e-9, False)],
    )
    def test_double_point_at_a_radius_off_by(self, radius, on):
        # the residual at the midpoint is |1 - r^4| / (1 + r^4), about 2 |r - 1|
        L = PolynomialLemniscate(CANON_L.foci, radius)
        assert on_curve(L, np.zeros((1, 2))).tolist() == [on]

    def test_rows_of_a_sweep(self):
        points = np.array([xy(bernoulli_polar_point(CANON, t)) for t in (0.1, -0.5, 3.0)])
        assert on_curve(CANON_L, points).tolist() == [True, True, True]
        assert on_curve(CANON_L, points * 1.01).tolist() == [False, False, False]

    def test_overflowing_field_is_off_the_curve_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert on_curve(CANON_L, [[1e300, -1.0], [1.7e308, 1.7e308], [-1e200, 1e200]]).tolist() == [False] * 3


class TestFloatArrayParity:
    """lemniscate_field and lemniscate_gradient run their array forms' arithmetic on p's floats,
    bit for bit, and an overflow or 0 * inf gives inf or NaN there with no warning."""

    @staticmethod
    def assert_parity(L, x, y):
        with np.errstate(over="ignore", invalid="ignore"):
            f = lemniscate_field_array(L, x, y)
            g = lemniscate_gradient_array(L, x, y)
            ref = math.prod((np.square(x - c.x) + np.square(y - c.y) for c in L.foci), start=1.0) - L.level
        assert f.tobytes() == ref.tobytes()  # the d * d squares are numpy's ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(len(x)):
                p = Point(x[k], y[k])
                assert np.float64(lemniscate_field(L, p)).tobytes() == f[k].tobytes()
                if np.isfinite(g[k]).all():
                    gp = lemniscate_gradient(L, p)
                    assert np.array((gp.x, gp.y)).tobytes() == g[k].tobytes()
                else:
                    with pytest.raises(ValueError, match="coordinates must be finite"):
                        lemniscate_gradient(L, p)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_seeded_points(self, n):
        rng = np.random.default_rng(100 + n)
        L = PolynomialLemniscate(tuple(Point(*rng.uniform(-2.0, 2.0, 2)) for _ in range(n)), rng.uniform(0.5, 2.0))
        x, y = rng.uniform(-3.0, 3.0, (2, 400))
        x[:4], y[:4] = (1e300, -1e160, 1e80, 3e38), (2.0, 1e160, -1e80, 1e38)  # products that overflow to inf
        self.assert_parity(L, x, y)

    def test_zero_times_inf_is_nan(self):
        # on the first focus, with the second so far off that its factor overflows
        L = PolynomialLemniscate((Point(0.0, 0.0), Point(1e300, 0.0)), 1.0)
        x, y = np.array([0.0, 0.5]), np.array([0.0, 0.0])
        assert np.isnan(lemniscate_field(L, Point(0.0, 0.0)))
        self.assert_parity(L, x, y)


class TestGradient:
    def test_vertex_by_hand(self):
        # differentiate (x^2+y^2)^2 - 2(x^2 - y^2) at (sqrt2, 0)
        g = lemniscate_gradient(CANON_L, Point(SQRT2, 0.0))
        assert g.x == pytest.approx(4 * SQRT2, abs=1e-12)
        assert g.y == pytest.approx(0.0, abs=1e-12)

    def test_double_point_singular(self):
        g = lemniscate_gradient(CANON_L, Point(0.0, 0.0))
        assert g.x == 0.0 and g.y == 0.0

    def test_off_axis_by_hand(self):
        g = lemniscate_gradient(CANON_L, Point(-2.0 / 3.0, SQRT2 / 3.0))
        assert g.x == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert g.y == pytest.approx(20.0 * SQRT2 / 9.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.choice([1, 2, 3, 4])
            foci = tuple(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n))
            try:
                L = PolynomialLemniscate(foci, rng.uniform(0.5, 2.0))
            except ValueError:
                continue
            p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            g = lemniscate_gradient(L, p)
            fd = finite_difference_gradient(L, p)
            scale = max(1.0, g.norm())
            assert (g - fd).norm() <= 1e-5 * scale


class TestCurvature:
    @pytest.mark.parametrize("e", [-300, -40, 0, 40, 300])
    def test_circle_is_one_over_its_radius(self, e):
        # radius 5 * 2^e about a centre on the same binary scale, at the
        # points (3, 4) * 2^e and their turns and reflections, all exact
        s = 2.0**e
        centre = Point(-7.0 * s, 3.0 * s)
        circle = PolynomialLemniscate((centre,), 5.0 * s)
        offsets = [(3, 4), (4, 3), (5, 0), (0, 5)]
        offsets += [(sx * a, sy * b) for a, b in offsets for sx, sy in ((-1, 1), (1, -1), (-1, -1))]
        z = np.array([complex(centre.x + a * s, centre.y + b * s) for a, b in offsets])
        k = _curvature(circle, z)
        assert np.all(np.abs(k * (5.0 * s) - 1.0) <= 4 * np.finfo(float).eps)

    def test_log_derivatives_of_the_circle(self):
        g1, g2 = _log_derivatives(PolynomialLemniscate((Point(1.0, 2.0),), 1.0), np.array([1.0 + 4.0j]))
        # z - f = 2i: g' = 1 / 2i = -i / 2 and g'' = -1 / (2i)^2 = 1 / 4
        assert g1.tolist() == [-0.5j] and g2.tolist() == [0.25 + 0j]

    @pytest.mark.parametrize(
        "f1, f2",
        [((-1.0, 0.0), (1.0, 0.0)), ((-2.0, -1.0), (4.0, 7.0)), ((3e-4, 1e-4), (-1e-4, 5e-4)), ((2e3, -7e3), (-1e3, 9e3))],
    )
    def test_bernoulli_is_three_rho_over_a_squared(self, f1, f2):
        # r^2 = a^2 cos 2 theta, a = c sqrt 2, has curvature 3 rho / a^2 at
        # distance rho from the double point (classical)
        B = BernoulliConfig(Point(*f1), Point(*f2))
        theta = np.linspace(-0.7, 0.7, 281)
        p = bernoulli_polar_array(B, np.concatenate((theta, theta + math.pi)))
        rho = np.hypot(*(p - xy(B.center)).T)
        k = _curvature(B.lemniscate, p[:, 0] + 1j * p[:, 1])
        assert np.max(np.abs(k / (3.0 * rho / (2.0 * B.half_distance**2)) - 1.0)) <= 1e-14

    def test_nan_where_the_log_derivative_vanishes(self):
        # the canonical double point, where g' is exactly 0, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = _curvature(CANON_L, np.array([0.0, SQRT2 + 0j]))
        assert math.isnan(k[0]) and k[1] == pytest.approx(3.0 * SQRT2 / 2.0, rel=1e-15)


class TestExpand:
    def test_single_focus_circle(self):
        table = expand_coefficients(PolynomialLemniscate((Point(0.0, 0.0),), 2.0))
        assert table.degree == 2
        assert table.coefficient(2, 0) == 1.0
        assert table.coefficient(0, 2) == 1.0
        assert table.coefficient(0, 0) == -4.0
        assert table.coefficient(1, 0) == 0.0

    def test_bernoulli_coefficients(self):
        # ((x-1)^2 + y^2)((x+1)^2 + y^2) - 1 = (x^2+y^2)^2 - 2x^2 + 2y^2
        table = expand_coefficients(CANON_L)
        expected = {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 2.0, (2, 0): -2.0, (0, 2): 2.0}
        for i in range(5):
            for j in range(5):
                assert table.coefficient(i, j) == pytest.approx(
                    expected.get((i, j), 0.0), abs=1e-12
                )

    def test_pointwise_equality_oracle(self):
        rng = random.Random(3)
        foci = tuple(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        L = PolynomialLemniscate(foci, 1.3)
        table = expand_coefficients(L)
        for _ in range(100):
            p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            f = lemniscate_field(L, p)
            magnitude = max(1.0, f + 2 * L.level)
            assert abs(table.evaluate(p) - f) <= 1e-9 * magnitude

    def test_evaluate_array_matches_scalar_horner(self):
        rng = random.Random(5)
        for n in (1, 2, 5):
            foci = tuple(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n))
            table = expand_coefficients(PolynomialLemniscate(foci, 0.9))
            pts = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(50)]
            expected = []
            for x, y in pts:
                acc = 0.0
                for row in table.coeffs[::-1]:
                    r = 0.0
                    for c in row[::-1]:
                        r = r * y + float(c)
                    acc = acc * x + r
                expected.append(acc)
            xs, ys = np.array(pts).T
            assert table.evaluate_array(xs, ys).tolist() == expected
            assert [table.evaluate(Point(x, y)) for x, y in pts] == expected

    def test_table_and_evaluation_match_the_entry_by_entry_loops_bit_for_bit(self):
        # the products of a 3 x 3 factor's entries, each coefficient's terms summed in the order of
        # the table's own entries, and one Horner row at a time: the loops the vectorised forms replace
        def mul2d(a, b):
            out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
            for i, j in zip(*np.nonzero(a)):
                out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
            return out

        def horner(coeffs, x, y):
            acc = 0.0
            for i in range(coeffs.shape[0] - 1, -1, -1):
                r = 0.0
                for j in range(coeffs.shape[1] - 1, -1, -1):
                    r = r * y + coeffs[i, j]
                acc = acc * x + r
            return acc

        rng = random.Random(40)
        for n in range(1, 9):
            for rep in range(5):
                scale = 10.0 ** rng.uniform(-3.0, 3.0)
                foci = tuple(Point(rng.uniform(-2, 2) * scale, rng.uniform(-2, 2) * scale) for _ in range(n))
                if rep < 2:  # a focus at the origin, then on the y axis: factors with entries of 0
                    foci = (Point(0.0, rep * foci[0].y),) + foci[1:]
                L = PolynomialLemniscate(foci, rng.uniform(0.5, 2.0) * scale)
                acc = np.ones((1, 1))
                for f in foci:  # |p|^2 - 2 f.p + |f|^2 as a 3 x 3 table
                    factor = np.array([[f.x * f.x + f.y * f.y, -2.0 * f.y, 1.0], [-2.0 * f.x, 0, 0], [1.0, 0, 0]])
                    acc = mul2d(acc, factor)
                acc[0, 0] -= L.level
                table = expand_coefficients(L)
                assert table.coeffs.tobytes() == acc.tobytes()
                x, y = np.array([(rng.uniform(-3, 3) * scale, rng.uniform(-3, 3) * scale) for _ in range(40)]).T
                assert table.evaluate_array(x, y).tobytes() == horner(acc, x, y).tobytes()
                grid = (x[:6, None], y[None, :7])  # broadcast coordinates
                assert table.evaluate_array(*grid).tobytes() == horner(acc, *grid).tobytes()
        # a table that overflows is refused with the same message
        foci = (Point(1e80, 1.0), Point(1e80, 2.0), Point(1e80, 3.0), Point(-1e80, 0.0))
        message = f"the coefficients overflow a float at foci {', '.join(f'({f.x!r}, {f.y!r})' for f in foci)} and radius 1.0"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            expand_coefficients(PolynomialLemniscate(foci, 1.0))

    def test_leading_form_is_binomial(self):
        rng = random.Random(11)
        for n in (2, 3, 5):
            foci = tuple(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n))
            table = expand_coefficients(PolynomialLemniscate(foci, 1.0))
            for i in range(2 * n + 1):
                j = 2 * n - i
                expected = math.comb(n, i // 2) if i % 2 == 0 else 0.0
                assert table.coefficient(i, j) == pytest.approx(expected, abs=1e-9)

    def test_table_is_square_and_zero_past_the_degree(self):
        # the product of n quadratic factors is a (2n+1) x (2n+1) table with no term of degree above 2n
        for n in range(1, 9):
            rng = random.Random(100 + n)
            foci = tuple(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n))
            coeffs = expand_coefficients(PolynomialLemniscate(foci, 1.1)).coeffs
            assert coeffs.shape == (2 * n + 1, 2 * n + 1)
            i, j = np.indices(coeffs.shape)
            past = coeffs[i + j > 2 * n]
            assert (past == 0.0).all() and not np.signbit(past).any()

    def test_focus_count_guard(self):
        foci = tuple(Point(float(k), 0.0) for k in range(9))
        with pytest.raises(TooManyFoci):
            expand_coefficients(PolynomialLemniscate(foci, 1.0))


class TestPolarPoint:
    def test_vertex(self):
        p = bernoulli_polar_point(CANON, 0.0)
        assert p.distance_to(Point(SQRT2, 0.0)) <= 1e-15

    def test_lobe_boundary_is_center(self):
        p = bernoulli_polar_point(CANON, math.pi / 4)
        assert p.distance_to(Point(0.0, 0.0)) <= 1e-7

    def test_thirty_degrees(self):
        # r^2 = 2 cos(pi/3) = 1
        p = bernoulli_polar_point(CANON, math.pi / 6)
        assert p.distance_to(Point(math.sqrt(3) / 2, 0.5)) <= 1e-15

    def test_outside_lobe(self):
        with pytest.raises(OutsideLobe):
            bernoulli_polar_point(CANON, math.pi / 2)

    def test_on_curve_sweep(self):
        for k in range(500):
            t = -math.pi / 4 + (k + 0.5) * (math.pi / 2) / 500
            p = bernoulli_polar_point(CANON, t)
            assert abs(lemniscate_field(CANON_L, p)) <= 1e-12

    def test_general_pose(self):
        B = BernoulliConfig(Point(0.5, 1.0), Point(2.0, -0.5))
        for k in range(100):
            t = -math.pi / 4 + (k + 0.5) * (math.pi / 2) / 100
            p = bernoulli_polar_point(B, t)
            assert abs(lemniscate_field(B.lemniscate, p)) <= 1e-12


class TestHyperbola:
    def test_vertex_residual(self):
        H = EquilateralHyperbola(Point(-1, 0), Point(1, 0))
        assert abs(hyperbola_residual(H, Point(1 / SQRT2, 0.0))) <= 1e-15

    def test_inversion_image_point(self):
        H = EquilateralHyperbola(Point(-1, 0), Point(1, 0))
        assert abs(hyperbola_residual(H, Point(-1.0, SQRT2 / 2))) <= 1e-15

    def test_center_residual(self):
        H = EquilateralHyperbola(Point(-1, 0), Point(1, 0))
        assert hyperbola_residual(H, Point(0.0, 0.0)) == pytest.approx(-SQRT2, abs=1e-15)

    def test_tangent_at_vertex_is_vertical(self):
        H = EquilateralHyperbola(Point(-1, 0), Point(1, 0))
        tangent = hyperbola_tangent_at(H, Point(1 / SQRT2, 0.0))
        assert abs(tangent.direction.x) <= 1e-15

    def test_tangent_direction_by_hand(self):
        # gradient of x^2 - y^2 - 1/2 at (-1, sqrt2/2) is (-2, -sqrt2)
        H = EquilateralHyperbola(Point(-1, 0), Point(1, 0))
        tangent = hyperbola_tangent_at(H, Point(-1.0, SQRT2 / 2))
        assert abs(tangent.direction.cross(Point(-SQRT2, 2.0).unit())) <= 1e-12

    def test_tangent_perpendicular_to_gradient(self):
        H = EquilateralHyperbola(Point(0.3, -0.2), Point(-1.1, 2.0))
        for k in range(50):
            t = -2.0 + 4.0 * (k + 0.5) / 50
            q = hyperbola_point(H, t, branch=-1)
            tangent = hyperbola_tangent_at(H, q)
            grad = row_point(hyperbola_gradient_array(H, xy(q)))
            assert abs(tangent.direction.dot(grad.unit())) <= 1e-12

    def test_not_on_curve(self):
        H = EquilateralHyperbola(Point(-1, 0), Point(1, 0))
        with pytest.raises(NotOnCurve):
            hyperbola_tangent_at(H, Point(5.0, 5.0))
        with pytest.raises(NotOnCurve):
            hyperbola_tangent_at(H, Point(0.0, 0.0))

    def test_tangent_bound_follows_the_scale(self):
        # 1e-6 c off the curve at c = 1e-3 is 1e-9 absolute, far off at that scale
        H = EquilateralHyperbola(Point(-1e-3, 0.0), Point(1e-3, 0.0))
        q = hyperbola_point(H, 0.3)
        hyperbola_tangent_at(H, q)
        with pytest.raises(NotOnCurve):
            hyperbola_tangent_at(H, Point(q.x + 1e-9, q.y))

    def test_point_sampler_on_curve(self):
        H = EquilateralHyperbola(Point(-1, 0), Point(1, 0))
        for branch in (1, -1):
            for k in range(50):
                t = -3.0 + 6.0 * (k + 0.5) / 50
                assert abs(hyperbola_residual(H, hyperbola_point(H, t, branch))) <= 1e-12


class TestUnitHyperbola:
    def test_foci_values(self):
        f1, f2 = unit_hyperbola_foci()
        assert f1.distance_to(Point(SQRT2, SQRT2)) <= 1e-15
        assert f2.distance_to(Point(-SQRT2, -SQRT2)) <= 1e-15

    def test_residual_on_reciprocal_curve(self):
        f1, f2 = unit_hyperbola_foci()
        H = EquilateralHyperbola(f1, f2)
        for k in range(100):
            t = 0.1 * (10.0 / 0.1) ** (k / 99.0)
            assert abs(hyperbola_residual(H, Point(t, 1.0 / t))) <= 1e-9

    def test_vertices(self):
        f1, f2 = unit_hyperbola_foci()
        H = EquilateralHyperbola(f1, f2)
        assert abs(hyperbola_residual(H, Point(1.0, 1.0))) <= 1e-12
        assert abs(hyperbola_residual(H, Point(-1.0, -1.0))) <= 1e-12

    def test_tangent_midpoint_property(self):
        f1, f2 = unit_hyperbola_foci()
        H = EquilateralHyperbola(f1, f2)
        x_axis = Line(Point(0.0, 0.0), Point(1.0, 0.0))
        y_axis = Line(Point(0.0, 0.0), Point(0.0, 1.0))
        for t in (0.5, 1.0, 2.0):
            q = Point(t, 1.0 / t)
            tangent = hyperbola_tangent_at(H, q)
            r = line_line_intersection(tangent, x_axis)
            s = line_line_intersection(tangent, y_axis)
            assert r.distance_to(Point(2 * t, 0.0)) <= 1e-12
            assert s.distance_to(Point(0.0, 2.0 / t)) <= 1e-12
            mid = Point(0.5 * (r.x + s.x), 0.5 * (r.y + s.y))
            assert mid.distance_to(q) <= 1e-12


class TestArea:
    def test_canonical(self):
        assert bernoulli_area(CANON) == 2.0

    def test_scaled(self):
        assert bernoulli_area(BernoulliConfig(Point(-2, 0), Point(2, 0))) == 8.0

    def test_coincident_foci_rejected(self):
        with pytest.raises(ValueError):
            BernoulliConfig(Point(1.0, 1.0), Point(1.0, 1.0))


class TestTypeInvariants:
    def test_needs_focus(self):
        with pytest.raises(ValueError):
            PolynomialLemniscate((), 1.0)

    def test_positive_radius(self):
        with pytest.raises(ValueError):
            PolynomialLemniscate((Point(0, 0),), 0.0)

    def test_distinct_foci(self):
        with pytest.raises(ValueError):
            PolynomialLemniscate((Point(0, 0), Point(0, 0)), 1.0)

    @pytest.mark.parametrize("focal_pair", [BernoulliConfig, EquilateralHyperbola])
    def test_coincident_focal_pair_is_named(self, focal_pair):
        with pytest.raises(ValueError, match=re.escape("foci must be distinct, got both at 1.5,-2.0")):
            focal_pair(Point(1.5, -2.0), Point(1.5, -2.0))

    def test_focal_pair_frame_is_shared(self):
        B = BernoulliConfig(Point(-2.0, -1.0), Point(4.0, 7.0))
        H = EquilateralHyperbola(B.f1, B.f2)
        assert (B.center, B.axis_unit) == (H.center, H.axis_unit) == (Point(1.0, 3.0), Point(0.6, 0.8))
        assert B != H and B == BernoulliConfig(B.f1, B.f2)

    def test_level_must_be_a_normal_float(self):
        four = tuple(Point(k, 0.0) for k in range(4))
        # 1e-50**4 and 1e50**4 are normal, 1e-50**8 underflows and 1e50**8 overflows
        for radius in (1e-50, 1e50):
            assert PolynomialLemniscate(four[:2], radius).level > 0.0
            with pytest.raises(ValueError, match=re.escape(f"radius {radius} at n = 4")):
                PolynomialLemniscate(four, radius)
        for radius in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                PolynomialLemniscate(four[:2], radius)
        # c**4 for c = 1e-100 underflows
        with pytest.raises(ValueError, match="at n = 2"):
            BernoulliConfig(Point(-1e-100, 0.0), Point(1e-100, 0.0))

    def test_stored_level_and_curve_leave_the_records_as_they_were(self):
        # each is computed once, where the constructor validates it, and takes no part in the
        # constructor's arguments, equality, hashing or repr
        L = PolynomialLemniscate((Point(0.0, 0.0), Point(3.0, 4.0)), 1.5)
        assert L == PolynomialLemniscate(L.foci, 1.5) and hash(L) == hash(PolynomialLemniscate(L.foci, 1.5))
        assert repr(L) == f"PolynomialLemniscate(foci={L.foci!r}, radius=1.5)"
        with pytest.raises(TypeError):
            PolynomialLemniscate(L.foci, 1.5, 5.0625)
        B = BernoulliConfig(*L.foci)
        assert B.lemniscate is B.lemniscate and B.lemniscate == PolynomialLemniscate(L.foci, 2.5)
        assert B == BernoulliConfig(*L.foci) and hash(B) == hash(BernoulliConfig(*L.foci))
        assert repr(B) == f"BernoulliConfig(f1={B.f1!r}, f2={B.f2!r})"

    def test_stored_level_is_radius_to_the_2n_bit_for_bit(self):
        rng = random.Random(36)
        for _ in range(2_000):
            n = rng.randint(1, 8)
            radius = 10.0 ** rng.uniform(-30.0 / n, 30.0 / n)
            foci = tuple(Point(float(k), 0.0) for k in range(n))
            assert PolynomialLemniscate(foci, radius).level == radius ** (2 * n)

    def test_bernoulli_radius_is_half_distance(self):
        B = BernoulliConfig(Point(0.0, 0.0), Point(3.0, 4.0))
        assert B.half_distance == 2.5
        assert B.lemniscate.radius == 2.5
        assert B.center.distance_to(Point(1.5, 2.0)) == 0.0
