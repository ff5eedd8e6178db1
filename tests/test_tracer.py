"""Tracer tests: extraction topology, refinement, area, CSV round trip."""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lemniscate import (
    BernoulliConfig,
    Contour,
    Point,
    PolynomialLemniscate,
    TraceWindow,
    bernoulli_area,
    contour_area,
    contours_from_csv,
    contours_to_csv,
    lemniscate_field,
    refine,
    trace,
)
from lemniscate import tracer
from lemniscate.curves import field_residual, lemniscate_field_array
from lemniscate.errors import EmptyTrace, GeometryError, OpenContour
from lemniscate.tracer import (
    _SEGMENTS,
    _band,
    _crossings,
    _dedupe,
    _signed_area,
    bernoulli_window,
)

B = BernoulliConfig(Point(-1.0, 0.0), Point(1.0, 0.0))
L = B.lemniscate
CIRCLE = PolynomialLemniscate((Point(0.0, 0.0),), 1.0)
# seeded lemniscates with 3 to 6 foci in [-1, 1]^2
_rng = random.Random(404)
SEEDED = [
    PolynomialLemniscate(
        tuple(Point(_rng.uniform(-1, 1), _rng.uniform(-1, 1)) for _ in range(n)),
        _rng.uniform(0.6, 1.2),
    )
    for n in (3, 4, 5, 6)
]


def equilateral_foci():
    r = 1.0 / math.sqrt(3.0)
    return tuple(
        Point(r * math.cos(a), r * math.sin(a))
        for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
    )


def reference_bracket(L, a, b):
    """Regula falsi with the Illinois modification on the segment a -> b,
    one point at a time: at most 64 steps, stopping at a scale-free
    residual |f| / (f + 2 level) <= 5e-13, or once no float lies strictly
    between the points of the bracket's ends in either coordinate."""
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    lo, hi = 0.0, 1.0
    flo, fhi = lemniscate_field(L, Point(ax, ay)), lemniscate_field(L, Point(bx, by))
    moved = 0  # the end the last step replaced: -1 lo, 1 hi
    for _ in range(64):
        t = min(max(lo + (hi - lo) * (flo / (flo - fhi)), lo), hi)
        p = (ax + t * dx, ay + t * dy)
        f = lemniscate_field(L, Point(*p))
        if abs(f) / (f + 2.0 * L.level) <= 5e-13:
            break
        if (f < 0.0) == (flo < 0.0):
            if moved < 0:
                fhi = 0.5 * fhi
            lo, flo, moved = t, f, -1
        else:
            if moved > 0:
                flo = 0.5 * flo
            hi, fhi, moved = t, f, 1
        (x0, y0), (x1, y1) = [(ax + s * dx, ay + s * dy) for s in (lo, hi)]
        if math.nextafter(x0, x1) == x1 and math.nextafter(y0, y1) == y1:
            break
    return p


def dense_crossings(L, w):
    """Reference marching squares over every node of the window: the
    linear ids of the crossed edges (edges along x in (i, j) order, then
    edges along y) and the successor map of the directed marching-squares
    segments from edge id to edge id, built cell by cell."""
    xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
    ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
    grid = lemniscate_field_array(L, xs[:, None], ys[None, :])
    neg = grid < 0.0
    hi, hj = np.nonzero(neg[:-1, :] != neg[1:, :])
    vi, vj = np.nonzero(neg[:, :-1] != neg[:, 1:])
    first_v = w.nx * (w.ny + 1)
    ids = np.concatenate((hi * (w.ny + 1) + hj, first_v + vi * w.ny + vj))

    n = neg.astype(int)
    case = n[:-1, :-1] + 2 * n[1:, :-1] + 4 * n[1:, 1:] + 8 * n[:-1, 1:]
    successor = {}
    for i, j in np.argwhere((case > 0) & (case < 15)).tolist():
        code = int(case[i, j])
        centre = Point(xs[i] + 0.5 * w.dx, ys[j] + 0.5 * w.dy)
        inside = code in (5, 10) and lemniscate_field(L, centre) < 0.0
        bottom, left = i * (w.ny + 1) + j, first_v + i * w.ny + j
        edges = (bottom, bottom + 1, left, left + w.ny)  # bottom, top, left, right
        for start, end in _SEGMENTS[code, int(inside)].tolist():
            if start >= 0:
                assert edges[start] not in successor
                successor[edges[start]] = edges[end]
    return ids, successor


def band_crossings(L, w):
    """The band's crossings in the form of dense_crossings."""
    xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
    ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
    ids, nxt = _crossings(L, w, xs, ys, *_band(L, w, xs, ys))
    ids = ids.tolist()
    return ids, {ids[r]: ids[k] for r, k in enumerate(nxt.tolist()) if k >= 0}


def raw_edges(L, w):
    """The end nodes a and b, as rows (M, 2), of the dense reference's
    crossed edges."""
    xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
    ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
    first_v = w.nx * (w.ny + 1)
    a, b = [], []
    for e in dense_crossings(L, w)[0].tolist():
        if e < first_v:
            i, j = divmod(e, w.ny + 1)
            a.append((xs[i], ys[j]))
            b.append((xs[i + 1], ys[j]))
        else:
            i, j = divmod(e - first_v, w.ny)
            a.append((xs[i], ys[j]))
            b.append((xs[i], ys[j + 1]))
    return np.array(a), np.array(b)


def scale_free_residual(L, contours):
    return max(float(field_residual(L, lemniscate_field_array(L, *c.points.T)).max()) for c in contours)


def scaled(L, s):
    return PolynomialLemniscate(tuple(Point(f.x * s, f.y * s) for f in L.foci), L.radius * s)


class TestRefine:
    def test_polishes_near_seed(self):
        p = refine(L, [(1.40, 0.01)], [(1.44, 0.01)])[0]
        assert abs(lemniscate_field(L, Point(*p))) <= 1e-12
        assert 1.40 <= p[0] <= 1.44 and p[1] == 0.01

    def test_on_curve_fixed_point(self):
        start = (math.sqrt(2.0), 0.0)
        other = (1.3, 0.0) if lemniscate_field(L, Point(*start)) >= 0.0 else (1.5, 0.0)
        p = refine(L, [start], [other])[0]
        assert math.dist(p, start) <= 1e-12

    @pytest.mark.parametrize(
        "lem, window",
        [(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 256, 256))]
        + [(lem, TraceWindow(-2.0, 2.0, -2.0, 2.0, 256, 256)) for lem in SEEDED],
    )
    def test_matches_scalar_illinois_on_raw_crossings(self, lem, window):
        a, b = raw_edges(lem, window)
        assert len(a) > 100
        got = refine(lem, a, b)
        expected = [reference_bracket(lem, p, q) for p, q in zip(a.tolist(), b.tolist())]
        assert got.tolist() == [list(p) for p in expected]
        # every root lies on its edge and on the curve, the two crossings
        # beside the Bernoulli double point included
        assert ((np.minimum(a, b) <= got) & (got <= np.maximum(a, b))).all()
        assert field_residual(lem, lemniscate_field_array(lem, *got.T)).max() <= 5e-13

    def test_matches_scalar_illinois_where_floats_run_out(self):
        # c = 1e-6 at offset 100: a coordinate step is 1.4e-8 c, too coarse
        # for 5e-13, so rows stop where their bracket's ends are adjacent floats
        config = BernoulliConfig(Point(100.0 - 1e-6, 0.0), Point(100.0 + 1e-6, 0.0))
        lem = config.lemniscate
        a, b = raw_edges(lem, bernoulli_window(config, 128, 1.6e-6 * math.sqrt(2.0), 0.8e-6 * math.sqrt(2.0)))
        got = refine(lem, a, b)
        expected = [reference_bracket(lem, p, q) for p, q in zip(a.tolist(), b.tolist())]
        assert got.tolist() == [list(p) for p in expected]
        assert ((np.minimum(a, b) <= got) & (got <= np.maximum(a, b))).all()
        assert field_residual(lem, lemniscate_field_array(lem, *got.T)).max() > 5e-13

    def test_empty_batch(self):
        out = refine(L, np.empty((0, 2)), np.empty((0, 2)))
        assert out.shape == (0, 2)

    def test_ends_must_straddle_the_curve(self):
        # both ends outside: the second segment holds no sign change
        with pytest.raises(ValueError, match="segment 1 "):
            refine(L, [(1.40, 0.01), (2.0, 0.0)], [(1.44, 0.01), (3.0, 0.0)])

    def test_ends_must_be_finite(self):
        # the product of squared focal distances passes the largest float
        with pytest.raises(ValueError, match="overflows a float at an end of segment 1$"):
            refine(L, [(1.40, 0.01), (1.40, 0.01)], [(1.44, 0.01), (1e100, 0.0)])


class TestTraceMemory:
    def test_peak_below_100_mb_at_grid_2048(self):
        # the field grid is evaluated by broadcasting the axes, with no
        # meshgrid copies; one float grid at 2049 x 2049 is 33.6 MB
        w = TraceWindow(-1.6, 1.6, -0.8, 0.8, 2048, 2048)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            trace(L, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


    def test_peak_below_5_5_mb_at_grid_2048(self):
        # only the 4 x 4-cell blocks that may hold the curve are evaluated,
        # so no array spans the 2049 x 2049 nodes
        w = TraceWindow(-1.6, 1.6, -0.8, 0.8, 2048, 2048)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            trace(L, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5e6


class TestBand:
    @pytest.mark.parametrize(
        "lem, window",
        [
            (L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 512, 512)),
            (L, TraceWindow(-1.63, 1.57, -0.81, 0.79, 511, 509)),
            (L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 9, 13)),
            (L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 1031, 17)),
            (L, TraceWindow(-0.5, 2.0, -0.9, 0.9, 128, 128)),
            # cut by the window's right and top edges, in short blocks
            (L, TraceWindow(-1.0, 1.3, -0.45, 0.4, 131, 77)),
            # two saddle cells each, centre inside and centre outside
            (PolynomialLemniscate(equilateral_foci(), 1.00001 / math.sqrt(3.0)),
             TraceWindow(-1.2, 1.2, -1.17, 1.23, 64, 67)),
            (PolynomialLemniscate(equilateral_foci(), 0.99999 / math.sqrt(3.0)),
             TraceWindow(-1.2, 1.2, -1.17, 1.23, 100, 103)),
        ]
        + [(lem, TraceWindow(-2.0, 2.0, -2.0, 2.0, 256, 256)) for lem in SEEDED]
        + [
            (scaled(lem, s), TraceWindow(-2.0 * s, 2.0 * s, -2.0 * s, 2.0 * s, 300, 301))
            for lem in (L, SEEDED[1])
            for s in (1e-6, 1e6)
        ],
    )
    def test_matches_dense_grid(self, lem, window):
        ids, successor = band_crossings(lem, window)
        dense_ids, dense_successor = dense_crossings(lem, window)
        assert len(ids) > 0
        assert ids == dense_ids.tolist()
        assert successor == dense_successor

    def test_block_test_leaves_out_most_of_the_window(self):
        w = TraceWindow(-1.6, 1.6, -0.8, 0.8, 512, 512)
        xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
        ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
        _, _, vals = _band(L, w, xs, ys)
        assert 0 < vals.size < 0.15 * 513 * 513

    def test_small_circle_inside_one_block(self):
        # a curve smaller than a block, away from every node, is still found
        small = PolynomialLemniscate((Point(0.0123, -0.0371),), 0.02)
        contours = trace(small, TraceWindow(-2.0, 2.0, -2.0, 2.0, 1024, 1024))
        assert len(contours) == 1
        assert contours[0].closed

    @given(
        foci=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=6),
        critical=st.integers(0, 4),
        scale=st.one_of(st.sampled_from([1.0, 1.0 - 1e-6, 1.0 + 1e-6]), st.floats(0.02, 0.3), st.floats(0.3, 3.0)),
        offset=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        half=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
        nx=st.integers(8, 90),
        ny=st.integers(8, 90),
    )
    # ovals smaller than one 4-cell block: a circle, and three foci well under
    # their critical level
    @example([(0.0123, -0.0371)], 0, 0.24, (0.0, 0.0), (2.0, 2.0), 90, 87)
    @example([(-0.5, 0.1), (0.4, 0.3), (0.1, -0.6)], 0, 0.343, (0.1, -0.2), (1.5, 1.3), 41, 66)
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_matches_dense_grid_on_random_lemniscates(self, foci, critical, scale, offset, half, nx, ny):
        # the level radius**n is scale times a critical level |p(z)|, where
        # p'(z) = 0 and p is the monic polynomial with the foci as roots;
        # one focus has none, and 0.25 stands in for it
        roots = np.array([complex(x, y) for x, y in foci])
        assume(all(abs(a - b) > 0.05 for k, a in enumerate(roots) for b in roots[:k]))
        p = np.poly(roots)
        levels = np.abs(np.polyval(p, np.roots(np.polyder(p)))) if len(foci) > 1 else [0.25]
        radius = float(scale * levels[critical % len(levels)]) ** (1.0 / len(foci))
        assume(radius > 1e-3)
        lem = PolynomialLemniscate(tuple(Point(x, y) for x, y in foci), radius)
        cx, cy = roots.mean().real + offset[0], roots.mean().imag + offset[1]
        w = TraceWindow(cx - half[0], cx + half[0], cy - half[1], cy + half[1], nx, ny)
        ids, successor = band_crossings(lem, w)
        dense_ids, dense_successor = dense_crossings(lem, w)
        assert ids == dense_ids.tolist()
        assert successor == dense_successor


class TestOrientation:
    # corners (0, 0), (1, 0), (1, 1), (0, 1) are case bits 0-3; the cell
    # edges as corner pairs, in the table's order bottom, top, left, right
    CORNERS = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    EDGES = ((0, 1), (3, 2), (0, 3), (1, 2))

    @pytest.mark.parametrize("code", range(1, 15))
    @pytest.mark.parametrize("centre_inside", [False, True])
    def test_case_table_puts_the_negative_side_on_the_left(self, code, centre_inside):
        # -1 at the negative corners and +1 at the others, shifted by a
        # quarter so that a saddle's bilinear centre value has the given sign
        v = np.array([-1.0 if code >> bit & 1 else 1.0 for bit in range(4)]) + (-0.25 if centre_inside else 0.25)

        def bilinear(p):
            x, y = p
            return v[0] * (1 - x) * (1 - y) + v[1] * x * (1 - y) + v[2] * x * y + v[3] * (1 - x) * y

        def crossing(edge):
            p, q = self.EDGES[edge]
            return self.CORNERS[p] + v[p] / (v[p] - v[q]) * (self.CORNERS[q] - self.CORNERS[p])

        segments = [(s, e) for s, e in _SEGMENTS[code, int(centre_inside)].tolist() if s >= 0]
        assert len(segments) == (2 if code in (5, 10) else 1)
        for start, end in segments:
            a, b = crossing(start), crossing(end)
            left = np.array((a[1] - b[1], b[0] - a[0])) / math.dist(a, b)
            mid = 0.5 * (a + b)
            assert bilinear(mid + 0.25 * left) < 0.0
            assert bilinear(mid - 0.25 * left) > 0.0

    def test_random_lemniscates_come_out_oriented(self):
        rng = random.Random(9)
        closed = opened = 0
        for _ in range(60):
            foci = tuple(Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(1, 6)))
            lem = PolynomialLemniscate(foci, rng.uniform(0.3, 1.3))
            x0, y0 = rng.uniform(-2.0, 0.0), rng.uniform(-2.0, 0.0)
            w = TraceWindow(x0, x0 + rng.uniform(0.5, 3.0), y0, y0 + rng.uniform(0.5, 3.0),
                            rng.randrange(33, 257, 2), rng.randrange(33, 257, 2))
            try:
                contours = trace(lem, w)
            except EmptyTrace:
                continue
            for c in contours:
                if c.closed:
                    closed += 1
                    assert _signed_area(c.points) > 0.0
                else:
                    # a quarter cell left of the first segment's midpoint is inside
                    opened += 1
                    a, b = c.points[0], c.points[1]
                    left = np.array((a[1] - b[1], b[0] - a[0])) / math.dist(a, b)
                    probe = 0.5 * (a + b) + 0.25 * min(w.dx, w.dy) * left
                    assert lemniscate_field(lem, Point(*probe)) < 0.0
        assert closed >= 10 and opened >= 10


class TestTraceCircle:
    def test_single_closed_contour(self):
        contours = trace(CIRCLE, TraceWindow(-2, 2, -2, 2, 128, 128))
        assert len(contours) == 1
        assert contours[0].closed

    def test_area_approaches_pi(self):
        contours = trace(CIRCLE, TraceWindow(-2, 2, -2, 2, 128, 128))
        assert contour_area(contours[0]) == pytest.approx(math.pi, rel=1e-3)

    def test_residual_bound(self):
        contours = trace(CIRCLE, TraceWindow(-2, 2, -2, 2, 128, 128))
        assert contours[0].max_residual <= 1e-10


class TestTraceBernoulli:
    def test_two_lobes_through_double_point(self):
        contours = trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 512, 512))
        assert len(contours) == 2
        assert all(c.closed for c in contours)
        for c in contours:
            assert np.hypot(c.points[:, 0], c.points[:, 1]).min() <= 1e-12
            assert c.max_residual <= 1e-10

    def test_total_area(self):
        contours = trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 512, 512))
        total = sum(contour_area(c) for c in contours)
        assert total == pytest.approx(bernoulli_area(B), rel=1e-3)

    def test_orientation_positive(self):
        contours = trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 256, 256))
        for c in contours:
            assert _signed_area(c.points) > 0.0

    def test_sorted_by_leftmost_point(self):
        contours = trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 256, 256))
        keys = [min(map(tuple, c.points.tolist())) for c in contours]
        assert keys == sorted(keys)

    def test_split_survives_misaligned_grids(self):
        # the double point is not a grid node here; snapping must still
        # separate the lobes
        windows = [
            TraceWindow(-1.63, 1.57, -0.81, 0.79, 511, 509),
            TraceWindow(-1.55, 1.62, -0.83, 0.77, 257, 251),
        ]
        for w in windows:
            contours = trace(L, w)
            assert len(contours) == 2
            assert all(c.closed for c in contours)
            total = sum(contour_area(c) for c in contours)
            assert total == pytest.approx(2.0, rel=2e-3)

    def test_split_loops_dedupe_across_the_cycle_start(self):
        # node (1, 4) lies a rounding error inside the left lobe at height
        # 1/16, so the figure-eight's first crossing, left of that node, and
        # its last, above it, both lie within rounding of the node; the loop
        # that holds them must keep no two consecutive vertices within 1e-12
        # cell diagonals
        y = 0.0625
        x = -math.sqrt(1.0 - y * y + math.sqrt(1.0 - 4.0 * y * y))  # (x^2 + y^2)^2 = 2 (x^2 - y^2)
        while lemniscate_field(L, Point(x, y)) >= 0.0:
            x = math.nextafter(x, 0.0)
        w = TraceWindow(x - 0.25, x + 3.0, y - 2.0, y + 2.0, 13, 8)
        contours = trace(L, w)
        assert len(contours) == 2 and all(c.closed for c in contours)
        for c in contours:
            assert np.hypot(*np.diff(c.points, axis=0).T).min() > 1e-12 * w.cell_diagonal

    def test_monotone_area_convergence(self):
        errors = []
        for grid in (128, 256, 512):
            contours = trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, grid, grid))
            total = sum(contour_area(c) for c in contours)
            errors.append(abs(total - 2.0))
        assert errors[2] <= errors[1] <= errors[0]

    def test_open_contour_when_clipped(self):
        contours = trace(L, TraceWindow(-0.5, 2.0, -0.9, 0.9, 128, 128))
        assert any(not c.closed for c in contours)


def pinned_batch():
    """300 seeded (lemniscate, window) pairs: 200 Bernoulli pairs, turned
    and scaled by 2**-10 to 2**10, and 100 lemniscates of 1 to 6 foci.
    Every other pair has its double point on a grid node of power-of-two
    spacing; pairs 100 on have radii 0, 1e-12 or 1e-10 off the double
    point's level."""
    rng = random.Random(1515)
    for k in range(300):
        grid = rng.randrange(16, 97)
        if k >= 200:
            foci = tuple(Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(1, 6)))
            L = PolynomialLemniscate(foci, rng.uniform(0.3, 1.3))
            box = [rng.uniform(-2.2, -1.0), rng.uniform(1.0, 2.2), rng.uniform(-2.2, -1.0), rng.uniform(1.0, 2.2)]
            yield L, TraceWindow(*box, rng.randrange(9, 97), rng.randrange(9, 97))
            continue
        c = 2.0 ** rng.uniform(-10, 10)
        turn = rng.uniform(0.0, math.tau)
        if k % 2:
            # the grid's nodes are exact multiples of dx, and node (i, j) is the origin
            dx = 2.0 ** math.floor(math.log2(3.0 * c / grid))
            o = (0.0, 0.0)
            i, j = rng.randrange(grid // 4, 3 * grid // 4), rng.randrange(grid // 4, 3 * grid // 4)
            box = [-i * dx, (grid - i) * dx, -j * dx, (grid - j) * dx]
        else:
            o = (rng.uniform(-5, 5) * c, rng.uniform(-5, 5) * c)
            h = rng.uniform(1.0, 1.8) * c * math.sqrt(2.0)
            box = [o[0] - h * rng.uniform(0.9, 1.1), o[0] + h * rng.uniform(0.9, 1.1)]
            box += [o[1] - h * rng.uniform(0.9, 1.1), o[1] + h * rng.uniform(0.9, 1.1)]
        v = (c * math.cos(turn), c * math.sin(turn))
        foci = (Point(o[0] - v[0], o[1] - v[1]), Point(o[0] + v[0], o[1] + v[1]))
        off = (0.0, 0.0, 1e-12, -1e-12, 1e-10, -1e-10)[k % 6] if k >= 100 else 0.0
        L = PolynomialLemniscate(foci, 0.5 * foci[0].distance_to(foci[1]) * (1.0 + off))
        yield L, TraceWindow(*box, grid, grid)


class TestPinnedBatch:
    def test_batch_is_pinned_bit_for_bit(self):
        # every vertex bit, each contour's order, direction, closedness and
        # residual, and each refusal's type and message
        digest = hashlib.sha256()
        for L, w in pinned_batch():
            try:
                contours = trace(L, w)
            except (GeometryError, ValueError) as exc:
                digest.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            for c in contours:
                digest.update(c.points.tobytes() + bytes([c.closed]) + np.float64(c.max_residual).tobytes())
        assert digest.hexdigest() == "f12b5be6bbea136fea44beacf8b1aedbea090cc137407ff781e43f44d032c518"


class TestTraceThreeFoci:
    def test_connectivity_transition(self):
        foci = equilateral_foci()
        critical = 1.0 / math.sqrt(3.0)
        w = TraceWindow(-1.2, 1.2, -1.2, 1.2, 256, 256)
        centroid = Point(0.0, 0.0)
        below = PolynomialLemniscate(foci, 0.9 * critical)
        above = PolynomialLemniscate(foci, 1.1 * critical)
        # oracle: the field sign at the centroid decides connectivity
        assert lemniscate_field(below, centroid) > 0.0
        assert len(trace(below, w)) == 3
        assert lemniscate_field(above, centroid) < 0.0
        assert len(trace(above, w)) == 1


    @pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-9, 1.0 - 1e-9])
    @pytest.mark.parametrize("grid", [64, 128, 256, 512])
    def test_critical_radius(self, factor, grid):
        # the three lobes touch at the centroid, where the gradient vanishes
        lem = PolynomialLemniscate(equilateral_foci(), factor / math.sqrt(3.0))
        contours = trace(lem, TraceWindow(-1.2, 1.2, -1.2, 1.2, grid, grid))
        assert contours and all(c.closed for c in contours)
        assert scale_free_residual(lem, contours) <= 5e-13


class TestTraceScale:
    @pytest.mark.parametrize(
        "c, offset",
        [(c, 0.0) for c in (1e-6, 1e-4, 1e-3, 1.0, 1e3)] + [(1.0, 1e2), (1.0, 1e3)],
    )
    def test_residual_is_scale_free(self, c, offset):
        config = BernoulliConfig(Point(offset - c, 0.0), Point(offset + c, 0.0))
        w = bernoulli_window(config, 256, 1.6 * c * math.sqrt(2.0), 0.8 * c * math.sqrt(2.0))
        contours = trace(config.lemniscate, w)
        assert len(contours) == 2 and all(c.closed for c in contours)
        assert scale_free_residual(config.lemniscate, contours) <= 5e-13
        total = sum(contour_area(k) for k in contours)
        assert total == pytest.approx(bernoulli_area(config), rel=1e-3)

    @pytest.mark.parametrize("c, offset", [(1e-6, 1e2), (1e-3, 1e3)])
    def test_bracket_stops_where_floats_run_out(self, c, offset, monkeypatch):
        # no float lies between a stalled bracket's ends, so no step can meet
        # 5e-13; without the stop each trace makes 69 field calls, 64 of them steps
        calls = []

        def counting(*args):
            calls.append(1)
            return lemniscate_field_array(*args)

        monkeypatch.setattr(tracer, "lemniscate_field_array", counting)
        config = BernoulliConfig(Point(offset - c, 0.0), Point(offset + c, 0.0))
        w = bernoulli_window(config, 512, 1.6 * c * math.sqrt(2.0), 0.8 * c * math.sqrt(2.0))
        contours = trace(config.lemniscate, w)
        assert len(contours) == 2 and all(k.closed for k in contours)
        assert len(calls) < 32

    def test_tiny_curve_keeps_its_vertices(self):
        # every vertex lies within 1e-12 of its neighbours; the dedupe
        # distance follows the cell size, so none is dropped for that
        config = BernoulliConfig(Point(-1e-13, 0.0), Point(1e-13, 0.0))
        w = bernoulli_window(config, 64, 1.6e-13 * math.sqrt(2.0), 0.8e-13 * math.sqrt(2.0))
        contours = trace(config.lemniscate, w)
        assert len(contours) == 2 and all(c.closed for c in contours)
        assert sum(len(c.points) for c in contours) > 100


class TestTraceErrors:
    def test_empty_window(self):
        with pytest.raises(EmptyTrace):
            trace(L, TraceWindow(5, 6, 5, 6, 16, 16))
        # around a focus inside a lobe: the block holding the focus is
        # evaluated, and has no sign change
        with pytest.raises(EmptyTrace):
            trace(L, TraceWindow(0.9, 1.1, -0.05, 0.05, 40, 40))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            TraceWindow(1, -1, 0, 1, 16, 16)
        with pytest.raises(ValueError):
            TraceWindow(-1, 1, -1, 1, 4, 16)


class TestContourArea:
    def test_unit_square(self):
        square = Contour([(0, 0), (1, 0), (1, 1), (0, 1)], True, 0.0)
        assert contour_area(square) == 1.0

    def test_polygon_limit_of_circle(self):
        n = 4096
        pts = [(math.cos(k * math.tau / n), math.sin(k * math.tau / n)) for k in range(n)]
        assert contour_area(Contour(pts, True, 0.0)) == pytest.approx(math.pi, abs=1e-5)

    def test_open_contour_rejected(self):
        chain = Contour([(0, 0), (1, 0)], False, 0.0)
        with pytest.raises(OpenContour):
            contour_area(chain)

    def test_contour_invariants(self):
        with pytest.raises(ValueError):
            Contour([(0, 0), (1, 0)], True, 0.0)
        with pytest.raises(ValueError):
            Contour([(0, 0), (0, 0), (1, 1)], False, 0.0)

    @pytest.mark.parametrize(
        "rows, closed",
        [
            ([(0, 0), (1, 0)], True),
            ([(0, 0)], False),
            ([(0, 0), (1, 0), (1, 0), (0, 1)], True),
            ([(0, 0), (1, 0), (1, 1), (1, 1)], False),
            ([(0, 0), (1, float("nan"))], False),
            ([0.0, 1.0, 2.0], False),
        ],
    )
    def test_contour_rejects(self, rows, closed):
        with pytest.raises(ValueError):
            Contour(rows, closed, 0.0)

    def test_contour_points_are_a_read_only_copy(self):
        rows = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
        c = Contour(rows, True, 0.0)
        assert c.points.shape == (3, 2) and c.points.dtype == float
        assert not c.points.flags.writeable
        with pytest.raises(ValueError):
            c.points[0, 0] = 5.0
        rows[0, 0] = 5.0
        assert c.points[0, 0] == 0.0


class TestDedupe:
    def test_tests_against_the_last_kept_vertex(self):
        # vertex 1 is within 1e-12 of vertex 0 and dropped; vertex 2 is
        # within 1e-12 of vertex 1 but not of vertex 0, the last kept one
        pts = np.array([(0.0, 0.0), (0.8e-12, 0.0), (1.6e-12, 0.0), (1.0, 0.0)])
        assert _dedupe(pts, 1e-12).tolist() == [[0.0, 0.0], [1.6e-12, 0.0], [1.0, 0.0]]
        # a previous-row mask would drop vertex 2 as well
        gap = np.hypot(*np.diff(pts, axis=0).T)
        assert len(pts[np.r_[True, gap > 1e-12]]) == 2

    def test_run_of_near_duplicates(self):
        pts = np.array([(0.0, 0.0), (0.3e-12, 0.0), (0.6e-12, 0.0), (0.9e-12, 0.0), (1.2e-12, 0.0), (2.0, 0.0)])
        assert _dedupe(pts, 1e-12).tolist() == [[0.0, 0.0], [1.2e-12, 0.0], [2.0, 0.0]]

    def test_far_vertices_are_kept(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
        assert _dedupe(pts, 1e-12).tolist() == pts.tolist()

    def test_matches_the_loop_on_random_chains(self):
        def reference(rows):
            kept = [rows[0]]
            for x, y in rows[1:]:
                if math.hypot(x - kept[-1][0], y - kept[-1][1]) > 1e-12:
                    kept.append((x, y))
            return [list(p) for p in kept]

        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(2, 12))
            steps = rng.choice([0.0, 0.3e-12, 0.7e-12, 1.5e-12, 1.0], size=(n, 1)) * rng.standard_normal((n, 2))
            pts = np.cumsum(steps, axis=0)
            assert _dedupe(pts, 1e-12).tolist() == reference(pts.tolist())


class TestSignedArea:
    def test_equals_the_sequential_shoelace_loop(self):
        # the same terms added in the same order, so the same float
        def reference(rows):
            acc = 0.0
            for (ax, ay), (bx, by) in zip(rows, rows[1:] + rows[:1]):
                acc += ax * by - bx * ay
            return 0.5 * acc

        rng = np.random.default_rng(3)
        for n in (3, 4, 17, 1000):
            pts = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-3, 4)
            assert _signed_area(pts) == reference(pts.tolist())


class TestCsv:
    def test_round_trip_exact(self):
        contours = trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 64, 64))
        text = contours_to_csv(contours)
        groups = contours_from_csv(text)
        assert len(groups) == len(contours)
        assert all(g.shape == c.points.shape for g, c in zip(groups, contours))
        for contour, group in zip(contours, groups):
            assert len(contour.points) == len(group)
            for p, q in zip(contour.points, group):
                assert p[0] == q[0] and p[1] == q[1]

    def test_matches_per_vertex_repr(self):
        # the per-vertex f-string the writer replaced, as the reference
        rng = np.random.default_rng(17)
        rows = rng.choice([-1.0, 1.0], (200, 2)) * 10.0 ** rng.uniform(-300, 300, (200, 2))
        rows[:6] = [(-0.0, 0.0), (1e-300, -1e300), (5e-324, 0.1), (1e300, 2.0 / 3.0), (-1e-300, 1.0), (3.0, -0.0)]
        contours = [Contour(rows[:120], True, 0.0), Contour(rows[120:], False, 0.0)]
        contours += trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 64, 64))
        expected = "\n\n".join("\n".join(f"{x!r},{y!r}" for x, y in c.points.tolist()) for c in contours) + "\n"
        assert contours_to_csv(contours) == expected

    def test_format_shape(self):
        text = contours_to_csv(
            [Contour([(0, 0), (1, 0), (1, 1)], True, 0.0)]
        )
        assert text == "0.0,0.0\n1.0,0.0\n1.0,1.0\n"
