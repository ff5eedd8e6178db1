"""Tracer tests: extraction topology, refinement, area, CSV round trip."""

import hashlib
import itertools
import math
import random
import re
import tracemalloc
import warnings

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
from lemniscate.curves import _log_derivatives, field_residual, lemniscate_field_array
from lemniscate.errors import EmptyTrace, GeometryError, OpenContour
from lemniscate.geometry import row_norm
from lemniscate.tracer import (
    _CHUNK,
    _SEGMENTS,
    _band,
    _contours_text,
    _crossings,
    _dedupe,
    _edge_ends,
    _extract_chains,
    _leftmost_lowest,
    _signed_area,
    bernoulli_window,
    trace_levels,
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


def family3(grid):
    """The family3 figure's nine curves and its window at grid."""
    ratio = (1.4 / 0.7) ** (1.0 / 8.0)
    curves = [PolynomialLemniscate(equilateral_foci(), 1.0 / math.sqrt(3.0) * 0.7 * ratio**k) for k in range(9)]
    return curves, TraceWindow(-1.15, 1.15, -1.15, 1.15, grid, grid)


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
    ids, nxt = _crossings(L, w, xs, ys, _band(L, w, xs, ys))
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


def two_level_band(L, w, xs, ys):
    """The origins (i, j) of the 4-cell blocks that a band of two levels
    keeps: the block test on the window's tiling by 16-cell blocks, then on
    the 4 x 4 blocks inside each one kept."""
    bx, by = np.arange(0, w.nx, 16), np.arange(0, w.ny, 16)
    bi, bj = np.nonzero(tracer._uncertified(L, *tracer._box(xs, bx[:, None], 16, w.nx), *tracer._box(ys, by, 16, w.ny)))
    sx, sy = bx[bi] + np.arange(0, 16, 4)[:, None], by[bj] + np.arange(0, 16, 4)[:, None]
    test = tracer._uncertified(L, *tracer._box(xs, sx[:, None], 4, w.nx), *tracer._box(ys, sy[None], 4, w.ny))
    a, b, k = np.nonzero((sx[:, None] < w.nx) & (sy[None] < w.ny) & test)
    return set(zip(sx[a, k].tolist(), sy[b, k].tolist()))


def scale_free_residual(L, contours):
    return max(float(field_residual(L, lemniscate_field_array(L, *c.points.T)).max()) for c in contours)


def vertex_floor(L, points):
    """The bound on each vertex's field_residual that floats allow:
    5e-13 + 2 |g'(z)| max(ulp(x), ulp(y)), with g' = sum 1 / (z - f_k).
    One float step dz moves log|p| by about |g'| |dz|, and refine stops
    where its bracket's ends are adjacent floats; the 2 is margin. A vertex
    snapped onto a singular point, where g' = 0, is held to on_curve's 5e-10,
    the tolerance by which the snap takes that point."""
    x, y = points[:, 0], points[:, 1]
    g1, _ = _log_derivatives(L, x + 1j * y)
    floor = 5e-13 + 2.0 * np.abs(g1) * np.maximum(np.spacing(np.abs(x)), np.spacing(np.abs(y)))
    snapped = (points[:, None] == tracer._singular_points(L)).all(axis=2).any(axis=1)
    return np.where(snapped, 5e-10, floor)


def assert_vertex_contract(L, contours):
    for c in contours:
        assert (field_residual(L, lemniscate_field_array(L, *c.points.T)) <= vertex_floor(L, c.points)).all()


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

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.ones((2, 3)), np.ones((2, 3))),
            ([(1.40, 0.01)], [(1.44, 0.01), (1.44, 0.02)]),
            ((1.40, 0.01), (1.44, 0.01)),
        ],
        ids=["coordinate-major", "row-counts-differ", "one-dimensional"],
    )
    def test_ends_must_be_rows_of_one_length(self, a, b):
        # a (2, 3) array is three points stored coordinate-major, and reshaped it would be three others
        shapes = f"got shapes {np.shape(a)} and {np.shape(b)}"
        with pytest.raises(ValueError, match=f"^segment ends must be \\(M, 2\\) rows of one M, {re.escape(shapes)}$"):
            refine(L, a, b)

    def test_batches_match_calls_of_1000_rows(self):
        # 10,000 segments from a seeded point inside the curve to one outside, every
        # other one reversed: the bracket runs on them in batches of at most 4,096
        points = np.random.default_rng(29).uniform((-1.6, -0.8), (1.6, 0.8), size=(40_000, 2))
        inside = lemniscate_field_array(L, *points.T) < 0.0
        a, b = points[inside][:10_000].copy(), points[~inside][:10_000].copy()
        a[::2], b[::2] = b[::2].copy(), a[::2].copy()
        got = refine(L, a, b)
        calls = np.concatenate([refine(L, a[k : k + 1000], b[k : k + 1000]) for k in range(0, 10_000, 1000)])
        assert got.tobytes() == calls.tobytes()
        # the ends are checked over every row first, so a refusal names the row in the whole list
        b[9_000] = a[9_000]
        with pytest.raises(ValueError, match="^the ends of segment 9000 "):
            refine(L, a, b)
        b[5_000] = (1e100, 0.0)
        with pytest.raises(ValueError, match="overflows a float at an end of segment 5000$"):
            refine(L, a, b)

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_rows_do_not_depend_on_their_batch_or_order(self, monkeypatch, batch):
        # one trace's crossed edges, shuffled: each row's bracket is its own,
        # however the rows are batched and compacted around it
        w = bernoulli_window(B, 128, 1.6 * math.sqrt(2.0), 0.8 * math.sqrt(2.0))
        xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
        ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
        a, b = _edge_ends(w, xs, ys, _crossings(L, w, xs, ys, _band(L, w, xs, ys))[0])
        expected = refine(L, a, b)
        shuffle = np.random.default_rng(batch).permutation(len(a))
        monkeypatch.setattr(tracer, "_BATCH", batch)
        assert refine(L, a[shuffle], b[shuffle]).tobytes() == expected[shuffle].tobytes()


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of the call fn(*args)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTraceMemory:
    def test_peak_below_5_5_mb_at_grid_2048(self):
        # only the 4 x 4-cell blocks that may hold the curve are evaluated, each by broadcasting its
        # axes with no meshgrid copies, so no array spans the 2049 x 2049 nodes (33.6 MB a float grid)
        w = TraceWindow(-1.6, 1.6, -0.8, 0.8, 2048, 2048)
        assert traced_peak(trace, L, w) < 5.5e6

    @pytest.mark.parametrize("grid, bound", [(1024, 0.85e6), (2048, 1.31e6), (8192, 7.5e6), (16384, 6.5e6)])
    def test_peak_in_the_default_window(self, grid, bound):
        # the band's signs and segment ends are built _CHUNK blocks at a
        # time, its field half a run at a time, and a run's cell arrays are
        # dropped before the next is evaluated; its tests go coarse to fine
        # over 4,096 kept blocks at a time, and refine brackets 4,096 rows at
        # a time, dropping a step's temporaries before it compacts its state
        # one array at a time; so the peak follows the output, 16 bytes a
        # vertex (0.77, 1.19, 3.38 and 5.52 MB; at 16384 np.unique's ranking
        # of the segment ends sets it)
        w = bernoulli_window(B, grid, 1.6 * math.sqrt(2.0), 0.8 * math.sqrt(2.0))
        trace(L, bernoulli_window(B, 64, 1.6 * math.sqrt(2.0), 0.8 * math.sqrt(2.0)))
        assert traced_peak(trace, L, w) < bound

    def test_nine_levels_in_one_pass(self):
        # family3's nine levels share one band and refine whole levels,
        # 4,096 rows at most, at a time: 1.15 MB, against 1.70 MB when all
        # nine levels go to refine as one call
        curves, w = family3(512)
        trace_levels(curves, w)
        assert traced_peak(trace_levels, curves, w) < 1.27e6

    def test_refine_holds_one_copy_of_its_state(self):
        # a bracket of 4,096 rows drops each step's temporaries before it
        # compacts its eleven state arrays one at a time: 0.80 MB above its
        # inputs, against 0.98 MB when the compacted copies are all built first
        points = np.random.default_rng(29).uniform((-1.6, -0.8), (1.6, 0.8), size=(20_000, 2))
        inside = lemniscate_field_array(L, *points.T) < 0.0
        a, b = points[inside][:4096].copy(), points[~inside][:4096].copy()
        refine(L, a, b)
        assert traced_peak(refine, L, a, b) < 0.88e6


class TestBand:
    @pytest.mark.parametrize("grid", [64, 128, 257, 512])
    @pytest.mark.parametrize("lem", [L, SEEDED[2]], ids=["bernoulli", "five_foci"])
    def test_certifying_in_runs_traces_alike(self, monkeypatch, lem, grid):
        # up to grid 512 the band has two levels; with 5 kept blocks a run it
        # certifies the second in several runs, and refine brackets 5 rows at a time
        w = TraceWindow(-2.0, 2.0, -2.0, 2.0, grid, grid)
        expected = trace(lem, w)
        calls = []

        def counting(*args):
            calls.append(args)
            return uncertified(*args)

        uncertified = tracer._uncertified
        monkeypatch.setattr(tracer, "_uncertified", counting)
        monkeypatch.setattr(tracer, "_BATCH", 5)
        got = trace(lem, w)
        assert len(calls) > 2  # one test of the top block, then more than one run of the level below
        assert [(c.points.tobytes(), c.closed, c.max_residual) for c in got] == [
            (c.points.tobytes(), c.closed, c.max_residual) for c in expected
        ]

    @pytest.mark.parametrize("grid", [256, 1024, 2048])
    def test_half_runs_trace_as_one_field_call_a_run(self, monkeypatch, grid):
        # a run's node signs come from field calls of _CHUNK // 2 blocks each; runs whose block
        # count is odd or not a multiple of 512 (family3's last runs of 741 and 97 blocks at grids
        # 256 and 1024, the curve's 780 and 844 at 1024 and 2048) trace as one call a run gives
        runs, band = [], tracer._band

        def recording(*args):
            for run in band(*args):
                runs.append(run[2].shape[-1])
                yield run

        def traced():
            key = [(c.points.tobytes(), c.closed, c.max_residual) for c in trace(L, w)]
            return key, [[(c.points.tobytes(), c.closed, c.max_residual) for c in k] for k in trace_levels(*family)]

        w, family = bernoulli_window(B, grid, 1.6 * math.sqrt(2.0), 0.8 * math.sqrt(2.0)), family3(grid)
        monkeypatch.setattr(tracer, "_band", recording)
        expected = traced()
        assert any(k % 2 for k in runs) and any(k % 512 and k > 512 for k in runs)
        monkeypatch.setattr(tracer, "_CHUNK", 10**9)
        assert traced() == expected

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
        vals = np.concatenate([neg for _, _, neg in _band(L, w, xs, ys)], axis=-1)
        assert 0 < vals.size < 0.15 * 513 * 513

    @pytest.mark.parametrize(
        "nx, ny",
        [(8, 8), (9, 31), (31, 9), (100, 100), (513, 1000), (1000, 513), (2048, 2048), (4096, 8), (9, 4096), (4096, 4096)],
    )
    def test_levels_keep_the_blocks_of_the_two_level_band(self, nx, ny):
        # seeded lemniscates with 1 to 6 foci, and a Bernoulli pair at its
        # double-point level, placed by a seeded similarity
        rng = random.Random(nx * 10_007 + ny)
        lems = [
            PolynomialLemniscate(tuple(Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)), rng.uniform(0.3, 1.2))
            for n in range(1, 7)
        ]
        c, turn, ox, oy = 10.0 ** rng.uniform(-3, 3), rng.uniform(0.0, math.pi), rng.uniform(-5, 5), rng.uniform(-5, 5)
        u = Point(c * math.cos(turn), c * math.sin(turn))
        double = BernoulliConfig(Point(ox * c - u.x, oy * c - u.y), Point(ox * c + u.x, oy * c + u.y)).lemniscate
        for lem in lems + [double]:
            s = c if lem is double else 1.0
            cx, cy = sum(f.x for f in lem.foci) / lem.n, sum(f.y for f in lem.foci) / lem.n
            w = TraceWindow(cx - 1.7 * s, cx + 1.6 * s, cy - 1.4 * s, cy + 1.5 * s, nx, ny)
            xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
            ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
            kept = {(i, j) for ci, cj, _ in _band(lem, w, xs, ys) for i, j in zip(ci[0].tolist(), cj[0].tolist())}
            assert kept
            assert kept == two_level_band(lem, w, xs, ys)

    @pytest.mark.parametrize(
        "nx, ny, levels",
        [(8, 8, 2), (512, 512, 2), (9, 512, 2), (513, 8, 3), (2048, 2048, 3), (8, 2049, 4), (8192, 8192, 4), (8193, 9, 5)],
    )
    def test_top_blocks_are_the_least_with_at_most_32_a_side(self, monkeypatch, nx, ny, levels):
        # the top blocks have 16, 64, 256 ... cells a side, and each level
        # down to 4 cells is tested, so the sizes tested give the top size
        sizes, runs = [], []

        def sizing(v, start, cells, n):
            sizes.append(cells)
            return box(v, start, cells, n)

        def counting(L, x0, x1, y0, y1):
            runs.append(x0.shape[-1])  # the kept blocks whose sub-blocks this run tests
            return uncertified(L, x0, x1, y0, y1)

        box, uncertified = tracer._box, tracer._uncertified
        monkeypatch.setattr(tracer, "_box", sizing)
        monkeypatch.setattr(tracer, "_uncertified", counting)
        w = TraceWindow(-1.6, 1.6, -0.8, 0.8, nx, ny)
        list(_band(L, w, np.linspace(w.xmin, w.xmax, nx + 1), np.linspace(w.ymin, w.ymax, ny + 1)))
        assert sorted(set(sizes)) == [4 * 4**k for k in range(levels)]
        # a level tests at most _BATCH kept blocks a run; in this window that is one run a level up to 2049 a side
        assert max(runs) <= tracer._BATCH
        assert len(runs) == levels or max(nx, ny) > 2049

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

    def test_complement_case_reverses_every_segment(self):
        # every sign flips in case 15 - k, the centre's too
        for code in range(16):
            for centre in (0, 1):
                segments = {tuple(s) for s in _SEGMENTS[code, centre].tolist() if s[0] >= 0}
                complement = {tuple(s) for s in _SEGMENTS[15 - code, 1 - centre].tolist() if s[0] >= 0}
                assert complement == {(end, start) for start, end in segments}

    def test_only_saddles_depend_on_the_centre(self):
        for code in range(16):
            if code not in (5, 10):
                assert _SEGMENTS[code, 0].tolist() == _SEGMENTS[code, 1].tolist()
        for code in (5, 10):
            assert {tuple(s) for s in _SEGMENTS[code, 0].tolist()} != {tuple(s) for s in _SEGMENTS[code, 1].tolist()}

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
            assert_vertex_contract(lem, contours)
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

    def test_unsplit_cycle_dedupes_its_closing_edge(self):
        # node (1, 5) lies a rounding error inside the left lobe at height
        # 1/32, so the lobe's first crossing, left of that node, and its
        # last, below it, both lie within rounding of the node; the closing
        # edge, from the last vertex back to the first, must be no shorter
        # than 1e-12 cell diagonals either
        y = 0.03125
        x = -math.sqrt(1.0 - y * y + math.sqrt(1.0 - 4.0 * y * y))
        while lemniscate_field(L, Point(x, y)) >= 0.0:
            x = math.nextafter(x, 0.0)
        w = TraceWindow(x - 0.0625, x - 0.0625 + 3.0, y - 0.625, y + 0.625, 48, 10)
        contours = trace(L, w)
        assert len(contours) == 2 and all(c.closed for c in contours)
        for c in contours:
            ring = np.vstack((c.points, c.points[:1]))
            assert np.hypot(*np.diff(ring, axis=0).T).min() > 1e-12 * w.cell_diagonal

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


def lexsort_key(c):
    """The key traced contours were sorted by before trace read x and y as
    columns: the leftmost-lowest row, found by np.lexsort."""
    return tuple(c.points[np.lexsort(c.points.T[::-1])[0]].tolist())


def tied_contours(seed):
    """12 seeded open contours whose coordinates come from five values,
    -0.0 and 0.0 among them, so that many share their least x and some
    their leftmost-lowest point."""
    rng = np.random.default_rng(seed)
    values = np.array([-1.5, -0.0, 0.0, 0.25, 1.0])
    contours = []
    while len(contours) < 12:
        pts = values[rng.integers(0, len(values), (int(rng.integers(2, 7)), 2))]
        pts = pts[np.r_[True, (pts[1:] != pts[:-1]).any(axis=1)]]
        if len(pts) >= 2:
            contours.append(Contour(pts, False, 0.0))
    return contours


class TestContourOrder:
    @pytest.mark.parametrize("seed", range(30))
    def test_orders_as_the_lexsort_key(self, seed):
        contours = tied_contours(seed)
        by_lexsort = sorted(range(12), key=lambda k: lexsort_key(contours[k]))
        assert sorted(range(12), key=lambda k: _leftmost_lowest(contours[k])) == by_lexsort

    def test_seeded_sets_hold_every_kind_of_tie(self):
        ties = {"x": 0, "zero signs": 0, "keys": 0}
        for seed in range(30):
            contours = tied_contours(seed)
            keys = [lexsort_key(c) for c in contours]
            ties["x"] += len({x for x, _ in keys}) < len(keys)
            ties["zero signs"] += len({math.copysign(1.0, x) for x, _ in keys if x == 0.0}) == 2
            ties["keys"] += len(set(keys)) < len(keys)
        assert min(ties.values()) >= 5, ties

    def test_zero_signs_and_equal_keys_keep_their_order(self):
        # a and b share the key (0, 1) with x of either sign; c and d share
        # (0, -1), c's least x being both -0.0 and 0.0; the sort is stable
        a = Contour([(0.0, 1.0), (2.0, 0.0)], False, 0.0)
        b = Contour([(-0.0, 1.0), (1.0, 3.0)], False, 0.0)
        c = Contour([(3.0, 0.0), (0.0, -1.0), (-0.0, 2.0)], False, 0.0)
        d = Contour([(1.0, 1.0), (-0.0, -1.0)], False, 0.0)
        for order in itertools.permutations([a, b, c, d]):
            got = sorted(order, key=_leftmost_lowest)
            assert [id(k) for k in got] == [id(k) for k in sorted(order, key=lexsort_key)]
            assert [k for k in got if k in (a, b)] == [k for k in order if k in (a, b)]


def reference_assembly(lem, w, singular):
    """trace's steps after its crossings are placed, with the expressions
    over rows it used before it read x and y as columns: the snap of each
    crossing onto the first singular row within a cell diagonal, the split
    of closed chains at singular points, the dedupe and the order."""
    xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
    ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
    ids, nxt = _crossings(lem, w, xs, ys, _band(lem, w, xs, ys))
    coords = refine(lem, *_edge_ends(w, xs, ys, ids))
    near = row_norm(coords[:, None] - singular) <= w.cell_diagonal
    coords = np.where(near.any(axis=1)[:, None], singular[near.argmax(axis=1)], coords)
    out = []
    for rows, closed in _extract_chains(nxt):
        pts = coords[rows]
        on = (pts[:, None] == singular).all(axis=2).any(axis=1)
        meets = np.flatnonzero(on & (pts != np.roll(pts, 1, axis=0)).any(axis=1))
        split = closed and len(meets) >= 2
        for piece in np.split(np.roll(pts, -meets[0], axis=0), meets[1:] - meets[0]) if split else [pts]:
            piece = _dedupe(piece, 1e-12 * w.cell_diagonal, closed)
            if len(piece) >= (3 if closed else 2):
                out.append(Contour(piece, closed, 0.0))
    return sorted(out, key=lexsort_key)


class TestSnapToSingularRows:
    """Only the Bernoulli double point is a singular point today; these
    stand in two rows, as a trace that snaps to every critical point on
    the level will return."""

    @staticmethod
    def assert_matches_reference(monkeypatch, lem, w, singular):
        monkeypatch.setattr(tracer, "_singular_points", lambda _: singular)
        got = trace(lem, w)
        want = reference_assembly(lem, w, singular)
        assert [(c.points.tobytes(), c.closed) for c in got] == [(c.points.tobytes(), c.closed) for c in want]
        return got

    @pytest.mark.parametrize("first", [0, 1])
    def test_first_row_within_reach_decided_on_refined_coordinates(self, monkeypatch, first):
        # of the arc's crossings, s1 reaches p alone and s2 reaches p and q,
        # while s1 and s2 reach each other, so a crossing snapped to one row
        # would be within reach of the other
        w = TraceWindow(0.25, 1.5, -1.25, 1.25, 16, 16)
        (arc,) = trace(CIRCLE, w)
        d = w.cell_diagonal
        p, q = arc.points[15], arc.points[16]
        s1 = p + 0.7 * d * p / np.hypot(*p)  # off the unit circle, away from its centre
        s2 = 0.5 * (p + q)
        assert np.flatnonzero(np.hypot(*(arc.points - s1).T) <= d).tolist() == [15]
        assert np.flatnonzero(np.hypot(*(arc.points - s2).T) <= d).tolist() == [15, 16]
        assert np.hypot(*(s1 - s2)) <= d
        singular = np.array([s1, s2] if first == 0 else [s2, s1])
        (got,) = self.assert_matches_reference(monkeypatch, CIRCLE, w, singular)
        # q snaps to s2, and p to the first row: to s2 as well when s2 comes first
        assert not got.closed and (got.points == s2).all(axis=1).sum() == 1
        assert (got.points == s1).all(axis=1).any() == (first == 0)

    def test_closed_chain_splits_at_two_rows(self, monkeypatch):
        w = TraceWindow(-1.5, 1.5, -1.5, 1.5, 16, 16)
        (circle,) = trace(CIRCLE, w)
        n = len(circle.points)
        singular = np.array([1.001 * circle.points[0], 0.999 * circle.points[n // 2]])
        got = self.assert_matches_reference(monkeypatch, CIRCLE, w, singular)
        # one loop from each meeting to the next, each starting at its row
        assert len(got) == 2 and all(c.closed for c in got)
        assert sorted(c.points[0].tolist() for c in got) == sorted(singular.tolist())


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
            assert_vertex_contract(L, contours)
            for c in contours:
                digest.update(c.points.tobytes() + bytes([c.closed]) + np.float64(c.max_residual).tobytes())
        assert digest.hexdigest() == "f12b5be6bbea136fea44beacf8b1aedbea090cc137407ff781e43f44d032c518"

    def test_six_foci_over_many_band_runs_is_pinned_bit_for_bit(self):
        # five ovals in a 3001 x 2897 grid: the band comes in four runs
        foci = [(-1.1, 0.2), (-0.4, 0.9), (0.5, 0.7), (1.0, -0.3), (0.1, -0.8), (-0.6, -0.5)]
        lem = PolynomialLemniscate(tuple(Point(x, y) for x, y in foci), 0.9)
        w = TraceWindow(-2.3, 2.2, -2.1, 2.15, 3001, 2897)
        xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
        ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
        assert sum(ci.shape[1] for ci, _, _ in _band(lem, w, xs, ys)) > 3 * _CHUNK
        contours = trace(lem, w)
        assert [c.closed for c in contours] == [True] * 5
        assert_vertex_contract(lem, contours)
        digest = hashlib.sha256()
        for c in contours:
            digest.update(c.points.tobytes() + bytes([c.closed]) + np.float64(c.max_residual).tobytes())
        assert digest.hexdigest() == "b301813dfafcc96915768d61899e89feb0122e5eccba4ccaf017b6b889060c91"


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


class TestVertexContract:
    @pytest.mark.parametrize("c, offset", [(1e-6, 1e2), (1e-3, 1e3)])
    def test_holds_where_floats_run_out(self, c, offset):
        # most vertices exceed 5e-13 here, yet each meets the floor; 4 ulps
        # further out in x, most do not, so the floor is not slack
        config = BernoulliConfig(Point(offset - c, 0.0), Point(offset + c, 0.0))
        L = config.lemniscate
        contours = trace(L, bernoulli_window(config, 512, 1.6 * c * math.sqrt(2.0), 0.8 * c * math.sqrt(2.0)))
        assert_vertex_contract(L, contours)
        points = np.concatenate([k.points for k in contours])
        assert (field_residual(L, lemniscate_field_array(L, *points.T)) > 5e-13).mean() > 0.5
        moved = points.copy()
        moved[:, 0] += 4.0 * np.sign(moved[:, 0] - offset) * np.spacing(np.abs(moved[:, 0]))
        assert (field_residual(L, lemniscate_field_array(L, *moved.T)) > vertex_floor(L, moved)).mean() > 0.5

    def test_a_snapped_singular_vertex_is_held_to_on_curve(self):
        # 1e-10 off the double point's level, the snap still takes the double
        # point, whose residual 2e-10 is far above the float floor there
        config = BernoulliConfig(Point(-1.0, 0.0), Point(1.0, 0.0))
        L = PolynomialLemniscate(config.lemniscate.foci, 1.0 + 1e-10)
        contours = trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 64, 64))
        assert all([0.0, 0.0] in k.points.tolist() for k in contours)
        assert 1e-10 < scale_free_residual(L, contours) <= 5e-10
        assert_vertex_contract(L, contours)


class TestTraceErrors:
    def test_empty_window(self):
        with pytest.raises(EmptyTrace):
            trace(L, TraceWindow(5, 6, 5, 6, 16, 16))
        # around a focus inside a lobe: the block holding the focus is
        # evaluated, and has no sign change
        with pytest.raises(EmptyTrace):
            trace(L, TraceWindow(0.9, 1.1, -0.05, 0.05, 40, 40))

    def test_every_chain_collapsed(self):
        # ovals of radius 1e-16 about foci on grid nodes: every crossing
        # refines onto its focus, so each chain dedupes to one vertex
        tiny = PolynomialLemniscate((Point(0.0, 0.0), Point(1.0, 0.0)), 1e-8)
        with pytest.raises(EmptyTrace, match="every traced chain collapses"):
            trace(tiny, TraceWindow(-1.0, 3.0, -2.0, 2.0, 512, 512))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            TraceWindow(1, -1, 0, 1, 16, 16)
        with pytest.raises(ValueError):
            TraceWindow(-1, 1, -1, 1, 4, 16)

    @pytest.mark.parametrize("nx, ny", [(8.5, 8), (16.0, 16), (16, np.float64(16.0))])
    def test_cell_counts_must_be_integers(self, nx, ny):
        # np.linspace would refuse them inside trace with a bare TypeError
        with pytest.raises(ValueError, match=f"^window cell counts must be integers, got nx={re.escape(repr(nx))}, "):
            TraceWindow(-2, 2, -1, 1, nx, ny)

    def test_numpy_integer_cell_counts(self):
        got = trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, np.int64(64), np.int32(48)))
        expected = trace(L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 64, 48))
        assert [c.points.tobytes() for c in got] == [c.points.tobytes() for c in expected]
        with pytest.raises(ValueError, match="^window needs at least 8 cells per axis$"):
            TraceWindow(-2, 2, -1, 1, np.int64(4), 16)

    @pytest.mark.parametrize(
        "bounds",
        [(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, math.nan, 1.0), (0.0, math.inf, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0)],
        ids=["reversed", "nan", "infinite", "empty"],
    )
    def test_one_window_refusal_names_the_bounds(self, bounds):
        named = ",".join(map(repr, bounds))
        with pytest.raises(ValueError, match=f"^window {re.escape(named)} needs xmax > xmin and ymax > ymin, "):
            TraceWindow(*bounds, 16, 16)

    def test_view_window_that_rounds_empty_names_the_foci(self):
        # 0.8 c sqrt(2) added to 1e300 rounds back onto it: the view has no height
        B = BernoulliConfig(Point(-1.0, 1e300), Point(0.0, 1e300))
        foci = "Point(x=-1.0, y=1e+300), Point(x=0.0, y=1e+300)"
        with pytest.raises(ValueError, match=f"^the view about foci {re.escape(foci)}: window "):
            bernoulli_window(B, 32, 1.6 * math.sqrt(2.0), 0.8 * math.sqrt(2.0))


def one_by_one(trace_all, curves, w):
    """What trace_all gives for curves in w, each contour as its points' bytes, closed and
    max_residual; or the type and message of its refusal."""
    try:
        return [[(c.points.tobytes(), c.closed, c.max_residual) for c in level] for level in trace_all(curves, w)]
    except (EmptyTrace, ValueError) as exc:
        return type(exc), str(exc)


def trace_each(curves, w):
    return [trace(L, w) for L in curves]


def seeded_family(seed):
    """2 to 6 random foci in [-1, 1]^2 and 2 to 12 radii about one another; with two foci,
    the Bernoulli curve's radius lies between two of them."""
    rng = random.Random(seed)
    foci = tuple(Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(2, 6)))
    scale = BernoulliConfig(*foci).half_distance if len(foci) == 2 else rng.uniform(0.6, 1.0)
    radii = sorted(scale * rng.uniform(0.7, 1.4) for _ in range(rng.randint(2, 12 - (len(foci) == 2))))
    if len(foci) == 2:
        radii.insert(rng.randint(1, len(radii) - 1), scale)
    return [PolynomialLemniscate(foci, r) for r in radii]


class TestTraceLevels:
    @pytest.mark.parametrize("grid", [8, 33, 64, 512, 1024])
    def test_family3_traces_as_its_curves_one_by_one(self, grid, monkeypatch):
        curves, w = family3(grid)
        want, runs = one_by_one(trace_each, curves, w), []
        monkeypatch.setattr(tracer, "refine", lambda L, a, b: runs.append(len(a)) or refine(L, a, b))
        assert one_by_one(trace_levels, curves, w) == want
        # whole levels, as many as a batch holds, go to refine as one run
        assert len(runs) < len(curves) and max(runs) <= tracer._BATCH

    @pytest.mark.parametrize("batch", [None, 5, 64])
    def test_seeded_families_trace_as_their_curves_one_by_one(self, batch, monkeypatch):
        if batch:
            monkeypatch.setattr(tracer, "_BATCH", batch)
        w = TraceWindow(-2.0, 2.0, -1.5, 1.5, 40, 32)
        for seed in (0, 2, 4, 7, 9, 17, 19, 36):  # 2 to 6 foci, 2 to 12 radii, and two families of 2 foci
            curves = seeded_family(seed)
            got = one_by_one(trace_levels, curves, w)
            assert isinstance(got, list) and got == one_by_one(trace_each, curves, w), seed

    @pytest.mark.parametrize("grid", [64, 65])
    def test_the_bernoulli_level_splits_alone(self, grid):
        # the double point's level splits into two lobes, snapped at the
        # midpoint; its neighbours, a hair off that level, are traced as
        # alone. At grid 65 the double point is the centre of a saddle cell,
        # whose segments follow the sign there at each level's own value
        B = BernoulliConfig(Point(-0.3, 0.2), Point(0.9, -0.4))
        curves = [PolynomialLemniscate((B.f1, B.f2), B.half_distance * s) for s in (1.001, 1.0, 0.999, 1.001)]
        w = bernoulli_window(B, grid, 1.6 * B.half_distance * math.sqrt(2.0), 0.8 * B.half_distance * math.sqrt(2.0))
        assert [len(level) for level in trace_levels(curves, w)] == [1, 2, 2, 1]
        assert one_by_one(trace_levels, curves, w) == one_by_one(trace_each, curves, w)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_a_family_refuses_as_its_first_curve_that_refuses_alone(self, order):
        # radius 1 traces; 1e-8 gives ovals about foci on grid nodes that
        # collapse onto them; 5 gives a curve outside the window
        foci = (Point(0.0, 0.0), Point(1.0, 0.0))
        curves = [PolynomialLemniscate(foci, (1.0, 1e-8, 5.0)[k]) for k in order]
        w = TraceWindow(-1.0, 3.0, -2.0, 2.0, 64, 64)
        got = one_by_one(trace_levels, curves, w)
        assert got == one_by_one(trace_each, curves, w)
        refusal = {1: "every traced chain collapses", 2: "no sign change"}[next(k for k in order if k)]
        assert got[0] is EmptyTrace and got[1].startswith(refusal)

    @pytest.mark.parametrize("radii", [(1e75, 1e74), (1e74, 1e75)])
    def test_an_overflow_names_the_first_curve_whose_field_overflows(self, radii):
        curves = [PolynomialLemniscate((Point(0.0, 0.0), Point(1e150, 0.0)), r) for r in radii]
        w = TraceWindow(-2e75, 2e75, -2e75, 2e75, 64, 64)
        got = one_by_one(trace_levels, curves, w)
        assert got == one_by_one(trace_each, curves, w)
        assert got[0] is ValueError and got[1].endswith(f"radius {radii[0]!r}")

    def test_foci_must_be_shared(self):
        other = PolynomialLemniscate((Point(-1.0, 0.0), Point(1.0, 1e-9)), 1.0)
        with pytest.raises(ValueError, match=r"^curve 3 has foci Point\(x=-1.0, y=0.0\), Point\(x=1.0, y=1e-09\), "):
            trace_levels([L, L, other], TraceWindow(-2, 2, -1, 1, 16, 16))

    def test_no_curves_trace_to_no_levels(self):
        assert trace_levels([], TraceWindow(-2, 2, -1, 1, 16, 16)) == []


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

    def test_corrected_area_of_a_traced_circle(self):
        # the polygon's O(h^2) error falls to the O(h^4) of the corrected area
        (c,) = trace(CIRCLE, TraceWindow(-1.5, 1.5, -1.5, 1.5, 256, 256))
        assert abs(contour_area(c) - math.pi) > 1e-5
        assert contour_area(c, CIRCLE) == pytest.approx(math.pi, rel=1e-9)

    @pytest.mark.parametrize("offset", [1e6, 1e9])
    def test_area_does_not_depend_on_where_the_contour_lies(self, offset):
        # the canonical curve traced about (X, X), and the same contours and
        # foci moved to the origin by exact subtraction (both are within a
        # factor 2 of X): the areas agree with and without the curve
        far = BernoulliConfig(Point(offset - 1.0, offset), Point(offset + 1.0, offset))
        contours = trace(far.lemniscate, bernoulli_window(far, 512, 1.6, 0.8))
        near = PolynomialLemniscate(tuple(Point(f.x - offset, f.y - offset) for f in far.lemniscate.foci), 1.0)
        moved = [Contour(c.points - offset, True, 0.0) for c in contours]
        assert len(contours) == 2
        for curves, within in (((None, None), 1e-5), ((far.lemniscate, near), 1e-7)):
            world = sum(contour_area(c, curves[0]) for c in contours)
            origin = sum(contour_area(c, curves[1]) for c in moved)
            assert world == pytest.approx(origin, rel=1e-12, abs=0.0)
            assert world == pytest.approx(2.0, rel=within)

    @pytest.mark.parametrize("foci", [(-1.0, 0.0, 1.0, 0.0), (-2.0, -1.0, 4.0, 7.0), (999.7, 5.0, 1000.4, 5.2)])
    def test_contours_through_the_double_point(self, foci):
        # g' is exactly 0 at the first two snapped midpoints and rounds off 0
        # at the third; each chord there takes its other end's curvature, with
        # no warning, and the area is the curve's to fourth order
        B = BernoulliConfig(Point(*foci[:2]), Point(*foci[2:]))
        c = B.half_distance
        contours = trace(B.lemniscate, bernoulli_window(B, 512, 1.6 * c, 0.8 * c))
        mid = [B.center.x, B.center.y]
        assert len(contours) == 2 and all(mid in k.points.tolist() for k in contours)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = sum(contour_area(k, B.lemniscate) for k in contours)
        assert total == pytest.approx(bernoulli_area(B), rel=1e-8)

    def test_corrected_seeded_areas_match_grid_4096(self):
        # measured over 160 seeded 3-6 focus curves: the grid-512 corrected
        # area lies within a median 1e-9 of the grid-4096 one, and within
        # 7.9e-8 for these four, whose shoelace areas differ by 1.6e-5 to
        # 1.1e-4; curves with ovals a few cells across differ more
        for lem in SEEDED:
            coarse = trace(lem, TraceWindow(-2.5, 2.5, -2.5, 2.5, 512, 512))
            fine = trace(lem, TraceWindow(-2.5, 2.5, -2.5, 2.5, 4096, 4096))
            assert all(k.closed for k in coarse + fine) and len(coarse) == len(fine)
            assert_vertex_contract(lem, coarse + fine)
            reference = sum(contour_area(k, lem) for k in fine)
            assert sum(contour_area(k, lem) for k in coarse) == pytest.approx(reference, rel=2e-7)

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

    def test_closed_cycle_drops_last_vertices_near_the_first(self):
        # the first vertex follows the last around a cycle and is kept, so
        # the last ones go while they lie within 1e-12 of it
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5e-12, 0.0), (0.2e-12, 0.0)])
        assert _dedupe(pts, 1e-12, closed=True).tolist() == pts[:3].tolist()
        assert _dedupe(pts, 1e-12).tolist() == pts[:4].tolist()

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


def reference_chains(nxt):
    """The chain walk with a visited store and test per crossing, as it was
    before the walk marked each chain's rows at once."""
    heads = np.ones(len(nxt), dtype=bool)
    heads[nxt[nxt >= 0]] = False
    nxt = nxt.tolist()
    visited = [False] * len(nxt)
    chains = []
    for start in np.flatnonzero(heads).tolist() + list(range(len(nxt))):
        if visited[start]:
            continue
        seq, cur = [], start
        while cur >= 0 and not visited[cur]:
            seq.append(cur)
            visited[cur] = True
            cur = nxt[cur]
        chains.append((np.fromiter(seq, dtype=np.intp, count=len(seq)), cur == start))
    return chains


def successors(lem, w):
    xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
    ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
    return _crossings(lem, w, xs, ys, _band(lem, w, xs, ys))[1]


def seeded_successors(seed, kinds):
    """Successor rows of random chains over shuffled ids, each an open chain
    or a cycle as drawn from kinds."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(int(rng.integers(50, 400)))
    nxt = np.full(len(ids), -1, dtype=np.intp)
    cuts = np.sort(rng.choice(np.arange(1, len(ids)), size=int(rng.integers(1, 12)), replace=False))
    for group in np.split(ids, cuts):
        nxt[group[:-1]] = group[1:]
        if rng.choice(kinds) == "cycle":
            nxt[group[-1]] = group[0]
    return nxt


class TestExtractChains:
    @staticmethod
    def assert_same(nxt):
        got, want = _extract_chains(nxt), reference_chains(nxt)
        assert [(r.tolist(), closed) for r, closed in got] == [(r.tolist(), closed) for r, closed in want]
        assert all(r.dtype == np.intp for r, _ in got)
        return got

    @pytest.mark.parametrize("kinds", [("open",), ("cycle",), ("open", "cycle")])
    def test_matches_the_reference_on_seeded_successors(self, kinds):
        for seed in range(40):
            chains = self.assert_same(seeded_successors(seed, kinds))
            assert {closed for _, closed in chains} <= {kind == "cycle" for kind in kinds}

    @pytest.mark.parametrize(
        "lem, window",
        [
            (L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 512, 512)),
            (L, TraceWindow(-1.6, 1.6, -0.8, 0.8, 2048, 2048)),
            # cut by the window: an open chain and a cycle in one array
            (SEEDED[1], TraceWindow(-2.0, 0.5, -2.0, 2.0, 512, 512)),
            (SEEDED[3], TraceWindow(-2.0, 2.0, -2.0, 2.0, 512, 512)),
        ],
        ids=["canonical_512", "canonical_2048", "cut_512", "six_foci"],
    )
    def test_matches_the_reference_on_traces(self, lem, window):
        self.assert_same(successors(lem, window))


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

    def test_coordinate_texts_format_each_bit_pattern(self):
        # repeats share a text, and -0.0 keeps its sign beside 0.0
        rows = [(0.0, -0.0), (1.5, 0.0), (-0.0, 1.5), (5e-324, -1e300), (0.1, 1e300), (0.1, -0.0)]
        contours = [Contour(rows, True, 0.0), Contour([(-0.0, 0.0), (1.5, 5e-324)], False, 0.0)]
        expected = " | ".join(" ".join(f"{x!r}:{y!r}" for x, y in c.points.tolist()) for c in contours)
        assert _contours_text(contours, "%s:%s", " ", " | ") == expected
        signed = [Contour([(-0.0, 0.0), (1.0, 1.0), (0.0, -0.0)], False, 0.0)]
        assert _contours_text(signed, "%s:%s", " ", " | ") == "-0.0:0.0 1.0:1.0 0.0:-0.0"

    def test_non_finite_coordinate_names_its_line(self):
        with pytest.raises(ValueError, match=re.escape("must be finite, got 'nan,1' on line 4")):
            contours_from_csv("0.0,0.0\n1.0,0.0\n\nnan,1\n2.0,2.0\n")

    @pytest.mark.parametrize(
        "line", ["1,2,3", "1", "a,b", "1,"], ids=["three-fields", "one-field", "not-numbers", "empty-field"]
    )
    def test_malformed_line_names_its_text_and_number(self, line):
        text = f"0.0,0.0\n1.0,0.0\n\n{line}\n2.0,2.0\n"
        with pytest.raises(ValueError, match=re.escape(f"two comma-separated numbers, got {line!r} on line 4")):
            contours_from_csv(text)

    def test_no_contours_is_one_newline(self):
        assert contours_to_csv([]) == "\n"

    def test_format_shape(self):
        text = contours_to_csv(
            [Contour([(0, 0), (1, 0), (1, 1)], True, 0.0)]
        )
        assert text == "0.0,0.0\n1.0,0.0\n1.0,1.0\n"
