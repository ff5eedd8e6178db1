"""Grid-based implicit curve extraction for polynomial lemniscates.

Marching squares over a rectangular window, a bracket that places each
crossing on the curve along its crossed edge, and deliberate splitting
of contours at the Bernoulli double point where the two lobes cross.
The case table is derived from one rule, the interior (field negative)
on each segment's left, so each crossing has at most one successor and
every closed contour comes out with a positive signed shoelace area.

The field is evaluated only in a band of blocks that may hold the curve.
Each block is tested exactly: over the block's box the squared distance
to focus k lies between dmin_k^2 (to the box's nearest point) and
dmax_k^2 (to its farthest corner), so the products of those bounds bound
the field's product term at every node. A block whose low bound exceeds
the level by a relative 1e-9, or whose high bound falls short of it by
as much, has every node on one side of the curve and is left out; the
margin is far above the rounding of the bounds and of the field, so no
node's computed sign can differ from the full grid's. Bounds that are
not finite or not normal floats certify nothing. The window's tiling by
at most 32 x 32 blocks of 16, 64, 256 ... cells a side is tested first,
then the 4 x 4 blocks inside 4,096 kept blocks at a time, down to 4 x 4
cells, so work and memory follow the curve; a box inside a certified one
is certified too. Unlike coarse sampling, the test cannot miss a lobe
smaller than a block. The field's signs at the kept 4-cell blocks' nodes
go to the crossings per chunk of 1,024 blocks, evaluated half a chunk at a
time with the full grid's element-wise arithmetic, so every sign, crossing
and contour is what the full grid gives.

Crossed edges carry integer ids in the full grid's order; np.unique over
the segment ends ranks them and links each crossing to its successor.
Only the walk along successors, the loop over chains and their pieces,
and the walk past a dropped near-duplicate vertex stay sequential; they
are deterministic, so output is independent of how the array work is
scheduled. Output works on each contour as one (N, 2) array.

Every crossing is placed once, by a bracket vectorised over up to 4,096
crossed edges (refine): regula falsi with the Illinois modification,
started from the edge's end values, so a vertex never leaves its edge
and no point, singular ones included, can make it fail. It stops at a
scale-free residual, so the curve is traced alike at any similarity
placement of the foci. Snapping then runs once per level, over every
crossing at once: each one within a cell diagonal of a singular point
becomes the first such point. A closed chain that meets singular points
twice or more is split at the vertices whose coordinates equal one.

Curves about one set of foci are traced in one pass (trace_levels): one
band and one sort, each level's edge ids after the last one's, then one
rebase of ids and successors to each level's own, and refine by levels.

No stage holds more than one batch of working arrays, so a trace of the
Bernoulli curve in the CLI's default window peaks at 0.52, 0.77, 1.19,
5.52 and 11.0 MB (tracemalloc) at grids 512, 1024, 2048, 16384 and 32768,
and family3's nine levels at grid 512 at 1.15 MB.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .curves import (
    BernoulliConfig,
    PolynomialLemniscate,
    _curvature,
    field_residual,
    lemniscate_field_array,
    on_curve,
)
from .errors import EmptyTrace, OpenContour
from .geometry import midpoint, row_norm, rows, xy

_REFINE_TOL = 5e-13
_MAX_STEPS = 64


def _segment_table() -> np.ndarray:
    """_SEGMENTS[case, centre inside, segment] is the (start, end) pair of
    cell edges a segment joins, as 0 bottom, 1 top, 2 left, 3 right; -1
    for none. Corner k, counterclockwise from the bottom left, is bit k of
    the case; edge k (bottom, right, top, left) joins corners k and k + 1.
    A segment starts on each edge that leaves a negative corner and ends on
    the next edge that enters one, or on the edge before it in a saddle
    whose centre is not negative: where the centre is not negative, the
    walk to the end runs clockwise. So the negative side is on its left."""
    table = np.full((16, 2, 2, 2), -1, dtype=np.intp)
    ring = (0, 3, 1, 2) * 2  # edge k by its index in the table
    for case, inside in np.ndindex(16, 2):
        neg = [case >> k & 1 for k in range(4)] * 2
        for s, k in enumerate([k for k in range(4) if neg[k] > neg[k + 1]]):
            end = next(m for m in (k + 1, k + 2, k + 3)[:: 2 * inside - 1] if neg[m] < neg[m + 1])
            table[case, inside, s] = ring[k], ring[end]
    return table


_SEGMENTS = _segment_table()
# cells per side of the blocks that the band keeps or leaves out whole, _CHUNK
# blocks at a time, and the rows that refine brackets at a time
_SUB = 4
_CHUNK = 1024
_BATCH = 4 * _CHUNK


@dataclass(frozen=True, slots=True)
class TraceWindow:
    """Axis-aligned sampling window with cell counts."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) for n in (self.nx, self.ny)):
            raise ValueError(f"window cell counts must be integers, got nx={self.nx!r}, ny={self.ny!r}")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("window needs at least 8 cells per axis")
        # a normal float is positive and finite, so this refuses empty, reversed, infinite and NaN bounds
        if not all(np.finfo(float).tiny <= d < math.inf for d in (self.dx, self.dy)):
            bounds = ",".join(map(repr, (self.xmin, self.xmax, self.ymin, self.ymax)))
            raise ValueError(f"window {bounds} needs xmax > xmin and ymax > ymin, with cells of normal float size")

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.nx

    @property
    def dy(self) -> float:
        return (self.ymax - self.ymin) / self.ny

    @property
    def cell_diagonal(self) -> float:
        return math.hypot(self.dx, self.dy)


def bernoulli_window(B: BernoulliConfig, grid: int, along: float, across: float) -> TraceWindow:
    """Axis-aligned window around the box about B's double point that
    reaches `along` each way on the focal axis and `across` each way
    perpendicular to it; ValueError naming the foci where it rounds empty."""
    o = B.center
    u = B.axis_unit
    hx = along * abs(u.x) + across * abs(u.y)
    hy = along * abs(u.y) + across * abs(u.x)
    try:
        return TraceWindow(o.x - hx, o.x + hx, o.y - hy, o.y + hy, grid, grid)
    except ValueError as exc:
        raise ValueError(f"the view about foci {B.f1}, {B.f2}: {exc}") from None


@dataclass(frozen=True, eq=False)
class Contour:
    """Ordered polyline extracted from the zero set.

    points is a read-only float array of shape (N, 2), one vertex per row.
    Closed contours do not repeat the first point; max_residual is the
    largest |field| over the refined points.
    """

    points: np.ndarray
    closed: bool
    max_residual: float

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        if points.ndim != 2 or points.shape[1] != 2 or not np.isfinite(points).all():
            raise ValueError("contour points must be finite (x, y) rows")
        least = 3 if self.closed else 2
        if len(points) < least:
            raise ValueError(f"a {'closed' if self.closed else 'open'} contour needs at least {least} points")
        x, y = points.T
        if ((x[1:] == x[:-1]) & (y[1:] == y[:-1])).any():
            raise ValueError("repeated consecutive contour point")


def refine(L: PolynomialLemniscate, a, b) -> np.ndarray:
    """The roots of the field on the segments a -> b, as rows (M, 2).

    a and b are rows (M, 2) whose field values are finite and straddle
    the curve: one end negative, the other not (ValueError otherwise).
    Each row runs regula falsi with the Illinois modification (Dowell &
    Jarratt, 1971) on its segment: a step takes the secant root of the
    bracket, the first being the linear interpolant of the end values,
    and an end that stays twice running has its value halved, so the
    bracket closes from both sides. A row stops once its scale-free
    residual |f| / (f + 2 level) is at most 5e-13, once no float lies
    strictly between the points of its bracket's ends, or after 64
    steps. Every iterate lies on its segment, so nothing can fail. The
    bracket runs on _BATCH rows at a time, after every row's ends pass.
    L may also hold one level per row (see trace_levels).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[1:] != (2,) or a.shape != b.shape:
        raise ValueError(f"segment ends must be (M, 2) rows of one M, got shapes {a.shape} and {b.shape}")
    with np.errstate(over="ignore"):  # refused below
        fa = lemniscate_field_array(L, a[:, 0], a[:, 1])
        fb = lemniscate_field_array(L, b[:, 0], b[:, 1])
    big = np.flatnonzero(~(np.isfinite(fa) & np.isfinite(fb)))
    if big.size:
        raise ValueError(f"the field overflows a float at an end of segment {big[0]}")
    same = np.flatnonzero((fa < 0.0) == (fb < 0.0))
    if same.size:
        raise ValueError(f"the ends of segment {same[0]} do not straddle the curve")
    out, per_row = np.empty_like(a), isinstance(L.level, np.ndarray)
    for run in range(0, len(a), _BATCH):
        rows = np.arange(run, min(run + _BATCH, len(a)))
        ax, ay, flo, fhi = a[rows, 0], a[rows, 1], fa[rows], fb[rows]
        dx, dy, lo, hi = b[rows, 0] - ax, b[rows, 1] - ay, np.zeros(len(rows)), np.ones(len(rows))
        neg = flo < 0.0  # the lo end keeps its sign
        for step in range(_MAX_STEPS):
            t = np.minimum(np.maximum(lo + (hi - lo) * (flo / (flo - fhi)), lo), hi)
            x, y = ax + t * dx, ay + t * dy
            P = _levels(L, rows) if per_row else L
            f = lemniscate_field_array(P, x, y)
            low = (f < 0.0) == neg  # the step replaces the lo end
            if step:
                # Illinois: an end that stays a second time running has its value halved
                fhi = np.where(low & was_low, 0.5 * fhi, fhi)
                flo = np.where(~(low | was_low), 0.5 * flo, flo)
            lo, flo = np.where(low, t, lo), np.where(low, f, flo)
            hi, fhi = np.where(low, hi, t), np.where(low, fhi, f)
            was_low = low
            # (x, y) is now one end of the bracket and (u, v) the kept one; with no
            # float strictly between them no later step can meet the target
            kept = np.where(low, hi, lo)
            u, v = ax + kept * dx, ay + kept * dy
            go = ~(field_residual(P, f) <= _REFINE_TOL) & ((np.nextafter(x, u) != u) | (np.nextafter(y, v) != v))
            if not go.all() or step + 1 == _MAX_STEPS:  # a row stops; the others are written again later
                out[rows, 0], out[rows, 1] = x, y
                state = [rows, ax, ay, dx, dy, lo, hi, flo, fhi, neg, was_low]
                del t, x, y, f, kept, u, v, P, rows, ax, ay, dx, dy, lo, hi, flo, fhi, neg, was_low  # state holds them
                for k in range(len(state)):  # compacted in turn, so at most one array is held twice
                    state[k] = state[k][go]
                rows, ax, ay, dx, dy, lo, hi, flo, fhi, neg, was_low = state
                del state  # else it holds this step's bracket ends through the next step
            if not rows.size:
                break
    return out


def contour_area(c: Contour, curve: PolynomialLemniscate | None = None) -> float:
    """Absolute area of a closed contour: its polygon's shoelace area, summed about its first vertex so
    that where the contour lies cannot matter, plus, given the curve it lies on, the arc's segment k l^3 / 12
    over each chord of length l, k the mean curvature at its ends (or the one end's, at a singular point)."""
    if not c.closed:
        raise OpenContour("area is only defined for closed contours")
    pts = c.points - c.points[0]
    if curve is None:
        return abs(_signed_area(pts))
    z = c.points.view(complex)[:, 0]  # each row x, y as x + iy
    k = _curvature(curve, z)
    k[(z[:, None] == _singular_points(curve).view(complex)[:, 0]).any(axis=1)] = np.nan  # g' is 0 there up to rounding
    after = np.concatenate((k[1:], k[:1]))
    twice_mean = np.fmax(k, after) + np.fmin(k, after)  # the one end's k twice where the other is NaN
    return abs(_signed_area(pts)) + float(np.sum(twice_mean * np.abs(np.diff(z, append=z[:1])) ** 3)) / 24.0


def _signed_area(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    # cumsum adds the terms in order; np.sum would pair them and round differently
    return 0.5 * float(np.cumsum(x * yn - xn * y)[-1])


def _singular_points(L: PolynomialLemniscate) -> np.ndarray:
    # the only singularity handled, as a row: the Bernoulli double point,
    # present exactly when a 2-focus lemniscate's radius equals the half distance
    mid = xy(midpoint(*L.foci))[None] if L.n == 2 else np.empty((0, 2))
    return mid[on_curve(L, mid)]


def _uncertified(L, x0, x1, y0, y1):
    """Whether each box [x0, x1] x [y0, y1], over the broadcast shape of
    the bounds, may hold the curve: False when the bounds on the product
    of squared focal distances over the box put every node in it on one
    side of the level."""
    lo = hi = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for f in L.foci:
            # nearest and farthest offsets from the focus over the box, per axis
            nearx = np.maximum(np.maximum(x0 - f.x, f.x - x1), 0.0)
            neary = np.maximum(np.maximum(y0 - f.y, f.y - y1), 0.0)
            farx = np.maximum(np.abs(x0 - f.x), np.abs(x1 - f.x))
            fary = np.maximum(np.abs(y0 - f.y), np.abs(y1 - f.y))
            lo = lo * (nearx**2 + neary**2)
            hi = hi * (farx**2 + fary**2)
        normal = (lo >= np.finfo(float).tiny) & np.isfinite(hi)
        one_sign = (lo > L.level * (1.0 + 1e-9)) | (hi < L.level * (1.0 - 1e-9))
    return ~(normal & one_sign)


def _band(L, w, xs, ys):
    """The blocks of _SUB x _SUB cells that may hold the curve, and the
    signs of the field on their nodes, in runs of at most _CHUNK blocks.

    The window's tiling by the smallest blocks of 16, 64, 256 ... cells
    with at most 32 a side is tested first, then the 4 x 4 blocks in each
    one kept, _BATCH kept ones at a time, down to _SUB cells. Yields, per
    run, each kept block's node indices along x and y as columns
    (_SUB + 1, k) clamped at the window edge, and its nodes' signs (1 if
    negative, from field calls of _CHUNK // 2 blocks) as int8 (_SUB + 1,
    _SUB + 1, k); where L.level is an array, its blocks' level indices (k,) too.
    """
    size = next(_SUB * 4**k for k in range(1, 32) if 32 * _SUB * 4**k >= max(w.nx, w.ny))
    # the kept blocks' origins and a family's level indices, first one untested block a level spanning the window
    n = len(L.level) if isinstance(L.level, np.ndarray) else 0
    blocks = [np.zeros(max(n, 1), dtype=np.intp)] * 2 + ([np.arange(n)] if n else [])
    span = 32 * size
    while size >= _SUB:
        kept = [[v[:0] for v in blocks]]  # no blocks, for a size with no kept block
        for run in range(0, len(blocks[0]), _BATCH):
            ox, oy, *lv = [v[run : run + _BATCH] for v in blocks]
            # the blocks of size cells that start in the window in each of _BATCH kept ones, block axis last
            sx = ox + np.arange(0, min(span, w.nx), size)[:, None]
            sy = oy + np.arange(0, min(span, w.ny), size)[:, None]
            maybe = _uncertified(_levels(L, *lv), *_box(xs, sx[:, None], size, w.nx), *_box(ys, sy[None], size, w.ny))
            a, b, k = np.nonzero((sx[:, None] < w.nx) & (sy[None] < w.ny) & maybe)
            kept.append([sx[a, k], sy[b, k], *(v[k] for v in lv)])
        blocks, span, size = list(map(np.concatenate, zip(*kept))), size, size // 4
    del kept, ox, oy, lv, sx, sy, maybe, a, b, k  # not held through the runs
    nodes = np.arange(_SUB + 1)[:, None]
    for run in range(0, len(blocks[0]), _CHUNK):
        ox, oy, *lv = [v[run : run + _CHUNK] for v in blocks]
        ci, cj = np.minimum(ox + nodes, w.nx), np.minimum(oy + nodes, w.ny)
        neg = np.empty((_SUB + 1, _SUB + 1, len(ox)), dtype=bool)
        for at in (slice(h, h + _CHUNK // 2) for h in range(0, len(ox), _CHUNK // 2)):  # half a run's field at a time
            f = lemniscate_field_array(_levels(L, *(v[at] for v in lv)), xs[ci[:, at]][:, None], ys[cj[:, at]][None])
            if np.isnan(f).any():  # a float cannot tell the side of the true, finite product
                raise ValueError(f"the field is 0 * inf at a grid node: foci {', '.join(map(str, L.foci))}")
            np.less(f, 0.0, out=neg[..., at])
            del f  # not held while the next half, or the run's cells, are worked on
        yield ci, cj, neg.view(np.int8), *lv


def _levels(L, lv=None):
    """L, or its foci at the levels of its array that lv indexes, which the field takes as it takes a curve."""
    return L if lv is None else SimpleNamespace(foci=L.foci, level=L.level[lv])


def _box(v, start, cells, n):
    """The bounds along one axis of the blocks of cells from node start on,
    clamped at the window edge n."""
    return v[np.minimum(start, n)], v[np.minimum(start + cells, n)]


def _edge_ends(w, xs, ys, ids):
    """The end nodes of the edges with linear ids ids (see _crossings), as
    two arrays of rows (M, 2)."""
    along_y = ids >= w.nx * (w.ny + 1)
    k = ids - along_y * (w.nx * (w.ny + 1))
    i, j = np.divmod(k, np.where(along_y, w.ny, w.ny + 1))
    return rows(xs[i], ys[j]), rows(xs[i + ~along_y], ys[j + along_y])


def _crossings(L, w, xs, ys, band):
    """The sorted ids of the crossed grid edges, and the successor of each
    crossing as rows into ids: nxt[start] = end for every directed
    marching-squares segment, -1 where none starts.

    Edges have linear ids: the edge from node (i, j) to (i + 1, j) is
    i * (ny + 1) + j, and the edge from (i, j) to (i, j + 1) follows all of
    those, at nx * (ny + 1) + i * ny + j. Every crossed edge borders a
    band cell whose case is neither 0 nor 15, and the segments of such a
    cell end on each of its crossed edges, so the segment ends are the
    crossed edges. Every segment has the field negative on its left, so
    each crossed edge starts at most one segment and ends at most one:
    the ends are found run by run of the band, then np.unique ranks them
    all, equal ids being one crossing."""
    ends = [np.empty((0, 2), dtype=np.intp)]
    # edge k of the cell at node (i, j) has id i * step[k] + j + base[k]
    step = np.array((w.ny + 1, w.ny + 1, w.ny, w.ny))
    base = np.array((0, 1, w.nx * (w.ny + 1), w.nx * (w.ny + 1) + w.ny))
    for ci, cj, neg, *lv in band:
        case = neg[:-1, :-1] + 2 * neg[1:, :-1] + 4 * neg[1:, 1:] + 8 * neg[:-1, 1:]
        # clamping repeats the last node of a short block: those cells are not cells
        real = (ci[:-1, None] < w.nx) & (cj[None, :-1] < w.ny)
        cells = np.flatnonzero((case > 0) & (case < 15) & real)
        ab, k = divmod(cells, ci.shape[1])
        i, j, case = ci[ab // _SUB, k], cj[ab % _SUB, k], case.ravel()[cells]
        # a saddle cell's segments follow the sign at its centre
        inside = (case == 5) | (case == 10)
        P = _levels(L, *(v[k[inside]] for v in lv))
        inside[inside] = lemniscate_field_array(P, xs[i[inside]] + 0.5 * w.dx, ys[j[inside]] + 0.5 * w.dy) < 0.0
        seg = _SEGMENTS[case, inside.view(np.int8)]  # -1 picks a row that the mask drops
        edges = i[:, None, None] * step[seg] + j[:, None, None] + base[seg]
        for v in lv:  # a family's ids are level-major: level l's follow the (nx + 1) ny + nx (ny + 1) ids a level
            edges += (v[k] * (base[2] + (w.nx + 1) * w.ny))[:, None, None]
        ends.append(edges[seg[:, :, 0] >= 0])
        del case, real, cells, ab, k, i, j, inside, P, seg, edges, lv  # not held while the band evaluates the next run
    ends = np.concatenate(ends, axis=None)  # the per-run list is not held through the ranking
    ids, rank = np.unique(ends, return_inverse=True)
    nxt = np.full(len(ids), -1, dtype=np.intp)
    nxt[rank[0::2]] = rank[1::2]
    return ids, nxt


def _extract_chains(nxt):
    """The chains of successors, as (rows, closed) with rows an intp array: open chains from each crossing
    that no segment ends at, in id order, walked to -1, then each cycle from its lowest unvisited id."""
    heads = np.ones(len(nxt), dtype=bool)
    heads[nxt[nxt >= 0]] = False
    succ, left, chains = nxt.tolist(), np.ones(len(nxt), dtype=bool), []
    opens = np.flatnonzero(heads).tolist()[::-1]  # popped in id order
    while opens or left.any():
        start, stop = (opens.pop(), -1) if opens else (int(left.argmax()),) * 2  # a cycle stops at its start
        seq, cur = [start], succ[start]
        while cur != stop:
            seq.append(cur)
            cur = succ[cur]
        chains.append((np.array(seq, dtype=np.intp), stop == start))
        left[chains[-1][0]] = False
    return chains


def _dedupe(pts: np.ndarray, tol: float, closed: bool = False) -> np.ndarray:
    """Drop each vertex within tol of the last one kept; around a closed
    cycle, the first vertex follows the last, so the last vertices kept
    go too while they lie within tol of the first.

    Where the previous row is kept it is the last kept one, so the test
    against it decides; only the rows after a drop are walked."""
    gap = row_norm(pts[1:] - pts[:-1])
    keep = np.ones(len(pts), dtype=bool)
    k = 0  # rows before k are decided
    for first in (np.flatnonzero(gap <= tol) + 1).tolist():
        if first < k:
            continue
        last, k = first - 1, first
        while k < len(pts) and math.hypot(*(pts[k] - pts[last]).tolist()) <= tol:
            keep[k] = False
            k += 1
        k += 1  # row k, if there is one, is kept
    pts = pts[keep]
    end = len(pts)
    while closed and end > 1 and math.hypot(*(pts[end - 1] - pts[0]).tolist()) <= tol:
        end -= 1
    return pts[:end]


def trace(L: PolynomialLemniscate, w: TraceWindow) -> list[Contour]:
    """Extract the zero set of the lemniscate field inside the window.

    Returns one contour per connected component crossing the window,
    ordered by each contour's leftmost-lowest point. Raises EmptyTrace
    when the field has no sign change in the window or every chain
    collapses onto a point, and ValueError when the field overflows a
    float at an end of a crossed edge or is 0 * inf at a grid node.
    """
    return trace_levels([L], w)[0]


def trace_levels(curves, w: TraceWindow) -> list[list[Contour]]:
    """What trace gives for each of curves that share their foci, in one pass.

    The band and the crossings run once over every level, each level's edge ids
    after the last one's; after the sort the ids and successors are rebased once
    to each level's own, and refine runs over as many whole levels as _BATCH rows
    hold, or one. The contours, and a refusal, are those of tracing the curves
    one by one, in order. ValueError names the first curve whose foci differ.
    """
    curves = list(curves)
    for k, L in enumerate(curves):
        if L.foci != curves[0].foci:
            raise ValueError(f"curve {k + 1} has foci {', '.join(map(str, L.foci))}, not those of curve 1")
    if not curves:
        return []
    try:
        F = SimpleNamespace(foci=curves[0].foci, level=np.array([c.level for c in curves])) if curves[1:] else curves[0]
        xs, ys = np.linspace(w.xmin, w.xmax, w.nx + 1), np.linspace(w.ymin, w.ymax, w.ny + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # +inf is the right sign, outside; NaN is refused
            ids, nxt = _crossings(F, w, xs, ys, _band(F, w, xs, ys))
        grid = w.nx * (w.ny + 1) + (w.nx + 1) * w.ny  # edge ids a level (see _crossings)
        bounds = [0, len(ids)]  # level k's rows are bounds[k]:bounds[k + 1]
        if curves[1:]:  # a family's ids and successors, rebased once to each level's own
            bounds = np.searchsorted(ids, grid * np.arange(len(curves) + 1)).tolist()
            counts = np.diff(bounds)
            ids -= np.repeat(np.arange(len(curves)) * grid, counts)
            nxt = np.where(nxt < 0, -1, nxt - np.repeat(bounds[:-1], counts))
        out, first = [], 0
        while first < len(curves):  # as many whole levels as _BATCH rows hold, or one
            last = max(first + 1, bisect.bisect(bounds, bounds[first] + _BATCH) - 1)
            L = curves[first] if last == first + 1 else _levels(F, np.arange(first, last).repeat(counts[first:last]))
            try:
                coords = refine(L, *_edge_ends(w, xs, ys, ids[bounds[first] : bounds[last]]))
            except ValueError:  # the band's signs put each edge across the curve, so an end's field overflows
                foci, r = ", ".join(map(str, F.foci)), curves[first].radius
                raise ValueError(f"the field overflows a float next to the curve: foci {foci}, radius {r!r}") from None
            for k in range(first, last):  # each level's rows in the run's
                at = slice(bounds[k] - bounds[first], bounds[k + 1] - bounds[first])
                out.append(_contours(curves[k], w, coords[at], nxt[bounds[k] : bounds[k + 1]]))
            first, coords = last, None  # not held through the next run
        return out
    except (EmptyTrace, ValueError):
        if len(curves) == 1:
            raise
    return [trace(L, w) for L in curves]  # a family refuses as its first curve that refuses alone


def _contours(L, w, coords, nxt):
    """L's contours from the coordinates of its crossings and their successors nxt, as rows of coords."""
    if not len(nxt):
        raise EmptyTrace("no sign change in the window")
    # each crossing within a cell diagonal of a singular point snaps onto the first one within reach
    singular = _singular_points(L).tolist()
    if singular:
        x, y = coords.T.copy()  # each snap is decided on the refined coordinates,
        for sx, sy in singular[::-1]:  # so the first point within reach is written last
            coords[np.hypot(x - sx, y - sy) <= w.cell_diagonal] = sx, sy

    contours = []
    for rows, closed in _extract_chains(nxt):
        pts, meets = coords[rows], []
        if closed and singular:
            # a closed chain meets a singular point at each singular vertex unlike
            # the one before it, around the cycle (row -1 before row 0); met twice
            # or more, it splits into one loop from each meeting to the next
            x, y = pts.T
            on = np.flatnonzero(np.logical_or.reduce([(x == sx) & (y == sy) for sx, sy in singular]))
            meets = on[(x[on] != x[on - 1]) | (y[on] != y[on - 1])]
        split = len(meets) >= 2
        for piece in np.split(np.roll(pts, -meets[0], axis=0), meets[1:] - meets[0]) if split else [pts]:
            piece = _dedupe(piece, 1e-12 * w.cell_diagonal, closed)
            if len(piece) < (3 if closed else 2):
                continue
            residual = float(np.abs(lemniscate_field_array(L, piece[:, 0], piece[:, 1])).max())
            contours.append(Contour(piece, closed, residual))
    if not contours:
        raise EmptyTrace(f"every traced chain collapses within 1e-12 of a cell diagonal at grid {w.nx}x{w.ny}")

    contours.sort(key=_leftmost_lowest)
    return contours


def _leftmost_lowest(c: Contour) -> tuple[float, float]:
    """The key that orders traced contours: the least x of c's vertices, then the least y of those at it."""
    x, y = c.points.T
    least = x.min()
    return least, y[x == least].min()


def _contours_text(contours, vertex: str, join: str, gap: str) -> str:
    """Each vertex as the %-template vertex of the `repr` of its coordinates, joined by
    join within a contour and by gap between contours. Each distinct bit pattern is
    formatted once, so -0.0 and 0.0 stay apart."""
    values = np.concatenate([np.empty(0)] + [c.points.ravel() for c in contours])  # no contours: no values
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return gap.join(join.join([vertex] * len(c.points)) for c in contours) % tuple(texts[inverse].tolist())


def contours_to_csv(contours) -> str:
    """One `x,y` pair per line, a blank line between contours.

    Coordinates use shortest round-trip float formatting so re-importing
    reproduces them exactly; each distinct coordinate is formatted once.
    """
    return _contours_text(contours, "%s,%s", "\n", "\n\n") + "\n"


def contours_from_csv(text: str) -> list[np.ndarray]:
    """Parse the CSV contour format back into (N, 2) arrays; ValueError names
    the first line that is not two finite comma-separated numbers."""
    groups, rows = [], []
    for number, line in enumerate(text.splitlines() + [""], 1):
        if line.strip():
            try:
                x, y = map(float, line.split(","))
            except ValueError:  # other than two fields, or a field that is not a number
                raise ValueError(f"expected two comma-separated numbers, got {line!r} on line {number}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"contour coordinates must be finite, got {line!r} on line {number}")
            rows.append((x, y))
        elif rows:
            groups.append(np.array(rows))
            rows = []
    return groups
