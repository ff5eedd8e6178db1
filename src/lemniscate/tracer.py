"""Grid-based implicit curve extraction for polynomial lemniscates.

Marching squares over a rectangular window, a bracket that places each
crossing on the curve along its crossed edge, and deliberate splitting
of contours at the Bernoulli double point where the two lobes cross. The case table's segments are
directed with the interior (field negative) on their left, so each
crossing has at most one successor and every contour comes out oriented
by construction: a closed contour's signed shoelace area is positive.

The field is evaluated only in a band of blocks that may hold the curve.
The window's cells are split into blocks of 16 x 16, and each block is
tested exactly: over the block's box the squared distance to focus k
lies between dmin_k^2 (to the box's nearest point) and dmax_k^2 (to its
farthest corner), so the products of those bounds bound the field's
product term at every node. A block whose low bound exceeds the level by
a relative 1e-9, or whose high bound falls short of it by as much, has
every node on one side of the curve and is left out; the margin is far
above the rounding of the bounds and of the field, so no node's computed
sign can differ from the full grid's. Bounds that are not finite or not
normal floats certify nothing. Each block kept is split into 4 x 4
blocks of 4 x 4 cells, which the same test keeps or leaves out, so the
work follows the curve. Unlike coarse sampling, the test cannot miss a
lobe smaller than a block. The kept 4-cell blocks' nodes are evaluated
in one call with the full grid's element-wise arithmetic, so every value,
crossing and contour is what the full grid would give.

Crossed edges carry integer ids in the full grid's order; one sort of
the segment ends ranks them and links each crossing to its successor.
Only the walk along successors, the loop over chains and their pieces,
and the walk past a dropped near-duplicate vertex stay sequential; they
are deterministic, so output is independent of how the array work is
scheduled. Output works on each contour as one (N, 2) array.

Every crossing is placed once, by one vectorised bracket over every
crossed edge (refine): regula falsi with the Illinois modification,
started from the edge's end values, so a vertex never leaves its edge
and no point, singular ones included, can make it fail. It stops at a
scale-free residual, so the curve is traced alike at any similarity
placement of the foci. Snapping then runs once per trace, over every
crossing at once: each one within a cell diagonal of a singular point
becomes that point. A closed chain that meets singular points twice or
more is split at the vertices whose coordinates equal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    BernoulliConfig,
    PolynomialLemniscate,
    field_residual,
    lemniscate_field,
    lemniscate_field_array,
)
from .errors import EmptyTrace, OpenContour
from .geometry import midpoint, xy

_REFINE_TOL = 5e-13
_MAX_STEPS = 64

# directed segments per marching-squares case, by cell edge name, with the
# field negative on the left of each; case 15 - k is case k reversed
_CASE_SEGMENTS = {
    1: [("bottom", "left")],
    2: [("right", "bottom")],
    3: [("right", "left")],
    4: [("top", "right")],
    6: [("top", "bottom")],
    7: [("top", "left")],
}
# the saddle case 5 with the field at the cell centre positive, and negative
_SADDLE = ([("bottom", "left"), ("top", "right")], [("bottom", "right"), ("top", "left")])


def _segment_table() -> np.ndarray:
    """_SEGMENTS[case, centre inside, segment] is the (start, end) pair of
    cell edges a segment joins, as 0 bottom, 1 top, 2 left, 3 right; -1
    for none."""
    names = ("bottom", "top", "left", "right")
    table = np.full((16, 2, 2, 2), -1, dtype=np.intp)
    for inside in (0, 1):
        for code, segments in (_CASE_SEGMENTS | {5: _SADDLE[inside]}).items():
            for s, pair in enumerate(segments):
                ends = [names.index(e) for e in pair]
                table[code, inside, s] = ends
                # every sign flips in the complement, the centre's too
                table[15 - code, 1 - inside, s] = ends[::-1]
    return table


_SEGMENTS = _segment_table()
# cells per side of the blocks that the band tests first, and of the
# blocks inside them that it keeps or leaves out whole
_BLOCK = 16
_SUB = 4


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
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("window bounds must satisfy xmax > xmin and ymax > ymin")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("window needs at least 8 cells per axis")
        # finite cell sizes need finite bounds, so infinite ones are refused too
        if not all(np.finfo(float).tiny <= d < math.inf for d in (self.dx, self.dy)):
            bounds = ",".join(map(repr, (self.xmin, self.xmax, self.ymin, self.ymax)))
            raise ValueError(f"window {bounds} needs a finite width and height and cells of normal float size")

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
    perpendicular to it."""
    o = B.center
    u = B.axis_unit
    hx = along * abs(u.x) + across * abs(u.y)
    hy = along * abs(u.y) + across * abs(u.x)
    return TraceWindow(o.x - hx, o.x + hx, o.y - hy, o.y + hy, grid, grid)


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
        if (points[1:] == points[:-1]).all(axis=1).any():
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
    steps. Every iterate lies on its segment, so nothing can fail.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore"):  # refused below
        flo = lemniscate_field_array(L, a[:, 0], a[:, 1])
        fhi = lemniscate_field_array(L, b[:, 0], b[:, 1])
    big = np.flatnonzero(~(np.isfinite(flo) & np.isfinite(fhi)))
    if big.size:
        raise ValueError(f"the field overflows a float at an end of segment {big[0]}")
    same = np.flatnonzero((flo < 0.0) == (fhi < 0.0))
    if same.size:
        raise ValueError(f"the ends of segment {same[0]} do not straddle the curve")
    out = np.empty_like(a)
    rows = np.arange(len(a))
    ax, ay, dx, dy = a[:, 0], a[:, 1], b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    lo, hi = np.zeros(len(a)), np.ones(len(a))
    neg = flo < 0.0  # the lo end keeps its sign
    for step in range(_MAX_STEPS):
        t = np.minimum(np.maximum(lo + (hi - lo) * (flo / (flo - fhi)), lo), hi)
        x, y = ax + t * dx, ay + t * dy
        f = lemniscate_field_array(L, x, y)
        out[rows, 0], out[rows, 1] = x, y
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
        go = ~(field_residual(L, f) <= _REFINE_TOL) & ((np.nextafter(x, u) != u) | (np.nextafter(y, v) != v))
        state = (rows, ax, ay, dx, dy, lo, hi, flo, fhi, neg, was_low)
        rows, ax, ay, dx, dy, lo, hi, flo, fhi, neg, was_low = (w[go] for w in state)
        if not rows.size:
            break
    return out


def contour_area(c: Contour) -> float:
    """Absolute shoelace area of a closed contour's polygon."""
    if not c.closed:
        raise OpenContour("area is only defined for closed contours")
    return abs(_signed_area(c.points))


def _signed_area(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    # cumsum adds the terms in order; np.sum would pair them and round differently
    return 0.5 * float(np.cumsum(x * yn - xn * y)[-1])


def _singular_points(L: PolynomialLemniscate) -> np.ndarray:
    # the only singularity handled, as a row: the Bernoulli double point,
    # present exactly when a 2-focus lemniscate's radius equals the half
    # distance; a field that overflows at the midpoint is far from zero
    mid = midpoint(L.foci[0], L.foci[1]) if L.n == 2 else None
    f = math.inf if mid is None else lemniscate_field(L, mid)
    if f < math.inf and field_residual(L, f) <= 5e-10:
        return xy(mid)[None]
    return np.empty((0, 2))


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
    field on their nodes.

    Blocks of _BLOCK cells are tested first, then the _SUB-cell blocks
    inside the uncertified ones. Returns the node indices of each kept
    block along x and along y, as columns (_SUB + 1, k) clamped at the
    window edge, and the field at those nodes, shape (_SUB + 1, _SUB + 1, k).
    """
    bx, by = np.arange(0, w.nx, _BLOCK), np.arange(0, w.ny, _BLOCK)
    bi, bj = np.nonzero(_uncertified(L, *_box(xs, bx[:, None], _BLOCK, w.nx), *_box(ys, by, _BLOCK, w.ny)))
    # the 4 x 4 sub-blocks of each uncertified block, block axis last; those
    # that start outside the window are dropped
    sx = bx[bi] + np.arange(0, _BLOCK, _SUB)[:, None]
    sy = by[bj] + np.arange(0, _BLOCK, _SUB)[:, None]
    inside = (sx[:, None] < w.nx) & (sy[None] < w.ny)
    a, b, k = np.nonzero(inside & _uncertified(L, *_box(xs, sx[:, None], _SUB, w.nx), *_box(ys, sy[None], _SUB, w.ny)))
    nodes = np.arange(_SUB + 1)[:, None]
    ci, cj = np.minimum(sx[a, k] + nodes, w.nx), np.minimum(sy[b, k] + nodes, w.ny)
    return ci, cj, lemniscate_field_array(L, xs[ci][:, None], ys[cj][None])


def _box(v, start, cells, n):
    """The bounds along one axis of the blocks of cells from node start on,
    clamped at the window edge n."""
    return v[np.minimum(start, n)], v[np.minimum(start + cells, n)]


def _edge_ends(w, xs, ys, ids):
    """The end nodes of the edges with linear ids ids (see _crossings), as
    two arrays of rows (M, 2)."""
    along_y = ids >= w.nx * (w.ny + 1)
    k = ids - along_y * (w.nx * (w.ny + 1))
    i = np.where(along_y, k // w.ny, k // (w.ny + 1))
    j = np.where(along_y, k % w.ny, k % (w.ny + 1))
    a = np.stack((xs[i], ys[j]), axis=-1)
    b = np.stack((xs[i + ~along_y], ys[j + along_y]), axis=-1)
    return a, b


def _crossings(L, w, xs, ys, ci, cj, vals):
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
    one sort of the ends ranks them, a run of equal ids being one crossing."""
    neg = (vals < 0.0).astype(np.int8)
    case = neg[:-1, :-1] + 2 * neg[1:, :-1] + 4 * neg[1:, 1:] + 8 * neg[:-1, 1:]
    # clamping repeats the last node of a short block: those cells are not cells
    real = (ci[:-1, None] < w.nx) & (cj[None, :-1] < w.ny)
    a, b, k = np.nonzero((case > 0) & (case < 15) & real)
    i, j, case = ci[a, k], cj[b, k], case[a, b, k]

    inside = np.zeros(len(case), dtype=np.intp)
    saddle = np.nonzero((case == 5) | (case == 10))[0]
    if saddle.size:
        centre = lemniscate_field_array(L, xs[i[saddle]] + 0.5 * w.dx, ys[j[saddle]] + 0.5 * w.dy)
        inside[saddle] = centre < 0.0
    bottom = i * (w.ny + 1) + j
    left = w.nx * (w.ny + 1) + i * w.ny + j
    edges = np.stack((bottom, bottom + 1, left, left + w.ny), axis=-1)
    seg = _SEGMENTS[case, inside]
    ends = np.take_along_axis(edges, seg.reshape(len(case), 4), axis=1).reshape(-1, 2, 2)[seg[:, :, 0] >= 0]
    order = np.argsort(ends, axis=None)
    ids = ends.ravel()[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    rank = np.empty_like(order)
    rank[order] = np.cumsum(first) - 1
    ids = ids[first]
    nxt = np.full(len(ids), -1, dtype=np.intp)
    nxt[rank[0::2]] = rank[1::2]
    return ids, nxt


def _extract_chains(nxt):
    """The chains of successors, as (rows, closed) with rows an intp array:
    open chains from each crossing that no segment ends at, in id order,
    then each cycle from its lowest id."""
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


def _dedupe(pts: np.ndarray, tol: float) -> np.ndarray:
    """Drop each vertex within tol of the last one kept.

    Where the previous row is kept it is the last kept one, so the test
    against it decides; only the rows after a drop are walked."""
    gap = np.hypot(pts[1:, 0] - pts[:-1, 0], pts[1:, 1] - pts[:-1, 1])
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
    return pts[keep]


def trace(L: PolynomialLemniscate, w: TraceWindow) -> list[Contour]:
    """Extract the zero set of the lemniscate field inside the window.

    Returns one contour per connected component crossing the window,
    ordered by each contour's leftmost-lowest point. Raises EmptyTrace
    when the field has no sign change in the window, and ValueError when
    the field overflows a float at an end of a crossed edge.
    """
    xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
    ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
    with np.errstate(over="ignore"):  # +inf is the right sign, outside
        ids, nxt = _crossings(L, w, xs, ys, *_band(L, w, xs, ys))
    if not ids.size:
        raise EmptyTrace("no sign change in the window")

    # one bracket places every crossing, then each crossing within a cell
    # diagonal of a singular point snaps onto the first one within reach
    coords = refine(L, *_edge_ends(w, xs, ys, ids))
    singular = _singular_points(L)
    if len(singular):
        near = np.hypot(coords[:, None, 0] - singular[:, 0], coords[:, None, 1] - singular[:, 1]) <= w.cell_diagonal
        coords = np.where(near.any(axis=1)[:, None], singular[near.argmax(axis=1)], coords)

    contours = []
    for rows, closed in _extract_chains(nxt):
        pts = coords[rows]
        on = (pts[:, None] == singular).all(axis=2).any(axis=1)
        # a closed chain meets a singular point at each singular vertex unlike
        # the one before it, around the cycle; met twice or more, it splits
        # into one loop from each meeting to the next
        meets = np.flatnonzero(on & (pts != np.roll(pts, 1, axis=0)).any(axis=1))
        split = closed and len(meets) >= 2
        for piece in np.split(np.roll(pts, -meets[0], axis=0), meets[1:] - meets[0]) if split else [pts]:
            piece = _dedupe(piece, 1e-12 * w.cell_diagonal)
            # a cycle that starts on a singular point ends on it too
            if closed and on[0] and (piece[0] == piece[-1]).all():
                piece = piece[:-1]
            if len(piece) < (3 if closed else 2):
                continue
            residual = float(np.abs(lemniscate_field_array(L, piece[:, 0], piece[:, 1])).max())
            contours.append(Contour(piece, closed, residual))

    # by each contour's leftmost-lowest point
    contours.sort(key=lambda c: tuple(c.points[np.lexsort(c.points.T[::-1])[0]].tolist()))
    return contours


def contours_to_csv(contours) -> str:
    """One `x,y` pair per line, a blank line between contours.

    Coordinates use shortest round-trip float formatting so re-importing
    reproduces them exactly.
    """
    text = ("\n".join(["%r,%r"] * len(c.points)) % tuple(c.points.ravel().tolist()) for c in contours)
    return "\n\n".join(text) + "\n"


def contours_from_csv(text: str) -> list[np.ndarray]:
    """Parse the CSV contour format back into (N, 2) arrays."""
    groups, rows = [], []
    for line in text.splitlines() + [""]:
        if line.strip():
            x, y = map(float, line.split(","))
            rows.append((x, y))
        elif rows:
            groups.append(np.array(rows))
            rows = []
    if not all(np.isfinite(g).all() for g in groups):
        raise ValueError("contour coordinates must be finite")
    return groups
