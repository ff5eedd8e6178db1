"""Grid-based implicit curve extraction for polynomial lemniscates.

Marching squares over a rectangular window with sign-change edge
interpolation, Newton refinement of every vertex onto the curve, and
deliberate splitting of contours at the Bernoulli double point where the
two lobes cross. Closed contours are oriented with the interior (field
negative) on the left, so their signed shoelace area is positive.

Field evaluation over the grid and crossing interpolation are
vectorized, and refinement is one batched numpy pass; contour assembly
stays sequential and deterministic, so output is independent of how the
array work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    PolynomialLemniscate,
    field_scale,
    lemniscate_field,
    lemniscate_field_array,
    lemniscate_gradient_array,
)
from .errors import EmptyTrace, NoConvergence, OpenContour, SingularPoint
from .geometry import Point, midpoint, row_point, xy

_GRAD_EPS = 1e-12
_REFINE_TOL = 1e-12
_MAX_NEWTON = 20
_FAILURE_TEXT = {
    SingularPoint: "gradient vanishes near",
    NoConvergence: "Newton refinement stalled near",
}

# segments per marching-squares case, by cell edge name; cases 5 and 10
# are saddles resolved by the field sign at the cell center
_CASE_SEGMENTS = {
    1: [("left", "bottom")],
    2: [("bottom", "right")],
    3: [("left", "right")],
    4: [("right", "top")],
    6: [("bottom", "top")],
    7: [("left", "top")],
    8: [("left", "top")],
    9: [("bottom", "top")],
    11: [("right", "top")],
    12: [("left", "right")],
    13: [("bottom", "right")],
    14: [("left", "bottom")],
}
_SADDLE_CENTER_IN = {
    5: [("bottom", "right"), ("top", "left")],
    10: [("left", "bottom"), ("right", "top")],
}
_SADDLE_CENTER_OUT = {
    5: [("left", "bottom"), ("right", "top")],
    10: [("bottom", "right"), ("top", "left")],
}


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

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.nx

    @property
    def dy(self) -> float:
        return (self.ymax - self.ymin) / self.ny

    @property
    def cell_diagonal(self) -> float:
        return math.hypot(self.dx, self.dy)


@dataclass(frozen=True)
class Contour:
    """Ordered polyline extracted from the zero set.

    Closed contours do not repeat the first point; max_residual is the
    largest |field| over the refined points.
    """

    points: tuple[Point, ...]
    closed: bool
    max_residual: float

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if self.closed and len(self.points) < 3:
            raise ValueError("a closed contour needs at least 3 points")
        if len(self.points) < 2:
            raise ValueError("a contour needs at least 2 points")
        for a, b in zip(self.points, self.points[1:]):
            if a.x == b.x and a.y == b.y:
                raise ValueError("repeated consecutive contour point")


def refine(L: PolynomialLemniscate, p: Point) -> Point:
    """Newton-polish p onto the curve along the field gradient.

    A one-row call of refine_array, with the same targets and errors.
    """
    return row_point(refine_array(L, xy(p)[None])[0])


def refine_array(L: PolynomialLemniscate, pts) -> np.ndarray:
    """Newton-polish each row of the (M, 2) array pts onto the curve.

    Every row steps x -> x - grad * f / |grad|^2 until |field| <= 1e-12 *
    scale**(2n) or 20 iterations, and leaves the batch once it converges.
    After the whole batch has run, the first failing row raises:
    SingularPoint when the gradient vanishes (such as at the Bernoulli
    double point), NoConvergence when iteration stalls, ValueError when a
    gradient or a step is not finite.
    """
    cur = np.array(pts, dtype=float).reshape(-1, 2)
    target = _REFINE_TOL * field_scale(L)
    first = None  # (row, error, x, y) of the first failing row
    rows = np.arange(len(cur))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_NEWTON):
            x, y = cur[rows, 0], cur[rows, 1]
            g = lemniscate_gradient_array(L, x, y)
            gx, gy = g[:, 0], g[:, 1]
            g2 = gx * gx + gy * gy
            bad = ~(np.isfinite(gx) & np.isfinite(gy))
            first = _first_failure(first, ValueError, rows[bad], gx[bad], gy[bad])
            singular = ~bad & (g2 <= _GRAD_EPS * _GRAD_EPS)
            first = _first_failure(first, SingularPoint, rows[singular], x[singular], y[singular])
            f = lemniscate_field_array(L, x, y)
            step = ~bad & ~singular & ~(np.abs(f) <= target)
            rows, gx, gy = rows[step], gx[step], gy[step]
            k = f[step] / g2[step]
            x = x[step] - gx * k
            y = y[step] - gy * k
            cur[rows, 0], cur[rows, 1] = x, y
            bad = ~(np.isfinite(x) & np.isfinite(y))
            first = _first_failure(first, ValueError, rows[bad], x[bad], y[bad])
            rows = rows[~bad]
            if not rows.size:
                break
        else:
            stalled = rows[~(np.abs(lemniscate_field_array(L, cur[rows, 0], cur[rows, 1])) <= target)]
            first = _first_failure(first, NoConvergence, stalled, cur[stalled, 0], cur[stalled, 1])
    if first is not None:
        _, error, x, y = first
        p = Point(x, y)  # raises Point's own ValueError for a non-finite gradient or step
        raise error(f"{_FAILURE_TEXT[error]} {p}")
    return cur


def _first_failure(first, error, rows, x, y):
    """Keep whichever fails first in input order: the recorded failure or
    the first of rows (ascending), which failed with error at (x, y)."""
    if rows.size and (first is None or rows[0] < first[0]):
        return (int(rows[0]), error, float(x[0]), float(y[0]))
    return first


def contour_area(c: Contour) -> float:
    """Absolute shoelace area of a closed contour's polygon."""
    if not c.closed:
        raise OpenContour("area is only defined for closed contours")
    return abs(_signed_area(c.points))


def _signed_area(points) -> float:
    acc = 0.0
    n = len(points)
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        acc += a.x * b.y - b.x * a.y
    return 0.5 * acc


def _singular_points(L: PolynomialLemniscate) -> list[Point]:
    # the only singularity handled: the Bernoulli double point, present
    # exactly when a 2-focus lemniscate's radius equals the half distance
    if L.n != 2:
        return []
    mid = midpoint(L.foci[0], L.foci[1])
    if abs(lemniscate_field(L, mid)) <= 1e-9 * field_scale(L):
        return [mid]
    return []


def _edge_points(w, xs, ys, grid):
    """Interpolated zero crossings on grid edges: the sign mask, the row of
    each crossing keyed by edge identity, and the crossings as rows (M, 2)."""
    neg = grid < 0.0
    hi, hj = np.nonzero(neg[:-1, :] != neg[1:, :])
    vi, vj = np.nonzero(neg[:, :-1] != neg[:, 1:])
    g0 = grid[hi, hj]
    hx = xs[hi] + g0 / (g0 - grid[hi + 1, hj]) * w.dx
    g0 = grid[vi, vj]
    vy = ys[vj] + g0 / (g0 - grid[vi, vj + 1]) * w.dy
    keys = [("h", i, j) for i, j in zip(hi.tolist(), hj.tolist())]
    keys += [("v", i, j) for i, j in zip(vi.tolist(), vj.tolist())]
    coords = np.concatenate((np.stack((hx, ys[hj]), axis=-1), np.stack((xs[vi], vy), axis=-1)))
    return neg, {k: r for r, k in enumerate(keys)}, coords


def _cell_edges(i: int, j: int) -> dict[str, tuple]:
    return {
        "bottom": ("h", i, j),
        "top": ("h", i, j + 1),
        "left": ("v", i, j),
        "right": ("v", i + 1, j),
    }


def _build_adjacency(L, w, xs, ys, neg):
    case = (
        neg[:-1, :-1].astype(np.int8)
        + 2 * neg[1:, :-1].astype(np.int8)
        + 4 * neg[1:, 1:].astype(np.int8)
        + 8 * neg[:-1, 1:].astype(np.int8)
    )
    adjacency: dict[tuple, list[tuple]] = {}
    for i, j in np.argwhere((case > 0) & (case < 15)):
        i, j = int(i), int(j)
        code = int(case[i, j])
        if code in _SADDLE_CENTER_IN:
            center = Point(xs[i] + 0.5 * w.dx, ys[j] + 0.5 * w.dy)
            table = _SADDLE_CENTER_IN if lemniscate_field(L, center) < 0.0 else _SADDLE_CENTER_OUT
            segments = table[code]
        else:
            segments = _CASE_SEGMENTS[code]
        edges = _cell_edges(i, j)
        for e1, e2 in segments:
            k1, k2 = edges[e1], edges[e2]
            adjacency.setdefault(k1, []).append(k2)
            adjacency.setdefault(k2, []).append(k1)
    return adjacency


def _walk(adjacency, start, visited):
    seq = [start]
    visited.add(start)
    prev = None
    cur = start
    while True:
        nxt = None
        for nb in adjacency[cur]:
            if nb != prev:
                nxt = nb
                break
        if nxt is None:
            return seq, False
        if nxt == start:
            return seq, True
        if nxt in visited:
            return seq, False
        seq.append(nxt)
        visited.add(nxt)
        prev, cur = cur, nxt


def _extract_chains(adjacency):
    chains = []
    visited: set[tuple] = set()
    nodes = sorted(adjacency)
    for node in nodes:
        if node not in visited and len(adjacency[node]) == 1:
            chains.append(_walk(adjacency, node, visited))
    for node in nodes:
        if node not in visited:
            chains.append(_walk(adjacency, node, visited))
    return chains


def _snap_and_split(rows, closed, xs, ys, singular_rows, snap_radius):
    """Snap vertices near a singular point onto it and split the chain
    there, so a figure-eight separates into one loop per lobe.

    Vertices are rows of the coordinate lists xs, ys; singular_rows are
    the rows that hold the singular points."""
    if not singular_rows:
        return [(rows, closed)]
    snapped = []
    for r in rows:
        for s in singular_rows:
            if math.hypot(xs[r] - xs[s], ys[r] - ys[s]) <= snap_radius:
                r = s
                break
        snapped.append(r)
    deduped = [snapped[0]]
    for r in snapped[1:]:
        if xs[r] != xs[deduped[-1]] or ys[r] != ys[deduped[-1]]:
            deduped.append(r)
    if closed and len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()

    hits = [k for k, r in enumerate(deduped) if r in singular_rows]
    if closed and len(hits) >= 2:
        loops = []
        for m, start in enumerate(hits):
            stop = hits[(m + 1) % len(hits)]
            if stop > start:
                piece = deduped[start:stop]
            else:
                piece = deduped[start:] + deduped[:stop]
            loops.append((piece, True))
        return loops
    return [(deduped, closed)]


def _dedupe(rows, xs, ys):
    """Drop each vertex within 1e-12 of the last one kept."""
    kept = [rows[0]]
    for r in rows[1:]:
        if math.hypot(xs[r] - xs[kept[-1]], ys[r] - ys[kept[-1]]) > 1e-12:
            kept.append(r)
    return kept


def _orient(L, w, points, closed):
    if closed:
        if _signed_area(points) < 0.0:
            return [points[0]] + points[:0:-1]
        return points
    # open chain: keep the interior (negative field) on the left
    a, b = points[0], points[1]
    mid = midpoint(a, b)
    direction = b - a
    n = direction.norm()
    if n > 0.0:
        left = direction.perp() * (1.0 / n)
        probe = mid + left * (0.25 * min(w.dx, w.dy))
        if lemniscate_field(L, probe) > 0.0:
            return points[::-1]
    return points


def trace(L: PolynomialLemniscate, w: TraceWindow) -> list[Contour]:
    """Extract the zero set of the lemniscate field inside the window.

    Returns one contour per connected component crossing the window,
    ordered by each contour's leftmost-lowest point. Raises EmptyTrace
    when the field has no sign change in the window.
    """
    xs = np.linspace(w.xmin, w.xmax, w.nx + 1)
    ys = np.linspace(w.ymin, w.ymax, w.ny + 1)
    grid = lemniscate_field_array(L, xs[:, None], ys[None, :])

    neg, edge_rows, coords = _edge_points(w, xs, ys, grid)
    if not edge_rows:
        raise EmptyTrace("no sign change in the window")

    adjacency = _build_adjacency(L, w, xs, ys, neg)
    # the singular points follow the crossings as extra rows, which stay fixed
    singulars = _singular_points(L)
    singular_rows = range(len(coords), len(coords) + len(singulars))
    coords = np.concatenate((coords, np.array([(s.x, s.y) for s in singulars]).reshape(-1, 2)))
    cx, cy = coords[:, 0].tolist(), coords[:, 1].tolist()

    pieces = []
    for keys, closed in _extract_chains(adjacency):
        rows = [edge_rows[k] for k in keys]
        pieces += _snap_and_split(rows, closed, cx, cy, singular_rows, w.cell_diagonal)

    # one Newton pass over every vertex of every piece, in piece order
    moving = [r for rows, _ in pieces for r in rows if r not in singular_rows]
    coords[moving] = refine_array(L, coords[moving])
    cx, cy = coords[:, 0].tolist(), coords[:, 1].tolist()

    contours = []
    for rows, closed in pieces:
        kept = _dedupe(rows, cx, cy)
        if len(kept) < (3 if closed else 2):
            continue
        residual = float(np.abs(lemniscate_field_array(L, coords[kept, 0], coords[kept, 1])).max())
        oriented = _orient(L, w, [Point(cx[r], cy[r]) for r in kept], closed)
        contours.append(Contour(tuple(oriented), closed, residual))

    contours.sort(key=lambda c: min((p.x, p.y) for p in c.points))
    return contours


def contours_to_csv(contours) -> str:
    """One `x,y` pair per line, a blank line between contours.

    Coordinates use shortest round-trip float formatting so re-importing
    reproduces them exactly.
    """
    blocks = []
    for c in contours:
        blocks.append("\n".join(f"{p.x!r},{p.y!r}" for p in c.points))
    return "\n\n".join(blocks) + "\n"


def contours_from_csv(text: str) -> list[list[Point]]:
    """Parse the CSV contour format back into point lists."""
    groups = []
    current: list[Point] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            if current:
                groups.append(current)
                current = []
            continue
        sx, sy = line.split(",")
        current.append(Point(float(sx), float(sy)))
    if current:
        groups.append(current)
    return groups
