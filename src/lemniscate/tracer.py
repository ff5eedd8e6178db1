"""Grid-based implicit curve extraction for polynomial lemniscates.

Marching squares over a rectangular window with sign-change edge
interpolation, Newton refinement of every vertex onto the curve, and
deliberate splitting of contours at the Bernoulli double point where the
two lobes cross. Closed contours are oriented with the interior (field
negative) on the left, so their signed shoelace area is positive.

Field evaluation over the grid is vectorized; contour assembly is a
deterministic sequential pass, so output is independent of how the grid
evaluation is scheduled.
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
    lemniscate_gradient,
)
from .errors import EmptyTrace, NoConvergence, OpenContour, SingularPoint
from .geometry import Point, midpoint

_GRAD_EPS = 1e-12
_REFINE_TOL = 1e-12
_MAX_NEWTON = 20

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

    Steps until |field| <= 1e-12 * scale**(2n) or 20 iterations; raises
    SingularPoint when the gradient vanishes (such as at the Bernoulli
    double point) and NoConvergence when iteration stalls.
    """
    target = _REFINE_TOL * field_scale(L)
    cur = p
    for _ in range(_MAX_NEWTON):
        g = lemniscate_gradient(L, cur)
        g2 = g.norm_sq()
        if g2 <= _GRAD_EPS * _GRAD_EPS:
            raise SingularPoint(f"gradient vanishes near {cur}")
        f = lemniscate_field(L, cur)
        if abs(f) <= target:
            return cur
        k = f / g2
        cur = Point(cur.x - g.x * k, cur.y - g.y * k)
    if abs(lemniscate_field(L, cur)) <= target:
        return cur
    raise NoConvergence(f"Newton refinement stalled near {cur}")


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


def _edge_points(L, w, xs, ys, grid):
    """Interpolated zero crossings on grid edges, keyed by edge identity."""
    neg = grid < 0.0
    pts: dict[tuple, Point] = {}

    hmask = neg[:-1, :] != neg[1:, :]
    for i, j in np.argwhere(hmask):
        g0 = grid[i, j]
        t = g0 / (g0 - grid[i + 1, j])
        pts[("h", int(i), int(j))] = Point(xs[i] + t * w.dx, ys[j])

    vmask = neg[:, :-1] != neg[:, 1:]
    for i, j in np.argwhere(vmask):
        g0 = grid[i, j]
        t = g0 / (g0 - grid[i, j + 1])
        pts[("v", int(i), int(j))] = Point(xs[i], ys[j] + t * w.dy)

    return neg, pts


def _cell_edges(i: int, j: int) -> dict[str, tuple]:
    return {
        "bottom": ("h", i, j),
        "top": ("h", i, j + 1),
        "left": ("v", i, j),
        "right": ("v", i + 1, j),
    }


def _build_adjacency(L, w, xs, ys, grid, neg):
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


def _snap_and_split(points, closed, singulars, snap_radius):
    """Snap vertices near a singular point onto it and split the chain
    there, so a figure-eight separates into one loop per lobe."""
    if not singulars:
        return [(points, closed)]
    snapped = []
    for p in points:
        for s in singulars:
            if p.distance_to(s) <= snap_radius:
                p = s
                break
        snapped.append(p)
    deduped = [snapped[0]]
    for p in snapped[1:]:
        if p.x != deduped[-1].x or p.y != deduped[-1].y:
            deduped.append(p)
    if closed and len(deduped) > 1 and deduped[0] is deduped[-1]:
        deduped.pop()

    hits = [k for k, p in enumerate(deduped) if any(p is s for s in singulars)]
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


def _refine_chain(L, points, singulars):
    out = []
    for p in points:
        if any(p.x == s.x and p.y == s.y for s in singulars):
            out.append(p)
        else:
            out.append(refine(L, p))
    deduped = [out[0]]
    for p in out[1:]:
        if p.distance_to(deduped[-1]) > 1e-12:
            deduped.append(p)
    return deduped


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
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    grid = lemniscate_field_array(L, xx, yy)

    neg, edge_pts = _edge_points(L, w, xs, ys, grid)
    if not edge_pts:
        raise EmptyTrace("no sign change in the window")

    adjacency = _build_adjacency(L, w, xs, ys, grid, neg)
    singulars = _singular_points(L)
    snap_radius = w.cell_diagonal

    contours = []
    for keys, closed in _extract_chains(adjacency):
        raw = [edge_pts[k] for k in keys]
        for piece, piece_closed in _snap_and_split(raw, closed, singulars, snap_radius):
            refined = _refine_chain(L, piece, singulars)
            if len(refined) < (3 if piece_closed else 2):
                continue
            oriented = _orient(L, w, refined, piece_closed)
            residual = max(abs(lemniscate_field(L, p)) for p in oriented)
            contours.append(Contour(tuple(oriented), piece_closed, residual))

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
