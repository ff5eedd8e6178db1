"""Exact-formula planar primitives.

Points, lines, circles, reflection, inversion, and intersections. All
types are immutable values and all operations are pure closed-form
computations, so everything here is safe to use concurrently.

Conventions: angles are radians; every guard is scale-free, relative
to a radius or to a unit direction, so it holds alike at any similarity
placement; intersection results are returned in a deterministic order
so downstream branch selection is reproducible.

Reflection, inversion of points and lines, and the intersections of a
line with a line or a circle each have one array form (the `*_array`
functions) that takes points as rows of a float array of shape (..., 2)
and broadcasts its arguments; the Point functions are one-row calls of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CenterSingular, Concentric, LineThroughCenter

_EPS = 1e-12
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, slots=True)
class Point:
    """A point of the Euclidean plane, also used as a free vector."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point":
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def dot(self, other: "Point") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def unit(self) -> "Point":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Point(self.x / n, self.y / n)

    def perp(self) -> "Point":
        """Rotate by +90 degrees."""
        return Point(-self.y, self.x)


def midpoint(a: Point, b: Point) -> Point:
    try:
        return Point(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
    except ValueError:  # the sum overflows
        raise ValueError(f"the midpoint of {a} and {b} overflows") from None


@dataclass(frozen=True, slots=True)
class Line:
    """Oriented line given by an anchor point and a unit direction."""

    anchor: Point
    direction: Point

    def __post_init__(self):
        n = self.direction.norm()
        if n == 0.0:
            raise ValueError("line direction must be nonzero")
        if abs(n - 1.0) > _EPS:
            object.__setattr__(self, "direction", Point(self.direction.x / n, self.direction.y / n))

    def point_at(self, t: float) -> Point:
        return self.anchor + self.direction * t


@dataclass(frozen=True, slots=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"circle radius must be positive, got {self.radius}")


InversionMap = Circle  # an inversion is its circle


def invert_point(inv: Circle, p: Point) -> Point:
    """Image of p under the inversion in the circle inv: the point on the ray from the center
    through p at distance radius**2 / |center p| from it. Raises CenterSingular at the center."""
    return row_point(invert_point_array(xy(inv.center), inv.radius, xy(p)))


def reflect_across_line(l: Line, p: Point) -> Point:
    """Mirror image of p in the line (an involution)."""
    return row_point(reflect_across_line_array(xy(l.anchor), xy(l.direction), xy(p)))


def invert_line(inv: Circle, l: Line) -> Circle:
    """Image of a line not through the center: the circle on diameter
    from the center to the image of the line's closest point.

    The circle's center coincides with the inversion image of the
    reflection of the inversion center in the line.
    """
    center, radius = invert_line_array(xy(inv.center), inv.radius, xy(l.anchor), xy(l.direction))
    return Circle(row_point(center), float(radius))


def circle_circle_intersection(c1: Circle, c2: Circle) -> list[Point]:
    """Intersection points of two circles, 0 to 2 of them: the chord their radical line cuts from the smaller.

    Two-point results are ordered with the point on the positive side of
    the center line (normal = direction rotated -90 degrees) first. A radical
    line that touches the smaller circle within rounding yields a single
    point; disjoint or nested circles yield an empty list.
    """
    d = c2.center - c1.center
    d2 = d.norm_sq()
    if d2 == 0.0:
        raise Concentric("concentric circles have no isolated intersections")
    dist = math.sqrt(d2)
    u = Point(d.x / dist, d.y / dist)
    a = (d2 + c1.radius * c1.radius - c2.radius * c2.radius) / (2.0 * dist)
    return line_circle_intersection(Line(c1.center + u * a, u.perp()), c1 if c1.radius <= c2.radius else c2)


def line_circle_intersection(l: Line, c: Circle) -> list[Point]:
    """Intersection points of a line and a circle, sorted by line parameter."""
    a, b, h2 = line_circle_array(xy(l.anchor), xy(l.direction), xy(c.center), c.radius)
    if h2 < -_EPS * c.radius * c.radius:
        return []
    return [row_point(a)] if h2 <= 0.0 else [row_point(a), row_point(b)]


def line_line_intersection(l1: Line, l2: Line) -> Point | None:
    """Intersection of two lines, or None when they are parallel."""
    p = line_line_intersection_array(
        xy(l1.anchor), xy(l1.direction), xy(l2.anchor), xy(l2.direction)
    )
    return None if np.isnan(p[0]) else row_point(p)


# --- array forms --------------------------------------------------------------


def xy(p: Point) -> np.ndarray:
    """A Point as a one-row coordinate array."""
    return np.array((p.x, p.y))


def angle_array(name: str, angles) -> np.ndarray:
    """angles as a float array; ValueError naming the first non-finite one."""
    angles = np.asarray(angles, dtype=float)
    bad = ~np.isfinite(angles)
    if bad.any():
        raise ValueError(f"{name} = {float(angles[bad][0])} is not a finite angle")
    return angles


def rows(x, y) -> np.ndarray:
    """The points (x, y) as rows (..., 2): np.stack(np.broadcast_arrays(x, y),
    axis=-1) in shape, values and tobytes(), but with each coordinate column
    contiguous, so numpy's loops over a sweep's rows run along its points,
    several times faster than over the axis of length 2."""
    if np.shape(x) != np.shape(y):
        x, y = np.broadcast_arrays(x, y)
    cols = np.array((x, y))
    return cols.transpose((*range(1, cols.ndim), 0))


def row_point(row) -> Point:
    return Point(*row.tolist())


def row_dot(u, v):
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def row_cross(u, v):
    cross = u[..., 0] * v[..., 1]
    cross -= u[..., 1] * v[..., 0]
    return cross


def row_norm(v):
    return np.hypot(v[..., 0], v[..., 1])


def row_unit(v):
    """Divide each row of v by its norm, in place, and return v: callers pass an array built for the call."""
    v /= row_norm(v)[..., None]
    return v


def row_perp(v):
    """Rotate each row by +90 degrees."""
    return rows(-v[..., 1], v[..., 0])


def row_rotate(v, angle):
    """Rotate the vector(s) v counterclockwise by the angle(s)."""
    c, s = np.cos(angle), np.sin(angle)
    return rows(v[..., 0] * c - v[..., 1] * s, v[..., 0] * s + v[..., 1] * c)


def reflect_across_line_array(anchor, direction, p):
    """Mirror images of the points p in the lines through anchor along the
    unit direction."""
    t = row_dot(p - anchor, direction)
    foot = rows(anchor[..., 0] + direction[..., 0] * t, anchor[..., 1] + direction[..., 1] * t)
    foot *= 2.0
    return np.subtract(foot, p, out=foot)  # foot has the rows' full shape: it holds the images


def invert_point_array(center, radius, p):
    """Images of the points p under inversion in the circles (center, radius).

    Raises CenterSingular, naming the first offending point, when a point
    lies within 1e-12 radius of its center.
    """
    v = p - center
    with np.errstate(over="ignore"):  # +inf past 1e154: those rows are rescaled below
        d2 = v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]
    at_center = d2 <= (_EPS * radius) ** 2
    if at_center.any():
        bad = np.broadcast_to(p, v.shape)[at_center][0]
        raise CenterSingular(f"cannot invert the center of inversion (point {row_point(bad)})")
    k = np.asarray((radius * radius) / d2)  # an array at one point too, so that far rows can be set
    far = np.isinf(d2)
    if far.any():  # v r^2 / |v|^2 = (w s)(s / m): w = v / m, m the largest |coordinate|, s = r / |w|
        m = np.max(np.abs(v[far]), axis=-1, keepdims=True)
        w = v[far] / m
        s = np.broadcast_to(radius, d2.shape)[far][:, None] / row_norm(w)[:, None]
        v[far], k[far] = (w * s) * (s / m), 1.0  # rescaled first, so the scale below keeps them
    v *= k[..., None]
    return np.add(v, center, out=v)  # the image, in v's own array


def invert_line_array(center, radius, anchor, direction):
    """Images of the lines through anchor along the unit direction under
    inversion in the circles (center, radius): circle centers (..., 2)
    and radii (...). Raises LineThroughCenter for a line within 1e-12
    radius of its center.
    """
    foot = anchor + direction * row_dot(center - anchor, direction)[..., None]
    through = row_norm(foot - center) <= _EPS * radius
    if through.any():
        bad = np.broadcast_to(anchor, foot.shape)[through][0]
        raise LineThroughCenter(
            f"line through {row_point(bad)} and the inversion center maps to a line"
        )
    image = invert_point_array(center, radius, foot)
    return 0.5 * (center + image), 0.5 * row_norm(image - center)


def line_circle_array(anchor, direction, center, radius):
    """Both ends, in line order, of the chords that the lines through anchor along the
    unit direction cut from the circles (center, radius), and h2, the squared half chord;
    where h2 <= 0 the line touches or misses its circle, and both ends are the foot."""
    t0 = row_dot(center - anchor, direction)[..., None]
    off = center - (anchor + direction * t0)
    h2 = radius * radius - row_dot(off, off)
    h = np.sqrt(np.maximum(h2, 0.0))[..., None]
    return anchor + direction * (t0 - h), anchor + direction * (t0 + h), h2


def line_line_intersection_array(a1, d1, a2, d2):
    """Intersections of the lines a1 + s d1 and a2 + t d2 (unit directions).

    Rows where the lines are parallel, |d1 x d2| <= 1e-12, are NaN.
    """
    denom = row_cross(d1, d2)
    parallel = np.abs(denom) <= _EPS
    t = row_cross(a2 - a1, d2) / np.where(parallel, 1.0, denom)
    p = d1 * t[..., None]
    p += a1
    np.copyto(p, np.nan, where=parallel[..., None])
    return p
