"""Implicit and parametric curve representations.

Polynomial lemniscates (product of distances to n foci held constant),
the Bernoulli special case, and the equilateral hyperbola, plus the
analytic gradient, dense coefficient expansion, and the exact area of
the Bernoulli lemniscate.

Sign convention: the implicit field is negative strictly inside a lobe
and positive outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotOnCurve, OutsideLobe, TooManyFoci
from .geometry import (
    SQRT2,
    InversionMap,
    Line,
    Point,
    angle_array,
    midpoint,
    row_cross,
    row_dot,
    row_norm,
    row_perp,
    row_point,
    xy,
)


@dataclass(frozen=True, slots=True)
class PolynomialLemniscate:
    """Locus where the product of distances to the foci equals radius**n.

    The stored field is the product of *squared* distances minus
    radius**(2n), an algebraic curve of degree at most 2n.
    """

    foci: tuple[Point, ...]
    radius: float

    def __post_init__(self):
        foci = tuple(self.foci)
        object.__setattr__(self, "foci", foci)
        if len(foci) < 1:
            raise ValueError("a lemniscate needs at least one focus")
        with np.errstate(over="ignore", under="ignore"):
            level = float(np.float64(self.radius) ** (2 * len(foci)))
        if not (self.radius > 0.0 and np.finfo(float).tiny <= level < math.inf):
            raise ValueError(
                f"lemniscate radius must be positive with radius**(2n) a normal float, "
                f"got radius {self.radius} at n = {len(foci)}"
            )
        for i in range(len(foci)):
            for j in range(i + 1, len(foci)):
                if foci[i].distance_to(foci[j]) == 0.0:
                    raise ValueError("foci must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.foci)

    @property
    def level(self) -> float:
        """The constant the product of squared distances is held at."""
        return self.radius ** (2 * self.n)


def lemniscate_field(L: PolynomialLemniscate, p: Point) -> float:
    """Product of squared focal distances minus radius**(2n).

    Zero exactly on the curve, negative inside a lobe, positive outside.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, as float arithmetic does
        return float(lemniscate_field_array(L, np.array((p.x,)), np.array((p.y,)))[0])


def lemniscate_gradient(L: PolynomialLemniscate, p: Point) -> Point:
    """Analytic gradient of lemniscate_field at p."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = lemniscate_gradient_array(L, np.array((p.x,)), np.array((p.y,)))
    return row_point(g[0])


def lemniscate_field_array(L: PolynomialLemniscate, x, y) -> np.ndarray:
    """lemniscate_field at the points (x, y), broadcasting the coordinate
    arrays; the scalar form is a one-row call of it."""
    acc = np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))
    for f in L.foci:
        acc *= (x - f.x) ** 2 + (y - f.y) ** 2
    acc -= L.level
    return acc


def field_residual(L: PolynomialLemniscate, f):
    """Scale-free size of the field values f: |f| / (prod + radius**(2n)),
    that is |f| / (f + 2 level), which any similarity of the plane leaves
    unchanged."""
    return np.abs(f) / (f + 2.0 * L.level)


def lemniscate_gradient_array(L: PolynomialLemniscate, x, y) -> np.ndarray:
    """lemniscate_gradient at the points (x, y) as rows (..., 2)."""
    q = [(x - f.x) ** 2 + (y - f.y) ** 2 for f in L.foci]
    gx = gy = 0.0
    for i, f in enumerate(L.foci):
        pref = 1.0
        for j, qj in enumerate(q):
            if j != i:
                pref = pref * qj
        gx = gx + pref * 2.0 * (x - f.x)
        gy = gy + pref * 2.0 * (y - f.y)
    return np.stack(np.broadcast_arrays(gx, gy), axis=-1)


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Dense monomial coefficients of the expanded lemniscate field.

    coeffs[i, j] multiplies x**i * y**j; entries with i + j > 2n are zero
    and the degree-2n form is the binomial expansion of (x^2 + y^2)^n.
    """

    n: int
    coeffs: np.ndarray

    @property
    def degree(self) -> int:
        return 2 * self.n

    def coefficient(self, i: int, j: int) -> float:
        if i < 0 or j < 0 or i + j > self.degree:
            return 0.0
        return float(self.coeffs[i, j])

    def evaluate(self, p: Point) -> float:
        """The expanded polynomial at p: evaluate_array on p's coordinates."""
        return float(self.evaluate_array(p.x, p.y))

    def evaluate_array(self, x, y) -> np.ndarray:
        """Horner evaluation at the points (x, y), broadcasting the
        coordinate arrays: inner loop over y inside a loop over x."""
        acc = 0.0
        for i in range(self.coeffs.shape[0] - 1, -1, -1):
            row = self.coeffs[i]
            r = 0.0
            for j in range(self.coeffs.shape[1] - 1, -1, -1):
                r = r * y + row[j]
            acc = acc * x + r
        return acc


def _mul2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i, j in zip(*np.nonzero(a)):
        out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
    return out


def expand_coefficients(L: PolynomialLemniscate) -> CoefficientTable:
    """Expand the product of the n quadratic distance factors.

    Exact convolution in a dense (i, j) table; guarded to n <= 8 where
    the table stays tiny and float arithmetic stays exact for integer
    inputs.
    """
    if L.n > 8:
        raise TooManyFoci(f"coefficient expansion supports n <= 8, got {L.n}")
    acc = np.ones((1, 1))
    for f in L.foci:
        factor = np.zeros((3, 3))
        factor[0, 0] = f.x * f.x + f.y * f.y
        factor[1, 0] = -2.0 * f.x
        factor[0, 1] = -2.0 * f.y
        factor[2, 0] = 1.0
        factor[0, 2] = 1.0
        acc = _mul2d(acc, factor)
    # pad to a square (2n+1) x (2n+1) table for uniform indexing
    size = 2 * L.n + 1
    table = np.zeros((size, size))
    table[: acc.shape[0], : acc.shape[1]] = acc
    table[0, 0] -= L.level
    return CoefficientTable(n=L.n, coeffs=table)


@dataclass(frozen=True, slots=True)
class BernoulliConfig:
    """Focus pair of a Bernoulli lemniscate.

    The induced lemniscate has radius c = |F1 F2| / 2, so the curve
    passes through the midpoint of the foci (its double point).
    """

    f1: Point
    f2: Point

    def __post_init__(self):
        if self.f1.distance_to(self.f2) == 0.0:
            raise ValueError("Bernoulli foci must be distinct")
        self.lemniscate  # refuses a c**4 that is not a normal float

    @property
    def center(self) -> Point:
        return midpoint(self.f1, self.f2)

    @property
    def half_distance(self) -> float:
        return 0.5 * self.f1.distance_to(self.f2)

    @property
    def axis_unit(self) -> Point:
        """Unit vector from f1 toward f2 (also from f1 toward the center)."""
        return (self.f2 - self.f1).unit()

    @property
    def lemniscate(self) -> PolynomialLemniscate:
        return PolynomialLemniscate((self.f1, self.f2), self.half_distance)

    @property
    def inversion(self) -> InversionMap:
        """Inversion in the circle centered at the double point through the foci."""
        return InversionMap(self.center, self.half_distance)


def bernoulli_polar_point(B: BernoulliConfig, theta: float) -> Point:
    """Point of the lemniscate at polar angle theta about the double point.

    theta is measured from the center-to-f2 direction; the radius obeys
    r^2 = 2 c^2 cos(2 theta), so theta is restricted to the two lobes
    where cos(2 theta) >= 0.
    """
    return row_point(bernoulli_polar_array(B, [theta])[0])


def bernoulli_polar_array(B: BernoulliConfig, theta) -> np.ndarray:
    """bernoulli_polar_point at each polar angle, as rows (N, 2).

    Raises OutsideLobe naming the first angle outside the lobes.
    """
    theta = angle_array("theta", theta)
    cos2 = np.cos(2.0 * theta)
    outside = cos2 < 0.0
    if outside.any():
        raise OutsideLobe(
            f"cos(2*theta) = {float(cos2[outside][0])} < 0: "
            f"no curve point at theta = {float(theta[outside][0])}"
        )
    c = B.half_distance
    r = c * np.sqrt(2.0 * cos2)
    u = B.axis_unit
    ct, st = np.cos(theta), np.sin(theta)
    o = B.center
    return np.stack((o.x + r * (u.x * ct - u.y * st), o.y + r * (u.x * st + u.y * ct)), axis=-1)


def bernoulli_area(B: BernoulliConfig) -> float:
    """Exact area enclosed by both lobes: half the squared focal distance."""
    return 0.5 * (B.f2 - B.f1).norm_sq()


@dataclass(frozen=True, slots=True)
class EquilateralHyperbola:
    """Hyperbola with perpendicular asymptotes, represented by its foci.

    The locus is | |F1 X| - |F2 X| | = |F1 F2| / sqrt(2); the quadratic
    form is synthesized on demand from the pose implied by the foci.
    """

    f1: Point
    f2: Point

    def __post_init__(self):
        if self.f1.distance_to(self.f2) == 0.0:
            raise ValueError("hyperbola foci must be distinct")

    @property
    def center(self) -> Point:
        return midpoint(self.f1, self.f2)

    @property
    def axis_unit(self) -> Point:
        return (self.f2 - self.f1).unit()

    @property
    def semi_axis(self) -> float:
        """Common semi-axis a = b = |F1 F2| / (2 sqrt(2))."""
        return self.f1.distance_to(self.f2) / (2.0 * SQRT2)


def hyperbola_residual(H: EquilateralHyperbola, p: Point) -> float:
    """Defining residual | |p F1| - |p F2| | - |F1 F2| / sqrt(2)."""
    return float(hyperbola_residual_array(H, xy(p)))


def hyperbola_residual_array(H: EquilateralHyperbola, p) -> np.ndarray:
    """hyperbola_residual at each row of p."""
    d1 = row_norm(p - xy(H.f1))
    d2 = row_norm(p - xy(H.f2))
    return np.abs(d1 - d2) - H.f1.distance_to(H.f2) / SQRT2


def hyperbola_gradient_array(H: EquilateralHyperbola, p) -> np.ndarray:
    """Gradient of the quadratic form xi^2 - eta^2 - a^2, written in the
    frame aligned with the focal axis, at each row of p."""
    u = xy(H.axis_unit)
    v = p - xy(H.center)
    xi = row_dot(v, u)
    eta = row_cross(u, v)
    return u * (2.0 * xi)[..., None] - row_perp(u) * (2.0 * eta)[..., None]


def hyperbola_tangent_at(H: EquilateralHyperbola, q: Point) -> Line:
    """Tangent line at a point of the hyperbola.

    The direction is perpendicular to the gradient of the quadratic form,
    so the returned line has second-order contact with the branch.
    """
    if abs(hyperbola_residual(H, q)) > 1e-8 * 0.5 * H.f1.distance_to(H.f2):
        raise NotOnCurve(f"point {q} is not on the hyperbola")
    return Line(q, row_point(hyperbola_gradient_array(H, xy(q))).perp())


def hyperbola_point(H: EquilateralHyperbola, t: float, branch: int = 1) -> Point:
    """Point at hyperbolic parameter t on the branch nearest f2 (+1) or f1 (-1)."""
    return row_point(hyperbola_point_array(H, [t], branch)[0])


def hyperbola_point_array(H: EquilateralHyperbola, t, branch: int = 1) -> np.ndarray:
    """hyperbola_point at each parameter t on one branch, as rows (N, 2)."""
    t = np.asarray(t, dtype=float)
    a = H.semi_axis
    u = xy(H.axis_unit)
    xi = (1.0 if branch >= 0 else -1.0) * a * np.cosh(t)
    eta = a * np.sinh(t)
    return xy(H.center) + u * xi[..., None] + row_perp(u) * eta[..., None]


def unit_hyperbola_foci() -> tuple[Point, Point]:
    """Foci of the hyperbola y = 1/x: on the diagonal at distance 2 from O."""
    return (Point(SQRT2, SQRT2), Point(-SQRT2, -SQRT2))
