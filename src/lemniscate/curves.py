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
from dataclasses import dataclass, field

import numpy as np

from .errors import NotOnCurve, OutsideLobe, TooManyFoci
from .geometry import (
    SQRT2,
    Line,
    Point,
    angle_array,
    midpoint,
    row_cross,
    row_dot,
    row_norm,
    row_point,
    row_rotate,
    rows,
    xy,
)


@dataclass(frozen=True, slots=True)
class PolynomialLemniscate:
    """Locus where the product of distances to the foci equals radius**n.

    The field, a polynomial of degree at most 2n, is the product of *squared*
    distances minus the level radius**(2n), stored as the radius is validated.
    """

    foci: tuple[Point, ...]
    radius: float
    level: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        foci = tuple(self.foci)
        object.__setattr__(self, "foci", foci)
        if len(foci) < 1:
            raise ValueError("a lemniscate needs at least one focus")
        # before the radius: half the distance of a repeated pair, a usual default, is 0
        for i in range(len(foci)):
            for j in range(i + 1, len(foci)):
                if foci[i].distance_to(foci[j]) == 0.0:
                    at = f"{foci[i].x!r},{foci[i].y!r}"
                    raise ValueError(f"foci must be pairwise distinct, got foci {i + 1} and {j + 1} both at {at}")
        with np.errstate(over="ignore", under="ignore"):
            level = float(np.float64(self.radius) ** (2 * len(foci)))
        if not (self.radius > 0.0 and np.finfo(float).tiny <= level < math.inf):
            raise ValueError(
                f"lemniscate radius must be positive with radius**(2n) a normal float, "
                f"got radius {self.radius} at n = {len(foci)}"
            )
        object.__setattr__(self, "level", level)

    @property
    def n(self) -> int:
        return len(self.foci)


def lemniscate_field(L: PolynomialLemniscate, p: Point) -> float:
    """Product of squared focal distances minus radius**(2n): 0 on the curve, < 0 inside a lobe, > 0 outside."""
    return lemniscate_field_array(L, p.x, p.y)


def lemniscate_gradient(L: PolynomialLemniscate, p: Point) -> Point:
    """Analytic gradient of lemniscate_field at p: the array form's arithmetic on p's coordinates."""
    return Point(*_gradient(L, p.x, p.y))


def lemniscate_field_array(L: PolynomialLemniscate, x, y) -> np.ndarray:
    """lemniscate_field at the points (x, y), broadcasting the coordinate arrays, or as a float at float coordinates.
    Squares are d * d, as numpy evaluates an array's ** 2 (a float's ** calls C pow), taken in place; the first focus's
    term starts the product (1.0 * term is the term bit for bit), so past its differences a focus adds one array."""
    acc = None
    for f in L.foci:
        dx = x - f.x  # one at a time: the last focus's dx is freed before this dy is formed
        dy = y - f.y
        dx *= dx
        dy *= dy
        if acc is None:
            acc = dx + dy
        else:
            acc *= dx + dy
    acc -= L.level
    return acc


def field_residual(L: PolynomialLemniscate, f):
    """Scale-free size of the field values f: |f| / (prod + radius**(2n)),
    that is |f| / (f + 2 level), which any similarity of the plane leaves
    unchanged."""
    return np.abs(f) / (f + 2.0 * L.level)


def on_curve(L: PolynomialLemniscate, p) -> np.ndarray:
    """Whether each row of p lies on the curve: a field_residual of at most 5e-10 there."""
    p = np.asarray(p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing field gives inf / inf, NaN: off the curve
        return field_residual(L, lemniscate_field_array(L, p[..., 0], p[..., 1])) <= 5e-10


def lemniscate_gradient_array(L: PolynomialLemniscate, x, y) -> np.ndarray:
    """lemniscate_gradient at the points (x, y) as rows (..., 2)."""
    return rows(*_gradient(L, x, y))


def _gradient(L: PolynomialLemniscate, x, y):
    """The gradient's components (gx, gy) at the points (x, y), arrays or floats, with d * d squares."""
    d = [(x - f.x, y - f.y) for f in L.foci]
    q = [dx * dx + dy * dy for dx, dy in d]
    gx = gy = 0.0
    for i, (dx, dy) in enumerate(d):
        pref = math.prod((qj for j, qj in enumerate(q) if j != i), start=1.0)
        gx = gx + pref * 2.0 * dx
        gy = gy + pref * 2.0 * dy
    return gx, gy


def _log_derivatives(L: PolynomialLemniscate, z) -> tuple[np.ndarray, np.ndarray]:
    """g' = sum 1 / (z - f_k) and g'' = -sum 1 / (z - f_k)^2 of g = log prod (z - f_k)
    at the complex points z, from the per-focus differences, one row of them per focus."""
    inv = 1.0 / (z - np.array([complex(f.x, f.y) for f in L.foci])[:, None])
    return inv.sum(axis=0), -(inv * inv).sum(axis=0)


def _curvature(L: PolynomialLemniscate, z) -> np.ndarray:
    """Curvature -Re(g'' conj(g')^2) / |g'|^3 of the level line through each complex point z,
    positive toward the inside and NaN where g' = 0; no product of three derivatives is formed."""
    g1, g2 = _log_derivatives(L, z)
    with np.errstate(invalid="ignore", over="ignore"):  # 0 / 0 where g' = 0; subnormal g' can overflow
        return -(g2 * (np.conj(g1) / np.abs(g1)) ** 2).real / np.abs(g1)


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
        """Horner evaluation at the points (x, y), broadcasting the coordinate
        arrays: every row's sum over y at once (row axis last), then over x."""
        r, y = 0.0, np.asarray(y)[..., None]
        for j in range(self.coeffs.shape[1] - 1, -1, -1):
            r = r * y + self.coeffs[:, j]
        acc = 0.0
        for i in range(self.coeffs.shape[0] - 1, -1, -1):
            acc = acc * x + r[..., i]
        return acc


def _mul2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i, j in reversed(np.argwhere(b)):  # each out entry sums a's terms in a's row-major order
        out[i : i + a.shape[0], j : j + a.shape[1]] += a * b[i, j]
    return out


def expand_coefficients(L: PolynomialLemniscate) -> CoefficientTable:
    """Expand the product of the n quadratic distance factors.

    Exact convolution in a dense (i, j) table; guarded to n <= 8 where
    the table stays tiny and float arithmetic stays exact for integer
    inputs. ValueError, naming the foci and radius, when a coefficient
    is not a finite float.
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
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            acc = _mul2d(acc, factor)
    acc[0, 0] -= L.level  # the product of n 3 x 3 factors is already (2n+1) x (2n+1)
    if not np.isfinite(acc).all():
        foci = ", ".join(f"({f.x!r}, {f.y!r})" for f in L.foci)
        raise ValueError(f"the coefficients overflow a float at foci {foci} and radius {L.radius!r}")
    return CoefficientTable(n=L.n, coeffs=acc)


@dataclass(frozen=True, slots=True)
class _FocalPair:
    """Two distinct foci, and the center and axis of the frame they set."""

    f1: Point
    f2: Point

    def __post_init__(self):
        if self.f1.distance_to(self.f2) == 0.0:
            raise ValueError(f"foci must be distinct, got both at {self.f1.x!r},{self.f1.y!r}")

    @property
    def center(self) -> Point:
        return midpoint(self.f1, self.f2)

    @property
    def axis_unit(self) -> Point:
        """Unit vector from f1 toward f2 (also from f1 toward the center)."""
        return (self.f2 - self.f1).unit()


@dataclass(frozen=True, slots=True)
class BernoulliConfig(_FocalPair):
    """Focus pair of a Bernoulli lemniscate.

    The induced lemniscate has radius c = |F1 F2| / 2, so the curve
    passes through the midpoint of the foci (its double point).
    """

    lemniscate: PolynomialLemniscate = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _FocalPair.__post_init__(self)
        # refuses a c**4 that is not a normal float
        object.__setattr__(self, "lemniscate", PolynomialLemniscate((self.f1, self.f2), self.half_distance))

    @property
    def half_distance(self) -> float:
        return 0.5 * self.f1.distance_to(self.f2)


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
    r = B.half_distance * np.sqrt(2.0 * cos2)
    return xy(B.center) + r[..., None] * row_rotate(xy(B.axis_unit), theta)


def bernoulli_area(B: BernoulliConfig) -> float:
    """Exact area enclosed by both lobes: half the squared focal distance."""
    return 0.5 * (B.f2 - B.f1).norm_sq()


@dataclass(frozen=True, slots=True)
class EquilateralHyperbola(_FocalPair):
    """Hyperbola with perpendicular asymptotes, represented by its foci.

    The locus is | |F1 X| - |F2 X| | = |F1 F2| / sqrt(2); the quadratic
    form is synthesized on demand from the pose implied by the foci.
    """

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
    xi2 = 2.0 * row_dot(v, u)
    eta2 = 2.0 * row_cross(u, v)
    return rows(u[0] * xi2 + u[1] * eta2, u[1] * xi2 - u[0] * eta2)  # 2 xi u - 2 eta perp(u)


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
    u, o = H.axis_unit, H.center
    xi = (1.0 if branch >= 0 else -1.0) * a * np.cosh(t)
    eta = a * np.sinh(t)
    return rows(o.x + u.x * xi - u.y * eta, o.y + u.y * xi + u.x * eta)  # o + u xi + perp(u) eta


def unit_hyperbola_foci() -> tuple[Point, Point]:
    """Foci of the hyperbola y = 1/x: on the diagonal at distance 2 from O."""
    return (Point(SQRT2, SQRT2), Point(-SQRT2, -SQRT2))
