"""Correctness oracles for the benchmark, independent of `lemniscate`.

Every check here recomputes what it needs with numpy and the standard
library: the lemniscate field and its gradient, the critical levels of
p(z) = prod(z - f_k), shoelace areas, the CSV and SVG formats. A check
that fails raises OracleError naming what was wrong.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

FIELD_TOL = 1e-9  # on-curve residual, as a share of field_scale
AREA_TOL = 1e-3  # relative error of a traced area against 2c^2
SVG_WIDTH = 800.0  # pixel width every figure is drawn at
SVG_DIGITS = 9  # significant digits of every SVG coordinate


class OracleError(Exception):
    """An output of the program is wrong."""


def as_points(points) -> np.ndarray:
    return np.asarray(points, dtype=float).reshape(-1, 2)


def field(foci, radius: float, points) -> np.ndarray:
    """Product of squared focal distances minus radius**(2n), per point."""
    foci = as_points(foci)
    d = as_points(points)[:, None, :] - foci[None, :, :]
    return (d * d).sum(axis=2).prod(axis=1) - radius ** (2 * len(foci))


def gradient(foci, radius: float, points) -> np.ndarray:
    """Gradient of `field`, by the product rule, as an (m, 2) array."""
    foci = as_points(foci)
    d = as_points(points)[:, None, :] - foci[None, :, :]
    q = (d * d).sum(axis=2)
    out = np.zeros((d.shape[0], 2))
    for k in range(len(foci)):
        others = np.prod(np.delete(q, k, axis=1), axis=1)
        out += (2.0 * others)[:, None] * d[:, k, :]
    return out


def field_scale(foci, radius: float) -> float:
    """max(1, radius, |f_k|) to the field's degree 2n."""
    foci = as_points(foci)
    s = max(1.0, radius, float(np.hypot(foci[:, 0], foci[:, 1]).max()))
    return s ** (2 * len(foci))


def critical_levels(foci) -> np.ndarray:
    """Sorted radii r at which the level set prod |z - f_k| = r**n is singular.

    They are |p(w)|**(1/n) at the roots w of p', p(z) = prod(z - f_k).
    """
    foci = as_points(foci)
    p = np.poly(foci[:, 0] + 1j * foci[:, 1])
    w = np.roots(np.polyder(p))
    return np.sort(np.abs(np.polyval(p, w)) ** (1.0 / len(foci)))


def expected_components(foci, radius: float) -> int:
    """Number of closed curves of the level set at a non-critical radius.

    Each component of {|p| < r**n} holding k foci holds k - 1 critical
    points (Riemann-Hurwitz), and its boundary is one closed curve.
    """
    return len(as_points(foci)) - int((critical_levels(foci) < radius).sum())


def shoelace(points) -> float:
    """Signed area of the closed polygon through the points."""
    p = as_points(points)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def is_closed(points) -> bool:
    """A contour closes when its last-to-first gap is no longer than twice
    its longest step; a contour cut by the window ends far from its start."""
    p = as_points(points)
    if len(p) < 3:
        return False
    steps = np.hypot(*np.diff(p, axis=0).T)
    return float(np.hypot(*(p[0] - p[-1]))) <= 2.0 * float(steps.max())


def check_on_curve(foci, radius: float, points, slack=None, what: str = "vertex") -> None:
    """|field| <= FIELD_TOL * field_scale (+ a per-point slack) at every point."""
    p = as_points(points)
    residual = np.abs(field(foci, radius, p))
    bound = FIELD_TOL * field_scale(foci, radius)
    if slack is not None:
        bound = bound + slack
    bad = np.flatnonzero(residual > bound)
    if bad.size:
        k = int(bad[0])
        raise OracleError(
            f"{bad.size} {what}(s) off the curve, first {p[k].tolist()} with |field| {residual[k]:.3e}"
        )


def check_contours(foci, radius: float, contours, expected: int) -> None:
    """The trace of a level set lying inside its window: `expected`
    closed contours, every vertex on the curve."""
    if len(contours) != expected:
        raise OracleError(f"{len(contours)} contours, expected {expected}")
    for k, c in enumerate(contours):
        if not is_closed(c):
            raise OracleError(f"contour {k} ({len(c)} vertices) is not closed")
        check_on_curve(foci, radius, c)


def bernoulli_area(foci) -> float:
    """Exact area 2c^2 enclosed by the Bernoulli lemniscate with these foci."""
    f = as_points(foci)
    c = 0.5 * math.dist(f[0], f[1])
    return 2.0 * c * c


def check_area(foci, contours) -> float:
    """The contours enclose the area 2c^2 of the Bernoulli lemniscate;
    returns |A - 2c^2| / 2c^2 for A their total shoelace area."""
    exact = bernoulli_area(foci)
    err = abs(sum(abs(shoelace(c)) for c in contours) - exact) / exact
    if err > AREA_TOL:
        raise OracleError(f"traced area off by {err:.3e} of 2c^2")
    return err


def check_bernoulli_trace(foci, contours) -> float:
    """Two closed lobes on the curve whose area is 2c^2; returns the area error."""
    f = as_points(foci)
    check_contours(f, 0.5 * math.dist(f[0], f[1]), contours, 2)
    return check_area(f, contours)


def parse_csv(text: str) -> list[np.ndarray]:
    """Contours from `x,y` lines with blank lines between contours.

    Every number must be written in its shortest round-trip form, so that
    reading the file back gives exactly the floats that were traced.
    """
    contours = []
    for block in text.strip("\n").split("\n\n"):
        rows = []
        for line in block.split("\n"):
            tokens = line.split(",")
            if len(tokens) != 2:
                raise OracleError(f"bad CSV line {line!r}")
            values = [float(t) for t in tokens]
            if [repr(v) for v in values] != tokens:
                raise OracleError(f"CSV line {line!r} does not round-trip")
            rows.append(values)
        contours.append(as_points(rows))
    return contours


# --- SVG -------------------------------------------------------------------


def half_quantum(values) -> np.ndarray:
    """Largest rounding error of each value printed to SVG_DIGITS digits."""
    v = np.abs(np.asarray(values, dtype=float))
    exp = np.floor(np.log10(np.where(v > 0.0, v, 1.0)))
    return np.where(v > 0.0, 0.5 * 10.0 ** (exp - (SVG_DIGITS - 1)), 0.0)


class SvgFigure:
    """The geometry of an emitted SVG, in pixels and mapped back to the plane.

    `window` is (xmin, xmax, ymin, ymax) of the view: its width maps to
    SVG_WIDTH pixels and y points up.
    """

    def __init__(self, text: str, window):
        try:
            root = ET.fromstring(text.encode("utf-8"))
        except ET.ParseError as exc:
            raise OracleError(f"SVG does not parse: {exc}") from exc
        self.xmin, xmax, ymin, self.ymax = window
        self.scale = SVG_WIDTH / (xmax - self.xmin)
        height = (self.ymax - ymin) * self.scale
        if float(root.get("width")) != SVG_WIDTH or abs(float(root.get("height")) - height) > 1e-6 * height:
            raise OracleError(f"SVG size {root.get('width')}x{root.get('height')} does not match the window")
        self.polygons: list[np.ndarray] = []
        self.polylines: list[np.ndarray] = []
        self.markers: list[tuple[str, np.ndarray]] = []
        self.texts: list[str] = []
        children = [(el.tag.rsplit("}", 1)[-1], el) for el in root]
        for k, (tag, el) in enumerate(children):
            if tag in ("polygon", "polyline"):
                px = as_points([pair.split(",") for pair in el.get("points").split()])
                (self.polygons if tag == "polygon" else self.polylines).append(px)
            elif tag == "circle" and el.get("r") == "3.5":
                label = ""
                if k + 1 < len(children) and children[k + 1][0] == "text":
                    label = children[k + 1][1].text or ""
                self.markers.append((label, as_points([el.get("cx"), el.get("cy")])))
            elif tag == "text":
                self.texts.append(el.text or "")

    def to_plane(self, px) -> np.ndarray:
        px = as_points(px)
        return np.column_stack((self.xmin + px[:, 0] / self.scale, self.ymax - px[:, 1] / self.scale))

    def slack(self, foci, radius: float, px) -> np.ndarray:
        """Field error that printing the pixels to SVG_DIGITS digits can cause."""
        px = as_points(px)
        g = np.abs(gradient(foci, radius, self.to_plane(px)))
        dx = half_quantum(px[:, 0]) / self.scale
        dy = half_quantum(px[:, 1]) / self.scale
        return 1.01 * (g[:, 0] * dx + g[:, 1] * dy)

    def check_polygons_on(self, curves) -> None:
        """Every polygon lies on one of the (foci, radius) curves."""
        if not self.polygons:
            raise OracleError("SVG has no closed contour")
        for k, px in enumerate(self.polygons):
            errors = []
            for foci, radius in curves:
                try:
                    check_on_curve(foci, radius, self.to_plane(px), self.slack(foci, radius, px))
                    break
                except OracleError as exc:
                    errors.append(str(exc))
            else:
                raise OracleError(f"polygon {k}: {errors[0]}")

    def check_markers_on(self, foci, radius: float, labels) -> int:
        """Every marker with one of the labels lies on the curve; returns how many."""
        hits = [px for label, px in self.markers if label in labels]
        for px in hits:
            check_on_curve(foci, radius, self.to_plane(px), self.slack(foci, radius, px), what="marker")
        return len(hits)
