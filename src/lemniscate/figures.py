"""Scene assembly and deterministic SVG emission.

A Scene is an ordered list of drawables (contour polylines, circles,
segments, point markers, text labels) over a view window. figure_scene
composes the canonical figures (the traced curve plus the auxiliary
elements of each construction); emit_svg serializes a scene to SVG 1.1
text that is byte-identical for identical scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constructions import (
    hyperbola_of,
    maclaurin_sample,
    normal_by_angle,
    right_angle_solve,
    tangent_circle_at,
    three_bar_solve,
)
from .curves import (
    BernoulliConfig,
    PolynomialLemniscate,
    bernoulli_polar_point,
    hyperbola_point_array,
    hyperbola_tangent_at,
)
from .errors import UndefinedCenter, UnknownPreset
from .geometry import SQRT2, Point, midpoint, rows
from .tracer import TraceWindow, bernoulli_window, trace, trace_levels


class Style(NamedTuple):
    """Stroke width in scene units, dash flag, and an optional label."""

    stroke_width: float = 0.0
    dashed: bool = False
    label: str = ""


@dataclass(frozen=True, eq=False)
class PolylineElement:
    """A polyline through the rows of the (N, 2) float array points."""

    points: np.ndarray
    closed: bool
    style: Style


class CircleElement(NamedTuple):
    center: Point
    radius: float
    style: Style


class SegmentElement(NamedTuple):
    a: Point
    b: Point
    style: Style


class MarkerElement(NamedTuple):
    at: Point
    style: Style


class TextElement(NamedTuple):
    at: Point
    style: Style


class _OutsideView(ValueError):
    """The scene guard's refusal: it names the stray point, so figure_scene adds the input."""


@dataclass
class Scene:
    """Drawable elements over a view window.

    Adding an element checks that its geometry stays within twice the
    view window, a guard against runaway coordinates from degenerate
    construction parameters.
    """

    viewbox: TraceWindow
    elements: list = field(default_factory=list)

    def _inside(self, x, y):
        """Whether (x, y), floats or arrays of coordinates, lies within twice the view window."""
        w = self.viewbox
        cx, hx = 0.5 * (w.xmin + w.xmax), w.xmax - w.xmin
        cy, hy = 0.5 * (w.ymin + w.ymax), w.ymax - w.ymin
        return (cx - hx <= x) & (x <= cx + hx) & (cy - hy <= y) & (y <= cy + hy)

    def _check(self, *points) -> None:
        """Refuse the first of the points, (x, y) pairs of floats, outside twice the view window."""
        for x, y in points:
            if not self._inside(x, y):
                raise _OutsideView(f"element reaches {Point(x, y)}, outside 2x the view window")

    def add(self, element) -> None:
        if isinstance(element, PolylineElement):
            pts = np.asarray(element.points, dtype=float)
            if pts.shape[1:] != (2,):
                raise ValueError(f"polyline points must be (N, 2) rows, got shape {pts.shape}")
            self._check(*pts[~self._inside(*pts.T)][:1].tolist())
        elif isinstance(element, CircleElement):
            c, r = element.center, element.radius
            self._check((c.x - r, c.y - r), (c.x + r, c.y + r))
        elif isinstance(element, SegmentElement):
            self._check((element.a.x, element.a.y), (element.b.x, element.b.y))
        elif isinstance(element, (MarkerElement, TextElement)):
            self._check((element.at.x, element.at.y))
        else:
            raise TypeError(f"not a scene element: {element!r}")
        self.elements.append(element)


def _stroke(w: TraceWindow) -> float:
    return 0.006 * (w.xmax - w.xmin)


def _add_contours(scene: Scene, contours, width: float = 1.0) -> None:
    sw = width * _stroke(scene.viewbox)
    for contour in contours:
        scene.add(PolylineElement(contour.points, contour.closed, Style(stroke_width=sw)))


def curve_scene(L: PolynomialLemniscate, w: TraceWindow) -> Scene:
    """The traced curve alone, over the view window w."""
    scene = Scene(w)
    _add_contours(scene, trace(L, w))
    return scene


def _markers(scene: Scene, labels: str, *points: Point) -> None:
    """One labelled marker per point; labels is a space-separated list."""
    for label, p in zip(labels.split(), points, strict=True):
        scene.add(MarkerElement(p, Style(label=label)))


def _segment(scene: Scene, a: Point, b: Point, width: float = 1.0, dashed: bool = False) -> None:
    scene.add(SegmentElement(a, b, Style(stroke_width=width * _stroke(scene.viewbox), dashed=dashed)))


def _circle(scene: Scene, center: Point, radius: float, dashed: bool = False) -> None:
    scene.add(CircleElement(center, radius, Style(stroke_width=_stroke(scene.viewbox), dashed=dashed)))


def _clip_runs(pts: np.ndarray, scene: Scene):
    """Split a polyline into maximal runs inside the scene's 2x bounds."""
    inside = scene._inside(*pts.T)
    cuts = np.flatnonzero(inside[1:] != inside[:-1]) + 1
    return [run for run, keep in zip(np.split(pts, cuts), inside[np.r_[0, cuts]]) if keep and len(run) >= 2]


def _add_hyperbola(scene: Scene, B: BernoulliConfig) -> None:
    H = hyperbola_of(B)
    sw = _stroke(scene.viewbox)
    ts = -3.0 + 6.0 * np.arange(241) / 240
    for branch in (1, -1):
        for run in _clip_runs(hyperbola_point_array(H, ts, branch), scene):
            scene.add(PolylineElement(run, False, Style(stroke_width=sw)))


def _draw_lemniscate(scene, B):
    _markers(scene, "F1 F2 O", B.f1, B.f2, B.center)


def _scene_family3(grid):
    # invented preset: unit equilateral triangle of foci, nine radius
    # levels geometrically spaced across the critical radius
    circumradius = 1.0 / math.sqrt(3.0)
    foci = tuple(
        Point(circumradius * math.cos(a), circumradius * math.sin(a))
        for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
    )
    half = 1.15
    w = TraceWindow(-half, half, -half, half, grid, grid)
    scene = Scene(w)
    ratio = (1.4 / 0.7) ** (1.0 / 8.0)
    for contours in trace_levels([PolynomialLemniscate(foci, circumradius * 0.7 * ratio**k) for k in range(9)], w):
        _add_contours(scene, contours, 0.7)
    _markers(scene, "F1 F2 F3", *foci)
    return scene


def _draw_threebar(scene, B, theta):
    s = three_bar_solve(B, theta)
    for a, b in ((B.f1, s.a), (s.a, s.b), (B.f2, s.b)):
        _segment(scene, a, b, 1.4)
    _markers(scene, "F1 F2 A B X O", B.f1, B.f2, s.a, s.b, s.x, B.center)


def _draw_maclaurin(scene, B, phi):
    s = maclaurin_sample(B, phi)
    _circle(scene, B.f1, B.half_distance / SQRT2, dashed=True)
    _segment(scene, s.x_prime, s.b, 1.2)
    _markers(scene, "F1 O A B X X'", B.f1, B.center, s.a, s.b, s.x, s.x_prime)


def _draw_rightangle(scene, B, alpha):
    s = right_angle_solve(B, alpha)
    o = B.center
    _circle(scene, B.f1, B.half_distance, dashed=True)
    for a, b in ((B.f1, s.a), (s.a, s.x), (s.a, s.y)):
        _segment(scene, a, b, 1.4)
    mids = midpoint(s.a, s.x), midpoint(s.a, s.y)
    for m in mids:
        _segment(scene, o, m, dashed=True)
    _markers(scene, "F1 O A B C X Y", B.f1, o, s.a, *mids, s.x, s.y)


def _draw_inversion(scene, B, theta):
    _add_hyperbola(scene, B)
    s = three_bar_solve(B, theta)
    if s.q is None:
        raise UndefinedCenter(f"stick lines are parallel at theta = {theta}; the inversion figure has no point Q")
    o = B.center
    _circle(scene, o, B.half_distance, dashed=True)
    _segment(scene, o, s.q if s.q.distance_to(o) >= s.x.distance_to(o) else s.x, dashed=True)
    _markers(scene, "O F1 F2 X Q P", o, B.f1, B.f2, s.x, s.q, s.p)
    product = s.x.distance_to(o) * s.q.distance_to(o)
    w = scene.viewbox
    label_at = Point(w.xmin + 0.05 * (w.xmax - w.xmin), w.ymax - 0.08 * (w.ymax - w.ymin))
    scene.add(TextElement(label_at, Style(label=f"|OX|*|OQ| = {product:.3f}")))


def _draw_tangentcircle(scene, B, theta):
    s = three_bar_solve(B, theta)
    circle = tangent_circle_at(s)
    _circle(scene, circle.center, circle.radius)
    tangent = hyperbola_tangent_at(hyperbola_of(B), s.q)
    half_len = 0.9 * B.half_distance
    _segment(scene, tangent.point_at(-half_len), tangent.point_at(half_len), dashed=True)
    _markers(scene, "O X Q P", B.center, s.x, s.q, s.p)


def _draw_normal(scene, B, theta):
    x = bernoulli_polar_point(B, theta)
    normal = normal_by_angle(B, x)
    o = B.center
    half_len = 0.6 * B.half_distance  # up to 0.5c + 0.6c, inside the view's 0.8 sqrt(2) c
    _segment(scene, o, x, dashed=True)
    _segment(scene, normal.point_at(-half_len), normal.point_at(half_len), 1.2)
    _markers(scene, "O F1 X", o, B.f1, x)


# Bernoulli presets: the half-height of the view window in units of
# c*sqrt(2), the outer vertex distance, the one angle drawn (or None), its
# default in degrees, and the drawing added over the traced curve. The
# half-width is 1.6 c*sqrt(2); the height grows for presets whose elements
# reach above the curve (stick tips go up to c*sqrt(2) from the double point).
_BERNOULLI_PRESETS = {
    "lemniscate": (0.8, None, None, _draw_lemniscate),
    "threebar": (1.15, "theta", 90.0, _draw_threebar),
    "maclaurin": (1.15, "phi", 30.0, _draw_maclaurin),
    "rightangle": (1.15, "alpha", 60.0, _draw_rightangle),
    "inversion": (1.15, "theta", 90.0, _draw_inversion),
    "tangentcircle": (1.45, "theta", 90.0, _draw_tangentcircle),
    "normal": (0.8, "theta", 30.0, _draw_normal),
}
FIGURE_PRESETS = ("family3", *_BERNOULLI_PRESETS)


def figure_scene(
    preset: str,
    B: BernoulliConfig | None,
    *,
    theta: float | None = None,
    phi: float | None = None,
    alpha: float | None = None,
    grid: int = 512,
) -> Scene:
    """Compose the named figure.

    Each preset draws at most one angle, in radians; when None it is the
    preset's default, kept in degrees: crank theta 90 (threebar,
    inversion, tangentcircle), secant phi 30 (maclaurin), crank alpha 60
    (rightangle), polar angle theta 30 (normal). Any other angle raises
    ValueError. The `family3` preset has its own fixed foci, draws no
    angle, and ignores B, which may then be None.
    """
    if preset not in FIGURE_PRESETS:
        raise UnknownPreset(f"unknown preset {preset!r}; choose from {FIGURE_PRESETS}")
    tall, angle, default, draw = _BERNOULLI_PRESETS.get(preset, (None,) * 4)
    given = {k: v for k, v in (("theta", theta), ("phi", phi), ("alpha", alpha)) if v is not None}
    stray = [k for k in given if k != angle]
    if stray:
        draws = f"draws {angle}" if angle else "draws no angle"
        raise ValueError(f"the {preset} figure {draws}; --{stray[0]} does not apply")
    if preset == "family3":
        return _scene_family3(grid)
    c = B.half_distance
    scene = curve_scene(B.lemniscate, bernoulli_window(B, grid, 1.6 * c * SQRT2, tall * c * SQRT2))
    if angle:
        given.setdefault(angle, math.radians(default))
    try:
        draw(scene, B, **given)
    except _OutsideView as exc:  # near a degenerate angle an element runs off to a far point
        at = "".join(f" at {k} = {v}" for k, v in given.items())
        raise ValueError(f"the {preset} figure{at}: {exc}") from None
    return scene


def _fmt(v: float) -> str:
    return f"{v + 0.0:.9g}"  # -0.0 + 0.0 is 0.0


_CURVE_COLOR = "#1a1a1a"
_AUX_COLOR = "#4477aa"
_STICK_COLOR = "#aa3333"
_TEXT_COLOR = "#333333"
_SVG_WIDTH = 800.0


def emit_svg(scene: Scene) -> str:
    """Serialize a scene to SVG 1.1 text.

    The view window maps to a fixed 800-unit-wide pixel space with the
    y axis pointing up, preserving mathematical orientation. Output is
    deterministic: the same scene yields byte-identical text.
    """
    w = scene.viewbox
    scale = _SVG_WIDTH / (w.xmax - w.xmin)
    height = (w.ymax - w.ymin) * scale

    def to_px(x, y):  # of floats or of arrays of coordinates
        return (x - w.xmin) * scale, (w.ymax - y) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_SVG_WIDTH)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(_SVG_WIDTH)} {_fmt(height)}">',
    ]

    def text(x: float, y: float, size: int, label: str) -> str:
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        return (
            f'  <text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" fill="{_TEXT_COLOR}">{label}</text>'
        )

    def stroke(color: str, style: Style) -> str:
        dash = ' stroke-dasharray="6 4"' if style.dashed else ""
        return f'stroke="{color}" stroke-width="{_fmt(max(style.stroke_width * scale, 0.75))}"{dash}'

    for el in scene.elements:
        if isinstance(el, PolylineElement):
            points = np.asarray(el.points)
            px = rows(*to_px(points[..., 0], points[..., 1])) + 0.0  # as _fmt: -0.0 + 0.0 is 0.0
            coords = " ".join(["%.9g,%.9g"] * len(px)) % tuple(px.ravel().tolist())
            tag = "polygon" if el.closed else "polyline"
            lines.append(f'  <{tag} points="{coords}" fill="none" {stroke(_CURVE_COLOR, el.style)}/>')
        elif isinstance(el, CircleElement):
            cx, cy = to_px(el.center.x, el.center.y)
            lines.append(
                f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(el.radius * scale)}" '
                f'fill="none" {stroke(_AUX_COLOR, el.style)}/>'
            )
        elif isinstance(el, SegmentElement):
            (x1, y1), (x2, y2) = to_px(el.a.x, el.a.y), to_px(el.b.x, el.b.y)
            lines.append(
                f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f"{stroke(_STICK_COLOR, el.style)}/>"
            )
        elif isinstance(el, MarkerElement):
            cx, cy = to_px(el.at.x, el.at.y)
            lines.append(f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" fill="{_CURVE_COLOR}"/>')
            if el.style.label:
                lines.append(text(cx + 6.0, cy - 6.0, 15, el.style.label))
        elif isinstance(el, TextElement):
            lines.append(text(*to_px(el.at.x, el.at.y), 16, el.style.label))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
