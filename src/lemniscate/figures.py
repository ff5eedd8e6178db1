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
from .errors import UnknownPreset
from .geometry import SQRT2, Point, midpoint, xy
from .tracer import TraceWindow, bernoulli_window, trace


@dataclass(frozen=True)
class Style:
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


@dataclass(frozen=True)
class CircleElement:
    center: Point
    radius: float
    style: Style


@dataclass(frozen=True)
class SegmentElement:
    a: Point
    b: Point
    style: Style


@dataclass(frozen=True)
class MarkerElement:
    at: Point
    style: Style


@dataclass(frozen=True)
class TextElement:
    at: Point
    style: Style


@dataclass
class Scene:
    """Drawable elements over a view window.

    Adding an element checks that its geometry stays within twice the
    view window, a guard against runaway coordinates from degenerate
    construction parameters.
    """

    viewbox: TraceWindow
    elements: list = field(default_factory=list)

    def _inside(self, pts: np.ndarray) -> np.ndarray:
        """Which rows of pts lie within twice the view window."""
        w = self.viewbox
        cx, hx = 0.5 * (w.xmin + w.xmax), w.xmax - w.xmin
        cy, hy = 0.5 * (w.ymin + w.ymax), w.ymax - w.ymin
        x, y = pts[:, 0], pts[:, 1]
        return (cx - hx <= x) & (x <= cx + hx) & (cy - hy <= y) & (y <= cy + hy)

    def _check(self, rows):
        pts = np.asarray(rows, dtype=float).reshape(-1, 2)
        outside = np.flatnonzero(~self._inside(pts))
        if outside.size:
            raise ValueError(f"element reaches {Point(*pts[outside[0]].tolist())}, outside 2x the view window")

    def add(self, element) -> None:
        if isinstance(element, PolylineElement):
            self._check(element.points)
        elif isinstance(element, CircleElement):
            c, r = element.center, element.radius
            self._check([(c.x - r, c.y - r), (c.x + r, c.y + r)])
        elif isinstance(element, SegmentElement):
            self._check([xy(element.a), xy(element.b)])
        elif isinstance(element, (MarkerElement, TextElement)):
            self._check([xy(element.at)])
        else:
            raise TypeError(f"not a scene element: {element!r}")
        self.elements.append(element)


def _stroke(w: TraceWindow) -> float:
    return 0.006 * (w.xmax - w.xmin)


def _add_lemniscate(scene: Scene, L: PolynomialLemniscate, width: float = 1.0) -> None:
    sw = width * _stroke(scene.viewbox)
    for contour in trace(L, scene.viewbox):
        scene.add(PolylineElement(contour.points, contour.closed, Style(stroke_width=sw)))


def curve_scene(L: PolynomialLemniscate, w: TraceWindow) -> Scene:
    """The traced curve alone, over the view window w."""
    scene = Scene(w)
    _add_lemniscate(scene, L)
    return scene


def _marker(scene, p, label=""):
    scene.add(MarkerElement(p, Style(label=label)))


def _clip_runs(pts: np.ndarray, scene: Scene):
    """Split a polyline into maximal runs inside the scene's 2x bounds."""
    inside = scene._inside(pts)
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
    _marker(scene, B.f1, "F1")
    _marker(scene, B.f2, "F2")
    _marker(scene, B.center, "O")


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
    for k in range(9):
        _add_lemniscate(scene, PolynomialLemniscate(foci, circumradius * 0.7 * ratio**k), 0.7)
    for i, f in enumerate(foci, start=1):
        _marker(scene, f, f"F{i}")
    return scene


def _draw_threebar(scene, B, theta=math.pi / 2):
    w = scene.viewbox
    state = three_bar_solve(B, theta)
    sw = 1.4 * _stroke(w)
    scene.add(SegmentElement(B.f1, state.a, Style(stroke_width=sw)))
    scene.add(SegmentElement(state.a, state.b, Style(stroke_width=sw)))
    scene.add(SegmentElement(B.f2, state.b, Style(stroke_width=sw)))
    _marker(scene, B.f1, "F1")
    _marker(scene, B.f2, "F2")
    _marker(scene, state.a, "A")
    _marker(scene, state.b, "B")
    _marker(scene, state.x, "X")
    _marker(scene, B.center, "O")


def _draw_maclaurin(scene, B, phi=math.pi / 6):
    w = scene.viewbox
    sample = maclaurin_sample(B, phi)
    c = B.half_distance
    scene.add(CircleElement(B.f1, c / SQRT2, Style(stroke_width=_stroke(w), dashed=True)))
    scene.add(SegmentElement(sample.x_prime, sample.b, Style(stroke_width=1.2 * _stroke(w))))
    _marker(scene, B.f1, "F1")
    _marker(scene, B.center, "O")
    _marker(scene, sample.a, "A")
    _marker(scene, sample.b, "B")
    _marker(scene, sample.x, "X")
    _marker(scene, sample.x_prime, "X'")


def _draw_rightangle(scene, B, alpha=math.pi / 3):
    w = scene.viewbox
    state = right_angle_solve(B, alpha)
    sw = 1.4 * _stroke(w)
    o = B.center
    scene.add(CircleElement(B.f1, B.half_distance, Style(stroke_width=_stroke(w), dashed=True)))
    scene.add(SegmentElement(B.f1, state.a, Style(stroke_width=sw)))
    scene.add(SegmentElement(state.a, state.x, Style(stroke_width=sw)))
    scene.add(SegmentElement(state.a, state.y, Style(stroke_width=sw)))
    mid_x = midpoint(state.a, state.x)
    mid_y = midpoint(state.a, state.y)
    scene.add(SegmentElement(o, mid_x, Style(stroke_width=_stroke(w), dashed=True)))
    scene.add(SegmentElement(o, mid_y, Style(stroke_width=_stroke(w), dashed=True)))
    _marker(scene, B.f1, "F1")
    _marker(scene, o, "O")
    _marker(scene, state.a, "A")
    _marker(scene, mid_x, "B")
    _marker(scene, mid_y, "C")
    _marker(scene, state.x, "X")
    _marker(scene, state.y, "Y")


def _draw_inversion(scene, B, theta=math.pi / 2):
    w = scene.viewbox
    _add_hyperbola(scene, B)
    state = three_bar_solve(B, theta)
    o = B.center
    scene.add(CircleElement(o, B.half_distance, Style(stroke_width=_stroke(w), dashed=True)))
    far = state.q if state.q.distance_to(o) >= state.x.distance_to(o) else state.x
    scene.add(SegmentElement(o, far, Style(stroke_width=_stroke(w), dashed=True)))
    _marker(scene, o, "O")
    _marker(scene, B.f1, "F1")
    _marker(scene, B.f2, "F2")
    _marker(scene, state.x, "X")
    _marker(scene, state.q, "Q")
    _marker(scene, state.p, "P")
    product = state.x.distance_to(o) * state.q.distance_to(o)
    label_at = Point(w.xmin + 0.05 * (w.xmax - w.xmin), w.ymax - 0.08 * (w.ymax - w.ymin))
    scene.add(TextElement(label_at, Style(label=f"|OX|*|OQ| = {product:.3f}")))


def _draw_tangentcircle(scene, B, theta=math.pi / 2):
    w = scene.viewbox
    state = three_bar_solve(B, theta)
    circle = tangent_circle_at(state)
    scene.add(CircleElement(circle.center, circle.radius, Style(stroke_width=_stroke(w))))
    tangent = hyperbola_tangent_at(hyperbola_of(B), state.q)
    half_len = 0.9 * B.half_distance
    scene.add(
        SegmentElement(
            tangent.point_at(-half_len),
            tangent.point_at(half_len),
            Style(stroke_width=_stroke(w), dashed=True),
        )
    )
    _marker(scene, B.center, "O")
    _marker(scene, state.x, "X")
    _marker(scene, state.q, "Q")
    _marker(scene, state.p, "P")


def _draw_normal(scene, B, theta=math.pi / 6):
    w = scene.viewbox
    x = bernoulli_polar_point(B, theta)
    normal = normal_by_angle(B, x)
    o = B.center
    half_len = 0.7 * B.half_distance
    scene.add(SegmentElement(o, x, Style(stroke_width=_stroke(w), dashed=True)))
    scene.add(
        SegmentElement(
            normal.point_at(-half_len),
            normal.point_at(half_len),
            Style(stroke_width=1.2 * _stroke(w)),
        )
    )
    _marker(scene, o, "O")
    _marker(scene, B.f1, "F1")
    _marker(scene, x, "X")


# Bernoulli presets: the half-height of the view window in units of
# c*sqrt(2), the outer vertex distance, the one angle drawn (or None), and
# the drawing added over the traced curve. The half-width is 1.6 c*sqrt(2);
# the height grows for presets whose construction elements reach above the
# curve (stick tips go up to c*sqrt(2) from the double point).
_BERNOULLI_PRESETS = {
    "lemniscate": (0.8, None, _draw_lemniscate),
    "threebar": (1.15, "theta", _draw_threebar),
    "maclaurin": (1.15, "phi", _draw_maclaurin),
    "rightangle": (1.15, "alpha", _draw_rightangle),
    "inversion": (1.15, "theta", _draw_inversion),
    "tangentcircle": (1.45, "theta", _draw_tangentcircle),
    "normal": (0.8, "theta", _draw_normal),
}
FIGURE_PRESETS = ("family3", *_BERNOULLI_PRESETS)


def figure_scene(
    preset: str,
    B: BernoulliConfig,
    *,
    theta: float | None = None,
    phi: float | None = None,
    alpha: float | None = None,
    grid: int = 512,
) -> Scene:
    """Compose the named figure.

    Each preset draws at most one angle, which falls back to a
    representative value when None: crank theta = pi/2 (threebar,
    inversion, tangentcircle), secant phi = pi/6 (maclaurin), crank alpha
    = pi/3 (rightangle), polar angle theta = pi/6 (normal). Any other
    angle raises ValueError. The `family3` preset has its own fixed foci,
    draws no angle, and ignores B.
    """
    if preset not in FIGURE_PRESETS:
        raise UnknownPreset(f"unknown preset {preset!r}; choose from {FIGURE_PRESETS}")
    tall, angle, draw = _BERNOULLI_PRESETS.get(preset, (None, None, None))
    given = {k: v for k, v in (("theta", theta), ("phi", phi), ("alpha", alpha)) if v is not None}
    stray = [k for k in given if k != angle]
    if stray:
        draws = f"draws {angle}" if angle else "draws no angle"
        raise ValueError(f"the {preset} figure {draws}; --{stray[0]} does not apply")
    if preset == "family3":
        return _scene_family3(grid)
    c = B.half_distance
    scene = curve_scene(B.lemniscate, bernoulli_window(B, grid, 1.6 * c * SQRT2, tall * c * SQRT2))
    draw(scene, B, **given)
    return scene


def _fmt(v: float) -> str:
    if v == 0.0:
        v = 0.0
    return f"{v:.9g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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

    def to_px(rows) -> np.ndarray:  # of a point (x, y) or of (N, 2) rows
        rows = np.asarray(rows)
        return np.stack(((rows[..., 0] - w.xmin) * scale, (w.ymax - rows[..., 1]) * scale), axis=-1)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_SVG_WIDTH)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(_SVG_WIDTH)} {_fmt(height)}">',
    ]

    def dash(style: Style) -> str:
        return ' stroke-dasharray="6 4"' if style.dashed else ""

    def width_px(style: Style) -> float:
        return max(style.stroke_width * scale, 0.75)

    for el in scene.elements:
        if isinstance(el, PolylineElement):
            rows = to_px(el.points) + 0.0  # as _fmt: -0.0 + 0.0 is 0.0
            coords = " ".join(["%.9g,%.9g"] * len(rows)) % tuple(rows.ravel().tolist())
            tag = "polygon" if el.closed else "polyline"
            lines.append(
                f'  <{tag} points="{coords}" fill="none" stroke="{_CURVE_COLOR}" '
                f'stroke-width="{_fmt(width_px(el.style))}"{dash(el.style)}/>'
            )
        elif isinstance(el, CircleElement):
            cx, cy = to_px(xy(el.center))
            lines.append(
                f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(el.radius * scale)}" '
                f'fill="none" stroke="{_AUX_COLOR}" '
                f'stroke-width="{_fmt(width_px(el.style))}"{dash(el.style)}/>'
            )
        elif isinstance(el, SegmentElement):
            x1, y1 = to_px(xy(el.a))
            x2, y2 = to_px(xy(el.b))
            lines.append(
                f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="{_STICK_COLOR}" '
                f'stroke-width="{_fmt(width_px(el.style))}"{dash(el.style)}/>'
            )
        elif isinstance(el, MarkerElement):
            cx, cy = to_px(xy(el.at))
            lines.append(f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" fill="{_CURVE_COLOR}"/>')
            if el.style.label:
                lines.append(
                    f'  <text x="{_fmt(cx + 6.0)}" y="{_fmt(cy - 6.0)}" '
                    f'font-family="sans-serif" font-size="15" '
                    f'fill="{_TEXT_COLOR}">{_escape(el.style.label)}</text>'
                )
        elif isinstance(el, TextElement):
            cx, cy = to_px(xy(el.at))
            lines.append(
                f'  <text x="{_fmt(cx)}" y="{_fmt(cy)}" font-family="sans-serif" '
                f'font-size="16" fill="{_TEXT_COLOR}">{_escape(el.style.label)}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
