"""Command line front end.

Subcommands: trace, linkage, maclaurin, rightangle, invert, normal,
area, expand, figure, verify. Angles are taken in degrees here and
converted to radians at the boundary. Exit codes: 0 success, 1
verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import verify as verification
from .curves import (
    BernoulliConfig,
    PolynomialLemniscate,
    bernoulli_area,
    bernoulli_polar_point,
    expand_coefficients,
)
from .constructions import (
    invert_between,
    maclaurin_sample,
    normal_by_angle,
    right_angle_solve,
    three_bar_solve,
)
from .errors import GeometryError
from .figures import FIGURE_PRESETS, emit_svg, figure_scene
from .geometry import SQRT2, Point
from .tracer import TraceWindow, contours_to_csv, trace


def _parse_floats(text: str, count: int | None = None):
    parts = [float(v) for v in text.split(",") if v.strip() != ""]
    if count is not None and len(parts) != count:
        raise ValueError(f"expected {count} comma-separated numbers, got {len(parts)}")
    return parts


def _parse_foci(text: str) -> tuple[Point, ...]:
    values = _parse_floats(text)
    if len(values) < 2 or len(values) % 2 != 0:
        raise ValueError("--foci expects an even number of coordinates: x1,y1,x2,y2,...")
    return tuple(Point(values[k], values[k + 1]) for k in range(0, len(values), 2))


def _parse_point(text: str) -> Point:
    x, y = _parse_floats(text, 2)
    return Point(x, y)


def _bernoulli(args) -> BernoulliConfig:
    foci = _parse_foci(args.foci)
    if len(foci) != 2:
        raise ValueError("this command needs exactly two foci")
    return BernoulliConfig(foci[0], foci[1])


def _lemniscate(args) -> PolynomialLemniscate:
    foci = _parse_foci(args.foci)
    if args.radius is not None:
        radius = args.radius
    elif len(foci) == 2:
        radius = 0.5 * foci[0].distance_to(foci[1])
    else:
        radius = 1.0
    return PolynomialLemniscate(foci, radius)


def _window(args, L: PolynomialLemniscate) -> TraceWindow:
    if args.window:
        xmin, xmax, ymin, ymax = _parse_floats(args.window, 4)
        return TraceWindow(xmin, xmax, ymin, ymax, args.grid, args.grid)
    if L.n == 2 and abs(L.radius - 0.5 * L.foci[0].distance_to(L.foci[1])) <= 1e-12:
        B = BernoulliConfig(L.foci[0], L.foci[1])
        o = B.center
        hx = 1.6 * B.half_distance * SQRT2
        hy = 0.8 * B.half_distance * SQRT2
        return TraceWindow(o.x - hx, o.x + hx, o.y - hy, o.y + hy, args.grid, args.grid)
    cx = sum(f.x for f in L.foci) / L.n
    cy = sum(f.y for f in L.foci) / L.n
    spread = max((f.distance_to(Point(cx, cy)) for f in L.foci), default=0.0)
    half = 1.6 * (spread + L.radius)
    return TraceWindow(cx - half, cx + half, cy - half, cy + half, args.grid, args.grid)


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pt(p: Point | None):
    return None if p is None else [p.x, p.y]


def _json_doc(config: dict, contours=None, checks=None, **extra) -> str:
    doc = {
        "config": config,
        "contours": [[[p.x, p.y] for p in c] for c in (contours or [])],
        "checks": checks or {},
    }
    doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--foci", default="-1,0,1,0", help="comma list x1,y1,x2,y2,... (default -1,0,1,0)")
    parser.add_argument("--radius", type=float, default=None, help="lemniscate radius (default: Bernoulli)")
    parser.add_argument("--window", default=None, help="xmin,xmax,ymin,ymax")
    parser.add_argument("--grid", type=int, default=512, help="cells per axis (default 512)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("svg", "csv", "json"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lemniscate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="trace the implicit curve")
    _add_common(p)

    p = sub.add_parser("linkage", help="solve the three-stick linkage")
    _add_common(p)
    p.add_argument("--theta", type=float, default=90.0, help="crank angle in degrees")
    p.add_argument("--side", choices=("opposite", "same"), default="opposite")

    p = sub.add_parser("maclaurin", help="secant-chord construction sample")
    _add_common(p)
    p.add_argument("--phi", type=float, default=30.0, help="secant angle in degrees")

    p = sub.add_parser("rightangle", help="solve the right-angle linkage")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=60.0, help="crank angle in degrees")

    p = sub.add_parser("invert", help="invert a point in the circle about the double point")
    _add_common(p)
    p.add_argument("--point", required=True, help="x,y")

    p = sub.add_parser("normal", help="normal line by angle doubling")
    _add_common(p)
    p.add_argument("--theta", type=float, default=30.0, help="polar angle of the curve point, degrees")
    p.add_argument("--point", default=None, help="explicit on-curve point x,y")

    p = sub.add_parser("area", help="exact enclosed area")
    _add_common(p)

    p = sub.add_parser("expand", help="polynomial coefficient table")
    _add_common(p)

    p = sub.add_parser("figure", help="render a figure preset to SVG")
    _add_common(p)
    p.add_argument("--preset", choices=FIGURE_PRESETS, required=True)
    p.add_argument("--theta", type=float, default=None, help="degrees; preset default when omitted")
    p.add_argument("--phi", type=float, default=None, help="degrees; preset default when omitted")
    p.add_argument("--alpha", type=float, default=None, help="degrees; preset default when omitted")

    p = sub.add_parser("verify", help="run the full invariant sweep")
    _add_common(p)
    return parser


def _cmd_trace(args) -> int:
    L = _lemniscate(args)
    w = _window(args, L)
    contours = trace(L, w)
    fmt = args.format or "csv"
    if fmt == "csv":
        _write(args, contours_to_csv(contours))
    elif fmt == "json":
        config = {
            "foci": [_pt(f) for f in L.foci],
            "radius": L.radius,
            "window": [w.xmin, w.xmax, w.ymin, w.ymax],
            "grid": [w.nx, w.ny],
        }
        checks = {"max_contour_residual": max(c.max_residual for c in contours)}
        _write(args, _json_doc(config, [c.points for c in contours], checks))
    else:
        from .figures import PolylineElement, Scene, Style

        scene = Scene(w)
        for c in contours:
            scene.add(PolylineElement(c.points, c.closed, Style(stroke_width=0.006 * (w.xmax - w.xmin))))
        _write(args, emit_svg(scene))
    return 0


def _cmd_linkage(args) -> int:
    B = _bernoulli(args)
    theta = math.radians(args.theta)
    if (args.format or "json") == "svg":
        scene = figure_scene("threebar", B, theta=theta, grid=args.grid)
        _write(args, emit_svg(scene))
        return 0
    st = three_bar_solve(B, theta, args.side)
    config = {"foci": [_pt(B.f1), _pt(B.f2)], "theta_deg": args.theta, "side": args.side}
    _write(args, _json_doc(config, points={"a": _pt(st.a), "b": _pt(st.b), "x": _pt(st.x), "p": _pt(st.p), "q": _pt(st.q)}))
    return 0


def _cmd_maclaurin(args) -> int:
    B = _bernoulli(args)
    phi = math.radians(args.phi)
    if (args.format or "json") == "svg":
        scene = figure_scene("maclaurin", B, phi=phi, grid=args.grid)
        _write(args, emit_svg(scene))
        return 0
    s = maclaurin_sample(B, phi)
    config = {"foci": [_pt(B.f1), _pt(B.f2)], "phi_deg": args.phi}
    _write(args, _json_doc(config, points={"a": _pt(s.a), "b": _pt(s.b), "x": _pt(s.x), "x_prime": _pt(s.x_prime)}))
    return 0


def _cmd_rightangle(args) -> int:
    B = _bernoulli(args)
    alpha = math.radians(args.alpha)
    if (args.format or "json") == "svg":
        scene = figure_scene("rightangle", B, alpha=alpha, grid=args.grid)
        _write(args, emit_svg(scene))
        return 0
    st = right_angle_solve(B, alpha)
    config = {"foci": [_pt(B.f1), _pt(B.f2)], "alpha_deg": args.alpha}
    _write(args, _json_doc(config, points={"a": _pt(st.a), "x": _pt(st.x), "y": _pt(st.y)}))
    return 0


def _cmd_invert(args) -> int:
    B = _bernoulli(args)
    p = _parse_point(args.point)
    image = invert_between(B, p)
    config = {"foci": [_pt(B.f1), _pt(B.f2)], "point": _pt(p)}
    o = B.center
    product = p.distance_to(o) * image.distance_to(o)
    checks = {"distance_product_minus_c2": abs(product - B.half_distance**2)}
    _write(args, _json_doc(config, checks=checks, image=_pt(image)))
    return 0


def _cmd_normal(args) -> int:
    B = _bernoulli(args)
    x = _parse_point(args.point) if args.point else bernoulli_polar_point(B, math.radians(args.theta))
    if (args.format or "json") == "svg":
        scene = figure_scene("normal", B, theta=math.radians(args.theta), grid=args.grid)
        _write(args, emit_svg(scene))
        return 0
    line = normal_by_angle(B, x)
    config = {"foci": [_pt(B.f1), _pt(B.f2)], "theta_deg": args.theta}
    _write(args, _json_doc(config, point=_pt(x), anchor=_pt(line.anchor), direction=_pt(line.direction)))
    return 0


def _cmd_area(args) -> int:
    B = _bernoulli(args)
    config = {"foci": [_pt(B.f1), _pt(B.f2)]}
    _write(args, _json_doc(config, area=bernoulli_area(B)))
    return 0


def _cmd_expand(args) -> int:
    L = _lemniscate(args)
    table = expand_coefficients(L)
    config = {"foci": [_pt(f) for f in L.foci], "radius": L.radius}
    _write(
        args,
        _json_doc(config, degree=table.degree, coefficients=[[float(v) for v in row] for row in table.coeffs]),
    )
    return 0


def _cmd_figure(args) -> int:
    B = _bernoulli(args)
    to_rad = lambda deg: None if deg is None else math.radians(deg)
    scene = figure_scene(
        args.preset,
        B,
        theta=to_rad(args.theta),
        phi=to_rad(args.phi),
        alpha=to_rad(args.alpha),
        grid=args.grid,
    )
    _write(args, emit_svg(scene))
    return 0


def _cmd_verify(args) -> int:
    B = _bernoulli(args)
    checks = verification.run_verification(B, grid=args.grid)
    if (args.format or "text") == "json":
        config = {"foci": [_pt(B.f1), _pt(B.f2)]}
        _write(args, _json_doc(config, checks={c.name: c.max_residual for c in checks}))
    else:
        _write(args, verification.format_report(checks) + "\n")
    return 0 if all(c.passed for c in checks) else 1


_COMMANDS = {
    "trace": _cmd_trace,
    "linkage": _cmd_linkage,
    "maclaurin": _cmd_maclaurin,
    "rightangle": _cmd_rightangle,
    "invert": _cmd_invert,
    "normal": _cmd_normal,
    "area": _cmd_area,
    "expand": _cmd_expand,
    "figure": _cmd_figure,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
