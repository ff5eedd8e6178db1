"""Command line front end.

Subcommands: trace, linkage, maclaurin, rightangle, invert, normal,
area, expand, figure, verify. Angles are taken in degrees here and
converted to radians at the boundary. Exit codes: 0 success, 1
verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
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
from .figures import _BERNOULLI_PRESETS, FIGURE_PRESETS, curve_scene, emit_svg, figure_scene
from .geometry import SQRT2, Point
from .tracer import TraceWindow, bernoulli_window, contours_to_csv, trace


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
    if L.n == 2 and abs(L.radius - 0.5 * L.foci[0].distance_to(L.foci[1])) <= 1e-12 * L.radius:
        B = BernoulliConfig(L.foci[0], L.foci[1])
        c = B.half_distance
        return bernoulli_window(B, args.grid, 1.6 * c * SQRT2, 0.8 * c * SQRT2)
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


# a contour vertex as json.dumps(doc, indent=2) writes it: float.__repr__ (rows are finite)
_JSON_VERTEX = "      [\n        %r,\n        %r\n      ]"


def _json_doc(config: dict, contours=(), checks=None, **extra) -> str:
    text = json.dumps({"config": config, "contours": [], "checks": checks or {}} | extra, indent=2) + "\n"
    if not contours:
        return text
    lists = "\n    ],\n    [\n".join(
        ",\n".join([_JSON_VERTEX] * len(c.points)) % tuple(c.points.ravel().tolist()) for c in contours
    )
    # config's lines are indented deeper, so the first match is the top-level key
    return text.replace('\n  "contours": [],', f'\n  "contours": [\n    [\n{lists}\n    ]\n  ],', 1)


def _cmd_trace(args) -> int:
    L = _lemniscate(args)
    w = _window(args, L)
    if args.format == "svg":
        _write(args, emit_svg(curve_scene(L, w)))
        return 0
    contours = trace(L, w)
    if args.format == "csv":
        _write(args, contours_to_csv(contours))
    else:
        config = {
            "foci": [_pt(f) for f in L.foci],
            "radius": L.radius,
            "window": [w.xmin, w.xmax, w.ymin, w.ymax],
            "grid": [w.nx, w.ny],
        }
        checks = {"max_contour_residual": max(c.max_residual for c in contours)}
        _write(args, _json_doc(config, contours, checks))
    return 0


def _cmd_mechanism(args) -> int:
    B = _bernoulli(args)
    side = {"side": args.side} if "side" in args else {}
    state = args.solve(B, math.radians(getattr(args, args.angle)), **side)
    config = {"foci": [_pt(B.f1), _pt(B.f2)], f"{args.angle}_deg": getattr(args, args.angle), **side}
    points = {name: _pt(v) for name, v in state._asdict().items() if name not in (args.angle, "side")}
    _write(args, _json_doc(config, points=points))
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


def _figure(args) -> int:  # figure --preset, and the SVG form of a construction command
    B = _bernoulli(args)
    params = {k: math.radians(v) for k in ("theta", "phi", "alpha") if (v := getattr(args, k, None)) is not None}
    if args.grid is not None:  # else the preset's default grid
        params["grid"] = args.grid
    _write(args, emit_svg(figure_scene(args.preset, B, **params)))
    return 0


def _cmd_construction(args) -> int:
    if args.format == "json":
        if args.grid is not None:
            raise ValueError("--grid has no JSON form; it sets the trace resolution of the SVG figure")
        return args.json_run(args)
    if getattr(args, "point", None) is not None:
        raise ValueError("--point has no SVG form; the normal figure is drawn at --theta")
    if getattr(args, "side", None) == "same":
        raise ValueError("--side same has no SVG form; the linkage figure draws the opposite-side state")
    return _figure(args)


def _cmd_verify(args) -> int:
    B = _bernoulli(args)
    checks = verification.run_verification(B, grid=args.grid)
    if args.format == "json":
        config = {"foci": [_pt(B.f1), _pt(B.f2)]}
        _write(args, _json_doc(config, checks={c.name: c.max_residual for c in checks}))
    else:
        _write(args, verification.format_report(checks) + "\n")
    return 0 if all(c.passed for c in checks) else 1


# shared flags; a subcommand declares only those it reads
_FLAGS = {
    "radius": dict(type=float, default=None, help="lemniscate radius (default: Bernoulli)"),
    "window": dict(default=None, help="xmin,xmax,ymin,ymax"),
    "grid": dict(type=int, default=512, help="cells per axis (default 512)"),
}


def _subcommand(sub, name: str, summary: str, run, *flags: str, formats: tuple[str, ...] = ()):
    p = sub.add_parser(name, help=summary)
    p.set_defaults(run=run)
    p.add_argument("--foci", default="-1,0,1,0", help="comma list x1,y1,x2,y2,... (default -1,0,1,0)")
    for flag in flags:
        p.add_argument(f"--{flag}", **_FLAGS[flag])
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return p


def _construction(sub, name: str, summary: str, preset: str, angle_help: str, solve=None, json_run=_cmd_mechanism):
    # JSON from json_run, or SVG as the figure preset; the JSON form traces nothing: no --grid default
    p = _subcommand(sub, name, summary, _cmd_construction, "grid", formats=("json", "svg"))
    _, angle, default, _ = _BERNOULLI_PRESETS[preset]
    p.add_argument(f"--{angle}", type=float, default=default, help=angle_help)
    p.set_defaults(grid=None, preset=preset, angle=angle, json_run=json_run, solve=solve)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lemniscate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = ("radius", "window", "grid")
    _subcommand(sub, "trace", "trace the implicit curve", _cmd_trace, *flags, formats=("csv", "json", "svg"))

    p = _construction(
        sub, "linkage", "solve the three-stick linkage", "threebar", "crank angle in degrees", three_bar_solve
    )
    p.add_argument("--side", choices=("opposite", "same"), default="opposite", help="same: JSON form only")
    _construction(
        sub, "maclaurin", "secant-chord construction sample", "maclaurin", "secant angle in degrees", maclaurin_sample
    )
    _construction(
        sub, "rightangle", "solve the right-angle linkage", "rightangle", "crank angle in degrees", right_angle_solve
    )

    p = _subcommand(sub, "invert", "invert a point in the circle about the double point", _cmd_invert)
    p.add_argument("--point", required=True, help="x,y")

    p = _construction(
        sub, "normal", "normal line by angle doubling", "normal", "polar angle of the curve point, degrees",
        json_run=_cmd_normal,
    )
    p.add_argument("--point", default=None, help="explicit on-curve point x,y (JSON form only)")

    _subcommand(sub, "area", "exact enclosed area", _cmd_area)
    _subcommand(sub, "expand", "polynomial coefficient table", _cmd_expand, "radius")

    p = _subcommand(sub, "figure", "render a figure preset to SVG", _figure, "grid")
    p.add_argument("--preset", choices=FIGURE_PRESETS, required=True, help="family3 has its own foci")
    for angle in ("theta", "phi", "alpha"):
        p.add_argument(f"--{angle}", type=float, default=None, help="degrees; preset default when omitted")

    _subcommand(sub, "verify", "run the full invariant sweep", _cmd_verify, "grid", formats=("text", "json"))
    return parser


# the parser is built on main's first call, not at import, and then reused
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
