"""Command line front end.

Subcommands: trace, linkage, maclaurin, rightangle, invert, normal,
area, expand, figure, verify. Angles are taken in degrees here and
converted to radians at the boundary. Exit codes: 0 success, 1
verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
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
from .geometry import SQRT2, InversionMap, Point, invert_point
from .tracer import TraceWindow, _contours_text, _singular_points, bernoulli_window, contours_to_csv, trace


def _parse_floats(text: str, count: int | None = None):
    parts = [float(v) for v in text.split(",") if v.strip() != ""]
    if count is not None and len(parts) != count:
        raise ValueError(f"expected {count} comma-separated numbers, got {len(parts)} in {text!r}")
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
        raise ValueError(f"this command needs exactly two foci, got {len(foci)} in --foci={args.foci}")
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
    if L.n == 2 and len(_singular_points(L)):  # through the double point it snaps to: the lemniscate figure's frame
        B = BernoulliConfig(*L.foci)
        c = B.half_distance
        return bernoulli_window(B, args.grid, 1.6 * c * SQRT2, 0.8 * c * SQRT2)
    cx = sum(f.x for f in L.foci) / L.n
    cy = sum(f.y for f in L.foci) / L.n
    spread = max((f.distance_to(Point(cx, cy)) for f in L.foci), default=0.0)
    half = 1.6 * (spread + L.radius)
    return TraceWindow(cx - half, cx + half, cy - half, cy + half, args.grid, args.grid)


def _answer(args, text: str, failed: bool = False) -> int:
    """Every handler's exit: write text to --out or stdout, then yield the exit code."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


def _pt(p: Point | None):
    return None if p is None else [p.x, p.y]


# a contour vertex as json.dumps(doc, indent=2) writes it: float.__repr__ (rows are
# finite), with each distinct coordinate formatted once
_JSON_VERTEX = "      [\n        %s,\n        %s\n      ]"


def _json_doc(config: dict, contours=(), checks=None, **extra) -> str:
    text = json.dumps({"config": config, "contours": [], "checks": checks or {}} | extra, indent=2) + "\n"
    if not contours:
        return text
    lists = _contours_text(contours, _JSON_VERTEX, ",\n", "\n    ],\n    [\n")
    # config's lines are indented deeper, so the first match is the top-level key
    return text.replace('\n  "contours": [],', f'\n  "contours": [\n    [\n{lists}\n    ]\n  ],', 1)


def _json(foci, config: dict, contours=(), checks=None, **extra) -> str:
    # every JSON answer: its config led by the foci
    return _json_doc({"foci": [_pt(f) for f in foci]} | config, contours, checks, **extra)


def _cmd_trace(args) -> int:
    L = _lemniscate(args)
    w = _window(args, L)
    if args.format == "svg":
        return _answer(args, emit_svg(curve_scene(L, w)))
    contours = trace(L, w)
    if args.format == "csv":
        return _answer(args, contours_to_csv(contours))
    config = {"radius": L.radius, "window": [w.xmin, w.xmax, w.ymin, w.ymax], "grid": [w.nx, w.ny]}
    checks = {"max_contour_residual": max(c.max_residual for c in contours)}
    return _answer(args, _json(L.foci, config, contours, checks))


def _cmd_mechanism(args) -> int:
    B = _bernoulli(args)
    side = {"side": args.side} if "side" in args else {}
    state = args.solve(B, math.radians(getattr(args, args.angle)), **side)
    config = {f"{args.angle}_deg": getattr(args, args.angle), **side}
    points = {name: _pt(v) for name, v in state._asdict().items() if name not in (args.angle, "side")}
    return _answer(args, _json((B.f1, B.f2), config, points=points))


def _cmd_invert(args) -> int:
    B = _bernoulli(args)
    p = _parse_point(args.point)
    image = invert_between(B, p)
    # far is the image's offset from o, p - o inverted about the origin: a far p's image itself can round onto o
    v = p - B.center
    near, far = v.norm(), invert_point(InversionMap(Point(0.0, 0.0), B.half_distance), v).norm()
    if near == math.inf:  # |v| = m |v / m| with m the larger offset, and far * m stays finite
        m = max(abs(v.x), abs(v.y))
        near, far = math.hypot(v.x / m, v.y / m), far * m
    checks = {"distance_product_minus_c2": abs(near * far - B.half_distance**2)}
    return _answer(args, _json((B.f1, B.f2), {"point": _pt(p)}, checks=checks, image=_pt(image)))


def _cmd_normal(args) -> int:
    B = _bernoulli(args)
    x = _parse_point(args.point) if args.point else bernoulli_polar_point(B, math.radians(args.theta))
    line = normal_by_angle(B, x)
    fields = {"point": _pt(x), "anchor": _pt(line.anchor), "direction": _pt(line.direction)}
    return _answer(args, _json((B.f1, B.f2), {"theta_deg": args.theta}, **fields))


def _cmd_area(args) -> int:
    B = _bernoulli(args)
    return _answer(args, _json((B.f1, B.f2), {}, area=bernoulli_area(B)))


def _cmd_expand(args) -> int:
    L = _lemniscate(args)
    table = expand_coefficients(L)
    coefficients = [[float(v) for v in row] for row in table.coeffs]
    return _answer(args, _json(L.foci, {"radius": L.radius}, degree=table.degree, coefficients=coefficients))


def _figure(args) -> int:  # figure --preset, and the SVG form of a construction command
    B = _bernoulli(args)
    params = {k: math.radians(v) for k in ("theta", "phi", "alpha") if (v := getattr(args, k, None)) is not None}
    if args.grid is not None:  # else the preset's default grid
        params["grid"] = args.grid
    return _answer(args, emit_svg(figure_scene(args.preset, B, **params)))


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
        text = _json((B.f1, B.f2), {}, checks={c.name: c.max_residual for c in checks})
    else:
        text = verification.format_report(checks) + "\n"
    return _answer(args, text, failed=not all(c.passed for c in checks))


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


_parser = functools.cache(build_parser)


@functools.cache
def _keep_freed_heap() -> None:
    with contextlib.suppress(OSError, TypeError, AttributeError):  # no libc handle (Windows) or no mallopt (macOS)
        mallopt = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int, ctypes.c_int)(("mallopt", ctypes.CDLL(None)))
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD: setting either one freezes both where imports left them


def main(argv=None) -> int:
    """Run one command. The first call in a process builds the parser and, where libc has mallopt (glibc),
    keeps up to 64 MiB of freed heap mapped for later commands (README, CLI); importing leaves malloc alone."""
    _keep_freed_heap()
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
