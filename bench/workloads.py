"""The benchmark's workloads: seeded inputs, the CLI command run on each,
and the oracle that checks each output.

An operation is one `lemniscate` command line. Its check receives the exit
code and standard output and returns an Outcome, or raises OracleError
when the output is wrong. A failed operation is named; the names in
NAMED_FAULTS are known faults of the program and fail on every seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles
from oracles import OracleError

SQRT2 = math.sqrt(2.0)
CANONICAL = ((-1.0, 0.0), (1.0, 0.0))
# c = 5, axis rotated by atan2(8, 6) = 53.13 degrees, centred at (1, 3)
SIMILAR = ((-2.0, -1.0), (4.0, 7.0))

VERIFY_CHECKS = (
    "defining_product",
    "threebar_field",
    "threebar_trapezoid",
    "threebar_stick_lengths",
    "hyperbola_membership_pq",
    "inversion_pairing",
    "inversion_ray",
    "hyperbola_inverse_direction",
    "sameside_locus",
    "maclaurin_field",
    "maclaurin_chord_identity",
    "rightangle_field",
    "rightangle_right_angle",
    "rightangle_lobe_separation",
    "normal_vs_gradient_angle",
    "tangent_circle_alignment",
    "tangent_circle_through_o",
    "tangent_circle_center_rebuild",
    "tangent_contact_slope_deficit",
    "line_inversion_on_circle",
    "line_inversion_center",
    "coefficient_pointwise",
    "unit_hyperbola_residual",
    "tangent_midpoint",
    "area_grid_512",
)

# family3 preset: unit equilateral triangle of foci, nine radii
# geometrically spaced from 0.7 to 1.4 times the circumradius 1/sqrt(3),
# which is also the critical radius where the three lobes meet
FAMILY3_RHO = 1.0 / math.sqrt(3.0)
FAMILY3_FOCI = tuple(
    (FAMILY3_RHO * math.cos(a), FAMILY3_RHO * math.sin(a))
    for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
)
FAMILY3_RADII = tuple(FAMILY3_RHO * 0.7 * 2.0 ** (k / 8.0) for k in range(9))
CRITICAL_OP = "trace family3 foci at the critical radius 1/sqrt(3), grid 256"

NAMED_FAULTS = {
    "verify": {
        # residuals are absolute, so they grow with c = 5
        "verify -2,-1,4,7: hyperbola_membership_pq",
        "verify -2,-1,4,7: inversion_pairing",
        # the axis-aligned area window cuts the rotated curve
        "verify -2,-1,4,7: area_grid_512",
    },
    # only the Bernoulli double point is split; other singular points raise
    "trace": {CRITICAL_OP},
    "figures": set(),
}

# half-height of each preset's view window in units of c*sqrt(2); the
# half-width is 1.6 c*sqrt(2), centred on the double point
PRESET_TALL = {
    "lemniscate": 0.8,
    "threebar": 1.15,
    "maclaurin": 1.15,
    "rightangle": 1.15,
    "inversion": 1.15,
    "tangentcircle": 1.45,
    "normal": 0.8,
}
# markers that are points of the curve, by preset
CURVE_MARKERS = {
    "lemniscate": (),
    "threebar": ("X",),
    "maclaurin": ("X", "X'"),
    "rightangle": ("X", "Y"),
    "inversion": ("X",),
    "tangentcircle": ("X",),
    "normal": ("X",),
}


@dataclass
class Outcome:
    attempted: int = 1
    failed: list[str] = field(default_factory=list)
    area_rel_err: float | None = None


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[int, str], Outcome]


def foci_arg(foci) -> str:
    # the `=` form, since the list may start with a minus sign
    return "--foci=" + ",".join(repr(float(v)) for p in foci for v in p)


def fmt_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def half_distance(foci) -> float:
    return 0.5 * math.dist(foci[0], foci[1])


def bernoulli_window(foci, tall: float):
    o = np.mean(np.asarray(foci, dtype=float), axis=0)
    h = SQRT2 * half_distance(foci)
    return (o[0] - 1.6 * h, o[0] + 1.6 * h, o[1] - tall * h, o[1] + tall * h)


def clean_exit(name: str, check: Callable[[str], Outcome | None]) -> Callable[[int, str], Outcome]:
    """A command that must exit 0; a nonzero exit is a failed operation."""

    def run(code: int, out: str) -> Outcome:
        if code != 0:
            return Outcome(failed=[name])
        return check(out) or Outcome()

    return run


# --- seeded inputs ----------------------------------------------------------


def polynomial_lemniscate(rng: random.Random, n: int):
    """n foci in the unit disk, at least 0.35 apart, and a radius at least
    12% away from every critical level, with no lobe thinner than 0.05."""
    while True:
        foci = []
        while len(foci) < n:
            p = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if math.hypot(*p) <= 1.0 and all(math.dist(p, q) >= 0.35 for q in foci):
                foci.append(p)
        levels = oracles.critical_levels(foci)
        radii = [math.sqrt(lo * hi) for lo, hi in zip(levels, levels[1:]) if hi >= 1.25 * lo]
        radius = rng.choice(radii + [1.25 * float(levels[-1])])
        lobe = min(radius**n / math.prod(math.dist(p, q) for q in foci if q != p) for p in foci)
        if lobe >= 0.05:
            return tuple(foci), radius


def similar_placement(rng: random.Random):
    """Bernoulli foci under a random similarity: c in [0.5, 2], any angle."""
    c = rng.uniform(0.5, 2.0)
    a = rng.uniform(0.0, math.tau)
    ox, oy = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    u = (c * math.cos(a), c * math.sin(a))
    return ((ox - u[0], oy - u[1]), (ox + u[0], oy + u[1]))


def signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# --- verify -----------------------------------------------------------------


def verify_check(tag: str) -> Callable[[int, str], Outcome]:
    """Parse the text report: one operation per check line."""

    def run(code: int, out: str) -> Outcome:
        lines = out.rstrip("\n").split("\n")
        rows = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) != 7 or parts[1:3] != ["max", "residual"] or parts[6] not in ("PASS", "FAIL"):
                raise OracleError(f"bad report line {line!r}")
            residual, tol = float(parts[3]), float(parts[5])
            if parts[6] == "PASS" and not residual <= tol:
                raise OracleError(f"{parts[0]} passes with residual {residual} above tolerance {tol}")
            rows[parts[0]] = (residual, parts[6] == "PASS")
        missing = [n for n in VERIFY_CHECKS if n not in rows]
        if missing:
            raise OracleError(f"report lacks checks {missing}")
        failed = [f"verify {tag}: {n}" for n, (_, ok) in rows.items() if not ok]
        if lines[-1] != f"{len(rows) - len(failed)}/{len(rows)} checks passed":
            raise OracleError(f"bad summary {lines[-1]!r}")
        if code != (1 if failed else 0):
            raise OracleError(f"exit code {code} with {len(failed)} failed checks")
        return Outcome(len(rows), failed, rows["area_grid_512"][0] if tag == "canonical" else None)

    return run


def verify_ops(rng: random.Random) -> list[Op]:
    del rng  # every check is a theorem at any placement: the inputs are fixed
    return [
        Op("verify canonical", ["verify", foci_arg(CANONICAL)], verify_check("canonical")),
        Op("verify -2,-1,4,7", ["verify", foci_arg(SIMILAR)], verify_check("-2,-1,4,7")),
    ]


# --- trace ------------------------------------------------------------------


def trace_contours(fmt: str, out: str):
    if fmt == "csv":
        return oracles.parse_csv(out)
    return [oracles.as_points(c) for c in json.loads(out)["contours"]]


def bernoulli_trace_check(fmt: str, report_area: bool) -> Callable[[str], Outcome]:
    def check(out: str) -> Outcome:
        err = oracles.check_bernoulli_trace(CANONICAL, trace_contours(fmt, out))
        return Outcome(area_rel_err=err if report_area else None)

    return check


def polynomial_trace_check(foci, radius: float, fmt: str) -> Callable[[str], None]:
    expected = oracles.expected_components(foci, radius)
    return lambda out: oracles.check_contours(foci, radius, trace_contours(fmt, out), expected)


def trace_ops(rng: random.Random) -> list[Op]:
    ops = []
    for grid, fmt in ((2048, "csv"), (512, "json")):
        name = f"trace canonical grid {grid} {fmt}"
        argv = ["trace", foci_arg(CANONICAL), "--grid", str(grid), "--format", fmt]
        ops.append(Op(name, argv, clean_exit(name, bernoulli_trace_check(fmt, grid == 2048))))
    for n in (3, 4, 5, 6):
        foci, radius = polynomial_lemniscate(rng, n)
        fmt = "csv" if n % 2 else "json"
        name = f"trace {n} foci grid 1024 {fmt}"
        argv = ["trace", foci_arg(foci), "--radius", repr(radius), "--grid", "1024", "--format", fmt]
        ops.append(Op(name, argv, clean_exit(name, polynomial_trace_check(foci, radius, fmt))))
    argv = ["trace", foci_arg(FAMILY3_FOCI), "--radius", repr(FAMILY3_RHO), "--grid", "256", "--format", "csv"]
    ops.append(Op(CRITICAL_OP, argv, clean_exit(CRITICAL_OP, critical_trace_check)))
    return ops


def critical_trace_check(out: str) -> None:
    """At the critical radius the three lobes touch at the centre, so the
    trace may give them as one to three closed loops."""
    contours = oracles.parse_csv(out)
    if not 1 <= len(contours) <= 3:
        raise OracleError(f"{len(contours)} contours at the critical radius")
    for c in contours:
        oracles.check_contours(FAMILY3_FOCI, FAMILY3_RHO, [c], 1)


# --- figures ----------------------------------------------------------------


def bernoulli_svg_check(preset: str) -> Callable[[str], Outcome]:
    c = half_distance(CANONICAL)

    def check(out: str) -> Outcome:
        svg = oracles.SvgFigure(out, bernoulli_window(CANONICAL, PRESET_TALL[preset]))
        svg.check_polygons_on([(CANONICAL, c)])
        labels = CURVE_MARKERS[preset]
        if svg.check_markers_on(CANONICAL, c, labels) < len(labels):
            raise OracleError(f"{preset}: missing one of the markers {labels}")
        if len(svg.polygons) != 2:
            raise OracleError(f"{preset}: {len(svg.polygons)} closed contours, expected 2")
        outcome = Outcome()
        if preset == "lemniscate":
            planar = [svg.to_plane(px) for px in svg.polygons]
            outcome.area_rel_err = oracles.check_area(CANONICAL, planar)
        if preset == "inversion":
            label = f"|OX|*|OQ| = {c * c:.3f}"
            if label not in svg.texts:
                raise OracleError(f"inversion label is not {label!r}: {svg.texts}")
        return outcome

    return check


def family3_check(out: str) -> None:
    svg = oracles.SvgFigure(out, (-1.15, 1.15, -1.15, 1.15))
    curves = [(FAMILY3_FOCI, r) for r in FAMILY3_RADII]
    svg.check_polygons_on(curves)
    expected = sum(oracles.expected_components(FAMILY3_FOCI, r) for r in FAMILY3_RADII)
    if len(svg.polygons) != expected:
        raise OracleError(f"family3: {len(svg.polygons)} closed contours, expected {expected}")


def polynomial_svg_check(foci, radius: float, window) -> Callable[[str], None]:
    expected = oracles.expected_components(foci, radius)

    def check(out: str) -> None:
        svg = oracles.SvgFigure(out, window)
        svg.check_polygons_on([(foci, radius)])
        if len(svg.polygons) != expected or svg.polylines:
            raise OracleError(f"{len(svg.polygons)} closed contours, expected {expected}")

    return check


def json_check(foci, check: Callable[[dict, float, np.ndarray], None]) -> Callable[[str], None]:
    """Run check(doc, c, o) on a JSON document about a Bernoulli placement."""
    f = oracles.as_points(foci)
    return lambda out: check(json.loads(out), half_distance(foci), f.mean(axis=0))


def near(a: float, b: float, scale: float, what: str, tol: float = 1e-9) -> None:
    if not abs(a - b) <= tol * scale:
        raise OracleError(f"{what}: {a!r} != {b!r}")


def cross(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def on_bernoulli(foci, points, what: str) -> None:
    oracles.check_on_curve(foci, half_distance(foci), points, what=what)


def figures_ops(rng: random.Random) -> list[Op]:
    ops = []

    def add(name, argv, check):
        ops.append(Op(name, argv, clean_exit(name, check)))

    add("figure family3", ["figure", "--preset", "family3"], family3_check)
    for preset in PRESET_TALL:
        add(f"figure {preset}", ["figure", "--preset", preset, foci_arg(CANONICAL)], bernoulli_svg_check(preset))

    # the SVG forms of the single-parameter commands draw their preset
    theta = signed(rng, 10.0, 170.0)
    add("linkage svg", ["linkage", "--format", "svg", f"--theta={theta!r}"], bernoulli_svg_check("threebar"))
    phi = signed(rng, 0.0, 40.0)
    add("maclaurin svg", ["maclaurin", "--format", "svg", f"--phi={phi!r}"], bernoulli_svg_check("maclaurin"))
    alpha = signed(rng, 0.0, 80.0)
    add("rightangle svg", ["rightangle", "--format", "svg", f"--alpha={alpha!r}"], bernoulli_svg_check("rightangle"))
    theta = signed(rng, 5.0, 40.0)
    add("normal svg", ["normal", "--format", "svg", f"--theta={theta!r}"], bernoulli_svg_check("normal"))
    foci, radius = polynomial_lemniscate(rng, rng.randint(3, 6))
    half = 1.25 * (1.0 + radius)
    window = (-half, half, -half, half)
    argv = ["trace", "--format", "svg", foci_arg(foci), "--radius", repr(radius), "--grid", "512"]
    add("trace svg", argv + [f"--window={fmt_list(window)}"], polynomial_svg_check(foci, radius, window))

    # JSON answers at a random similarity placement of the foci
    B = similar_placement(rng)
    theta = signed(rng, 10.0, 170.0)

    def linkage(doc, c, o):
        p = {k: np.array(v) for k, v in doc["points"].items() if v is not None}
        on_bernoulli(B, p["x"], "linkage x")
        near(math.dist(p["a"], B[0]), c * SQRT2, c, "|f1 a|")
        near(math.dist(p["b"], B[1]), c * SQRT2, c, "|f2 b|")
        near(math.dist(p["a"], p["b"]), 2.0 * c, c, "|a b|")
        near(math.dist(p["x"], 0.5 * (p["a"] + p["b"])), 0.0, c, "x is the midpoint of a b")

    add("linkage json", ["linkage", foci_arg(B), f"--theta={theta!r}"], json_check(B, linkage))
    phi = signed(rng, 0.0, 40.0)

    def maclaurin(doc, c, o):
        p = {k: np.array(v) for k, v in doc["points"].items()}
        on_bernoulli(B, [p["x"], p["x_prime"]], "maclaurin x")
        chord = math.dist(p["a"], p["b"])
        near(math.dist(p["x"], o), chord, c, "|o x| = |a b|")
        near(math.dist(p["x_prime"], o), chord, c, "|o x'| = |a b|")
        for k in "ab":
            near(math.dist(p[k], B[0]), c / SQRT2, c, f"|f1 {k}|")

    add("maclaurin json", ["maclaurin", foci_arg(B), f"--phi={phi!r}"], json_check(B, maclaurin))
    alpha = signed(rng, 0.0, 80.0)

    def rightangle(doc, c, o):
        p = {k: np.array(v) for k, v in doc["points"].items()}
        on_bernoulli(B, [p["x"], p["y"]], "rightangle tip")
        near(math.dist(p["a"], B[0]), c, c, "|f1 a|")
        for k in "xy":
            near(math.dist(p["a"], p[k]), c * SQRT2, c, f"|a {k}|")

    add("rightangle json", ["rightangle", foci_arg(B), f"--alpha={alpha!r}"], json_check(B, rightangle))
    c = half_distance(B)
    o = oracles.as_points(B).mean(axis=0)
    ang = rng.uniform(0.0, math.tau)
    point = o + rng.uniform(0.2, 3.0) * c * np.array([math.cos(ang), math.sin(ang)])

    def invert(doc, c, o):
        x, q = point - o, np.array(doc["image"]) - o
        near(math.hypot(*x) * math.hypot(*q), c * c, c * c, "|OX| |OQ| = c^2", 1e-12)
        near(cross(x, q), 0.0, c * c, "X and Q on one ray", 1e-12)
        if np.dot(x, q) <= 0.0:
            raise OracleError("the image lies on the opposite ray")

    add("invert json", ["invert", foci_arg(B), f"--point={fmt_list(point)}"], json_check(B, invert))
    theta = signed(rng, 5.0, 40.0)

    def normal(doc, c, o):
        x = np.array(doc["point"])
        on_bernoulli(B, x, "normal foot")
        near(math.dist(doc["anchor"], x), 0.0, c, "normal anchor")
        g = oracles.gradient(B, c, x)[0]
        d = np.array(doc["direction"])
        near(cross(d, g / math.hypot(*g)), 0.0, 1.0, "normal against gradient", 1e-8)

    add("normal json", ["normal", foci_arg(B), f"--theta={theta!r}"], json_check(B, normal))

    def area(doc, c, o):
        near(doc["area"], oracles.bernoulli_area(B), c * c, "area = 2c^2", 1e-12)

    add("area json", ["area", foci_arg(B)], json_check(B, area))
    L, r = polynomial_lemniscate(rng, rng.randint(2, 6))
    probes = np.array([[rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)] for _ in range(20)])

    def expand(doc):
        coeffs = np.array(doc["coefficients"])
        if coeffs.shape != (2 * len(L) + 1,) * 2:
            raise OracleError(f"coefficient table of shape {coeffs.shape} for {len(L)} foci")
        value = np.polynomial.polynomial.polyval2d(probes[:, 0], probes[:, 1], coeffs)
        exact = oracles.field(L, r, probes)
        magnitude = np.abs(exact) + 2.0 * r ** (2 * len(L))
        worst = float(np.max(np.abs(value - exact) / np.maximum(1.0, magnitude)))
        if worst > 1e-9:
            raise OracleError(f"coefficients miss the product form by {worst:.3e}")

    add("expand json", ["expand", foci_arg(L), "--radius", repr(r)], lambda out: expand(json.loads(out)))
    return ops


WORKLOADS = {"verify": verify_ops, "trace": trace_ops, "figures": figures_ops}


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass, generated from the seed alone."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
