"""Tests of the benchmark's oracles.

    python3 -m pytest bench/test_oracles.py -q

The mutation tests run a real command, check that its output passes, and
then check that a slightly wrong copy of the output fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from lemniscate import cli  # noqa: E402
from oracles import OracleError  # noqa: E402

CANONICAL = workloads.CANONICAL


def run_op(workload: str, name: str, seed: int = 0):
    op = next(op for op in workloads.build(workload, seed) if op.name == name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.argv))
    return op, code, out.getvalue()


class TestField:
    def test_hand_computed_values(self):
        points = [(0.0, 0.0), (2.0, 0.0), (0.0, 1.0), (math.sqrt(2.0), 0.0)]
        # (|p - f1|^2 |p - f2|^2) - 1 with f = (-1, 0), (1, 0)
        assert oracles.field(CANONICAL, 1.0, points) == pytest.approx([0.0, 8.0, 3.0, 0.0], abs=1e-15)
        three = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        assert oracles.field(three, 1.0, [(1.0, 1.0)])[0] == 2.0 * 1.0 * 1.0 - 1.0

    def test_gradient_by_hand_and_by_differences(self):
        # at (2, 0): q1 = 9, q2 = 1, so grad = 1 * 2 * (3, 0) + 9 * 2 * (1, 0)
        assert oracles.gradient(CANONICAL, 1.0, [(2.0, 0.0)])[0].tolist() == [24.0, 0.0]
        foci = ((0.3, -0.2), (-0.5, 0.4), (0.1, 0.9))
        p, h = np.array([0.7, 0.2]), 1e-6
        numeric = [
            (oracles.field(foci, 0.8, p + e)[0] - oracles.field(foci, 0.8, p - e)[0]) / (2 * h)
            for e in (np.array([h, 0.0]), np.array([0.0, h]))
        ]
        assert oracles.gradient(foci, 0.8, p)[0] == pytest.approx(numeric, rel=1e-8)

    def test_field_scale(self):
        assert oracles.field_scale(CANONICAL, 1.0) == 1.0
        assert oracles.field_scale(((2.0, 0.0), (0.0, 1.0)), 1.5) == 2.0**4

    def test_components_across_the_critical_level(self):
        # the Bernoulli double point is the one critical point, at level c = 1
        assert oracles.critical_levels(CANONICAL) == pytest.approx([1.0])
        assert oracles.expected_components(CANONICAL, 0.9) == 2
        assert oracles.expected_components(CANONICAL, 1.1) == 1
        assert oracles.expected_components(workloads.FAMILY3_FOCI, 0.5) == 3
        assert oracles.expected_components(workloads.FAMILY3_FOCI, 0.7) == 1


class TestShoelace:
    def test_known_polygons(self):
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        assert oracles.shoelace(square) == 1.0
        assert oracles.shoelace(square[::-1]) == -1.0
        assert oracles.shoelace([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]) == 6.0

    def test_bernoulli_polygon_area(self):
        t = np.linspace(-math.pi / 4, math.pi / 4, 2001)
        r = np.sqrt(2.0 * np.cos(2.0 * t))
        lobe = np.column_stack((r * np.cos(t), r * np.sin(t)))
        assert oracles.check_area(CANONICAL, [lobe, -lobe]) < 1e-5


class TestCsv:
    def test_round_trip(self):
        text = "0.1,-2.5\n1e-300,3.0\n\n4.0,5.0\n"
        contours = oracles.parse_csv(text)
        assert [c.tolist() for c in contours] == [[[0.1, -2.5], [1e-300, 3.0]], [[4.0, 5.0]]]

    def test_digits_that_do_not_round_trip(self):
        with pytest.raises(OracleError):
            oracles.parse_csv("0.10000000000000000555,1.0\n")


def lemniscate_svg(points, window) -> str:
    """An SVG drawn the way the program draws one polygon: 9 digits."""
    xmin, xmax, ymin, ymax = window
    s = 800.0 / (xmax - xmin)
    coords = " ".join(f"{(x - xmin) * s:.9g},{(ymax - y) * s:.9g}" for x, y in points)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="{(ymax - ymin) * s:.9g}">'
        f'<polygon points="{coords}"/></svg>'
    )


class TestSvgRoundTrip:
    window = workloads.bernoulli_window(CANONICAL, 0.8)

    def lobe(self):
        t = np.linspace(-0.7, 0.7, 50)
        r = np.sqrt(2.0 * np.cos(2.0 * t))
        return np.column_stack((r * np.cos(t), r * np.sin(t)))

    def test_pixels_map_back_to_the_plane(self):
        lobe = self.lobe()
        svg = oracles.SvgFigure(lemniscate_svg(lobe, self.window), self.window)
        planar = svg.to_plane(svg.polygons[0])
        assert np.abs(planar - lobe).max() <= 1e-8
        svg.check_polygons_on([(CANONICAL, 1.0)])

    def test_a_shifted_vertex_is_caught(self):
        lobe = self.lobe()
        lobe[20] += 1e-6
        svg = oracles.SvgFigure(lemniscate_svg(lobe, self.window), self.window)
        with pytest.raises(OracleError):
            svg.check_polygons_on([(CANONICAL, 1.0)])

    def test_window_mismatch_is_caught(self):
        text = lemniscate_svg(self.lobe(), self.window)
        with pytest.raises(OracleError):
            oracles.SvgFigure(text, workloads.bernoulli_window(CANONICAL, 1.15))


class TestMutations:
    """Moving one vertex by 1e-6 or dropping one contour fails the check."""

    def test_trace_csv(self):
        op, code, out = run_op("trace", "trace 3 foci grid 1024 csv")
        assert op.check(code, out).failed == []
        blocks = out.rstrip("\n").split("\n\n")
        lines = blocks[0].split("\n")
        x, y = map(float, lines[len(lines) // 2].split(","))
        lines[len(lines) // 2] = f"{x + 1e-6!r},{y + 1e-6!r}"
        moved = "\n\n".join(["\n".join(lines)] + blocks[1:]) + "\n"
        with pytest.raises(OracleError):
            op.check(code, moved)
        with pytest.raises(OracleError):
            op.check(code, "\n\n".join(blocks[1:]) + "\n")

    def test_trace_json(self):
        op, code, out = run_op("trace", "trace canonical grid 512 json")
        assert op.check(code, out).failed == []
        doc = json.loads(out)
        contour = doc["contours"][0]
        contour[len(contour) // 2][0] += 1e-6
        with pytest.raises(OracleError):
            op.check(code, json.dumps(doc))
        doc = json.loads(out)
        del doc["contours"][1]
        with pytest.raises(OracleError):
            op.check(code, json.dumps(doc))

    def test_figure(self):
        op, code, out = run_op("figures", "figure lemniscate")
        assert op.check(code, out).area_rel_err < oracles.AREA_TOL
        lines = out.split("\n")
        k = next(i for i, line in enumerate(lines) if "<polygon" in line)
        head, coords, tail = lines[k].split('"', 2)
        pairs = coords.split()
        px, py = map(float, pairs[len(pairs) // 2].split(","))
        scale = 800.0 / (3.2 * math.sqrt(2.0))  # the preset's window is 3.2 c sqrt(2) wide
        pairs[len(pairs) // 2] = f"{px + 1e-6 * scale:.9g},{py:.9g}"
        moved = "\n".join(lines[:k] + [f'{head}"{" ".join(pairs)}"{tail}'] + lines[k + 1 :])
        with pytest.raises(OracleError):
            op.check(code, moved)
        dropped = "\n".join(lines[:k] + lines[k + 1 :])
        with pytest.raises(OracleError):
            op.check(code, dropped)

    def test_verify_report(self):
        op, code, out = run_op("verify", "verify canonical")
        assert op.check(code, out).failed == []
        line = next(line for line in out.split("\n") if line.startswith("defining_product"))
        above_tolerance = re.sub(r"max residual \S+", "max residual 1.000e+00", line)
        with pytest.raises(OracleError):
            op.check(code, out.replace(line, above_tolerance))
        with pytest.raises(OracleError):  # the summary no longer adds up
            op.check(code, out.replace(line, line.replace("PASS", "FAIL")))


def test_seeds_give_the_same_operations():
    for workload in workloads.WORKLOADS:
        first = [op.argv for op in workloads.build(workload, 7)]
        assert first == [op.argv for op in workloads.build(workload, 7)]
        assert workload == "verify" or first != [op.argv for op in workloads.build(workload, 8)]


def test_generated_radii_stay_clear_of_critical_levels():
    import random

    rng = random.Random(0)
    for _ in range(50):
        foci, radius = workloads.polynomial_lemniscate(rng, rng.randint(2, 6))
        levels = oracles.critical_levels(foci)
        assert np.min(np.abs(np.log(levels / radius))) >= math.log(1.118)


def test_benchmark_json_lists_the_reported_metrics():
    import run
    import spans

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
