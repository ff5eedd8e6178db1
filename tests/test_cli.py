"""Command line surface tests: formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

import lemniscate
import lemniscate.cli as cli
from lemniscate import BernoulliConfig, Contour, Point, PolynomialLemniscate, Scene, TraceWindow, emit_svg, figure_scene
from lemniscate.cli import main
from lemniscate.figures import PolylineElement, curve_scene
from lemniscate.tracer import contours_from_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def key_lists(doc):
    return list(doc["config"]), list(doc["points"])


class TestBasicCommands:
    def test_area(self, capsys):
        code, out, _ = run_cli(capsys, "area")
        assert code == 0
        doc = json.loads(out)
        assert doc["area"] == 2.0
        assert doc["config"]["foci"] == [[-1.0, 0.0], [1.0, 0.0]]
        assert set(doc) >= {"config", "contours", "checks"}

    def test_area_scaled(self, capsys):
        # values starting with a dash use the --flag=value form
        code, out, _ = run_cli(capsys, "area", "--foci=-2,0,2,0")
        assert json.loads(out)["area"] == 8.0

    def test_linkage_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "linkage", "--theta", "90")
        assert code == 0
        assert key_lists(json.loads(out)) == (["foci", "theta_deg", "side"], ["a", "b", "x", "p", "q"])
        pts = json.loads(out)["points"]
        assert pts["x"][0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert pts["x"][1] == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)
        assert pts["q"] == [pytest.approx(-1.0), pytest.approx(math.sqrt(2) / 2)]

    def test_maclaurin(self, capsys):
        code, out, _ = run_cli(capsys, "maclaurin", "--phi", "0")
        assert key_lists(json.loads(out)) == (["foci", "phi_deg"], ["a", "b", "x", "x_prime"])
        xs = json.loads(out)["points"]
        assert xs["x"][0] == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_rightangle(self, capsys):
        code, out, _ = run_cli(capsys, "rightangle", "--alpha", "60")
        assert key_lists(json.loads(out)) == (["foci", "alpha_deg"], ["a", "x", "y"])
        pts = json.loads(out)["points"]
        assert pts["x"][0] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert pts["x"][1] == pytest.approx(0.5, abs=1e-12)

    def test_linkage_same_side(self, capsys):
        code, out, _ = run_cli(capsys, "linkage", "--side", "same")
        doc = json.loads(out)
        assert code == 0
        assert key_lists(doc) == (["foci", "theta_deg", "side"], ["a", "b", "x", "p", "q"])
        # the parallelogram's stick lines are parallel: no p, no q
        assert doc["config"]["side"] == "same"
        assert doc["points"]["p"] is None and doc["points"]["q"] is None

    def test_invert_beyond_1e154_is_quiet(self, capsys):
        # the squared distance overflows to +inf; the row is rescaled before
        # squaring, so the image keeps its float, 1e-300, and the check holds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "invert", "--point", "1e300,-1")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["image"] == [pytest.approx(1e-300, rel=1e-15, abs=0.0), 0.0]
        assert doc["checks"]["distance_product_minus_c2"] <= 1e-15
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "29b156e495b5c3d6a372bb07c6d082d66703de08cdf2e0ad064b06f9d1295e03"
        )

    @pytest.mark.parametrize("point", ["1.7e308,1.7e308", "-1.7e308,1e308"])
    def test_invert_where_the_distance_overflows_writes_strict_json(self, capsys, point):
        # |p - o| passes the largest float; the check rescales the offset
        # first, so it stays a finite number and the output stays JSON
        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "invert", f"--point={point}")
        assert (code, err) == (0, "")
        doc = json.loads(out, parse_constant=refuse)
        assert doc["checks"]["distance_product_minus_c2"] <= 1e-15

    @pytest.mark.parametrize(
        "foci, point, image, c2",
        [("-2,-1,4,7", "-1.7e308,-1.7e308", [1.0, 3.0], 25.0), ("1e300,0,1e300,2", "1e300,1e300", [1e300, 1.0], 1.0)],
        ids=["similar", "far_foci"],
    )
    def test_invert_image_that_rounds_onto_the_centre(self, capsys, foci, point, image, c2):
        # the printed image rounds onto the centre; the check measures the image's
        # offset from the centre (about 1e-307 and 1e-300), which is not zero
        code, out, err = run_cli(capsys, "invert", f"--foci={foci}", f"--point={point}")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["image"] == image
        assert doc["checks"]["distance_product_minus_c2"] <= 1e-15 * c2

    def test_invert(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--point", "1.4142135623730951,0")
        doc = json.loads(out)
        assert doc["image"][0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert doc["checks"]["distance_product_minus_c2"] <= 1e-12

    def test_normal(self, capsys):
        code, out, _ = run_cli(capsys, "normal", "--theta", "30")
        doc = json.loads(out)
        dx, dy = doc["direction"]
        # normal at the pi/6 polar point is vertical
        assert abs(dx) <= 1e-12
        assert abs(abs(dy) - 1.0) <= 1e-12

    def test_expand(self, capsys):
        code, out, _ = run_cli(capsys, "expand")
        doc = json.loads(out)
        assert doc["degree"] == 4
        coeffs = doc["coefficients"]
        assert coeffs[4][0] == 1.0
        assert coeffs[2][0] == -2.0
        assert coeffs[0][2] == 2.0


class TestTraceCommand:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "trace", "--grid", "64", "--out", str(out_path))
        assert code == 0
        groups = contours_from_csv(out_path.read_text())
        assert len(groups) == 2

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--grid", "64", "--format", "json")
        doc = json.loads(out)
        assert len(doc["contours"]) == 2
        assert doc["checks"]["max_contour_residual"] <= 1e-10

    def test_svg_output(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--grid", "64", "--format", "svg")
        assert out.startswith("<?xml")

    def test_custom_window_and_radius(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "trace",
            "--foci", "0,0",
            "--radius", "1",
            "--window=-2,2,-2,2",
            "--grid", "64",
            "--format", "json",
        )
        assert len(json.loads(out)["contours"]) == 1

    def test_rotated_bernoulli_window_holds_both_lobes(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--foci=0,-1,0,1", "--grid", "128", "--format", "svg")
        assert code == 0
        assert out.count("<polygon") == 2
        assert "<polyline" not in out

    def test_radius_the_snap_takes_for_the_double_point_gets_the_figure_frame(self, capsys):
        # 1e-10 off the half distance: the snap splits the curve at the double point,
        # and the frame is the lemniscate figure's, not the general square
        code, out, _ = run_cli(capsys, "trace", "--radius", "1.0000000001", "--grid", "64", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        along, across = 1.6 * math.sqrt(2.0), 0.8 * math.sqrt(2.0)
        assert doc["config"]["window"] == [-along, along, -across, across]
        assert len(doc["contours"]) == 2

    def test_oval_at_a_tiny_scale_gets_its_own_window(self, capsys):
        # radius 5c is no Bernoulli radius, however small c is
        code, out, err = run_cli(
            capsys, "trace", "--foci=-1e-13,0,1e-13,0", "--radius", "5e-13", "--grid", "64", "--format", "svg"
        )
        assert code == 0, err
        assert out.count("<polygon") == 1

    @pytest.mark.parametrize(
        "foci, extra",
        [
            ("--foci=-2,-1,4,7", []),
            ("--foci=0,0,1,1,0.5,1.5", ["--radius", "0.9", "--window=-1,2,-1,2.5"]),
        ],
    )
    def test_svg_is_the_figure_curve_scene(self, capsys, foci, extra):
        code, out, _ = run_cli(capsys, "trace", foci, *extra, "--grid", "96", "--format", "svg")
        assert code == 0
        if extra:
            L = PolynomialLemniscate((Point(0, 0), Point(1, 1), Point(0.5, 1.5)), 0.9)
            expected = curve_scene(L, TraceWindow(-1, 2, -1, 2.5, 96, 96))
        else:
            # the Bernoulli window is the lemniscate preset's, markers aside
            preset = figure_scene("lemniscate", BernoulliConfig(Point(-2, -1), Point(4, 7)), grid=96)
            expected = Scene(preset.viewbox)
            for el in preset.elements:
                if isinstance(el, PolylineElement):
                    expected.add(el)
        assert out == emit_svg(expected)

    def test_empty_trace_reports_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--window", "5,6,5,6", "--grid", "16")
        assert code == 2
        assert "sign change" in err

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_collapsed_trace_is_refused(self, capsys, fmt):
        # ovals far below a cell about foci on grid nodes: every chain
        # collapses onto its focus, which is no curve to write
        argv = ("--foci=0,0,1,0", "--radius", "1e-8", "--grid", "512", "--window=-1,3,-2,2", "--format", fmt)
        code, out, err = run_cli(capsys, "trace", *argv)
        assert (code, out) == (2, "")
        assert err == "error: every traced chain collapses within 1e-12 of a cell diagonal at grid 512x512\n"


class TestJsonWriter:
    @pytest.mark.parametrize(
        "argv, count",
        [
            (["--window=0.1,1.6,-0.8,0.8"], 1),
            ([], 2),
            (["--foci=0,0.577,-0.5,-0.289,0.5,-0.289", "--radius", "0.5"], 3),
            (["--window=-0.7,1.6,-0.6,0.3"], 2),  # cut open by the window
        ],
    )
    def test_trace_json_is_json_dumps_indent_2(self, capsys, argv, count):
        code, out, _ = run_cli(capsys, "trace", "--grid", "96", "--format", "json", *argv)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["contours"]) == count
        # json.loads reads each float back exactly and keeps the key order
        assert out == json.dumps(doc, indent=2) + "\n"
        code, csv, _ = run_cli(capsys, "trace", "--grid", "96", *argv)
        assert [g.tolist() for g in contours_from_csv(csv)] == doc["contours"]

    def test_contours_match_json_dumps_at_edge_values(self):
        # signed zeros side by side, the least subnormal, +-1e300 and repeated values
        rng = np.random.default_rng(17)
        rows = rng.choice([-1.0, 1.0], (60, 2)) * 10.0 ** rng.uniform(-300, 300, (60, 2))
        rows[:7] = [(-0.0, 0.0), (5e-324, -1e300), (0.0, -0.0), (1e300, 5e-324), (-0.0, 1e300), (0.1, 0.1), (-1e300, -0.0)]
        rows[30:40, 0] = 0.25
        contours = [Contour(rows[:25], True, 0.0), Contour(rows[25:], False, 0.0)]
        config = {"foci": [[-1.0, 0.0], [1.0, 0.0]]}
        doc = {"config": config, "contours": [c.points.tolist() for c in contours], "checks": {"r": 0.0}}
        assert cli._json_doc(config, contours, {"r": 0.0}) == json.dumps(doc, indent=2) + "\n"

    def test_documents_without_contours(self, capsys):
        for argv in (["area"], ["expand"], ["verify", "--grid", "64", "--format", "json"]):
            code, out, _ = run_cli(capsys, *argv)
            doc = json.loads(out)
            assert doc["contours"] == [] and out == json.dumps(doc, indent=2) + "\n"


class TestParserReuse:
    SEQUENCE = [
        ["trace", "--grid", "48", "--format", "json"],
        ["trace", "--grid", "48"],  # --format back at its default
        ["figure", "--preset", "normal", "--theta", "20", "--grid", "48"],
        ["figure", "--preset", "normal", "--grid", "48"],  # --theta back at the preset's
        ["linkage", "--format", "svg", "--grid", "48"],
        ["linkage"],  # --grid back at None: the JSON form
        ["area", "--radius", "3"],  # a usage error
        ["invert", "--point", "0,0"],  # an input error
        ["area", "--foci=-2,0,2,0"],
        ["area"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_each_call_as_if_run_alone(self, capsys):
        alone = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            alone.append(self.outcome(capsys, argv))
        cli._parser.cache_clear()
        in_turn = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        assert in_turn == alone
        assert [code for code, _, _ in alone] == [0, 0, 0, 0, 0, 0, 2, 2, 0, 0]
        # one parser built for the whole sequence
        assert cli._parser.cache_info().misses == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._parser()


class TestFigureCommand:
    def test_figure_svg(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--preset", "lemniscate", "--grid", "64")
        assert code == 0 and out.startswith("<?xml")

    def test_normal_preset_default_parameter(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--preset", "normal", "--grid", "64")
        assert code == 0

    @pytest.mark.parametrize(
        "command, preset, angle, value",
        [
            ("linkage", "threebar", "--theta", "123"),
            ("maclaurin", "maclaurin", "--phi", "-17.5"),
            ("rightangle", "rightangle", "--alpha", "40"),
            ("normal", "normal", "--theta", "12"),
            # the angle flag omitted: the command's default is the preset's
            ("linkage", "threebar", None, None),
            ("maclaurin", "maclaurin", None, None),
            ("rightangle", "rightangle", None, None),
            ("normal", "normal", None, None),
        ],
    )
    def test_command_svg_is_its_preset(self, capsys, command, preset, angle, value):
        flag = [f"{angle}={value}"] if angle else []
        code, out, _ = run_cli(capsys, command, "--format", "svg", *flag, "--grid", "64")
        assert code == 0
        _, figure, _ = run_cli(capsys, "figure", "--preset", preset, *flag, "--grid", "64")
        assert out == figure

    @pytest.mark.parametrize(
        "command, key, degrees",
        [
            ("linkage", "theta_deg", 90.0),
            ("maclaurin", "phi_deg", 30.0),
            ("rightangle", "alpha_deg", 60.0),
            ("normal", "theta_deg", 30.0),
        ],
    )
    def test_json_default_angle(self, capsys, command, key, degrees):
        code, out, _ = run_cli(capsys, command)
        assert code == 0
        value = json.loads(out)["config"][key]
        assert value == degrees and isinstance(value, float)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["normal", "--format", "svg", "--point", "3,3"], "--point"),
            (["linkage", "--format", "svg", "--side", "same"], "--side"),
        ],
    )
    def test_svg_form_refuses_flags_it_cannot_draw(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--preset", "lemniscate", "--theta", "10"], "--theta"),
            (["--preset", "threebar", "--phi", "10"], "--phi"),
            (["--preset", "family3", "--theta", "5"], "--theta"),
            (["--preset", "normal", "--alpha", "5"], "--alpha"),
            (["--preset", "maclaurin", "--theta", "5"], "--theta"),
        ],
    )
    def test_figure_refuses_angle_its_preset_does_not_draw(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "figure", *argv, "--grid", "32")
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("command", ["linkage", "maclaurin", "rightangle", "normal"])
    @pytest.mark.parametrize("grid", ["8", "512"])
    def test_json_form_refuses_grid(self, capsys, command, grid):
        code, out, err = run_cli(capsys, command, "--grid", grid)
        assert code == 2
        assert out == ""
        assert "--grid" in err
        code, out, _ = run_cli(capsys, command)
        assert code == 0 and json.loads(out)

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "--preset", "spiral"])
        assert excinfo.value.code == 2


class TestErrorPaths:
    def test_bad_foci(self, capsys):
        code, _, err = run_cli(capsys, "area", "--foci", "1,2,3")
        assert code == 2 and "even number" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("trace", "--foci=1,1,1,1"), "foci 1 and 2 both at 1.0,1.0"),
            (("trace", "--foci=0,0,2,1,2,1", "--grid", "64"), "foci 2 and 3 both at 2.0,1.0"),
            (("area", "--foci=1,1,1,1"), "both at 1.0,1.0"),
        ],
        ids=["trace_pair", "trace_third_focus", "area_pair"],
    )
    def test_coincident_foci_are_named(self, capsys, argv, named):
        # the default radius of a repeated pair is 0: distinctness is checked first
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "distinct" in err and named in err

    @pytest.mark.parametrize("argv", [("area",), ("verify", "--grid", "64")], ids=["area", "verify"])
    def test_out_path_that_cannot_be_opened_is_a_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize(
        "argv",
        [("invert", "--point=-1.7e308,0"), ("normal",)],
        ids=["invert", "normal"],
    )
    def test_overflowing_double_point_names_both_foci(self, capsys, argv):
        # the foci are finite and 2 apart, but their coordinate sum overflows
        code, out, err = run_cli(capsys, argv[0], "--foci=1.7e308,0,1.7e308,2", *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "midpoint" in err and err.count("\n") == 1
        assert "x=1.7e+308, y=0.0" in err and "x=1.7e+308, y=2.0" in err

    @pytest.mark.parametrize("form", [(), ("--format", "svg")], ids=["json", "svg"])
    @pytest.mark.parametrize(
        "foci, theta",
        [("1.7e308,0,1.7e308,2", "90"), ("1e13,1.7e308,1,1.7e308", "5e-324")],
        ids=["x_sum", "y_sum"],
    )
    def test_linkage_of_foci_whose_midpoint_overflows(self, capsys, foci, theta, form):
        # both forms refuse before any stick is solved, naming both foci
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "linkage", f"--foci={foci}", "--theta", theta, *form)
        assert code == 2 and out == ""
        x1, y1, x2, y2 = (repr(float(v)) for v in foci.split(","))
        assert err == f"error: the midpoint of Point(x={x1}, y={y1}) and Point(x={x2}, y={y2}) overflows\n"

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_field_of_zero_times_inf_names_the_foci(self, capsys, fmt):
        # a grid node on the first focus gives a factor 0, the far focus's factor
        # overflows: the product is NaN, and its side unknown
        argv = ("--foci=1e-8,1e-8,5e-324,1e300", "--radius", "3", "--grid", "32", "--format", fmt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "trace", *argv)
        assert code == 2 and out == ""
        foci = "Point(x=1e-08, y=1e-08), Point(x=5e-324, y=1e+300)"
        assert err == f"error: the field is 0 * inf at a grid node: foci {foci}\n"

    @pytest.mark.parametrize("form", [(), ("--format", "svg", "--grid", "32")], ids=["json", "svg"])
    def test_linkage_whose_sticks_round_onto_their_foci(self, capsys, form):
        # c * sqrt(2) is below the float spacing at 1e300: no stick direction, not parallel sticks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "linkage", "--foci=-1,1e300,0,1e300", *form)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if not form:  # the SVG form's view window is refused first
            foci = "Point(x=-1.0, y=1e+300), Point(x=0.0, y=1e+300)"
            assert err == f"error: a stick rounds onto its focus at theta = {math.pi / 2!r}: foci {foci}\n"

    @pytest.mark.parametrize(
        "argv", [("linkage", "--format", "svg", "--grid", "32"), ("figure", "--preset", "threebar")], ids=["linkage", "figure"]
    )
    def test_view_window_that_rounds_empty_names_the_foci(self, capsys, argv):
        # 0.8 c sqrt(2) added to 1e300 rounds back onto it: the view has no height
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv[0], "--foci=-1,1e300,0,1e300", *argv[1:])
        assert code == 2 and out == ""
        foci = "Point(x=-1.0, y=1e+300), Point(x=0.0, y=1e+300)"
        assert err.startswith(f"error: the view about foci {foci}: window ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("linkage", "--foci=0,0,1,0,2,2"), "this command needs exactly two foci, got 3 in --foci=0,0,1,0,2,2"),
            (("trace", "--window=1,2,3"), "expected 4 comma-separated numbers, got 3 in '1,2,3'"),
        ],
        ids=["two_foci", "window_numbers"],
    )
    def test_count_refusal_names_the_input(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_trace_of_foci_whose_midpoint_overflows(self, capsys):
        # the double-point test needs the midpoint, which names both foci when it overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "trace", "--foci=1.7e308,0,1.7e308,2")
        assert code == 2 and out == ""
        assert err == "error: the midpoint of Point(x=1.7e+308, y=0.0) and Point(x=1.7e+308, y=2.0) overflows\n"

    def test_area_of_foci_whose_midpoint_overflows(self, capsys):
        code, out, _ = run_cli(capsys, "area", "--foci=1.7e308,0,1.7e308,2")
        assert code == 0 and json.loads(out)["area"] == 2.0

    def test_invert_center_singular(self, capsys):
        code, _, err = run_cli(capsys, "invert", "--point", "0,0")
        assert code == 2

    def test_normal_at_a_far_point_is_one_error_line(self, capsys):
        # the on-curve test's field overflows; its NaN residual counts as off the curve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "normal", "--point", "1e300,-1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "1e+300" in err and err.count("\n") == 1

    def test_rightangle_out_of_reach(self, capsys):
        code, _, err = run_cli(capsys, "rightangle", "--alpha", "150")
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv, angle",
        [
            (("linkage",), "theta"),
            (("linkage", "--format", "svg", "--grid", "64"), "theta"),
            (("maclaurin",), "phi"),
            (("rightangle",), "alpha"),
            (("normal",), "theta"),
            (("figure", "--preset", "threebar", "--grid", "64"), "theta"),
            (("figure", "--preset", "maclaurin", "--grid", "64"), "phi"),
        ],
    )
    def test_non_finite_angle_is_usage_error(self, capsys, argv, angle, value):
        code, out, err = run_cli(capsys, *argv, f"--{angle}", value)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {angle} = {value} ")

    @pytest.mark.parametrize(
        "argv, radius",
        [
            (("trace", "--foci=-1e150,0,1e150,0"), "1e+150"),
            (("figure", "--preset", "lemniscate", "--foci=-1e150,0,1e150,0"), "1e+150"),
            (("verify", "--foci=-1e-300,0,1e-300,0"), "1e-300"),
            (("area", "--foci=-1e200,0,1e200,0"), "1e+200"),
        ],
    )
    def test_extreme_scale_is_a_usage_error(self, capsys, argv, radius):
        # c**4 overflows or underflows: refused before any arithmetic on it
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"radius {radius} at n = 2" in err

    @pytest.mark.parametrize(
        "window, bounds",
        [
            ("0,inf,0,1", "0.0,inf,0.0,1.0"),
            # the width overflows to inf
            ("-1e308,1e308,-1,1", "-1e+308,1e+308,-1.0,1.0"),
            # the cells are 2e-323 wide, not a normal float
            ("0,1e-320,0,1e-320", "0.0,1e-320,0.0,1e-320"),
        ],
    )
    def test_non_finite_window_is_usage_error(self, capsys, window, bounds):
        code, out, err = run_cli(capsys, "trace", f"--window={window}", "--grid", "512")
        assert code == 2 and out == ""
        assert err.startswith(f"error: window {bounds} ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # +inf is the field's right sign far out: no warning, no sign change
            (("--window=-1e300,1e300,-1,1", "--grid", "512"), "no sign change in the window"),
            # a normal level, 1e300, but the field overflows next to the foci
            (("--foci=0,0,1e150,0", "--radius", "1e75", "--grid", "64"), "the field overflows a float"),
        ],
    )
    def test_overflowing_field_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "trace", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "foci, radius, code",
        [
            ("1e-300,-0,1.7e308,-1", "3", 2),
            ("1e100,1e100,2e100,0,0,3e100", "1", 2),
            ("1,2,3,4,-1,0.5", "2", 0),
        ],
    )
    def test_expand_writes_strict_json_or_names_the_input(self, capsys, foci, radius, code):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        got, out, err = run_cli(capsys, "expand", f"--foci={foci}", "--radius", radius)
        assert got == code
        if code == 0:
            assert json.loads(out, parse_constant=refuse)["degree"] == 6
        else:
            named = ", ".join(f"({float(x)!r}, {float(y)!r})" for x, y in zip(*[iter(foci.split(","))] * 2))
            assert out == ""
            assert err == f"error: the coefficients overflow a float at foci {named} and radius {float(radius)!r}\n"

    def test_no_command_usage(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["area", "--radius", "3"], "--radius"),
            (["figure", "--preset", "lemniscate", "--format", "csv"], "--format"),
            (["invert", "--point", "1,1", "--format", "svg"], "--format"),
            (["verify", "--format", "csv"], "--format"),
            (["expand", "--grid", "8"], "--grid"),
        ],
    )
    def test_flag_a_command_does_not_read_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


class TestVerifyCommand:
    def test_full_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--grid", "256", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"]["defining_product"] <= 1e-10
        assert len(doc["checks"]) >= 20

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ((), "0daa8d428a6220d2bf4e6aa89b573ab5972e3d1442ad021360af1d95a6a3e2ff"),
            (("--foci=-2,-1,4,7",), "92bc016ca067da28bd3775696f520aa0cf8ed7efec9bb5e0263323d769a043c8"),
            (("--format", "json"), "f60f01281250dc2365ef89ceca77550850fca5599d53abddb07a0566c8d51d61"),
        ],
        ids=["text", "text-placed", "json"],
    )
    def test_report_is_pinned_bit_for_bit(self, capsys, argv, digest):
        # the JSON report writes every residual at full precision, so a
        # changed bit anywhere in the sweeps changes its hash
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# The child imports the same lemniscate copy as this process, installed or not.
_PACKAGE_PARENT = os.path.dirname(os.path.dirname(lemniscate.__file__))


def _run_subprocess(args, hashseed):
    return subprocess.run(
        [sys.executable, "-m", "lemniscate.cli", *args],
        capture_output=True,
        env={
            "PYTHONHASHSEED": hashseed,
            "PYTHONPATH": _PACKAGE_PARENT,
            "PYTHONDONTWRITEBYTECODE": "1",
            "PATH": "/usr/bin:/bin",
        },
    )


def test_commands_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma costs each command memory, and numpy 2.4 imports it on the
    # hash path of a plain np.unique, which src/ does not call; a fresh
    # interpreter shows whether any command imports it
    script = (
        "import sys\n"
        "from lemniscate.cli import main\n"
        "for argv in (['trace'], ['verify'], ['figure', '--preset', 'family3']):\n"
        "    assert main([*argv, '--out', sys.argv[1]]) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        capture_output=True,
        env={"PYTHONPATH": _PACKAGE_PARENT, "PYTHONDONTWRITEBYTECODE": "1", "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b"False\n"


class TestMallocPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
    def test_second_verify_reuses_the_freed_heap(self, tmp_path):
        # glibc trims the freed top of the heap after each check, and the next check
        # faults it in again: 1,500-1,800 minor faults here without main's policy
        script = (
            "import resource, sys\n"
            "from lemniscate.cli import main\n"
            "argv = ['verify', '--grid', '64', '--out', sys.argv[1]]\n"
            "assert main(argv) == 0\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert main(argv) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out")],
            capture_output=True,
            env={"PYTHONPATH": _PACKAGE_PARENT, "PYTHONDONTWRITEBYTECODE": "1", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr.decode()
        assert int(result.stdout) < 100

    @staticmethod
    def no_handle(name):
        raise OSError(f"{name}: cannot open shared object file")

    @staticmethod
    def windows(name):
        raise TypeError("argument of type 'NoneType' is not iterable")  # ctypes.CDLL(None) on Windows

    @staticmethod
    def no_mallopt(name):
        return types.SimpleNamespace()  # looking mallopt up raises AttributeError, as on macOS

    @pytest.mark.parametrize("lookup", ["no_handle", "windows", "no_mallopt"])
    def test_without_mallopt_main_runs_unchanged(self, monkeypatch, capsys, lookup):
        argv = ["verify", "--grid", "64"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: calls.append(name) or getattr(self, lookup)(name))
        cli._keep_freed_heap.cache_clear()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 0
        finally:
            cli._keep_freed_heap.cache_clear()
        assert calls == [None]
        assert capsys.readouterr() == expected


class TestDeterminism:
    def test_figure_bytes_stable_across_processes(self):
        args = ["figure", "--preset", "threebar", "--grid", "128"]
        first = _run_subprocess(args, "0")
        second = _run_subprocess(args, "1")
        assert first.returncode == 0, first.stderr.decode()
        assert second.returncode == 0, second.stderr.decode()
        assert first.stdout == second.stdout

    def test_trace_bytes_stable_across_processes(self):
        args = ["trace", "--grid", "128"]
        first = _run_subprocess(args, "0")
        second = _run_subprocess(args, "1")
        assert first.returncode == 0, first.stderr.decode()
        assert second.returncode == 0, second.stderr.decode()
        assert first.stdout == second.stdout

    @pytest.mark.parametrize(
        "foci, digest",
        [
            # canonical Bernoulli pair at the default grid 512
            ("-1,0,1,0", "94ecc802edc522dd9ab5582a310ec6f0f121c7f3d0b19751b12cd036e793b13f"),
            # four foci drawn uniformly from [-1.5, 1.5]^2 (numpy seed 20261018), radius 1
            (
                "1.1238825230586604,-0.34168929850715446,-1.3978339653113128,0.7022633736739632,"
                "1.077076544773603,0.8098615418093464,0.498943990580186,-1.4443307023966439",
                "6c8ff2f51e658d83932c2f7e9039901e59f90504d9cc84a5037714839229a402",
            ),
            # a Bernoulli pair at c = 1e-3 about (0.25, -0.5), turned 37 degrees
            (
                "0.2492013644899527,-0.500601815023152,0.2507986355100473,-0.49939818497684796",
                "a43d11b2d368d852578d919bf8960bbac66b7d4ad6cc6591f82b0fc5a8dc7828",
            ),
        ],
        ids=["canonical", "four_foci", "turned_small_pair"],
    )
    def test_trace_csv_is_pinned_bit_for_bit(self, capsys, foci, digest):
        # the CSV writes every vertex at full precision, so any change to a
        # vertex bit, a contour's order or its direction changes the hash
        code, out, _ = run_cli(capsys, "trace", "--format", "csv", f"--foci={foci}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # canonical Bernoulli pair at grid 2048
            (["--grid", "2048"], "bffedf2601c4cc8cb21755194a765e5d0c2ecec28c5d45fdfe12d6a7d15b0767"),
            # the four seeded foci of the CSV pin above
            (
                [
                    "--foci=1.1238825230586604,-0.34168929850715446,-1.3978339653113128,0.7022633736739632,"
                    "1.077076544773603,0.8098615418093464,0.498943990580186,-1.4443307023966439",
                    "--grid",
                    "1024",
                ],
                "73fa108e9e19fbb9e4f2b830f4d7c923e305297834c55f47f023a9f590a59337",
            ),
        ],
        ids=["canonical_2048", "four_foci_1024"],
    )
    def test_trace_json_is_pinned_bit_for_bit(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "trace", "--format", "json", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_trace_csv_over_many_band_runs_is_pinned_bit_for_bit(self, capsys):
        # at grid 4096 the band keeps about 7,800 blocks of 4 x 4 cells, so its
        # signs and segment ends come in several bounded runs
        code, out, _ = run_cli(capsys, "trace", "--format", "csv", "--grid", "4096")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b90068d308047c299e3d232a46e475cee044a89321eed444be46e2b4447fa2af"
        )
