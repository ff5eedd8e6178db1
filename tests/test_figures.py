"""Scene composition and SVG emission tests."""

import dataclasses
import hashlib
import json
import math
import pathlib
import random
import re

import numpy as np
import pytest

from lemniscate import (
    BernoulliConfig,
    FIGURE_PRESETS,
    Point,
    Scene,
    Style,
    TraceWindow,
    emit_svg,
    figure_scene,
)
from lemniscate.cli import main
from lemniscate.errors import UnknownPreset
from lemniscate.figures import (
    CircleElement,
    MarkerElement,
    PolylineElement,
    SegmentElement,
    TextElement,
    _fmt,
    _OutsideView,
)

B = BernoulliConfig(Point(-1.0, 0.0), Point(1.0, 0.0))
GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestFigureScene:
    def test_all_presets_render(self):
        for preset in FIGURE_PRESETS:
            scene = figure_scene(preset, B, grid=64)
            assert scene.elements
            assert emit_svg(scene).startswith("<?xml")

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            figure_scene("spiral", B)

    def test_lemniscate_preset_contents(self):
        scene = figure_scene("lemniscate", B, grid=64)
        polylines = [el for el in scene.elements if hasattr(el, "points")]
        markers = [el for el in scene.elements if isinstance(el, MarkerElement)]
        assert len(polylines) == 2  # two lobes
        assert {m.style.label for m in markers} == {"F1", "F2", "O"}

    def test_threebar_preset_contents(self):
        scene = figure_scene("threebar", B, grid=64)
        segments = [el for el in scene.elements if isinstance(el, SegmentElement)]
        markers = {m.style.label: m.at for m in scene.elements if isinstance(el := m, MarkerElement)}
        assert len(segments) == 3
        assert markers["X"].distance_to(Point(-2.0 / 3.0, math.sqrt(2.0) / 3.0)) <= 1e-9

    def test_inversion_preset_contents(self):
        scene = figure_scene("inversion", B, grid=64)
        markers = {m.style.label for m in scene.elements if isinstance(m, MarkerElement)}
        assert {"X", "Q", "P", "O"} <= markers
        text = emit_svg(scene)
        assert "|OX|*|OQ| = 1.000" in text

    @pytest.mark.parametrize(
        "preset, angle",
        [
            ("family3", "theta"),
            ("lemniscate", "theta"),
            ("lemniscate", "alpha"),
            ("threebar", "phi"),
            ("maclaurin", "theta"),
            ("rightangle", "theta"),
            ("inversion", "alpha"),
            ("tangentcircle", "phi"),
            ("normal", "alpha"),
        ],
    )
    def test_angle_the_preset_does_not_draw(self, preset, angle):
        with pytest.raises(ValueError, match=f"--{angle} does not apply"):
            figure_scene(preset, B, grid=32, **{angle: 0.3})

    def test_parameter_changes_scene(self):
        a = emit_svg(figure_scene("threebar", B, theta=1.0, grid=64))
        b = emit_svg(figure_scene("threebar", B, theta=1.2, grid=64))
        assert a != b

    def test_random_valid_parameters(self):
        # every preset must render across its whole valid parameter range
        rng = random.Random(99)
        lobe = lambda: rng.choice((0.0, math.pi)) + rng.uniform(-math.pi / 4 + 0.03, math.pi / 4 - 0.03)
        samplers = {
            "threebar": lambda: {"theta": rng.uniform(0.01, math.tau - 0.01)},
            "maclaurin": lambda: {"phi": rng.uniform(-math.pi / 4 + 0.02, math.pi / 4 - 0.02)},
            "rightangle": lambda: {"alpha": rng.uniform(-math.pi / 2 + 0.02, math.pi / 2 - 0.02)},
            "inversion": lambda: {"theta": rng.uniform(1.1, 5.18)},
            "tangentcircle": lambda: {"theta": rng.uniform(1.5, 4.78)},
            "normal": lambda: {"theta": lobe()},
        }
        for preset, sampler in samplers.items():
            for _ in range(100):
                scene = figure_scene(preset, B, grid=32, **sampler())
                assert scene.elements

    def test_parameterless_presets_across_configs(self):
        # every Bernoulli preset shows both lobes whole, as two closed
        # contours, at any similarity placement of the foci
        rng = random.Random(5)
        for _ in range(10):
            ang = rng.uniform(0, math.tau)
            c = rng.uniform(0.5, 1.5)
            o = Point(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            f = Point(c * math.cos(ang), c * math.sin(ang))
            config = BernoulliConfig(o - f, o + f)
            for preset in FIGURE_PRESETS:
                if preset == "family3":
                    continue
                scene = figure_scene(preset, config, grid=64)
                closed = [el for el in scene.elements if isinstance(el, PolylineElement) and el.closed]
                assert len(closed) == 2, (preset, config)
        # family3 has its own fixed foci and ignores the config
        far = BernoulliConfig(Point(5.0, 7.0), Point(-3.0, 9.0))
        assert emit_svg(figure_scene("family3", far, grid=32)) == emit_svg(figure_scene("family3", B, grid=32))


class TestDefaultFrames:
    # c = 5 about (1, 3), the focal axis turned through 0, 15, ..., 165 degrees
    TURNS = [
        BernoulliConfig(Point(1.0 - dx, 3.0 - dy), Point(1.0 + dx, 3.0 + dy))
        for dx, dy in ((5.0 * math.cos(t), 5.0 * math.sin(t)) for t in (math.radians(15 * k) for k in range(12)))
    ]

    @pytest.mark.parametrize("preset", ["threebar", "maclaurin", "rightangle", "tangentcircle", "normal"])
    def test_construction_stays_in_view_at_every_turn(self, preset):
        # each preset's frame turns with the focal axis, so nothing it draws leaves the view
        for config in self.TURNS:
            scene = figure_scene(preset, config, grid=32)
            w = scene.viewbox
            for el in scene.elements:
                if isinstance(el, SegmentElement):
                    corners = [el.a, el.b]
                elif isinstance(el, CircleElement):
                    corners = [el.center - Point(el.radius, el.radius), el.center + Point(el.radius, el.radius)]
                elif isinstance(el, MarkerElement):
                    corners = [el.at]
                else:
                    continue
                for p in corners:
                    assert w.xmin <= p.x <= w.xmax and w.ymin <= p.y <= w.ymax, (preset, config, el)

    def test_default_trace_frame_holds_both_loops_at_every_turn(self, capsys):
        for config in self.TURNS:
            foci = f"--foci={config.f1.x!r},{config.f1.y!r},{config.f2.x!r},{config.f2.y!r}"
            assert main(["trace", foci, "--grid", "64", "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            loops = [np.array(c) for c in doc["contours"]]
            assert len(loops) == 2
            # the loops meet at the double point, a vertex of both
            o = np.array([config.center.x, config.center.y])
            assert all((loop == o).all(axis=1).any() for loop in loops), config


_RECORDS = [
    Style(0.5, True, "F1"),
    CircleElement(Point(0.0, 1.0), 2.0, Style()),
    SegmentElement(Point(0.0, 0.0), Point(1.0, -1.0), Style(stroke_width=0.1)),
    MarkerElement(Point(0.5, 0.5), Style(label="X")),
    TextElement(Point(-0.5, 0.25), Style(label="|OX|")),
]


class TestRecords:
    """The scene's value records are read-only, hashable, and keep the repr of the frozen dataclasses they were."""

    @pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_are_read_only(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)

    @pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
    def test_hashable_and_equal_to_a_copy(self, record):
        copy = type(record)(*record)
        assert copy == record and hash(copy) == hash(record)
        assert len({record, copy}) == 1

    @pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
    def test_repr_is_the_frozen_dataclass_repr(self, record):
        as_dataclass = dataclasses.make_dataclass(type(record).__name__, record._fields, frozen=True)
        assert repr(record) == repr(as_dataclass(*record))


class TestSceneGuard:
    def test_rejects_runaway_elements(self):
        scene = Scene(TraceWindow(-1, 1, -1, 1, 16, 16))
        with pytest.raises(ValueError):
            scene.add(MarkerElement(Point(10.0, 0.0), Style()))
        with pytest.raises(ValueError):
            scene.add(CircleElement(Point(0.0, 0.0), 5.0, Style()))
        with pytest.raises(ValueError):
            scene.add(SegmentElement(Point(0.0, 0.0), Point(0.0, -7.0), Style()))
        with pytest.raises(ValueError):
            scene.add(TextElement(Point(3.5, 3.5), Style(label="far")))
        with pytest.raises(TypeError, match="not a scene element"):
            scene.add(Point(0.0, 0.0))
        assert not scene.elements

    def test_polyline_error_names_first_vertex_outside(self):
        scene = Scene(TraceWindow(-1, 1, -1, 1, 16, 16))
        rows = np.array([(0.0, 0.0), (1.5, 0.5), (2.5, 0.0), (0.0, -3.0), (9.0, 9.0)])
        with pytest.raises(ValueError, match=r"element reaches Point\(x=2\.5, y=0\.0\)"):
            scene.add(PolylineElement(rows, False, Style()))
        assert not scene.elements

    def test_refuses_polyline_points_that_are_not_rows(self):
        # reshaped to (-1, 2), the (2, 3) array would pass as three rows inside the window, and
        # emit_svg would draw its first two columns as the vertices
        scene = Scene(TraceWindow(-1, 1, -1, 1, 16, 16))
        for points, shape in (
            (np.array([[0.0, 0.5, 1.0], [0.0, 0.25, 0.5]]), "(2, 3)"),
            (np.array([0.0, 0.5, 1.0, 0.25]), "(4,)"),
        ):
            with pytest.raises(ValueError) as refused:
                scene.add(PolylineElement(points, False, Style()))
            assert str(refused.value) == f"polyline points must be (N, 2) rows, got shape {shape}"
            assert not isinstance(refused.value, _OutsideView)
        assert not scene.elements

    def test_accepts_within_double_window(self):
        scene = Scene(TraceWindow(-1, 1, -1, 1, 16, 16))
        scene.add(MarkerElement(Point(1.9, -1.9), Style()))
        assert len(scene.elements) == 1

    OUTSIDE = "element reaches Point(x={}, y={}), outside 2x the view window"

    @pytest.mark.parametrize(
        "element, message",
        [
            # the second corner: the first, (-1.5, -1.75), lies within 2x the window
            (CircleElement(Point(0.5, 0.25), 2.0, Style()), OUTSIDE.format(2.5, 2.25)),
            (CircleElement(Point(-0.5, 0.25), 2.0, Style()), OUTSIDE.format(-2.5, -1.75)),
            (CircleElement(Point(0.0, 0.5), 3, Style()), OUTSIDE.format(-3.0, -2.5)),
            (SegmentElement(Point(0.0, 0.0), Point(0.0, -7.0), Style()), OUTSIDE.format(0.0, -7.0)),
            (SegmentElement(Point(3.0, 1.0), Point(0.0, -7.0), Style()), OUTSIDE.format(3.0, 1.0)),
            (MarkerElement(Point(10.0, 0.0), Style(label="F1")), OUTSIDE.format(10.0, 0.0)),
            (TextElement(Point(3.5, 3.5), Style(label="far")), OUTSIDE.format(3.5, 3.5)),
            (
                PolylineElement(np.array([(0.0, 0.0), (1.5, 0.5), (-0.0, 2.0000000000000004), (9, 9)]), False, Style()),
                OUTSIDE.format(-0.0, 2.0000000000000004),
            ),
            # a point that is not finite is refused by Point, naming it, before the guard's message
            (
                PolylineElement(np.array([(0.0, 0.0), (np.nan, 0.5), (9.0, 9.0)]), False, Style()),
                "coordinates must be finite, got (nan, 0.5)",
            ),
            (CircleElement(Point(-1e308, 0.5), 1.7e308, Style()), "coordinates must be finite, got (-inf, -1.7e+308)"),
            (CircleElement(Point(0.0, 0.5), math.nan, Style()), "coordinates must be finite, got (nan, nan)"),
        ],
        ids=[
            "circle_second_corner",
            "circle_first_corner",
            "circle_int_radius",
            "segment_end",
            "segment_start",
            "marker",
            "label",
            "polyline_row",
            "polyline_nan_row",
            "circle_infinite_corner",
            "circle_nan_radius",
        ],
    )
    def test_refusal_names_the_first_point_outside(self, element, message):
        scene = Scene(TraceWindow(-1, 1, -1, 1, 16, 16))
        with pytest.raises(ValueError) as refused:
            scene.add(element)
        assert str(refused.value) == message
        assert isinstance(refused.value, _OutsideView) == message.startswith("element reaches")
        assert not scene.elements

    @pytest.mark.parametrize(
        "preset, degrees, message",
        [
            (
                "inversion",
                44.999999,
                "the inversion figure at theta = 0.7853981459441558: "
                "element reaches Point(x=28647889.688825395, y=-28647889.688825384), outside 2x the view window",
            ),
            (
                "tangentcircle",
                45.0000001,
                "the tangentcircle figure at theta = 0.7853981651427776: "
                "element reaches Point(x=-691621177.7084846, y=-691621177.7084844), outside 2x the view window",
            ),
        ],
        ids=["inversion", "tangentcircle"],
    )
    def test_figure_refusal_names_the_preset_and_angle(self, preset, degrees, message):
        with pytest.raises(ValueError) as refused:
            figure_scene(preset, B, theta=math.radians(degrees), grid=32)
        assert str(refused.value) == message


class TestEmitSvg:
    def test_empty_scene(self):
        scene = Scene(TraceWindow(0, 2, 0, 1, 16, 16))
        expected = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="800" height="400" viewBox="0 0 800 400">\n'
            "</svg>\n"
        )
        assert emit_svg(scene) == expected

    def test_single_circle_element(self):
        scene = Scene(TraceWindow(-2, 2, -2, 2, 16, 16))
        scene.add(CircleElement(Point(0.0, 0.0), 1.0, Style(stroke_width=0.02)))
        text = emit_svg(scene)
        assert text.count("<circle") == 1
        assert 'cx="400" cy="400" r="200"' in text

    def test_flip_y(self):
        scene = Scene(TraceWindow(-2, 2, -2, 2, 16, 16))
        scene.add(MarkerElement(Point(0.0, 1.0), Style()))
        assert 'cy="200"' in emit_svg(scene)  # above center in math orientation

    def test_determinism(self):
        first = emit_svg(figure_scene("inversion", B, grid=64))
        second = emit_svg(figure_scene("inversion", B, grid=64))
        assert first == second

    def test_polyline_points_match_per_coordinate_fmt(self):
        # the per-coordinate _fmt loop the emitter replaced, as the reference;
        # this window maps x to x and y to -0.0 - y, so -0.0 reaches the pixels
        w = TraceWindow(0.0, 800.0, -800.0, -0.0, 16, 16)
        scale = 800.0 / (w.xmax - w.xmin)
        rng = np.random.default_rng(5)
        rows = rng.choice([-1.0, 1.0], (300, 2)) * 10.0 ** rng.uniform(-300, 300, (300, 2))
        rows[:6] = [(-0.0, 0.0), (1e-300, -1e300), (1e300, -0.0), (5e-324, 1e-300), (0.0, 2.0 / 3.0), (-1e300, 1.0)]
        scene = Scene(w)
        scene.add(PolylineElement(np.array([(1.0, -1.0), (-0.0, 0.0), (799.5, -0.0)]), False, Style()))
        # past the scene guard, to reach the ends of the float range
        scene.elements.append(PolylineElement(rows, True, Style()))
        expected = []
        for el in scene.elements:
            px = [((x - w.xmin) * scale, (w.ymax - y) * scale) for x, y in el.points.tolist()]
            assert any(math.copysign(1.0, v) < 0.0 for row in px for v in row if v == 0.0)
            expected.append(" ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in px))
        assert re.findall(r' points="([^"]*)"', emit_svg(scene)) == expected

    def test_label_escaping(self):
        scene = Scene(TraceWindow(-1, 1, -1, 1, 16, 16))
        scene.add(MarkerElement(Point(0, 0), Style(label="a<b&c")))
        assert "a&lt;b&amp;c" in emit_svg(scene)


def test_golden_threebar():
    # reviewed once against the construction layout, then frozen
    golden = GOLDEN / "threebar.svg"
    produced = emit_svg(figure_scene("threebar", B, grid=128))
    assert produced == golden.read_text(encoding="utf-8")


# SHA-256 of the SVG each command writes, recorded before the draw functions and
# the emitter were rewritten as drawing data; `figure --preset P --foci F --grid 64`
# writes emit_svg(figure_scene(P, B, grid=64)). family3 ignores the foci.
_PINNED_PRESETS = {
    "family3": ("1b5335442b75bca8ceceeb7ccc9e6b2face922c0135f7afe3bb850cd51675e9e",) * 2,
    "lemniscate": (
        "398ccde01e1b7ea16fdf0a8ff7aa80eddbde8dbe352fbe217e033b70e4ac10ea",
        "a016f53a21cfc4f25fcf42a2827554bb89c29c0460e7c175022d907b3af3b519",
    ),
    "threebar": (
        "b26db7f9fae2edcf039ab04f5c5c6415133523f237c685009c06f0d62bcd5983",
        "be5b08326f78fec69fb7fe0afeea9343cfc8949e9ad4fd72574472629f2eb1ae",
    ),
    "maclaurin": (
        "4fbb370ed16cfffe7c6af93121a162059fdab1168d073a9f16c8636592025f21",
        "ccf973cf5ca99a3476dccf41201de3c9a15b9db2493301aa100d6d6ccd88825a",
    ),
    "rightangle": (
        "e1b65ee163433bd9181bf2539388e2a52a680237e4b58482ca1bda2fa5f73232",
        "81756f1abb338b2b7f6c09709fdad68584c185d0e40b17103b9e120eb989b9d2",
    ),
    "inversion": (
        "777c676a50008574cb34e1c365c577f5b5384b0c2b42c8e26430bc13f4b1c855",
        "5933715ce77a6f7f046bbe6cf716c23d03b5f251cb35a0fffcf19457a048f8a3",
    ),
    "tangentcircle": (
        "b4cc0eda17c9287a689cf060f194555734092835cbceabafb43b8f0bc61a0c7f",
        "8908ca4d2822937b7d606ce48cc6b3286a5f5c11684302f46b53dd440cd8da1d",
    ),
    "normal": (
        "ee9f5a39f6da07bda3f77c9253e960f8ebe4fd77a0ef8ecbe4ad9d5cc4942237",
        "0fdf0782b758b4c771dd700fdfdbd5347f7c21ea86abfe4deeed5ae7ad907012",
    ),
}
_PINNED_SVG = [
    *(
        (("figure", f"--foci={foci}", "--preset", preset, "--grid", "64"), _PINNED_PRESETS[preset][k])
        for k, foci in enumerate(("-2,-1,4,7", "999.7,5,1000.4,5.2"))
        for preset in FIGURE_PRESETS
    ),
    *(
        ((command, "--foci=-2,-1,4,7", "--format", "svg", f"--{angle}", value, "--grid", "64"), digest)
        for command, angle, value, digest in (
            ("linkage", "theta", "37", "28fb824a0a9bd732aab3a3ff6194da875a481abe56e743c19a6efeb97a5918e6"),
            ("maclaurin", "phi", "12", "a7cbc862341f1b360e6da1d3e84e902166c4c950c712412e7b61b70e0b2869b5"),
            ("rightangle", "alpha", "20", "39c4dfc2b4768367436c76edc69dfe7e008dcb0aaaf82fb18bcb365345938cd3"),
            ("normal", "theta", "-17", "271b323e5c1a4b0a2c0190c19d286c3740118173f188ab97e1361c2fc8c6c421"),
        )
    ),
]


@pytest.mark.parametrize("argv, digest", _PINNED_SVG, ids=[" ".join(argv[:4]) for argv, _ in _PINNED_SVG])
def test_svg_is_pinned(capsys, argv, digest):
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
