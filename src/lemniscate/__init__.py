"""Executable geometry of the Bernoulli lemniscate.

Linkage constructions, circle inversion against the equilateral
hyperbola, synthetic tangent circles and normals, implicit curve tracing
for general polynomial lemniscates, and SVG figure generation.
"""

from .geometry import (
    Circle,
    InversionMap,
    Line,
    Point,
    circle_circle_intersection,
    invert_line,
    invert_point,
    line_circle_intersection,
    line_line_intersection,
    midpoint,
    reflect_across_line,
)
from .curves import (
    BernoulliConfig,
    CoefficientTable,
    EquilateralHyperbola,
    PolynomialLemniscate,
    bernoulli_area,
    bernoulli_polar_point,
    expand_coefficients,
    hyperbola_point,
    hyperbola_residual,
    hyperbola_tangent_at,
    lemniscate_field,
    lemniscate_gradient,
    unit_hyperbola_foci,
)
from .constructions import (
    MaclaurinSample,
    RightAngleState,
    ThreeBarState,
    hyperbola_of,
    invert_between,
    maclaurin_sample,
    normal_by_angle,
    right_angle_solve,
    tangent_circle_at,
    three_bar_solve,
)
from .tracer import (
    Contour,
    TraceWindow,
    contour_area,
    contours_from_csv,
    contours_to_csv,
    refine,
    trace,
)
from .figures import FIGURE_PRESETS, Scene, Style, emit_svg, figure_scene
from . import errors

__version__ = "0.1.0"
