"""The verification report at placements of the foci other than the
canonical one: every check is a theorem, so every check passes at any
similarity placement once residuals are scale-free."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemniscate import BernoulliConfig, Point
from lemniscate.verify import check_area, format_report, run_verification


def placed(scale, angle, tx, ty):
    """The canonical foci (-1, 0), (1, 0) scaled, rotated and translated."""
    u = Point(math.cos(angle), math.sin(angle)) * scale
    shift = Point(tx, ty)
    return BernoulliConfig(shift - u, shift + u)


def failures(checks):
    return [c.name for c in checks if not c.passed]


@pytest.mark.parametrize(
    "foci",
    [
        (-100.0, 0.0, 100.0, 0.0),
        (-0.1, 0.0, 0.1, 0.0),
        (-3.0, 1.0, 5.0, 2.0),
        (-2.0, -1.0, 4.0, 7.0),
        (-1e-4, 0.0, 1e-4, 0.0),
        (-3e-6, 1e-6, 5e-6, 2e-6),
        (999.0, 0.0, 1001.0, 0.0),
        (-3e6, 1e6, 5e6, 2e6),
        (-1e-13, 0.0, 1e-13, 0.0),
    ],
    ids=["c=100", "c=0.1", "tilted", "rotated-53deg", "c=1e-4", "tilted-1e-6", "offset-1000", "tilted-1e6", "c=1e-13"],
)
def test_full_report_passes(foci):
    B = BernoulliConfig(Point(*foci[:2]), Point(*foci[2:]))
    checks = run_verification(B)
    assert len(checks) == 25
    assert failures(checks) == [], format_report(checks)


@given(
    log_scale=st.floats(min_value=-2.0, max_value=2.0),
    angle=st.floats(min_value=0.0, max_value=math.tau),
    tx=st.floats(min_value=-5.0, max_value=5.0),
    ty=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=25, deadline=None)
def test_similarity_placements_pass(log_scale, angle, tx, ty):
    checks = run_verification(placed(10.0**log_scale, angle, tx, ty), sweep=400, dense=120, grid=128)
    assert failures(checks) == [], format_report(checks)


def test_residuals_invariant_under_exact_scaling():
    # scaling the foci by 2 is exact in binary floating point, and so is
    # dividing by powers of c = 2: every scale-free residual is unchanged
    def residuals(B):
        return {c.name: c.max_residual for c in run_verification(B, sweep=400, dense=120, grid=128)}

    assert residuals(placed(1.0, 0.0, 0.0, 0.0)) == residuals(placed(2.0, 0.0, 0.0, 0.0))


def test_area_window_follows_the_axis():
    for angle in (0.0, 0.3, math.pi / 2, 2.0):
        check = check_area(placed(5.0, angle, 1.0, 3.0), grid=256)
        assert check.passed, check


def test_no_floating_point_warnings():
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for B in (placed(1.0, 0.0, 0.0, 0.0), placed(5.0, 0.9273, 1.0, 3.0)):
            run_verification(B, sweep=400, dense=120, grid=128)
