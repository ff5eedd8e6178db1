"""The verification report at placements of the foci other than the
canonical one: every check is a theorem, so every check passes at any
similarity placement once residuals are scale-free."""

import dataclasses
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemniscate import BernoulliConfig, Point
from lemniscate import verify
from lemniscate.verify import (
    Check,
    check_area,
    check_coefficients,
    check_inversion_pairing,
    check_lemma1,
    check_maclaurin,
    check_rightangle,
    check_tangent_circle,
    format_report,
    run_verification,
    threebar_states,
)


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


@pytest.mark.parametrize("foci", [(0.0, 0.0, 2.0, 5e-324), (-0.0, 2.0, 5e-324, 0.0)])
def test_subnormal_focal_offset_passes_without_warning(foci):
    # g' at the snapped double point is rounding noise below the normal floats, so the
    # curvature's conj(g') / |g'| overflows; contour_area drops that vertex's curvature
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = run_verification(BernoulliConfig(Point(*foci[:2]), Point(*foci[2:])), grid=64)
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


@pytest.mark.parametrize("B", [placed(1.0, 0.0, 0.0, 0.0), placed(5.0, 0.9273, 1.0, 3.0)], ids=["canonical", "placed"])
def test_inversion_pairing_drops_parallel_rows(B):
    # 300 crank angles include pi/4 and 7pi/4, where the stick lines are
    # parallel (p and q are NaN) and, at the canonical foci, x is exactly o;
    # the residuals run over every row and drop those rows after: the same
    # checks as on the selected rows, with no floating-point warning
    states = threebar_states(B, 300)
    parallel = np.isnan(states.p[:, 0])
    assert parallel.sum() == 2
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        got = check_inversion_pairing(B, states)
    assert got == check_inversion_pairing(B, states.select(~parallel))
    assert all(c.passed for c in got)


def test_tangent_circle_sweep_skips_every_parallel_row(monkeypatch):
    # check_tangent_circle reads every state it solves: the crank angles it skips, within
    # 5e-2 of a multiple of pi/4, hold every angle where the stick lines are parallel (p NaN)
    class Swept(Exception):
        pass

    def stop(states):
        parallel.append(int(np.isnan(states.p).any(axis=-1).sum()))
        raise Swept

    parallel = []
    monkeypatch.setattr(verify, "tangent_circle_array", stop)
    rng = random.Random(35)
    for _ in range(200):
        c = 10.0 ** rng.uniform(-13.0, 13.0)
        B = placed(c, rng.uniform(0.0, math.tau), rng.uniform(-1e9, 1e9) * c, rng.uniform(-1e9, 1e9) * c)
        for count in (10, 100, 1_000):
            with pytest.raises(Swept):
                check_tangent_circle(B, count)
    assert parallel == [0] * 600


def test_peak_memory_stays_within_one_sweep():
    # each check reduces every residual array to its worst value as it is formed,
    # and the three-bar sweep that two checks share keeps only the fields still read,
    # so the peak is the three-bar solve's own, about 1.37 MB; holding the residual
    # arrays and the whole sweep read 1.77 MB, and a (1000, 50, 2) batch in
    # check_lemma1 (which inverts 10 samples per line at a time) peaked at 4.3 MB
    B = placed(1.0, 0.0, 0.0, 0.0)
    tracemalloc.start()
    try:
        run_verification(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_a_nan_residual_fails_its_check(monkeypatch):
    # Python's max and min keep a finite value that comes before a NaN; every worst is
    # combined through one reduction that keeps the NaN, so a NaN row fails each check it reaches
    def nan_last_row(kernel, field):
        def solve(*args):
            states = kernel(*args)
            getattr(states, field)[-1] = np.nan
            return states

        return solve

    monkeypatch.setattr(verify, "right_angle_array", nan_last_row(verify.right_angle_array, "y"))
    monkeypatch.setattr(verify, "maclaurin_array", nan_last_row(verify.maclaurin_array, "x_prime"))
    B = placed(5.0, 0.9273, 1.0, 3.0)
    checks = check_rightangle(B, 100) + check_maclaurin(B, 100)
    assert failures(checks) == [
        "rightangle_field",
        "rightangle_right_angle",
        "rightangle_lobe_separation",
        "maclaurin_field",
        "maclaurin_chord_identity",
    ]
    assert all(math.isnan(c.max_residual) for c in checks)


def test_check_is_a_read_only_hashable_record():
    check = Check("defining_product", 2.5e-16, 1e-10)
    with pytest.raises(AttributeError):
        check.tolerance = 1.0
    assert hash(check) == hash(Check(*check)) and check.passed
    as_dataclass = dataclasses.make_dataclass("Check", Check._fields, frozen=True)
    assert repr(check) == repr(as_dataclass(*check))


def test_coefficient_check_draws_through_random_alone(monkeypatch):
    # Python keeps random()'s sequence for a seed across versions, but not how uniform or choice use it
    class RandomAlone(random.Random):
        def uniform(self, a, b):
            raise AssertionError("uniform")

        def choice(self, seq):
            raise AssertionError("choice")

    expected = check_coefficients()
    monkeypatch.setattr(verify.random, "Random", RandomAlone)
    assert check_coefficients() == expected and expected.passed


def test_lemma1_check_draws_through_random_and_getrandbits_alone(monkeypatch):
    # its sign is choice((-1.0, 1.0)) as CPython 3.10 and 3.11 draw it, from getrandbits(2) drawn
    # again while it is >= 2, so the report rests on MT19937's sequence alone
    class RandomAndBits(random.Random):
        def uniform(self, a, b):
            raise AssertionError("uniform")

        def choice(self, seq):
            raise AssertionError("choice")

        def randrange(self, *args):
            raise AssertionError("randrange")

    expected = check_lemma1()
    monkeypatch.setattr(verify.random, "Random", RandomAndBits)
    assert check_lemma1() == expected and all(c.passed for c in expected)
