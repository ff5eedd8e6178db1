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

from lemniscate import BernoulliConfig, Contour, Point, trace
from lemniscate import verify
from lemniscate.curves import _curvature, lemniscate_field_array
from lemniscate.geometry import row_cross, xy
from lemniscate.tracer import bernoulli_window
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
    polar_angles,
    run_verification,
    sweep_angles,
    threebar_states,
)


def placed(scale, angle, tx, ty):
    """The canonical foci (-1, 0), (1, 0) scaled, rotated and translated."""
    u = Point(math.cos(angle), math.sin(angle)) * scale
    shift = Point(tx, ty)
    return BernoulliConfig(shift - u, shift + u)


def rows_at(states, k):
    """A sweep's states at the rows k (an index or a boolean mask), the point rows
    taken along the points' axis so that they stay coordinate-major."""
    return type(states)(*(v.T[..., k].T for v in states))


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
    states = threebar_states(B, sweep_angles(300))
    parallel = np.isnan(states.p[:, 0])
    assert parallel.sum() == 2
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        got = check_inversion_pairing(B, states)
    assert got == check_inversion_pairing(B, rows_at(states, ~parallel))
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
                check_tangent_circle(B, sweep_angles(count + count // 4))
    assert parallel == [0] * 600


def test_tangent_circle_center_rebuild_has_no_nan_row(monkeypatch):
    # the rebuilt center is NaN only where the normal at x is parallel to the line from o
    # along the hyperbola's normal at q; both pass through p, so o lies on the normal at x:
    # a vertex, crank 0 or pi, which the 5e-2 angle filter skips; a NaN row fails the check
    nan_rows, intersect = [], verify.line_line_intersection_array

    def spy(*args):
        rebuilt = intersect(*args)
        nan_rows.append(int(np.isnan(rebuilt).any(axis=-1).sum()))
        return rebuilt

    monkeypatch.setattr(verify, "line_line_intersection_array", spy)
    rng = random.Random(36)
    for _ in range(80):
        c = 10.0 ** rng.uniform(-13.0, 13.0)
        B = placed(c, rng.uniform(0.0, math.tau), rng.uniform(-1e3, 1e3) * c, rng.uniform(-1e3, 1e3) * c)
        for count in (10, 100, 1_000):
            check_tangent_circle(B, sweep_angles(count + count // 4))
    assert nan_rows == [0] * 240


def least_squares_slope(L, center, radius, x, c):
    """The contact slope with its least-squares fit written out: the slope of
    log |field| against log step, over arc steps of 1e-2 c, 1e-3 c and 1e-4 c."""
    steps = np.array((1e-2, 1e-3, 1e-4)) * c
    ang = np.arctan2(x[:, 1] - center[:, 1], x[:, 0] - center[:, 0])[:, None] + steps / radius[:, None]
    circle_x, circle_y = center[:, 0:1] + radius[:, None] * np.cos(ang), center[:, 1:2] + radius[:, None] * np.sin(ang)
    value = np.abs(lemniscate_field_array(L, circle_x, circle_y))
    lx, ly = np.log(steps), np.log(np.where(value == 0.0, 1.0, value))
    dx = lx - lx.mean()
    slope = ((ly - ly.mean(axis=1, keepdims=True)) * dx).sum(axis=1) / (dx * dx).sum()
    return np.where((value == 0.0).any(axis=1), 2.0, slope)


def test_contact_slope_matches_the_least_squares_closed_form(monkeypatch):
    # the tangent circle touches the curve, so |field| along it grows as the square of the arc
    # step; on the states check_tangent_circle builds (1,250 crank angles, those near a multiple
    # of pi/4 skipped), np.polyfit's slope agrees with the closed form and lies near 2
    calls, contact_slope = [], verify._contact_slope

    def spy(*args):
        slope = contact_slope(*args)
        calls.append((args, slope))
        return slope

    monkeypatch.setattr(verify, "_contact_slope", spy)
    rng = random.Random(37)
    placements = [placed(1.0, 0.0, 0.0, 0.0)]
    for _ in range(3):  # c in 10^[-3, 3], any turn, offsets up to 1e3 c
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        placements.append(placed(c, rng.uniform(0.0, math.tau), rng.uniform(-1e3, 1e3) * c, rng.uniform(-1e3, 1e3) * c))
    for B in placements:
        check_tangent_circle(B, sweep_angles(1_250))
    assert len(calls) == 4
    for args, slope in calls:
        assert len(slope) >= 1_000
        np.testing.assert_allclose(slope, least_squares_slope(*args), rtol=1e-12, atol=0.0)
        assert np.all((1.9 <= slope) & (slope <= 2.1)), (slope.min(), slope.max())


def traced_peak(fn, *args, **kwargs):
    """tracemalloc's peak, in bytes, over one call of fn."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_stays_within_one_sweep():
    # each check reduces every residual array to its worst value as it is formed, solves
    # its 10^4-row sweep in blocks of 5,000 rows whose parameters are built per block, and
    # the three-bar sweep that two checks share keeps only the fields still read and takes
    # its unit vectors in place, so the peak is about 0.69 MB, that three-bar block's; the
    # area trace, 0.86 MB before its band's field went in halves, set 0.86 MB; whole sweeps
    # read 1.37 MB, holding the residual arrays as well 1.77 MB
    assert traced_peak(run_verification, placed(1.0, 0.0, 0.0, 0.0)) < 0.76e6


def test_peak_memory_is_one_block_at_ten_times_the_sweep():
    # each block builds its own parameters, so 10^5 rows peak as 10^4 do: about 0.70 MB,
    # against 1.7 MB with whole parameter arrays and 13.7 MB for whole sweeps
    assert traced_peak(run_verification, placed(1.0, 0.0, 0.0, 0.0), sweep=100_000, grid=64) < 0.77e6


def test_dense_checks_peak_at_one_block():
    # the normals, the hyperbola inverse, the tangent circles and lemma 1's lines run in
    # blocks of 5,000 rows too: 20,000 of each peak at about 1.30 MB (the tangent circles'
    # contact slopes), against 7.9 MB when each ran whole
    assert traced_peak(run_verification, placed(1.0, 0.0, 0.0, 0.0), dense=20_000, grid=64) < 1.45e6


def test_area_check_peaks_below_its_old_trace():
    # the band evaluates each run's field in two halves, so the grid-512 area trace peaks
    # at about 0.55 MB, against 0.85 MB with the whole run's field held through its cells
    B = placed(1.0, 0.0, 0.0, 0.0)
    check_area(B)
    assert traced_peak(check_area, B) < 0.65e6


@pytest.mark.parametrize("B", [placed(1.0, 0.0, 0.0, 0.0), placed(5.0, 0.9273, 1.0, 3.0)], ids=["canonical", "placed"])
def test_blocks_give_the_checks_of_one_pass(B, monkeypatch):
    # every residual is a max over rows divided by a positive constant after it, so the worst
    # over blocks of 5,000, 5,000 and 2,345 rows is the one-pass residual, bit for bit
    blocked = run_verification(B, sweep=12_345, dense=120, grid=64)
    monkeypatch.setattr(verify, "_ROWS", 10**9)
    assert blocked == run_verification(B, sweep=12_345, dense=120, grid=64)


def test_every_sweep_runs_its_count_in_calls_of_at_most_rows(monkeypatch):
    # an odd count is solved whole (polar_angles(121) gave 120 angles), each sweep reaches its
    # kernel in blocks of at most _ROWS rows, and check_lemma1 inverts 41 samples per line at a
    # time: 121 * 41 = 4,961 rows, then the other 9, then the mirrored centers
    seen = {}

    def counted(name, kernel):
        def solve(*args):
            points = [a for a in args if isinstance(a, np.ndarray)][-1]
            key = (name, *(a for a in args if isinstance(a, str)))
            seen.setdefault(key, []).append(points.size // (points.shape[-1] if points.ndim > 1 else 1))
            return kernel(*args)

        return solve

    for name in (
        "bernoulli_polar_array",
        "three_bar_array",
        "invert_between_array",
        "maclaurin_array",
        "right_angle_array",
        "invert_point_array",
    ):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    run_verification(placed(5.0, 0.9273, 1.0, 3.0), sweep=12_345, dense=121, grid=64)
    tangent_circle = seen.pop(("three_bar_array",))  # its sweep is padded, then thinned near the parallel cranks
    assert len(tangent_circle) == 1 and 121 <= tangent_circle[0] <= verify._ROWS
    blocks = [5_000, 5_000, 2_345]
    assert seen == {
        ("bernoulli_polar_array",): blocks + [121],  # the defining product, then the normals
        ("three_bar_array", "opposite"): blocks,
        ("invert_between_array",): [121],
        ("three_bar_array", "same"): blocks,
        ("maclaurin_array",): blocks,
        ("right_angle_array",): blocks,
        ("invert_point_array",): [121 * 41, 121 * 9, 121],
    }


def test_dense_checks_run_in_blocks_of_at_most_rows(monkeypatch):
    # 7,001 normals and hyperbola points reach their kernels as 5,000 and 2,001 rows, the
    # 8,751 padded crank angles as 5,000 and 3,751 before the skip, and lemma 1 its lines as
    # 5,000 and 2,001 pairs inverting one sample a line a call; every check is the one-pass one
    B = placed(5.0, 0.9273, 1.0, 3.0)
    seen = {}

    def counted(name, kernel):
        def solve(B, block):  # parameters, or lemma 1's count of pairs
            seen.setdefault(name, []).append(block if isinstance(block, int) else len(block))
            return kernel(B, block)

        return solve

    blocked = run_verification(B, sweep=10, dense=7_001, grid=32)
    for name in ("check_normals", "check_hyperbola_inverse", "check_tangent_circle", "_lemma1"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    assert run_verification(B, sweep=10, dense=7_001, grid=32) == blocked
    assert seen == {
        "check_hyperbola_inverse": [5_000, 2_001],
        "check_normals": [5_000, 2_001],
        "check_tangent_circle": [5_000, 3_751],
        "_lemma1": [5_000, 2_001],
    }
    monkeypatch.setattr(verify, "_ROWS", 10**9)
    assert run_verification(B, sweep=10, dense=7_001, grid=32) == blocked


@pytest.mark.parametrize(
    "counts, refusal",
    [
        ({"sweep": 0, "dense": 0}, "sweep must be at least 1, got 0"),
        ({"sweep": -3, "dense": 5}, "sweep must be at least 1, got -3"),
        ({"sweep": 10, "dense": -1}, "dense must be at least 1, got -1"),
    ],
)
def test_sample_counts_below_one_are_refused(counts, refusal):
    # a sweep of no rows reaches no kernel, so each check it feeds would pass at a residual of 0
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        run_verification(placed(1.0, 0.0, 0.0, 0.0), grid=16, **counts)


@pytest.mark.parametrize("pair_count", [0, -2])
def test_lemma1_refuses_fewer_than_one_pair(pair_count):
    with pytest.raises(ValueError, match=f"^pair_count must be at least 1, got {pair_count}$"):
        check_lemma1(pair_count)


def test_one_sample_a_sweep_still_runs():
    checks = run_verification(placed(5.0, 0.9273, 1.0, 3.0), sweep=1, dense=1, grid=32)
    assert len(checks) == 25 and not failures(checks)


@pytest.mark.parametrize("count", [121, 1_000])
@pytest.mark.parametrize("margin", [0.0, 0.02])
def test_polar_angles_at_indices_are_the_whole_sweep_bit_for_bit(count, margin):
    # the whole sweep's angles from one expression over every index, against polar_angles in blocks of 50
    i = np.arange(count)
    whole = -math.pi / 4 + margin + (math.pi / 2 - 2 * margin) * (i // 2 + 0.5) / ((count + 1) // 2) + math.pi * (i % 2)
    got = np.concatenate([polar_angles(count, margin, i[k : k + 50]) for k in range(0, count, 50)])
    assert got.tobytes() == whole.tobytes()


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
    alpha = -math.pi / 2 + (np.arange(100) + 0.5) * math.pi / 100  # 100 cranks and secants, as run_verification's grids
    phi = -math.pi / 4 + (np.arange(100) + 0.5) * (math.pi / 2) / 100
    checks = check_rightangle(B, alpha) + check_maclaurin(B, phi)
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


def carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral R_F(x, y, z) by duplication (B. C. Carlson, Numerical
    computation of real or complex elliptic integrals, Numer. Algorithms 10, 1995): ten steps take
    the arguments within about 4**-10 of their mean, where the series' O(4**-60) rest is below rounding."""
    for _ in range(10):
        root_x, root_y, root_z = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = root_x * root_y + root_y * root_z + root_z * root_x
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
    mean = (x + y + z) / 3
    dx, dy = 1 - x / mean, 1 - y / mean
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / np.sqrt(mean)


# arcsl x = x R_F(1 - x^2, 1 + x^2, 1), and the lemniscate constant is 2 arcsl(1)
VARPI = 2.0 * float(carlson_rf(0.0, 2.0, 1.0))


def arc_length_error(B, contours):
    """Worst error, over the curve's length 2 varpi a (a = c sqrt(2)), of the arc length at
    each vertex: chord lengths l plus kbar^2 l^3 / 24 per chord (kbar the mean curvature at
    its ends, the one end's at the double point), summed from the snapped double point along
    each half of each lobe out to its far vertex, against s(rho) = a arcsl(rho / a).

    On the curve 1 -+ (rho / a)^2 are 2 sin^2 and 2 cos^2 of the vertex's polar angle from
    the axis; taken from that angle, s is well conditioned at the far vertex, where rho is not."""
    o, axis, a = xy(B.center), xy(B.axis_unit), math.sqrt(2.0) * B.half_distance
    worst = 0.0
    for contour in contours:
        (start,) = np.flatnonzero((contour.points == o).all(axis=1))
        p = np.roll(contour.points, -start, axis=0)
        z = p.view(complex)[:, 0]
        kappa = _curvature(B.lemniscate, z)
        kappa[0] = np.nan  # g' is 0 at the double point, up to rounding
        d = p - o
        rho = np.hypot(d[:, 0], d[:, 1])
        far = int(np.argmax(rho))
        for half in (np.arange(far + 1), np.r_[0, len(p) - 1 : far - 1 : -1]):
            ell = np.abs(np.diff(z[half]))
            k0, k1 = kappa[half][:-1], kappa[half][1:]
            kbar = (np.fmax(k0, k1) + np.fmin(k0, k1)) / 2
            walked = np.cumsum(ell + kbar**2 * ell**3 / 24)
            r = rho[half][1:]
            sin = row_cross(axis, d[half][1:]) / r
            s = r * carlson_rf(2 * sin * sin, 2 - 2 * sin * sin, 1.0)
            # the far vertex may lie just past the lobe's tip, seen from this half: a whole lobe less s
            s = np.where(sin * sin[0] >= 0, s, VARPI * a - s)
            worst = max(worst, float(np.max(np.abs(walked - s))))
    return worst / (2.0 * VARPI * a)


def agm(x, y):
    for _ in range(8):
        x, y = (x + y) / 2, math.sqrt(x * y)
    return x


def test_lemniscate_constant_from_carlson_matches_gauss():
    # Gauss: varpi = pi / AGM(1, sqrt 2)
    assert VARPI == pytest.approx(math.pi / agm(1.0, math.sqrt(2.0)), rel=4e-16, abs=0.0)


# the measured worst over 3,000 seeded placements like those below, rounded up to a power of 2
ARC_LENGTH_BOUNDS = {128: 2.0**-27, 256: 2.0**-31, 512: 2.0**-35, 1024: 2.0**-39}


def test_every_vertex_lies_at_its_arc_length_from_the_double_point():
    # c in 10^[-3, 3], any turn, offsets up to 1e3 c, in check_area's window; over 3,000 such
    # placements the worst errors were 7.12e-09, 3.75e-10, 2.57e-11 and 1.65e-12, and the
    # order between grids 128 and 1024 lay in [3.64, 4.19]
    rng = random.Random(19)
    for _ in range(6):
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        B = placed(c, rng.uniform(0.0, math.tau), rng.uniform(-1e3, 1e3) * c, rng.uniform(-1e3, 1e3) * c)
        errors = []
        for grid, bound in ARC_LENGTH_BOUNDS.items():
            contours = trace(B.lemniscate, bernoulli_window(B, grid, 1.6 * c, 0.8 * c))
            assert len(contours) == 2 and all(k.closed for k in contours)
            errors.append(arc_length_error(B, contours))
            assert errors[-1] <= bound, (grid, errors)
        assert 3.5 <= math.log2(errors[0] / errors[-1]) / 3 <= 4.5, errors


def test_two_swapped_vertices_fail_the_length_oracle_and_pass_the_area_check(monkeypatch):
    # a chain that steps back and forth moves the enclosed area by a sliver only
    B = placed(1.0, 0.0, 0.0, 0.0)
    first, second = trace(B.lemniscate, bernoulli_window(B, 512, 1.6, 0.8))
    points = first.points.copy()
    points[[40, 41]] = points[[41, 40]]
    swapped = [Contour(points, True, first.max_residual), second]
    assert arc_length_error(B, [first, second]) <= ARC_LENGTH_BOUNDS[512]
    assert arc_length_error(B, swapped) > 1e6 * ARC_LENGTH_BOUNDS[512]
    monkeypatch.setattr(verify, "trace", lambda *args: swapped)
    assert check_area(B, 512).passed
