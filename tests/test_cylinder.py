"""Skew-product engine: orbits, hypothesis check, classification, separator."""

import tracemalloc
import warnings

import numpy as np
import pytest

from cylmaps import (
    BasinClass,
    CosineProfile,
    CylinderSystem,
    CylPoint,
    DomainError,
    FiberFamily,
    PreconditionError,
    StepProfile,
    WrongFamilyError,
    arcsine_ensemble,
    backward_orbit_toward,
    base_orbit_angles,
    birkhoff_average,
    canonical_fixed_angle,
    check_kan_hypothesis,
    circle_equidistribution,
    classify_point,
    classify_points,
    estimate_separator,
    estimate_separator_batch,
    eval_fiber,
    final_counts,
    fractional_linear_family,
    intermingle_probe,
    inverse_kan_family,
    kan_family,
    occupation_ratios,
    orbit,
    rasterize,
    schwarzian_numeric,
    simulate_walk,
    step,
    transverse_exponent_birkhoff,
    transverse_exponent_quadrature,
)
from cylmaps import base, basins, cylinder, lyapunov, measures, walks
from cylmaps.base import (
    _digit_bytes,
    _digit_layout,
    _mod1,
    _redraw,
    _splitmix64,
    _stream_key,
    advance,
    advance_rows,
    digits,
)
from cylmaps.cylinder import _BLOCK_ELEMENTS, _BLOCK_ROUNDS, _column_thresholds, separator_sweep
from cylmaps.fiber import FRACTIONAL_LINEAR, INVERSE_KAN, KAN, _apply_fiber
from cylmaps.measures import jacobian_max_defect

SYS3 = CylinderSystem(3, kan_family(0.5))
SYS2 = CylinderSystem(2, kan_family(0.5))
INV3 = CylinderSystem(3, inverse_kan_family(0.5))


def test_system_validation():
    with pytest.raises(PreconditionError):
        CylinderSystem(1, kan_family(0.5))
    with pytest.raises(PreconditionError):
        CylinderSystem(3, fractional_linear_family(StepProfile((1.0, -1.0))))
    CylinderSystem(2, fractional_linear_family(StepProfile((1.0, -1.0))))


def test_quadratic_kinds_take_a_profile_with_sup_below_one():
    for bad in (StepProfile((1.0, 0.0, 0.0)), CosineProfile(-1.0), None):
        with pytest.raises(PreconditionError):
            FiberFamily(KAN, bad)
    with pytest.raises(PreconditionError):
        FiberFamily(INVERSE_KAN, StepProfile((0.5, -1.5, 0.0)))
    FiberFamily(KAN, StepProfile((0.99, -0.99, 0.0)))
    with pytest.raises(PreconditionError):
        CylinderSystem(4, FiberFamily(KAN, StepProfile((0.5, -0.5, 0.0))))


def test_point_validation():
    with pytest.raises(DomainError):
        CylPoint(1.0, 0.5)
    with pytest.raises(DomainError):
        CylPoint(0.5, 1.5)


def test_step_identity_fiber():
    p = step(SYS3, CylPoint(0.25, 0.3))
    assert p.x == 0.75
    assert p.y == pytest.approx(0.3, abs=1e-15)


def test_step_boundary_rows_exact():
    for x in (0.0, 0.123, 0.9):
        assert step(SYS3, CylPoint(x, 0.0)) == CylPoint((3 * x) % 1.0, 0.0)
        assert step(SYS3, CylPoint(x, 1.0)) == CylPoint((3 * x) % 1.0, 1.0)


def test_step_keeps_moebius_heights_on_the_cylinder():
    # e^c*y / (1 + (e^c - 1)*y) put this image at 1 + 2^-52, and CylPoint refused it
    sys = CylinderSystem(2, fractional_linear_family(StepProfile((0.96, 0.96))))
    p = step(sys, CylPoint(0.0, 1.0 - 2.0**-52))
    assert isinstance(p, CylPoint)
    assert p.y <= 1.0


def test_step_mod_one():
    assert step(SYS2, CylPoint(0.75, 0.5)).x == 0.5


def test_base_dynamics_ignores_height():
    for y in (0.1, 0.5, 0.9):
        assert step(SYS3, CylPoint(0.2, y)).x == step(SYS3, CylPoint(0.2, 0.3)).x


def test_orbit_lengths_and_composition():
    p0 = CylPoint(0.1, 0.4)
    assert orbit(SYS3, p0, 0) == [p0]
    two = orbit(SYS3, p0, 2)
    assert two[2] == step(SYS3, step(SYS3, p0))


def test_orbit_monotone_on_fixed_expanding_fiber():
    pts = orbit(SYS3, CylPoint(0.0, 0.9), 30)
    ys = [p.y for p in pts]
    assert all(b > a for a, b in zip(ys, ys[1:]))
    assert ys[-1] > 0.999


def test_boundary_absorption():
    pts = orbit(SYS3, CylPoint(0.37, 1.0), 20)
    assert all(p.y == 1.0 for p in pts)


# ---------------------------------------------------------------------------
# backward orbits
# ---------------------------------------------------------------------------

def test_backward_orbit_converges_to_marked_angle():
    pts = backward_orbit_toward(SYS3, CylPoint(0.1, 0.5), 0.5, 200)
    assert len(pts) == 201
    assert abs(pts[-1].x - 0.5) < 1e-6
    assert pts[-1].y > 0.999


def test_backward_orbit_stays_on_fixed_angle():
    pts = backward_orbit_toward(SYS3, CylPoint(0.5, 0.3), 0.5, 50)
    assert all(p.x == 0.5 for p in pts)


def test_backward_orbit_preimage_angles():
    x = 0.4
    pre = sorted(((x + j) / 3 for j in range(3)))
    assert pre == pytest.approx([x / 3, (x + 1) / 3, (x + 2) / 3])


def test_backward_forward_consistency():
    pts = backward_orbit_toward(SYS3, CylPoint(0.1, 0.5), 0.5, 40)
    for deep, shallow in zip(pts[1:], pts[:-1]):
        fwd = eval_fiber(SYS3.family, deep.x, deep.y)
        assert fwd == pytest.approx(shallow.y, abs=1e-10)


def test_backward_orbit_gates():
    with pytest.raises(PreconditionError):
        backward_orbit_toward(SYS3, CylPoint(0.1, 0.5), 0.3, 10)
    with pytest.raises(DomainError):
        backward_orbit_toward(SYS3, CylPoint(0.1, 0.0), 0.5, 10)
    with pytest.raises(PreconditionError, match="length"):
        backward_orbit_toward(SYS3, CylPoint(0.1, 0.5), 0.5, -1)


# ---------------------------------------------------------------------------
# marked-angle hypothesis
# ---------------------------------------------------------------------------

def test_hypothesis_passes_for_reference_system():
    rep = check_kan_hypothesis(SYS3, x_minus=0.5, x_plus=0.0, radius=0.1)
    assert rep.passed
    assert rep.violations == ()


def test_hypothesis_fails_for_wide_radius():
    # radius 0.3 around the pushing-up angle reaches the identity fiber
    rep = check_kan_hypothesis(SYS3, x_minus=0.5, x_plus=0.0, radius=0.3)
    assert not rep.passed
    assert rep.violations


def test_hypothesis_periodic_orbit_k2():
    rep = check_kan_hypothesis(SYS2, x_minus=1.0 / 3.0, x_plus=0.0,
                               radius=0.02, period=2)
    assert rep.passed


def test_hypothesis_angle_gate():
    with pytest.raises(PreconditionError):
        check_kan_hypothesis(SYS3, x_minus=0.4, x_plus=0.0, radius=0.05)


@pytest.mark.parametrize("radius", [0.0, -0.1, float("nan"), float("inf")])
def test_hypothesis_radius_gate(radius):
    with pytest.raises(PreconditionError):
        check_kan_hypothesis(SYS3, x_minus=0.5, x_plus=0.0, radius=radius)


@pytest.mark.parametrize("sys_, kwargs", [
    (SYS3, dict(x_minus=0.5, x_plus=0.0, radius=0.1)),
    (SYS3, dict(x_minus=0.5, x_plus=0.0, radius=0.3)),
    (SYS3, dict(x_minus=0.5, x_plus=0.0, radius=0.45)),
    (SYS2, dict(x_minus=1.0 / 3.0, x_plus=0.0, radius=0.02, period=2)),
    (CylinderSystem(4, kan_family(0.5)), dict(x_minus=2.0 / 3.0, x_plus=0.0, radius=0.05)),
    (CylinderSystem(3, inverse_kan_family(0.5)), dict(x_minus=0.5, x_plus=0.0, radius=0.1)),
])
def test_hypothesis_matches_scalar_orbit_loop(sys_, kwargs):
    def by_orbit(sys_, x_minus, x_plus, radius, period=1):
        nx, ny = 33, 17
        bad = []
        for center, want_down in ((x_minus, True), (x_plus, False)):
            for dx in np.linspace(-radius, radius, nx):
                x = (center + float(dx)) % 1.0
                for j in range(ny):
                    y = (j + 1.0) / (ny + 1.0)
                    fy = orbit(sys_, CylPoint(x % 1.0, y), period)[-1].y
                    if (fy >= y) if want_down else (fy <= y):
                        bad.append(("x_minus" if want_down else "x_plus", x, y, fy))
        return not bad, 2 * nx * ny, tuple(bad[:50]), len(bad)

    rep = check_kan_hypothesis(sys_, **kwargs)
    passed, checked, listed, failures = by_orbit(sys_, **kwargs)
    assert (rep.passed, rep.checked, rep.violations) == (passed, checked, listed)
    if kwargs["radius"] == 0.45:  # more failures than the report lists
        assert failures > len(rep.violations) == 50


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_reference_points():
    assert classify_point(SYS3, CylPoint(0.0, 0.9), 5000, 1e-6) == BasinClass.BASIN1
    assert classify_point(SYS3, CylPoint(0.3, 0.0), 0, 1e-6) == BasinClass.BASIN0
    assert classify_point(SYS3, CylPoint(0.3, 0.5), 0, 1e-6) == BasinClass.UNDECIDED


def test_step_profile_kan_classifies_half_and_half():
    # y -> 1 - y conjugates q_a to q_-a and swaps digits 0 and 1, so each
    # basin of this system has measure 1/2
    sys = CylinderSystem(3, FiberFamily(KAN, StepProfile((0.5, -0.5, 0.0))))
    rng = np.random.default_rng(2024)
    cls = classify_points(sys, rng.uniform(0.0, 1.0, 20_000), rng.uniform(0.0, 1.0, 20_000),
                          5000, 1e-6)
    f0, f1, undecided = np.bincount(cls, minlength=3) / cls.size
    assert undecided == 0
    assert abs(f0 - f1) < 0.03


def test_classify_delta_gate():
    with pytest.raises(PreconditionError):
        classify_point(SYS3, CylPoint(0.3, 0.5), 10, 0.7)


def test_classify_scalar_matches_batch():
    rng = np.random.default_rng(17)
    xs = rng.uniform(0.0, 1.0, 64)
    ys = rng.uniform(0.05, 0.95, 64)
    batch = classify_points(SYS3, xs, ys, 800, 1e-6)
    for i in range(64):
        single = classify_point(SYS3, CylPoint(float(xs[i]), float(ys[i])), 800, 1e-6)
        assert single == batch[i]


def test_classify_points_matches_scalar_fiber_loop():
    def classify_by_eval_fiber(sys_, x, y, n_max, delta):
        for _ in range(n_max + 1):
            if y < delta:
                return BasinClass.BASIN0
            if y > 1.0 - delta:
                return BasinClass.BASIN1
            x, y = (sys_.k * x) % 1.0, eval_fiber(sys_.family, x, y)
        return BasinClass.UNDECIDED

    grid = (np.arange(12) + 0.5) / 12
    xs, ys = (g.ravel() for g in np.meshgrid(grid, grid))
    for family in (kan_family(0.5), inverse_kan_family(0.5),
                   fractional_linear_family(StepProfile((1.0, -1.0, 0.5)))):
        sys_ = CylinderSystem(3, family)
        batch = classify_points(sys_, xs, ys, 200, 1e-6)
        scalar = [classify_by_eval_fiber(sys_, float(x), float(y), 200, 1e-6)
                  for x, y in zip(xs, ys)]
        assert batch.tolist() == scalar


def _remainder_cases():
    """Adversarial inputs for x mod 1, including k*x at odd and even k."""
    rng = np.random.default_rng(2024)
    n = 20_000
    u = rng.uniform(0.0, 1.0, n)
    tiny = np.array([2.0 ** -53, 2.0 ** -54, 2.0 ** -55, 1e-17, 1e-300, 5e-324])
    parts = [
        rng.uniform(0.0, 3.0, n),
        -rng.uniform(0.0, 3.0, n),              # (-3, 0]
        rng.normal(0.0, 1e6, n),
        -np.exp(rng.uniform(-700.0, 5.0, n)),
        np.exp(rng.uniform(-700.0, 60.0, n)),
        np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** 53, -(2.0 ** 53),
                  1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 1.0, -1.0, 3.0, -3.0]),
        -tiny,                                   # rounds up to 1.0 or just below
        -tiny - 2.0,
    ]
    parts += [k * u for k in (2, 3, 5, 7)] + [k * (u - 1.0) for k in (2, 3, 5, 7)]
    return np.concatenate(parts)


def test_mod1_matches_float_remainder_bit_for_bit():
    v = _remainder_cases()
    buf = v.copy()
    got = _mod1(buf)
    assert got is buf  # in place
    want = np.mod(v, 1.0)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    scalar = np.array([float(a) % 1.0 for a in v])
    assert np.array_equal(got.view(np.uint64), scalar.view(np.uint64))
    zeros = got == 0.0
    assert zeros.sum() > 10 and not np.signbit(got[zeros]).any()
    assert (got[v < 0] == 1.0).any()  # tiny negatives round up to 1.0 both ways
    assert ((got >= 0.0) & (got <= 1.0)).all()
    bad = np.array([np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        assert np.isnan(_mod1(bad.copy())).all()
        assert np.isnan(np.mod(bad, 1.0)).all()
    # the base map's two steps: advance on floats and arrays, and the
    # classifier's rows, each row one more advance of the row before
    for k in (2, 3, 5, 7):
        want = np.mod(k * v, 1.0)
        floats = [advance(k, a) for a in v.tolist()]
        assert all(type(a) is float for a in floats)
        assert np.array_equal(np.array(floats).view(np.uint64), want.view(np.uint64))
        got = advance(k, v)
        assert got is not v and np.array_equal(got.view(np.uint64), want.view(np.uint64))
        X = np.empty((4, v.size))
        rows = [v]
        for _ in range(4):
            rows.append(advance(k, rows[-1]))
        after = advance_rows(k, v, X)
        assert np.array_equal(X.view(np.uint64), np.array(rows[:4]).view(np.uint64))
        assert np.array_equal(after.view(np.uint64), rows[4].view(np.uint64))


def _classify_by_remainder(sys_, xs, ys, n_max, delta):
    """Reference classifier: the round written with numpy's float remainder,
    every point stepping its own angle until the last one decides."""
    x = np.array(xs, dtype=float).ravel()
    y = np.array(ys, dtype=float).ravel()
    out = np.full(x.shape, BasinClass.UNDECIDED, dtype=np.int8)
    out[y < delta] = BasinClass.BASIN0
    out[y > 1.0 - delta] = BasinClass.BASIN1
    idx = np.flatnonzero(out == BasinClass.UNDECIDED)
    x, y = x[idx], y[idx]
    for _ in range(n_max):
        if not idx.size:
            break
        y = _apply_fiber(sys_.family, x, y)
        x = (sys_.k * x) % 1.0
        hit0 = y < delta
        hit1 = y > 1.0 - delta
        out[idx[hit0]] = BasinClass.BASIN0
        out[idx[hit1]] = BasinClass.BASIN1
        keep = ~(hit0 | hit1)
        idx, x, y = idx[keep], x[keep], y[keep]
    return out


def test_classify_points_matches_the_remainder_round_loop():
    rng = np.random.default_rng(606)
    xs = rng.uniform(-2.0, 3.0, 4000)
    ys = rng.uniform(0.0, 1.0, 4000)
    xs_before, ys_before = xs.copy(), ys.copy()
    for k in (3, 5):
        for family in (kan_family(0.5), inverse_kan_family(0.5),
                       fractional_linear_family(CosineProfile(0.8))):
            sys_ = CylinderSystem(k, family)
            seen = set()
            # inverse-Kan fibres repel both boundaries: at delta = 1e-6 every
            # point stays undecided, at delta = 0.01 many decide
            for delta in (1e-6, 0.01):
                got = classify_points(sys_, xs, ys, 300, delta)
                assert np.array_equal(got, _classify_by_remainder(sys_, xs, ys, 300, delta))
                seen.update(got.tolist())
            assert seen == {0, 1, 2}
            assert np.array_equal(xs.view(np.uint64), xs_before.view(np.uint64))
            assert np.array_equal(ys.view(np.uint64), ys_before.view(np.uint64))


# 3/8 <-> 1/8 is an exact period-2 orbit of x -> 3x mod 1 on which this
# profile alternates -0.9 and +0.9: near either boundary each kind's fibres
# carry some heights across a threshold and back within two rounds
_SWING = StepProfile((0.9, -0.9, 0.0))


@pytest.mark.parametrize("kind", (KAN, INVERSE_KAN, FRACTIONAL_LINEAR))
def test_blocks_of_rounds_classify_as_the_remainder_round_loop(kind, monkeypatch):
    # a block steps min(_BLOCK_ROUNDS, _BLOCK_ELEMENTS // live) rounds, at
    # least one, and must read each point's class at its first hit and stop
    # at n_max; these batches start with blocks of 32, 31, 2 and 1 rounds
    sys_ = CylinderSystem(3, FiberFamily(kind, _SWING))
    delta = 0.01
    rng = np.random.default_rng(2048)
    near = np.array([1.5, 2.0, 8.0]) * delta
    edges = [delta, 1.0 - delta, np.nextafter(delta, 0.0), np.nextafter(1.0 - delta, 1.0)]
    swing_y = np.tile(np.concatenate([near, 1.0 - near, edges]), 2)
    swing_x = np.repeat([3.0 / 8.0, 1.0 / 8.0], swing_y.size // 2)
    swing_live = swing_y.size - 4  # the edges beyond a threshold decide at once
    shapes = _record_displaced_angles(monkeypatch)
    # the two large batches stop at 45 rounds, which keeps the reference
    # loop quick
    for live, first, budgets in ((_BLOCK_ELEMENTS // _BLOCK_ROUNDS, 32, (2, 45, 200)),
                                 (_BLOCK_ELEMENTS // _BLOCK_ROUNDS + 1, 31, (2, 45, 200)),
                                 (_BLOCK_ELEMENTS // 2, 2, (2, 45)),
                                 (_BLOCK_ELEMENTS // 2 + 1, 1, (2, 45))):
        # columns of four undecided heights, with the swinging points, and
        # then angles that never repeat
        n = live - swing_live
        columns = np.concatenate([swing_x, np.repeat(rng.uniform(0.0, 1.0, n // 4 + 1), 4)[:n]])
        heights = np.concatenate([swing_y, rng.uniform(delta, 1.0 - delta, n)])
        lone = rng.uniform(0.0, 1.0, live)
        for xs, ys in ((columns, heights), (lone, rng.uniform(delta, 1.0 - delta, live))):
            for n_max in budgets:
                shapes.clear()
                got = classify_points(sys_, xs, ys, n_max, delta)
                assert shapes[0][0] == min(first, n_max)
                assert np.array_equal(got, _classify_by_remainder(sys_, xs, ys, n_max, delta))


def test_steps_past_a_first_hit_raise_no_warning():
    # the -0.9 digits carry heights up to 1, where the 0.999999 digit rounds
    # some of them above 1; the steps their block takes past that hit then
    # meet a negative radicand, and those heights are never read
    sys_ = CylinderSystem(3, FiberFamily(INVERSE_KAN, StepProfile((0.999999, -0.9, -0.9))))
    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 1.0, 1000)
    ys = 1.0 - 10.0 ** rng.uniform(-15.0, -3.0, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = classify_points(sys_, xs, ys, 300, 1e-16)
    assert np.array_equal(got, _classify_by_remainder(sys_, xs, ys, 300, 1e-16))


@pytest.mark.parametrize("live", (2049, 5000, 20_000, 50_000))
def test_blocks_hold_at_most_the_element_budget(live):
    # a block's angle, coefficient and hit arrays hold rounds x live items,
    # at most _BLOCK_ELEMENTS: 2,049 to 50,000 undecided points peak at
    # about 1.2 to 2.6 MB, and 50,000 at about 30 MB in blocks of
    # _BLOCK_ROUNDS rounds
    sys_ = CylinderSystem(3, kan_family(0.05))
    rng = np.random.default_rng(50)
    xs = rng.uniform(0.0, 1.0, live)
    ys = rng.uniform(0.1, 0.9, live)
    tracemalloc.start()
    try:
        got = classify_points(sys_, xs, ys, _BLOCK_ROUNDS + 1, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got == BasinClass.UNDECIDED).all()
    assert peak < 6e6


@pytest.mark.parametrize("k", (3, 5))
@pytest.mark.parametrize("kind", (KAN, INVERSE_KAN, FRACTIONAL_LINEAR))
@pytest.mark.parametrize("profile", ("cosine", "step"))
def test_runs_of_equal_angles_classify_as_their_points_one_by_one(k, kind, profile):
    rng = np.random.default_rng(1010 + k)
    prof = (CosineProfile(0.8) if profile == "cosine"
            else StepProfile(tuple(rng.uniform(-0.9, 0.9, k))))
    sys_ = CylinderSystem(k, FiberFamily(kind, prof))
    # unreduced angles, both zeros side by side, and integers that reduce to 0
    angles = np.concatenate([rng.uniform(-2.0, 3.0, 300),
                             [0.0, -0.0, -0.0, 0.0, 1.0, -1.0, 2.0, -0.0]])
    xs = np.repeat(angles, rng.integers(1, 12, angles.size))
    ys = rng.uniform(0.0, 1.0, xs.size)
    for delta in (1e-6, 0.01):
        got = classify_points(sys_, xs, ys, 300, delta)
        assert np.array_equal(got, _classify_by_remainder(sys_, xs, ys, 300, delta))


def _record_displaced_angles(monkeypatch):
    """Shapes (rounds, angles) of the angle arrays FiberFamily.displacement
    receives, one per block of classifier rounds."""
    shapes = []
    displacement = FiberFamily.displacement
    monkeypatch.setattr(FiberFamily, "displacement",
                        lambda fam, x: shapes.append(np.shape(x)) or displacement(fam, x))
    return shapes


def _classify_alone(sys_, xs, ys, n_max, delta):
    return np.array([classify_points(sys_, [x], [y], n_max, delta)[0]
                     for x, y in zip(xs, ys)], dtype=np.int8)


@pytest.mark.parametrize("kind", (KAN, INVERSE_KAN, FRACTIONAL_LINEAR))
@pytest.mark.parametrize("profile", (CosineProfile(0.5), StepProfile((0.5, -0.5, 0.25))))
def test_columns_sharing_an_angle_classify_as_each_point_alone(kind, profile, monkeypatch):
    sys_ = CylinderSystem(3, FiberFamily(kind, profile))
    rng = np.random.default_rng(19)
    # columns of 1..40 heights; the first over 0.0, -0.0 and the fixed
    # angles 0 and 1/2 also hold heights at and beyond both thresholds
    delta = 0.01
    angles = np.concatenate([[0.0, -0.0, 0.5, 0.0], rng.uniform(0.0, 1.0, 36)])
    counts = rng.permutation(np.arange(1, 41))
    edges = [0.0, np.nextafter(delta, 0.0), delta, 1.0 - delta,
             np.nextafter(1.0 - delta, 1.0), 1.0]
    columns = [rng.uniform(0.0, 1.0, n) for n in counts]
    columns[:4] = [np.concatenate([c, edges]) for c in columns[:4]]
    xs = np.repeat(angles, [c.size for c in columns])
    ys = np.concatenate(columns)
    got = classify_points(sys_, xs, ys, 40, delta)
    assert got.tobytes() == _classify_alone(sys_, xs, ys, 40, delta).tobytes()
    # most columns decide early: once fewer points than half the angles are
    # left after a block, the next block steps only the angles that still
    # have points
    delta = 0.2
    xs = np.repeat(rng.uniform(0.0, 1.0, 100), 3)
    ys = np.tile([0.3, 0.5, 0.7], 100)
    shapes = _record_displaced_angles(monkeypatch)
    got = classify_points(sys_, xs, ys, 60, delta)
    monkeypatch.undo()
    left = xs[classify_points(sys_, xs, ys, _BLOCK_ROUNDS, delta) == BasinClass.UNDECIDED]
    assert [angles for _, angles in shapes] == [
        100, np.unique(left).size if 2 * left.size < 100 else 100]
    assert got.tobytes() == _classify_alone(sys_, xs, ys, 60, delta).tobytes()


def test_the_raster_steps_each_column_angle_once_per_round(monkeypatch):
    # the 512 x 512 raster, counted time-free: its columns share their
    # angles, which take 692,992 steps in 1,928 rounds (1,870 until the last
    # point decides, plus the rest of each call's last block) and 77 blocks
    shapes = _record_displaced_angles(monkeypatch)
    rasterize(SYS3, 512, 512, 5000, 1e-6)
    assert len(shapes) == 77
    assert sum(rounds for rounds, _ in shapes) == 1928
    assert sum(rounds * angles for rounds, angles in shapes) == 692_992


def _even_cut(n):
    """(L, s) for a column search over n heights: L = ceil(log12(n + 1))
    levels, and the fewest parts s a level with s^L >= n + 1."""
    levels = next(L for L in range(1, 64) if 12**L >= n + 1)
    return levels, next(s for s in range(2, 13) if s**levels >= n + 1)


@pytest.mark.parametrize("n", (1, 11, 12, 48, 143, 144, 512, 1023, 1728))
def test_the_column_search_cuts_each_level_evenly(n, monkeypatch):
    # a short budget leaves an Undecided band, so the two searches of a
    # column probe different heights; the answers equal a scan of every height
    levels, parts = _even_cut(n)
    calls = []
    classify = cylinder.classify_points
    monkeypatch.setattr(cylinder, "classify_points", lambda sys_, xs, ys, *a:
                        calls.append(np.copy(xs)) or classify(sys_, xs, ys, *a))
    xs = (np.arange(16) + 0.5) / 16
    first = _column_thresholds(SYS3, xs, lambda j: (j + 0.5) / n, n, 40, 1e-6)
    assert 0 < len(calls) <= levels
    for angles in calls:
        assert np.unique(angles, return_counts=True)[1].max() <= 2 * (parts - 1)
    monkeypatch.undo()
    gx, gy = np.meshgrid(xs, (np.arange(n) + 0.5) / n)
    cls = classify_points(SYS3, gx, gy, 40, 1e-6).reshape(n, xs.size)
    for row, sought in zip(first, (cls != BasinClass.BASIN0, cls == BasinClass.BASIN1)):
        assert row.tolist() == np.where(sought.any(axis=0), sought.argmax(axis=0), n).tolist()


def test_the_even_cut_closes_every_search_in_its_levels(monkeypatch):
    # a stand-in classifier reads Basin0 below the column's angle and Basin1
    # from it on, so the n + 1 columns of angles 0 .. n try every answer
    calls = []

    def threshold(sys_, xs, ys, n_max, delta):
        calls.append(xs.size)
        return np.where(ys < xs, BasinClass.BASIN0, BasinClass.BASIN1).astype(np.int8)

    monkeypatch.setattr(cylinder, "classify_points", threshold)
    for n in range(1, 301):
        calls.clear()
        answers = np.arange(n + 1, dtype=float)
        first = _column_thresholds(SYS3, answers, lambda j: j * 1.0, n, 1, 1e-6)
        assert (first == answers).all(), n
        assert len(calls) <= _even_cut(n)[0], n


# (system, n_max, delta) for every kind with a cosine and a step profile, at
# a delta where 64 x 48 cells read all three classes; inverse-Kan fibres
# repel both boundaries, so at delta = 0.01 most cells form an undecided
# band, and so do those of the nearly flat Kan fibre at epsilon = 0.05
_STEP3 = StepProfile((0.5, -0.5, 0.0))
RASTER_CASES = {
    "kan-cosine": (CylinderSystem(3, FiberFamily(KAN, CosineProfile(0.5))), 300, 1e-6),
    "kan-step": (CylinderSystem(3, FiberFamily(KAN, _STEP3)), 300, 1e-6),
    "inverse-kan-cosine": (CylinderSystem(3, FiberFamily(INVERSE_KAN, CosineProfile(0.5))), 300, 0.01),
    "inverse-kan-step": (CylinderSystem(3, FiberFamily(INVERSE_KAN, _STEP3)), 300, 0.01),
    "moebius-cosine": (CylinderSystem(3, FiberFamily(FRACTIONAL_LINEAR, CosineProfile(0.7))), 300, 0.05),
    "moebius-step": (CylinderSystem(3, FiberFamily(FRACTIONAL_LINEAR, _STEP3)), 300, 0.05),
    "kan-flat-band": (CylinderSystem(3, kan_family(0.05)), 300, 0.01),
}


@pytest.mark.parametrize("case", RASTER_CASES)
@pytest.mark.parametrize("width, height", ((64, 48), (1, 1), (1, 48), (64, 1), (24, 37)))
def test_non_square_raster_matches_the_reference_loop_at_any_thread_count(case, width, height):
    # the evenly cut search over each column must land on the classes of every
    # cell, and a slip between columns and rows would scramble a non-square
    # raster
    sys_, n_max, delta = RASTER_CASES[case]
    gx, gy = np.meshgrid((np.arange(width) + 0.5) / width, (np.arange(height) + 0.5) / height)
    want = _classify_by_remainder(sys_, gx, gy, n_max, delta).reshape(height, width)
    if (width, height) == (64, 48):
        assert len(np.unique(want)) == 3
    for threads in (1, 2, 3):
        cells = rasterize(sys_, width, height, n_max, delta, threads=threads).cells
        assert cells.flags.c_contiguous
        assert cells.dtype == np.int8
        assert np.array_equal(cells, want)


@pytest.mark.parametrize("profile", (CosineProfile(0.5), StepProfile((0.5, -0.5, 0.0))))
@pytest.mark.parametrize("x, y", ((np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.5),
                                  (0.25, np.nan), (0.25, np.inf), (0.25, -np.inf)))
def test_classify_points_refuses_non_finite_angles_and_heights(profile, x, y):
    sys_ = CylinderSystem(3, FiberFamily(KAN, profile))
    with pytest.raises(PreconditionError, match="finite"):
        classify_points(sys_, [0.5, x], [0.5, y], 10, 1e-6)
    if np.isfinite(y):
        with pytest.raises(PreconditionError, match="finite"):
            estimate_separator_batch(sys_, [0.5, x], 10, 1e-6, 1e-3)


def test_classify_budget_monotone():
    rng = np.random.default_rng(23)
    xs = rng.uniform(0.0, 1.0, 256)
    ys = rng.uniform(0.05, 0.95, 256)
    small = classify_points(SYS3, xs, ys, 200, 1e-6)
    large = classify_points(SYS3, xs, ys, 2000, 1e-6)
    decided = small != BasinClass.UNDECIDED
    assert (small[decided] == large[decided]).all()


def test_classify_points_reads_a_step_fibre_at_the_angle_mod_1():
    # -0.25 and 0.75 are one circle point, and so are 1.5 and 0.5; a step
    # fibre is read off the digit of x mod 1, so each pair gets one class
    sys_ = CylinderSystem(3, fractional_linear_family(StepProfile((3.0, -3.0, 0.5))))
    got = classify_points(sys_, [-0.25, 0.75, 1.5, 0.5], [0.5] * 4, 1, 0.1)
    assert got.tolist() == [2, 2, 0, 0]
    # x = 1.0 is the angle 0, whose fibre pushes up by 3
    assert classify_points(sys_, [1.0, 0.0], [0.5, 0.5], 1, 0.1).tolist() == [1, 1]


def test_involution_symmetry_odd_k():
    # T(x, y) = (x + 1/2, 1 - y) conjugates the map to itself for odd k.
    # Dyadic starting points keep the base orbit (and hence the mirror)
    # exact in binary floating point; generic floats decorrelate at ~1 ulp
    # per step times k and turn late-deciding pairs into coin flips.
    rng = np.random.default_rng(31)
    xs = rng.integers(0, 1 << 20, 500) / (1 << 20)
    ys = rng.integers(1 << 15, 31 << 15, 500) / (1 << 20)
    cls = classify_points(SYS3, xs, ys, 5000, 1e-6)
    mirrored = classify_points(SYS3, (xs + 0.5) % 1.0, 1.0 - ys, 5000, 1e-6)
    both = (cls != BasinClass.UNDECIDED) & (mirrored != BasinClass.UNDECIDED)
    assert both.mean() > 0.95
    assert (cls[both] + mirrored[both] == 1).all()


# ---------------------------------------------------------------------------
# separator
# ---------------------------------------------------------------------------

def test_separator_boundary_fibers():
    s0 = estimate_separator(SYS3, 0.0, 5000, 1e-6, 1e-3)
    s5 = estimate_separator(SYS3, 0.5, 5000, 1e-6, 1e-3)
    assert s0.decided and s0.sigma < 0.01
    assert s5.decided and s5.sigma > 0.99
    assert 0.0 <= s0.bracket <= 1.0


def test_separator_functional_equation():
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.0, 1.0, 200)
    at_x = estimate_separator_batch(SYS3, xs, 5000, 1e-6, 1e-3)
    at_kx = estimate_separator_batch(SYS3, (3 * xs) % 1.0, 5000, 1e-6, 1e-3)
    ok = 0
    total = 0
    for x, sx, skx in zip(xs, at_x, at_kx):
        if not (sx.decided and skx.decided):
            continue
        total += 1
        pushed = eval_fiber(SYS3.family, float(x), sx.sigma)
        if abs(skx.sigma - pushed) < 1e-2:
            ok += 1
    assert total >= 180
    assert ok / total >= 0.9


def test_separator_batch_is_a_union_of_its_parts():
    a = np.random.default_rng(5).uniform(0.0, 1.0, 12)
    b = np.array([0.0, 0.5, 0.25])
    joint = estimate_separator_batch(SYS3, np.concatenate([a, b]), 3000, 1e-6, 1e-3)
    assert joint == (estimate_separator_batch(SYS3, a, 3000, 1e-6, 1e-3)
                     + estimate_separator_batch(SYS3, b, 3000, 1e-6, 1e-3))


def test_separator_family_gate():
    with pytest.raises(WrongFamilyError):
        estimate_separator(CylinderSystem(3, inverse_kan_family(0.5)), 0.1, 100, 1e-6, 1e-3)


def _bisection_separator(sys_, xs, n_max, delta, tol):
    """Bisection of the classifier threshold: per-angle brackets [lo, hi],
    seeded by probes at delta and 1 - delta, each pass classifying the
    midpoints of the brackets still wider than tol."""
    xs = np.array(xs, dtype=float).ravel()
    m = xs.size
    lo = np.zeros(m)
    hi = np.ones(m)
    decided = np.ones(m, dtype=bool)
    probes = (delta, 1.0 - delta)
    seeds = classify_points(sys_, np.tile(xs, 2), np.repeat(probes, m), n_max, delta)
    for probe, cls in zip(probes, seeds.reshape(2, m)):
        lo[(cls == BasinClass.BASIN0) & (probe > lo)] = probe
        hi[(cls == BasinClass.BASIN1) & (probe < hi)] = probe
    active = (hi - lo) > tol
    while active.any():
        mid = 0.5 * (lo + hi)
        idx = np.flatnonzero(active)
        cls = classify_points(sys_, xs[idx], mid[idx], n_max, delta)
        sel0 = idx[cls == BasinClass.BASIN0]
        sel1 = idx[cls == BasinClass.BASIN1]
        dead = idx[cls == BasinClass.UNDECIDED]
        lo[sel0] = mid[sel0]
        hi[sel1] = mid[sel1]
        decided[dead] = False
        active[dead] = False
        active[(hi - lo) <= tol] = False
    return lo, hi, decided


def _sweep_angles(seed, n=200):
    """The angles of a separator sweep: n seeded angles and their k*x images."""
    xs = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    return np.concatenate([xs, _mod1(3 * xs), [0.0, 0.5]])


@pytest.mark.parametrize("seed, n, eps, delta, tol", [
    (42, 200, 0.5, 1e-6, 1e-3), (7, 200, 0.5, 1e-6, 1e-3), (2024, 200, 0.5, 1e-6, 1e-3),
    # the classifier decides within a few steps, so ladder rungs next to the
    # threshold are classified by rounding: the evenly cut column search must
    # still bracket it by the last Basin0 rung and the first Basin1 rung
    (42, 100, 0.5, 0.1, 1e-3),
    # a tolerance far below the c07 one: bisection needs 20 passes
    (42, 100, 0.5, 1e-6, 1e-9),
], ids=["c07-seed42", "c07-seed7", "c07-seed2024", "delta0.1", "tol1e-9"])
def test_separator_brackets_are_certified_and_meet_bisection(seed, n, eps, delta, tol):
    sys_ = CylinderSystem(3, kan_family(eps))
    xs = _sweep_angles(seed, n)
    got = estimate_separator_batch(sys_, xs, 5000, delta, tol)
    assert [s.x for s in got] == xs.tolist()
    lo = np.array([s.lo for s in got])
    hi = np.array([s.hi for s in got])
    dec = np.array([s.decided for s in got])
    assert dec.mean() >= 0.95
    assert all(s.lo <= s.sigma <= s.hi and s.bracket == s.hi - s.lo for s in got)
    # every decided bracket is at most tol wide, with lo in Basin0 and hi in Basin1
    assert (hi[dec] - lo[dec] <= tol).all()
    assert (classify_points(sys_, xs[dec], lo[dec], 5000, delta) == BasinClass.BASIN0).all()
    assert (classify_points(sys_, xs[dec], hi[dec], 5000, delta) == BasinClass.BASIN1).all()
    # both brackets hold the monotone classifier threshold, so they meet
    blo, bhi, bdec = _bisection_separator(sys_, xs, 5000, delta, tol)
    both = dec & bdec
    assert both.mean() >= 0.95
    assert (np.maximum(lo, blo)[both] <= np.minimum(hi, bhi)[both]).all()


@pytest.mark.parametrize("eps", [0.5, 0.9])
def test_separator_heights_stay_in_the_interval_at_the_finest_delta(eps):
    # 1 - 2^-53 is the height just below 1, where the quadratic root can round
    # above 1; no bracket end may leave [0, 1], and the sweep must not raise
    sys_ = CylinderSystem(3, kan_family(eps))
    for s in estimate_separator_batch(sys_, _sweep_angles(42, 50), 3000, 2.0**-53, 1e-3):
        assert 0.0 <= s.lo <= s.sigma <= s.hi <= 1.0
    separator_sweep(sys_, 20, 3000, 2.0**-53, 1e-3, seed=3)


def test_separator_depth_is_capped_by_the_budget():
    xs = _sweep_angles(42, 50)
    flat = estimate_separator_batch(SYS3, xs, 0, 1e-6, 1e-3)
    ends = (np.nextafter(1e-6, 0.0), np.nextafter(1.0 - 1e-6, 1.0))
    assert all(not s.decided and (s.lo, s.hi) == ends for s in flat)
    short = estimate_separator_batch(SYS3, xs, 300, 1e-6, 1e-3)
    full = estimate_separator_batch(SYS3, xs, 5000, 1e-6, 1e-3)
    assert sum(s.decided for s in short) < sum(s.decided for s in full)
    assert all(s.bracket <= 1e-3 for s in short if s.decided)


@pytest.mark.parametrize("tol", [np.inf, 2.0, 1e-20])
def test_separator_ladder_depth_is_capped_at_extreme_tolerances(tol):
    # -log2(tol) is -inf, -1 and 67 here; the ladder depth stays in [0, 53]
    for s in estimate_separator_batch(SYS3, [0.1, 0.3, 0.0], 5000, 1e-6, tol):
        assert s.lo <= s.sigma <= s.hi
        assert not s.decided or s.hi - s.lo <= tol


def test_separator_memory_stays_small_on_a_slowly_escaping_system():
    # at eps = 0.05 nearly every angle runs to n_max undecided
    sys_ = CylinderSystem(3, kan_family(0.05))
    xs = _sweep_angles(42, 100)
    tracemalloc.start()
    try:
        samples = estimate_separator_batch(sys_, xs, 5000, 1e-6, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(samples) == 202
    assert peak < 2e6


def test_separator_stops_a_column_at_its_first_undecided_rung(monkeypatch):
    # at eps = 0.05 every column reads Undecided at the first level of its
    # search, which then stops: one classifier call of n_max rounds, where
    # the full search took three levels and 15,000 rounds
    sys_ = CylinderSystem(3, kan_family(0.05))
    shapes = _record_displaced_angles(monkeypatch)
    samples, good, pairs = separator_sweep(sys_, 101, 5000, 1e-6, 1e-3, seed=1)
    assert sum(rounds for rounds, _ in shapes) == 5000
    monkeypatch.undo()
    assert (good, pairs) == (0, 0) and not any(s.decided for s in samples)
    # the brackets the searches had when they stopped: lo reads Basin0 and
    # hi Basin1
    xs = np.array([s.x for s in samples])
    for end, cls in (("lo", BasinClass.BASIN0), ("hi", BasinClass.BASIN1)):
        ys = np.array([getattr(s, end) for s in samples])
        assert (classify_points(sys_, xs, ys, 5000, 1e-6) == cls).all()


def test_a_sweep_with_undecided_samples_keeps_classified_brackets():
    # at eps = 0.2 most columns read Undecided on some rung and stop: their
    # brackets are where the search was, and depend on where it probed.  A
    # decided sample is the bracket of a scan of all 1,023 rungs j / 2^10
    sys_ = CylinderSystem(3, kan_family(0.2))
    samples, _, _ = separator_sweep(sys_, 200, 3000, 1e-6, 1e-3, seed=42)
    decided = [s for s in samples if s.decided]
    undecided = [s for s in samples if not s.decided]
    assert decided and len(undecided) > 100
    ends = np.concatenate([[np.nextafter(1e-6, 0.0)], np.arange(1, 1024) / 1024,
                           [np.nextafter(1.0 - 1e-6, 1.0)]])
    xs = np.array([s.x for s in decided])
    scan = classify_points(sys_, np.repeat(xs, 1023), np.tile(ends[1:-1], xs.size),
                           3000, 1e-6).reshape(xs.size, 1023)
    for s, row in zip(decided, scan):
        t = int(np.argmax(row != BasinClass.BASIN0)) if (row != BasinClass.BASIN0).any() else 1023
        assert (row[t:] == BasinClass.BASIN1).all()
        assert (s.lo, s.hi) == (ends[t], ends[t + 1])
    xs = np.array([s.x for s in undecided])
    for end, cls in (("lo", BasinClass.BASIN0), ("hi", BasinClass.BASIN1)):
        ys = np.array([getattr(s, end) for s in undecided])
        assert (classify_points(sys_, xs, ys, 3000, 1e-6) == cls).all()


@pytest.mark.parametrize("sys_, delta, tol, error", [
    (CylinderSystem(3, inverse_kan_family(0.5)), 1e-6, 1e-3, WrongFamilyError),
    (SYS3, 1e-6, float("nan"), PreconditionError),
    (SYS2, 1e-6, 1e-3, PreconditionError),
    (CylinderSystem(4, kan_family(0.5)), 1e-6, 1e-3, PreconditionError),
    (SYS3, 1e-17, 1e-3, PreconditionError),
], ids=["family", "tol", "k2", "k4", "delta"])
def test_separator_refuses_before_any_pass(monkeypatch, sys_, delta, tol, error):
    def no_pass(self, x):
        raise AssertionError("a pass ran before the refusal")
    monkeypatch.setattr(FiberFamily, "displacement", no_pass)
    with pytest.raises(error):
        estimate_separator_batch(sys_, [0.1, 0.3], 100, delta, tol)


class _NoNumpy:
    """A module's numpy, made to raise on first use."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} ran before the refusal")


def _raises(what):
    def first_step(*args, **kwargs):
        raise AssertionError(f"{what} ran before the refusal")
    return first_step


_K4 = CylinderSystem(4, kan_family(0.5))
#: (system, n_max, delta) that classification refuses
_BAD_CLASSIFICATION = {
    "delta-tiny": (SYS3, 100, 1e-17), "delta-nan": (SYS3, 100, float("nan")),
    "delta-half": (SYS3, 100, 0.5), "delta-zero": (SYS3, 100, 0.0),
    "n_max-negative": (SYS3, -1, 1e-6), "n_max-float": (SYS3, 100.0, 1e-6),
    "n_max-bool": (SYS3, True, 1e-6), "k2": (SYS2, 100, 1e-6), "k4": (_K4, 100, 1e-6),
}
_BAD_BOUNDARIES = [2, -1, True, False, 1.0, 0.0, np.float64(0.0), None, "0"]


@pytest.mark.parametrize("call, error", [
    *(pytest.param(lambda s=s, n=n, d=d: rasterize(s, 8, 8, n, d), PreconditionError,
                   id=f"rasterize-{name}") for name, (s, n, d) in _BAD_CLASSIFICATION.items()),
    *(pytest.param(lambda s=s, n=n, d=d: intermingle_probe(s, 4, 1.0 / 64.0, 10, n, d, seed=1),
                   PreconditionError, id=f"intermingle_probe-{name}")
      for name, (s, n, d) in _BAD_CLASSIFICATION.items()),
    *(pytest.param(lambda s=s, n=n, d=d: separator_sweep(s, 4, n, d, 1e-3, seed=1),
                   PreconditionError, id=f"separator_sweep-{name}")
      for name, (s, n, d) in _BAD_CLASSIFICATION.items()),
    pytest.param(lambda: separator_sweep(INV3, 4, 100, 1e-6, 1e-3, seed=1), WrongFamilyError,
                 id="separator_sweep-family"),
    *(pytest.param(lambda tol=tol: separator_sweep(SYS3, 4, 100, 1e-6, tol, seed=1),
                   PreconditionError, id=f"separator_sweep-tol={tol}")
      for tol in (float("nan"), 0.0, -1e-3)),
    pytest.param(lambda: jacobian_max_defect(SYS3, 10, seed=1), WrongFamilyError,
                 id="jacobian_max_defect-family"),
    *(pytest.param(lambda b=b: transverse_exponent_quadrature(SYS3.family, b, 64),
                   PreconditionError, id=f"quadrature-boundary={b!r}") for b in _BAD_BOUNDARIES),
    *(pytest.param(lambda b=b: transverse_exponent_birkhoff(SYS3, b, 0.1234, 100),
                   PreconditionError, id=f"birkhoff-boundary={b!r}") for b in _BAD_BOUNDARIES),
    *(pytest.param(lambda x=x: backward_orbit_toward(SYS3, CylPoint(0.2, 0.4), x, 5),
                   PreconditionError, id=f"backward_orbit_toward-x_star={x}")
      for x in (float("nan"), float("inf"), -float("inf"))),
    pytest.param(lambda: check_kan_hypothesis(SYS3, float("nan"), 0.0, 0.1), PreconditionError,
                 id="check_kan_hypothesis-x_minus=nan"),
    pytest.param(lambda: final_counts(CosineProfile(0.5), 10, [], 1.0), PreconditionError,
                 id="final_counts-cosine_profile"),
    *(pytest.param(lambda p=p, s=s: final_counts(p, 10, s, 1.0), PreconditionError,
                   id=f"final_counts-{name}")
      for name, p, s in (("last_seed_negative", StepProfile((1.0, -1.0)), [1, 2, -1]),
                         ("last_seed_float", StepProfile((0.3, -0.7)), [1, 2, 3.0]))),
    pytest.param(lambda: final_counts(StepProfile((1.0, -1.0)), 10, iter([1, 2]), 1.0),
                 PreconditionError, id="final_counts-seeds_without_length"),
    *(pytest.param(lambda s=s: final_counts(StepProfile((1.0, -1.0)), 10, s, 1.0),
                   PreconditionError, id=f"final_counts-seeds_{name}")
      for name, s in (("set", {5, 1}), ("frozenset", frozenset([5, 1])),
                      ("dict", {5: 0, 1: 0}), ("dict_keys", {5: 0, 1: 0}.keys()))),
])
def test_entry_points_refuse_before_any_work(monkeypatch, call, error):
    # every first step raises: a draw, a numpy call in basins, a fibre
    # parameter, a point, the quadrature nodes, the base orbit, a step
    # of the base map, a walk or a walk's digit stream
    monkeypatch.setattr(FiberFamily, "displacement", _raises("a fibre parameter"))
    monkeypatch.setattr(cylinder, "advance", _raises("a base-map step"))
    monkeypatch.setattr(cylinder, "advance_rows", _raises("a base-map block"))
    monkeypatch.setattr(base, "advance", _raises("a base-map step"))
    monkeypatch.setattr(measures, "CylPoint", _raises("a point"))
    monkeypatch.setattr(basins, "np", _NoNumpy())
    monkeypatch.setattr(np.random, "default_rng", _raises("a draw"))
    monkeypatch.setattr(lyapunov, "_quadrature_nodes", _raises("a quadrature node"))
    monkeypatch.setattr(lyapunov, "base_orbit_angles", _raises("a base orbit"))
    monkeypatch.setattr(walks, "simulate_walk", _raises("a walk"))
    monkeypatch.setattr(walks, "_stream_key", _raises("a digit stream"))
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("boundary", [0, 1])
@pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint64])
def test_a_numpy_integer_boundary_is_a_boundary(boundary, kind):
    for family in (SYS3.family, inverse_kan_family(0.3)):
        assert (transverse_exponent_quadrature(family, kind(boundary), 64)
                == transverse_exponent_quadrature(family, boundary, 64))
    assert (transverse_exponent_birkhoff(SYS3, kind(boundary), 0.1234, 100, seed=2)
            == transverse_exponent_birkhoff(SYS3, boundary, 0.1234, 100, seed=2))


# ---------------------------------------------------------------------------
# canonical fixed angles and base orbits
# ---------------------------------------------------------------------------

def test_canonical_fixed_angle_values():
    assert canonical_fixed_angle(3) == 0.5
    assert canonical_fixed_angle(4) == pytest.approx(2.0 / 3.0, abs=1e-15)
    with pytest.raises(PreconditionError):
        canonical_fixed_angle(2)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 9, 12])
def test_canonical_fixed_angle_is_fixed(k):
    x = canonical_fixed_angle(k)
    d = abs((k * x) % 1.0 - x)
    assert min(d, 1.0 - d) < 1e-12
    assert 1.0 / 3.0 <= x <= 2.0 / 3.0


def test_base_orbit_angles_prefix_and_regeneration():
    ang = base_orbit_angles(3, 0.1234, 200, seed=5)
    x = 0.1234
    for i in range(50):
        assert ang[i] == x
        x = (3 * x) % 1.0
    again = base_orbit_angles(3, 0.1234, 200, seed=5)
    assert (ang == again).all()


@pytest.mark.parametrize("n", [0, 1, 50, 51, 10**5])
@pytest.mark.parametrize("x0", [0.1234, 0.0, 0.5])
@pytest.mark.parametrize("seed", [None, 0, 1, 7, 12345])
def test_base_orbit_angles_tail_is_numpys_uniform_draw(n, x0, seed):
    # the i.i.d. tail after the 50-angle prefix is what
    # default_rng(seed).uniform(0.0, 1.0, n - 50) returns, bit for bit;
    # angles the float map fixes draw nothing
    if (3 * x0) % 1.0 == x0:
        want = np.full(n, x0)
    else:
        prefix = [x0]
        while len(prefix) < min(n, 50):
            prefix.append((3 * prefix[-1]) % 1.0)
        bits = int(np.float64(x0).view(np.uint64)) if seed is None else seed
        tail = np.random.default_rng(bits).uniform(0.0, 1.0, max(n - 50, 0))
        want = np.concatenate([prefix[:n], tail])
    assert base_orbit_angles(3, x0, n, seed=seed).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [4, 6, 8])
def test_base_orbit_angles_prefix_ends_before_a_fixed_angle(k):
    # at even k the float map reaches 0, which it fixes: from 0.1234 at
    # k = 4 the 50-step float orbit held 22 zeros.  The prefix ends before
    # the first fixed angle and the i.i.d. tail starts there
    prefix = [0.1234]
    while (k * prefix[-1]) % 1.0 != prefix[-1]:
        prefix.append((k * prefix[-1]) % 1.0)
    prefix.pop()
    want = np.concatenate([prefix, np.random.default_rng(5).uniform(0.0, 1.0, 100 - len(prefix))])
    ang = base_orbit_angles(k, 0.1234, 100, seed=5)
    assert ang.tobytes() == want.tobytes()
    assert not (ang == 0.0).any()


def test_base_orbit_angles_fixed_point_is_constant():
    ang = base_orbit_angles(3, 0.5, 500)
    assert (ang == 0.5).all()
    ang0 = base_orbit_angles(3, 0.0, 500)
    assert (ang0 == 0.0).all()


@pytest.mark.parametrize("x0", [-1e-20, -5e-324, -2.0 ** -54, -1e-17, -0.0])
def test_base_orbit_angles_tiny_negative_start_is_the_zero_orbit(x0):
    # x0 % 1.0 rounds such a start to 1.0, which is the angle 0.0: it once
    # started an orbit at 1.0 with an i.i.d. tail, where 0.0 stays fixed
    for n in (1, 4, 100):
        ang = base_orbit_angles(3, x0, n, seed=1)
        assert ang.tobytes() == base_orbit_angles(3, 0.0, n, seed=1).tobytes()
        assert ((ang >= 0.0) & (ang < 1.0)).all()
    assert (transverse_exponent_birkhoff(SYS3, 0, x0, 10**4, seed=1)
            == transverse_exponent_birkhoff(SYS3, 0, 0.0, 10**4, seed=1))


@pytest.mark.parametrize("k,x0,match", [
    *(pytest.param(3, x0, "finite", id=str(x0))
      for x0 in (float("nan"), float("inf"), -float("inf"))),
    *(pytest.param(k, 0.3, "integer >= 2", id=f"k={k}") for k in (0, 1, -3, 2.5, 3.0)),
])
def test_base_orbit_angles_refuse_a_non_finite_start(k, x0, match):
    # a NaN start would give NaN angles and a NaN Birkhoff exponent without a
    # word; k = 0 gave [0.3, 0, 0, ...], and k = -3 or 2.5 angles of no map
    for n in (0, 3, 100):
        with pytest.raises(PreconditionError, match=match):
            base_orbit_angles(k, x0, n)
    with pytest.raises(PreconditionError, match=match):
        transverse_exponent_birkhoff(CylinderSystem(k, kan_family(0.5)), 0, x0, 100)


@pytest.mark.parametrize("call", [
    lambda seed: base_orbit_angles(3, 0.1234, 100, seed=seed),
    lambda seed: birkhoff_average(INV3, "y", CylPoint(0.1234, 0.4), 100, 10, seed=seed),
    lambda seed: intermingle_probe(SYS3, 2, 1.0 / 64.0, 10, 100, 1e-6, seed=seed),
    lambda seed: separator_sweep(SYS3, 2, 100, 1e-6, 1e-3, seed=seed),
    lambda seed: jacobian_max_defect(INV3, 10, seed=seed),
    lambda seed: simulate_walk(StepProfile((1.0, -1.0)), 0.0, 10, seed=seed),
    lambda seed: arcsine_ensemble(StepProfile((1.0, -1.0)), 10, 2, [0.5], seed=seed),
    lambda seed: final_counts(StepProfile((1.0, -1.0)), 10, [0, seed], 0.0),
], ids=["base_orbit_angles", "birkhoff_average", "intermingle_probe", "separator_sweep",
        "jacobian_max_defect", "simulate_walk", "arcsine_ensemble", "final_counts"])
def test_seeded_tools_refuse_a_negative_seed(call):
    # numpy's own refusal is a bare ValueError; PreconditionError subclasses it
    with pytest.raises(PreconditionError, match="seed"):
        call(-1)


# ---------------------------------------------------------------------------
# counter-based digit streams
# ---------------------------------------------------------------------------

_GOLDEN, _M64 = 0x9E3779B97F4A7C15, 2**64 - 1


def _mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def _reference_digits(key, start, n, k):
    # Python integers throughout: word j is splitmix64's output j from the
    # state key; a word at or above k^M * floor(2^64 / k^M) is redrawn as
    # splitmix64(w + a * golden) for attempts a = 1, 2, ...; M maximises the
    # digits a word yields.  Returns the digits and the number of redraws.
    per_word = max((m for m in range(1, 65) if k**m <= 2**64),
                   key=lambda m: m * k**m * (2**64 // k**m))
    limit = k**per_word * (2**64 // k**per_word)
    out, redraws = [], 0
    for i in range(start, start + n):
        j, d = divmod(i, per_word)
        w, attempt = _mix((key + (j + 1) * _GOLDEN) & _M64), 0
        while w >= limit:
            attempt += 1
            w = _mix((w + attempt * _GOLDEN) & _M64)
            redraws += d == 0
        out.append(w // k**d % k)
    return out, redraws


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 10, 257])
def test_digits_are_the_reference_stream(k):
    key = _stream_key(2024)
    want, redraws = _reference_digits(key, 0, 3000, k)
    got = digits(key, 0, 3000, k)
    assert got.dtype == np.min_scalar_type(k - 1)
    assert got.tolist() == want
    # a power of two redraws nothing; k = 3, 5, 6 and 10 redraw 1.5-4.8 % of
    # words, and 7 and 257 under 0.1 %
    if k & (k - 1) == 0:
        assert redraws == 0
    elif k in (3, 5, 6, 10):
        assert redraws > 0


def test_digits_at_k2_are_the_bits_of_each_word_least_significant_first():
    key = _stream_key(5)
    words = [_mix((key + (j + 1) * _GOLDEN) & _M64) for j in range(3)]
    assert digits(key, 0, 192, 2).tolist() == [w >> b & 1 for w in words for b in range(64)]


@pytest.mark.parametrize("k", [2, 3, 5, 6, 16])
def test_digits_read_in_pieces_are_the_stream(k):
    per_word = _digit_layout(k)[0]
    key = _stream_key(7)
    whole = digits(key, 0, 6 * per_word + 5, k)
    for start in (0, 1, per_word - 1, per_word, per_word + 1, 2 * per_word, 3 * per_word - 2):
        for n in (0, 1, per_word - 1, per_word, per_word + 1, 2 * per_word + 3):
            assert np.array_equal(digits(key, start, n, k), whole[start:start + n])


@pytest.mark.parametrize("first", [0, 3, 8, 13])
@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 200])
def test_digit_bytes_are_the_packed_k2_digits(first, length):
    # byte j holds digit 8j + i in bit i, for one key and for a column of keys
    key = _stream_key(7)
    want = np.packbits(digits(key, 8 * first, 8 * length, 2), bitorder="little")
    got = _digit_bytes(key, first, first + length)
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    keys = np.array([_stream_key(s) for s in (1, 2, 3)], dtype=np.uint64).reshape(-1, 1)
    rows = _digit_bytes(keys, first, first + length)
    assert rows.shape == (3, length)
    for w in range(3):
        assert np.array_equal(rows[w], _digit_bytes(int(keys[w, 0]), first, first + length))


def _chi_square_z(counts):
    # chi-square against equal cells, as a z-score by Wilson-Hilferty
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / counts.size
    chi2, df = float(((counts - expected) ** 2).sum() / expected), counts.size - 1
    return ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / (2 / (9 * df)) ** 0.5


@pytest.mark.parametrize("k", [2, 3, 5])
def test_digit_frequencies_and_serial_pairs_pass_chi_square(k):
    d = digits(_stream_key(11), 0, 10**7, k).astype(np.int64)
    assert abs(_chi_square_z(np.bincount(d, minlength=k))) < 4.0
    pairs = d[0::2] * k + d[1::2]
    assert abs(_chi_square_z(np.bincount(pairs, minlength=k * k))) < 4.0


def test_chi_square_sees_the_bias_of_unrejected_digits():
    # 39 base-3 digits of each 63-bit word without a redraw: the top digit
    # reads 0 with probability about 0.41 (exact: 0.4142), not 1/3
    words = _splitmix64(np.arange(1, 10**7 // 39 + 1, dtype=np.uint64)
                        * np.uint64(_GOLDEN) + np.uint64(_stream_key(11))) >> np.uint64(1)
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(39):
        words, d = np.divmod(words, np.uint64(3))
        counts += np.bincount(d.astype(np.int64), minlength=3)
    assert _chi_square_z(counts) > 10.0


def test_redraw_keeps_words_below_the_limit_and_rehashes_the_rest():
    limit = _digit_layout(3)[1]
    words = np.array([0, limit - 1, limit, limit + 1, _M64], dtype=np.uint64)
    got = _redraw(words.copy(), limit).tolist()
    assert got[:2] == [0, limit - 1]
    for w, g in zip(words[2:].tolist(), got[2:]):
        attempt = 0
        while w >= limit:
            attempt += 1
            w = _mix((w + attempt * _GOLDEN) & _M64)
        assert g == w < limit
    # a limit of 2^64 (k a power of two) redraws nothing
    assert _redraw(words.copy(), 2**64).tolist() == words.tolist()


def test_stream_keys_follow_the_seed_sequence():
    assert _stream_key(3) == int(np.random.SeedSequence(3).generate_state(1, np.uint64)[0])
    child = np.random.SeedSequence(3).spawn(2)[1]
    assert _stream_key(child) == int(child.generate_state(1, np.uint64)[0]) != _stream_key(3)
    assert _stream_key(None) != _stream_key(None)  # fresh entropy


@pytest.mark.parametrize("args", [
    (-1, 0, 10, 2), (2**64, 0, 10, 2), (1.0, 0, 10, 2), (True, 0, 10, 2),
    (1, -1, 10, 2), (1, 0.5, 10, 2), (1, 0, -1, 2), (1, 0, 2.5, 2), (1, 0, True, 2),
    (1, 0, 10, 1), (1, 0, 10, 2.0), (1, 0, 10, 2**64),
])
def test_digits_refuse_bad_arguments(args):
    with pytest.raises(PreconditionError):
        digits(*args)


# ---------------------------------------------------------------------------
# positivity gates refuse NaN
# ---------------------------------------------------------------------------

_NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: estimate_separator_batch(SYS3, [0.1], 100, 1e-6, _NAN),
    lambda: occupation_ratios(simulate_walk(StepProfile((1.0, -1.0)), 0.0, 10, seed=1), _NAN),
    lambda: circle_equidistribution(
        simulate_walk(StepProfile((1.0, -1.0)), 0.0, 10, seed=1), _NAN, 16),
    lambda: schwarzian_numeric(lambda y: y, 0.5, h=_NAN),
], ids=["separator_tol", "occupation_threshold", "equidist_modulus", "schwarzian_step"])
def test_positivity_gates_refuse_nan(call):
    with pytest.raises(PreconditionError):
        call()
