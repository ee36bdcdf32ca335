"""Skew-product engine: orbits, hypothesis check, classification, separator."""

import tracemalloc

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
    backward_orbit_toward,
    base_orbit_angles,
    canonical_fixed_angle,
    check_kan_hypothesis,
    circle_equidistribution,
    classify_point,
    classify_points,
    estimate_separator,
    estimate_separator_batch,
    eval_fiber,
    fractional_linear_family,
    inverse_kan_family,
    kan_family,
    occupation_ratios,
    orbit,
    rasterize,
    schwarzian_numeric,
    simulate_walk,
    step,
    transverse_exponent_birkhoff,
)
from cylmaps.cylinder import _mod1, separator_sweep
from cylmaps.fiber import FRACTIONAL_LINEAR, INVERSE_KAN, KAN, _apply_fiber

SYS3 = CylinderSystem(3, kan_family(0.5))
SYS2 = CylinderSystem(2, kan_family(0.5))


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
    (SYS3, dict(x_minus=0.5, x_plus=0.0, radius=0.45, grid=(5, 3), max_listed=4)),
    (SYS2, dict(x_minus=1.0 / 3.0, x_plus=0.0, radius=0.02, period=2)),
    (CylinderSystem(4, kan_family(0.5)), dict(x_minus=2.0 / 3.0, x_plus=0.0, radius=0.05)),
    (CylinderSystem(3, inverse_kan_family(0.5)), dict(x_minus=0.5, x_plus=0.0, radius=0.1)),
])
def test_hypothesis_matches_scalar_orbit_loop(sys_, kwargs):
    def by_orbit(sys_, x_minus, x_plus, radius, grid=(33, 17), period=1, max_listed=50):
        nx, ny = grid
        bad = []
        for center, want_down in ((x_minus, True), (x_plus, False)):
            for dx in (np.linspace(-radius, radius, nx) if nx > 1 else [0.0]):
                x = (center + float(dx)) % 1.0
                for j in range(ny):
                    y = (j + 1.0) / (ny + 1.0)
                    fy = orbit(sys_, CylPoint(x % 1.0, y), period)[-1].y
                    if (fy >= y) if want_down else (fy <= y):
                        bad.append(("x_minus" if want_down else "x_plus", x, y, fy))
        return not bad, 2 * nx * ny, tuple(bad[:max_listed])

    rep = check_kan_hypothesis(sys_, **kwargs)
    assert (rep.passed, rep.checked, rep.violations) == by_orbit(sys_, **kwargs)


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
    # the 12-part search over each column must land on the classes of every
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
    # threshold are classified by rounding: the 12-part column search must
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


def test_base_orbit_angles_fixed_point_is_constant():
    ang = base_orbit_angles(3, 0.5, 500)
    assert (ang == 0.5).all()
    ang0 = base_orbit_angles(3, 0.0, 500)
    assert (ang0 == 0.0).all()


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
