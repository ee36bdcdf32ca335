"""Skew-product engine: orbits, hypothesis check, classification, separator."""

import numpy as np
import pytest

from cylmaps import (
    BasinClass,
    CylinderSystem,
    CylPoint,
    DomainError,
    PreconditionError,
    StepProfile,
    WrongFamilyError,
    backward_orbit_toward,
    base_orbit_angles,
    canonical_fixed_angle,
    check_kan_hypothesis,
    classify_point,
    classify_points,
    estimate_separator,
    estimate_separator_batch,
    eval_fiber,
    fractional_linear_family,
    inverse_kan_family,
    kan_family,
    orbit,
    step,
)

SYS3 = CylinderSystem(3, kan_family(0.5))
SYS2 = CylinderSystem(2, kan_family(0.5))


def test_system_validation():
    with pytest.raises(PreconditionError):
        CylinderSystem(1, kan_family(0.5))
    with pytest.raises(PreconditionError):
        CylinderSystem(3, fractional_linear_family(StepProfile((1.0, -1.0))))
    CylinderSystem(2, fractional_linear_family(StepProfile((1.0, -1.0))))


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


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_reference_points():
    assert classify_point(SYS3, CylPoint(0.0, 0.9), 5000, 1e-6) == BasinClass.BASIN1
    assert classify_point(SYS3, CylPoint(0.3, 0.0), 0, 1e-6) == BasinClass.BASIN0
    assert classify_point(SYS3, CylPoint(0.3, 0.5), 0, 1e-6) == BasinClass.UNDECIDED


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


def test_classify_budget_monotone():
    rng = np.random.default_rng(23)
    xs = rng.uniform(0.0, 1.0, 256)
    ys = rng.uniform(0.05, 0.95, 256)
    small = classify_points(SYS3, xs, ys, 200, 1e-6)
    large = classify_points(SYS3, xs, ys, 2000, 1e-6)
    decided = small != BasinClass.UNDECIDED
    assert (small[decided] == large[decided]).all()


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


def test_separator_family_gate():
    with pytest.raises(WrongFamilyError):
        estimate_separator(CylinderSystem(3, inverse_kan_family(0.5)), 0.1, 100, 1e-6, 1e-3)


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
