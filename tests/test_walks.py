"""Random walks of the zero-curvature regime: occupation, arcsine, equidistribution."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cylmaps import (
    CylinderSystem,
    CylPoint,
    DomainError,
    PreconditionError,
    StepProfile,
    WrongFamilyError,
    arcsine_ensemble,
    average_displacement,
    circle_equidistribution,
    CosineProfile,
    cyclic_support_check,
    fl_orbit_as_walk,
    fractional_linear_family,
    kan_family,
    occupation_ratios,
    poincare_coord_inv,
    simulate_walk,
)

PM1 = StepProfile((1.0, -1.0))


def test_average_displacement():
    assert average_displacement(PM1) == 0.0
    assert average_displacement(CosineProfile(0.75)) == 0.0
    assert average_displacement(StepProfile((1.0, 1.0, -1.0))) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_simulate_walk_basics():
    tr = simulate_walk(PM1, 0.0, 0, seed=1)
    assert tr.t.tolist() == [0.0]
    tr = simulate_walk(PM1, 0.0, 1000, seed=1)
    assert tr.t.size == 1001
    # parity: t_n has the parity of n for unit steps from 0
    for i in (1, 10, 101, 1000):
        assert (tr.t[i] - i) % 2 == 0
    again = simulate_walk(PM1, 0.0, 1000, seed=1)
    assert (tr.t == again.t).all()


def test_simulate_walk_increments_in_multiset():
    tr = simulate_walk(StepProfile((2.0, -1.0, -1.0)), 0.5, 5000, seed=3)
    inc = np.diff(tr.t)
    assert set(np.unique(inc)).issubset({2.0, -1.0})


def test_simulate_walk_rejects_cosine():
    with pytest.raises(PreconditionError):
        simulate_walk(CosineProfile(1.0), 0.0, 10, seed=1)


def test_occupation_partition_identity():
    tr = simulate_walk(PM1, 0.0, 20000, seed=5)
    st = occupation_ratios(tr, 1.0)
    n = np.arange(1, 20001)
    total = (st.a_over_n + st.b_over_n + st.c_over_n) * n
    assert np.allclose(total, n, atol=1e-9)


def test_occupation_zero_walk():
    tr = simulate_walk(StepProfile((0.0, 0.0)), 0.0, 100, seed=2)
    st = occupation_ratios(tr, 0.0)
    assert (st.b_over_n == 1.0).all()


def test_occupation_band_decay():
    tr = simulate_walk(PM1, 0.0, 10**6, seed=0)
    st = occupation_ratios(tr, 1.0)
    assert st.b_over_n[-1] < 0.01


def test_occupation_band_decay_median():
    finals = []
    for sub in np.random.SeedSequence(2024).spawn(100):
        seed = int(sub.generate_state(1)[0])
        tr = simulate_walk(PM1, 0.0, 10**6, seed=seed)
        finals.append(occupation_ratios(tr, 1.0).b_over_n[-1])
    assert float(np.median(finals)) < 0.005


def test_arcsine_ensemble_frequencies():
    pts = arcsine_ensemble(PM1, 10**4, 2000, [0.5, 0.25, 1.0], seed=11)
    by_eps = {p.eps: p for p in pts}
    assert by_eps[0.5].theoretical == pytest.approx(0.5, abs=1e-12)
    assert by_eps[0.25].theoretical == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert by_eps[1.0].theoretical == pytest.approx(1.0, abs=1e-12)
    assert abs(by_eps[0.5].empirical - 0.5) < 0.03
    assert abs(by_eps[0.25].empirical - 1.0 / 3.0) < 0.04
    # eps = 1 asks for a_n > 0; a ~n^(-1/2) share of walks never goes positive
    assert by_eps[1.0].empirical > 0.97


def test_arcsine_rejects_drift():
    with pytest.raises(PreconditionError):
        arcsine_ensemble(StepProfile((1.0, 1.0, -1.0)), 100, 10, [0.5], seed=1)


def test_arcsine_checks_eps_before_simulating(monkeypatch):
    def no_walks(*args, **kwargs):
        raise AssertionError("walks simulated before eps was checked")

    monkeypatch.setattr(np.random, "default_rng", no_walks)
    for bad in (0.0, 1.5):
        with pytest.raises(PreconditionError):
            arcsine_ensemble(PM1, 10, 5, [0.5, bad], seed=1)


def test_wildness_running_range():
    covered = 0
    for sub in np.random.SeedSequence(7).spawn(20):
        seed = int(sub.generate_state(1)[0])
        tr = simulate_walk(PM1, 0.0, 10**6, seed=seed)
        ratios = occupation_ratios(tr, 0.0).a_over_n
        if ratios.max() >= 0.95 and ratios.min() <= 0.05:
            covered += 1
    assert covered >= 1


def test_equidistribution_dichotomy():
    tr = simulate_walk(PM1, 0.0, 10**6, seed=123)
    irr = circle_equidistribution(tr, math.pi, 256)
    assert irr.cdf_deviation < 0.01
    rat = circle_equidistribution(tr, 2.0, 256)
    assert rat.cdf_deviation > 0.2
    assert cyclic_support_check([1, -1], modulus=2) is True
    assert cyclic_support_check([1, -1], modulus_irrational=True) is False


def test_equidistribution_gates():
    tr = simulate_walk(PM1, 0.0, 100, seed=1)
    with pytest.raises(PreconditionError):
        circle_equidistribution(tr, 0.0, 16)
    with pytest.raises(PreconditionError):
        circle_equidistribution(tr, 1.0, 1)
    import cylmaps.walks as walks

    empty = walks.WalkTrace(t=np.empty(0), steps_used=(1.0, -1.0), seed=0)
    with pytest.raises(PreconditionError):
        circle_equidistribution(empty, 1.0, 16)


def test_two_point_support_is_far_from_uniform():
    tr = simulate_walk(PM1, 0.0, 10**5, seed=9)
    rep = circle_equidistribution(tr, 2.0, 64)
    # walk values reduce to {0, 1/2} only
    tau = np.unique(np.mod(tr.t / 2.0, 1.0))
    assert set(tau.tolist()).issubset({0.0, 0.5})
    assert rep.cdf_deviation > 0.2


def test_cyclic_support_exact_arithmetic():
    assert cyclic_support_check([Fraction(1), Fraction(-1)], modulus=Fraction(2)) is True
    assert cyclic_support_check(["1/3", "-2/3"], modulus="5/7") is True
    assert cyclic_support_check([0, 0], modulus_irrational=True) is True
    assert cyclic_support_check([0], modulus=3) is True
    with pytest.raises(PreconditionError):
        cyclic_support_check([1.0, -1.0], modulus=2)
    with pytest.raises(PreconditionError):
        cyclic_support_check([1, -1], modulus=0)
    with pytest.raises(PreconditionError):
        cyclic_support_check(["1/0"], modulus=2)
    with pytest.raises(PreconditionError):
        cyclic_support_check([1, -1], modulus="1/0")


def test_fl_orbit_matches_walk_increments():
    profile = StepProfile((0.25, -0.25))
    sys2 = CylinderSystem(2, fractional_linear_family(profile))
    walk = simulate_walk(profile, 0.0, 1000, seed=11)
    orbit_walk = fl_orbit_as_walk(sys2, CylPoint(0.3, 0.5), 1000, seed=11)
    assert orbit_walk.t[0] == 0.0  # t(1/2) = 0
    inc_walk = np.diff(walk.t)
    inc_orbit = np.diff(orbit_walk.t)
    assert np.abs(inc_walk - inc_orbit).max() < 1e-9


def test_fl_orbit_drift_attracts_to_upper_boundary():
    profile = StepProfile((1.0, 1.0, -1.0))  # mean 1/3 > 0
    sys3 = CylinderSystem(3, fractional_linear_family(profile))
    tr = fl_orbit_as_walk(sys3, CylPoint(0.3, 0.5), 100, seed=21)
    assert poincare_coord_inv(float(tr.t[-1])) > 0.999


def test_fl_orbit_gates():
    sys3 = CylinderSystem(3, kan_family(0.5))
    with pytest.raises(WrongFamilyError):
        fl_orbit_as_walk(sys3, CylPoint(0.3, 0.5), 10, seed=1)
    flp = CylinderSystem(2, fractional_linear_family(StepProfile((1.0, -1.0))))
    with pytest.raises(DomainError):
        fl_orbit_as_walk(flp, CylPoint(0.3, 1.0), 10, seed=1)
    with pytest.raises(PreconditionError):
        fl_orbit_as_walk(flp, CylPoint(0.3, 0.5), -1, seed=1)


def test_fl_orbit_saturated_height_stays_on_the_boundary():
    # steps of +-45 round heights onto y = 1 (or 0); the next -45 step must
    # not be applied there, since 1 + expm1(-45) * 1 is exactly 0
    sys2 = CylinderSystem(2, fractional_linear_family(StepProfile((45.0, -45.0))))
    saturated = 0
    for seed in range(10):
        t = fl_orbit_as_walk(sys2, CylPoint(0.3, 0.5), 50, seed=seed).t
        hits = np.flatnonzero(np.isinf(t))
        if hits.size:
            saturated += 1
            assert (t[hits[0]:] == t[hits[0]]).all()
            assert np.isfinite(t[:hits[0]]).all()
    assert saturated > 0
