"""Random walks of the zero-curvature regime: occupation, arcsine, equidistribution."""

import itertools
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
    WalkTrace,
    WrongFamilyError,
    arcsine_ensemble,
    circle_equidistribution,
    CosineProfile,
    cyclic_support_check,
    eval_fiber,
    final_counts,
    fl_orbit_as_walk,
    fractional_linear_family,
    kan_family,
    occupation_ratios,
    poincare_coord,
    poincare_coord_inv,
    simulate_walk,
)

PM1 = StepProfile((1.0, -1.0))


def test_average_displacement():
    assert PM1.mean() == 0.0
    assert CosineProfile(0.75).mean() == 0.0
    assert StepProfile((1.0, 1.0, -1.0)).mean() == pytest.approx(1.0 / 3.0, abs=1e-15)


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


def test_equidistribution_matches_a_sorted_remainder():
    tr = simulate_walk(StepProfile((1.0, -1.0, 0.25)), -3.5, 10**5, seed=5)
    t_before = tr.t.copy()
    for modulus, bins in ((math.pi, 256), (2.0, 64), (0.3, 16)):
        tau = np.sort(np.mod(tr.t / modulus, 1.0))
        edges = np.arange(1, bins + 1, dtype=float) / bins
        ecdf = np.searchsorted(tau, edges, side="right") / tau.size
        rep = circle_equidistribution(tr, modulus, bins)
        assert rep.cdf_deviation == float(np.abs(ecdf - edges).max())
    assert np.array_equal(tr.t, t_before)


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


def test_fl_orbit_large_steps_stay_finite():
    # steps of +-45 used to round heights onto y = 1 (or 0) within a few
    # steps; in t the orbit is the walk itself and never saturates
    profile = StepProfile((45.0, -45.0))
    sys2 = CylinderSystem(2, fractional_linear_family(profile))
    for seed in range(10):
        t = fl_orbit_as_walk(sys2, CylPoint(0.3, 0.5), 50, seed=seed).t
        assert np.isfinite(t).all()
        assert np.array_equal(t, simulate_walk(profile, 0.0, 50, seed=seed).t)


def test_fl_orbit_equals_walk_bitwise():
    # the +-1 walk of seed 3 climbs to t ~ 326 and falls to -745 in 1e6
    # steps, far past where 1 - y rounds away
    sys2 = CylinderSystem(2, fractional_linear_family(PM1))
    orbit = fl_orbit_as_walk(sys2, CylPoint(0.3, 0.5), 10**6, seed=3)
    assert np.array_equal(orbit.t, simulate_walk(PM1, 0.0, 10**6, seed=3).t)


@pytest.mark.parametrize("values,seed", [
    ((1.0, -1.0), 3), ((0.25, -0.25), 11), ((0.9, 0.9, -0.9), 1), ((1.0, 1.0, -1.0), 1),
])
def test_fl_orbit_follows_the_fiber_maps(values, seed):
    # iterate the fiber maps in y, driven by the walk's digits, while the
    # height is far from where 1 - y rounds away; t(y_i) must track t_i
    profile = StepProfile(values)
    k = profile.k
    family = fractional_linear_family(profile)
    n = 2000
    t = fl_orbit_as_walk(CylinderSystem(k, family), CylPoint(0.3, 0.5), n, seed=seed).t
    digits = np.random.default_rng(seed).integers(0, k, size=n)
    y, steps = 0.5, 0
    for i, digit in enumerate(digits.tolist(), 1):
        if abs(t[i]) > 10.0:
            break
        y = eval_fiber(family, (digit + 0.5) / k, y)
        assert abs(poincare_coord(y) - t[i]) < 1e-9
        steps += 1
    assert steps >= 10


def _occupation_reference(trace, threshold):
    # the three-cumsum form the partition identity replaced
    tt = trace.t[1:]
    n = np.arange(1, tt.size + 1, dtype=float)
    a = np.cumsum(tt > threshold)
    c = np.cumsum(tt < -threshold)
    b = np.cumsum(np.abs(tt) <= threshold)
    return a / n, b / n, c / n


@pytest.mark.parametrize("values", [
    (1.0, -1.0), (0.25, -0.25), (2.0, -1.0, -1.0), (1.0, 1.0, -1.0)])
def test_occupation_matches_three_count_reference(values):
    for seed in (0, 5, 9):
        tr = simulate_walk(StepProfile(values), 0.0, 20000, seed=seed)
        for threshold in (0.0, 1.0, 2.5):
            st = occupation_ratios(tr, threshold)
            ref = _occupation_reference(tr, threshold)
            for got, want in zip((st.a_over_n, st.b_over_n, st.c_over_n), ref):
                assert np.array_equal(got, want)


def _arcsine_finals_reference(profile, n, num_walks, seed):
    # the ensemble's own draw-and-sum, before it called simulate_walk
    values = np.asarray(profile.values, dtype=float)
    finals = []
    for sub in np.random.SeedSequence(seed).spawn(num_walks):
        rng = np.random.default_rng(sub)
        t = np.cumsum(values[rng.integers(0, profile.k, size=n)])
        finals.append(np.count_nonzero(t > 0.0) / n)
    return np.array(finals)


@pytest.mark.parametrize("n,num_walks", [(10**4, 2000), (7, 50), (1, 3)])
def test_arcsine_matches_draw_and_sum_reference(n, num_walks):
    eps_list = [0.5, 0.25, 0.1, 1.0]
    finals = _arcsine_finals_reference(PM1, n, num_walks, 11)
    for pt in arcsine_ensemble(PM1, n, num_walks, eps_list, seed=11):
        assert pt.empirical == float(np.count_nonzero(finals > 1.0 - pt.eps) / num_walks)


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_simulate_walk_refuses_non_finite_start(t0):
    with pytest.raises(PreconditionError):
        simulate_walk(PM1, t0, 10, seed=1)


def test_occupation_refuses_nan_trace():
    t = np.array([0.0, 1.0, math.nan, 1.0])
    with pytest.raises(PreconditionError):
        occupation_ratios(WalkTrace(t=t, steps_used=PM1.values, seed=0), 1.0)


_RATIOS = ("a_over_n", "b_over_n", "c_over_n")


def _eager_occupation(trace, threshold):
    # the eager body the lazy counts replaced: float cumsums, b by partition
    tt = trace.t[1:]
    n = np.arange(1, tt.size + 1, dtype=float)
    a = np.cumsum(tt > threshold, dtype=float)
    c = np.cumsum(tt < -threshold, dtype=float)
    b = n - a - c
    for ratio in (a, b, c):
        ratio /= n
    return a, b, c


def _ratio_bytes(stats, names=_RATIOS):
    return {name: (getattr(stats, name).dtype, getattr(stats, name).tobytes()) for name in names}


def _assert_matches_eager(trace, threshold):
    want = zip(_RATIOS, _eager_occupation(trace, threshold))
    assert _ratio_bytes(occupation_ratios(trace, threshold)) == {
        name: (arr.dtype, arr.tobytes()) for name, arr in want}


@pytest.mark.parametrize("values", [(1.0, -1.0), (2.0, -1.0, -1.0), (0.3, -0.7, 0.1), (0.0, 0.0)])
@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0, 3.0])
def test_lazy_occupation_matches_eager_bits(values, threshold):
    for seed in (0, 4):
        _assert_matches_eager(simulate_walk(StepProfile(values), 0.0, 30000, seed=seed), threshold)


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0, 3.0, math.inf])
def test_lazy_occupation_matches_eager_bits_on_infinite_and_signed_zero_heights(threshold):
    t = np.array([0.0, math.inf, -0.0, -math.inf, 0.0, 0.5, -0.5, -0.0, math.inf, 3.0,
                  -3.0, 1.0, -math.inf, -1.0, 0.0])
    _assert_matches_eager(WalkTrace(t=t, steps_used=PM1.values, seed=0), threshold)


def test_lazy_occupation_read_order_does_not_matter():
    tr = simulate_walk(StepProfile((0.3, -0.7, 0.1)), 0.0, 5000, seed=2)
    reads = [_ratio_bytes(occupation_ratios(tr, 0.5), order)
             for order in itertools.permutations(_RATIOS)]
    assert all(read == reads[0] for read in reads)


def test_lazy_occupation_second_read_returns_the_same_array():
    st = occupation_ratios(simulate_walk(PM1, 0.0, 1000, seed=1), 1.0)
    for name in _RATIOS:
        assert getattr(st, name) is getattr(st, name)


def test_occupation_refuses_nan_on_the_call_not_on_the_read():
    t = np.array([0.0, 1.0, 2.0, -1.0])
    tr = WalkTrace(t=t, steps_used=PM1.values, seed=0)
    st = occupation_ratios(tr, 1.0)
    t[2] = math.nan  # the stats hold a view of the trace, and a read does not re-check
    assert st.a_over_n.tolist() == [0.0, 0.0, 0.0]
    assert st.b_over_n.tolist() == [1.0, 0.5, 2.0 / 3.0]
    with pytest.raises(PreconditionError):
        occupation_ratios(tr, 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("values", [(1.0, -1.0), (0.6, -0.3, -0.3), (1e308, -1e308)],
                         ids=["pm1", "three-steps", "overflowing"])
@pytest.mark.parametrize("threshold", [0.0, 1.0, 2.5])
def test_final_counts_are_the_last_running_ratios_bit_for_bit(values, threshold):
    profile, n = StepProfile(values), 3000
    seeds = [0, 5, *np.random.SeedSequence(11).spawn(2)]
    counts = final_counts(profile, n, seeds, threshold)
    assert counts.dtype == np.int64 and counts.shape == (len(seeds), 3)
    assert (counts.sum(axis=1) == n).all()
    for row, seed in zip(counts, seeds):
        tr = simulate_walk(profile, 0.0, n, seed)
        if values[0] == 1e308:
            assert np.isinf(tr.t).any()  # heights overflow to +-inf
        st = occupation_ratios(tr, threshold)
        want = np.array([ratio[-1] for ratio in (st.a_over_n, st.b_over_n, st.c_over_n)])
        assert (row / n).tobytes() == want.tobytes()


@pytest.mark.parametrize("threshold", [math.nan, -1.0])
def test_final_counts_refuse_the_thresholds_occupation_refuses(threshold):
    with pytest.raises(PreconditionError, match="threshold"):
        occupation_ratios(simulate_walk(PM1, 0.0, 10, seed=1), threshold)
    with pytest.raises(PreconditionError, match="threshold"):
        final_counts(PM1, 10, [1], threshold)
