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
    backward_orbit_toward,
    base_orbit_angles,
    birkhoff_average,
    canonical_fixed_angle,
    check_kan_hypothesis,
    circle_equidistribution,
    classify_point,
    classify_points,
    CosineProfile,
    cyclic_support_check,
    estimate_separator,
    estimate_separator_batch,
    eval_fiber,
    exponent_report,
    final_counts,
    fl_orbit_as_walk,
    fractional_linear_family,
    intermingle_probe,
    inverse_kan_family,
    kan_family,
    occupation_ratios,
    orbit,
    orbit_histogram,
    poincare_coord,
    poincare_coord_inv,
    rasterize,
    simulate_walk,
    transverse_exponent_birkhoff,
    transverse_exponent_quadrature,
)
from cylmaps import base, fiber, walks
from cylmaps.cylinder import separator_sweep
from cylmaps.measures import jacobian_max_defect, orbit_points

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


def test_walks_refuse_a_one_value_profile():
    # base multiplier k = 1: every step is values[0], a translation
    one = StepProfile((0.0,))
    with pytest.raises(PreconditionError):
        simulate_walk(one, 0.0, 10, seed=1)
    with pytest.raises(PreconditionError):
        arcsine_ensemble(one, 10, 2, [0.5], seed=1)


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

    monkeypatch.setattr(walks, "simulate_walk", no_walks)
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
    digits = base.digits(base._stream_key(seed), 0, n, k)
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


def _arcsine_finals_reference(profile, n, num_walks, seed):
    # the ensemble's draw-and-sum, each spawned child keying its digit stream
    values = np.asarray(profile.values, dtype=float)
    finals = []
    for sub in np.random.SeedSequence(seed).spawn(num_walks):
        key = int(sub.generate_state(1, np.uint64)[0])
        t = np.cumsum(values[base.digits(key, 0, n, profile.k)])
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


def _ratio_bytes(stats, names=_RATIOS):
    return {name: (getattr(stats, name).dtype, getattr(stats, name).tobytes()) for name in names}


def _assert_matches_reference(trace, threshold):
    want = zip(_RATIOS, _occupation_reference(trace, threshold))
    assert _ratio_bytes(occupation_ratios(trace, threshold)) == {
        name: (arr.dtype, arr.tobytes()) for name, arr in want}


@pytest.mark.parametrize("values", [(1.0, -1.0), (0.25, -0.25), (2.0, -1.0, -1.0),
                                    (1.0, 1.0, -1.0), (0.3, -0.7, 0.1), (0.0, 0.0)])
@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0, 2.5, 3.0])
def test_lazy_occupation_matches_eager_bits(values, threshold):
    for seed in (0, 4, 5, 9):
        trace = simulate_walk(StepProfile(values), 0.0, 30000, seed=seed)
        _assert_matches_reference(trace, threshold)


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0, 3.0, math.inf])
def test_lazy_occupation_matches_eager_bits_on_infinite_and_signed_zero_heights(threshold):
    t = np.array([0.0, math.inf, -0.0, -math.inf, 0.0, 0.5, -0.5, -0.0, math.inf, 3.0,
                  -3.0, 1.0, -math.inf, -1.0, 0.0])
    _assert_matches_reference(WalkTrace(t=t, steps_used=PM1.values, seed=0), threshold)


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


@pytest.mark.parametrize("offset", [-1, 0, 1, walks._CHUNK + 1])
def test_running_ratios_across_the_chunk_boundary(offset):
    n = walks._CHUNK + offset
    for values, threshold in (((1.0, -1.0), 1.0), ((0.3, -0.7, 0.1), 0.5)):
        tr = simulate_walk(StepProfile(values), 0.0, n, seed=6)
        st = occupation_ratios(tr, threshold)
        for got, want in zip((st.a_over_n, st.b_over_n, st.c_over_n),
                             _occupation_reference(tr, threshold)):
            assert np.array_equal(got, want)


def test_walks_and_ratios_allocate_no_full_size_temporary():
    import tracemalloc

    n = 10**6
    tracemalloc.start()
    try:
        tr = simulate_walk(PM1, 0.0, n, seed=0)
        walk_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        st = occupation_ratios(tr, 1.0)
        for name in _RATIOS:
            getattr(st, name)
        ratio_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the 8 MB walk, then three 8 MB ratio arrays, each with chunk-sized
    # temporaries: a digit, step, |t| or count array spanning the walk adds 1-8 MB
    assert walk_peak < 8 * (n + 1) + 2**20
    assert ratio_peak < 3 * 8 * n + 2**20


KAN3 = CylinderSystem(3, kan_family(0.5))
INV3 = CylinderSystem(3, inverse_kan_family(0.5))
P = CylPoint(0.3, 0.5)

#: every length, size, budget and count of the package: id -> (call, least)
COUNTS = {
    "simulate_walk": (lambda bad: simulate_walk(PM1, 0.0, bad, seed=1), 0),
    "final_counts": (lambda bad: final_counts(PM1, bad, [1], 0.0), 0),
    "arcsine_n": (lambda bad: arcsine_ensemble(PM1, bad, 3, [0.5], seed=1), 1),
    "arcsine_num_walks": (lambda bad: arcsine_ensemble(PM1, 10, bad, [0.5], seed=1), 1),
    "fl_orbit_as_walk": (lambda bad: fl_orbit_as_walk(
        CylinderSystem(2, fractional_linear_family(PM1)), P, bad, seed=1), 0),
    "occupation_csv": (lambda bad: walks.occupation_csv(
        occupation_ratios(simulate_walk(PM1, 0.0, 10, seed=1), 1.0), every=bad), 1),
    "orbit": (lambda bad: orbit(KAN3, P, bad), 0),
    "backward_orbit_toward": (lambda bad: backward_orbit_toward(KAN3, P, 0.5, bad), 0),
    "canonical_fixed_angle": (lambda bad: canonical_fixed_angle(bad), 3),
    "check_kan_hypothesis": (lambda bad: check_kan_hypothesis(KAN3, 0.0, 0.5, 0.01, bad), 1),
    "classify_points": (lambda bad: classify_points(KAN3, [0.3], [0.5], bad, 1e-3), 0),
    "classify_point": (lambda bad: classify_point(KAN3, P, bad, 1e-3), 0),
    "estimate_separator": (lambda bad: estimate_separator(KAN3, 0.3, bad, 1e-3, 1e-2), 0),
    "estimate_separator_batch":
        (lambda bad: estimate_separator_batch(KAN3, [0.3], bad, 1e-3, 1e-2), 0),
    "separator_sweep_n_max": (lambda bad: separator_sweep(KAN3, 2, bad, 1e-3, 1e-2, 1), 0),
    "separator_sweep_num_angles":
        (lambda bad: separator_sweep(KAN3, bad, 50, 1e-3, 1e-2, 1), 0),
    "rasterize_width": (lambda bad: rasterize(KAN3, bad, 4, 50, 1e-3), 1),
    "rasterize_height": (lambda bad: rasterize(KAN3, 4, bad, 50, 1e-3), 1),
    "rasterize_n_max": (lambda bad: rasterize(KAN3, 4, 4, bad, 1e-3), 0),
    "probe_num_boxes": (lambda bad: intermingle_probe(KAN3, bad, 0.1, 4, 50, 1e-3, 1), 1),
    "probe_samples_per_box":
        (lambda bad: intermingle_probe(KAN3, 2, 0.1, bad, 50, 1e-3, 1), 1),
    "probe_n_max": (lambda bad: intermingle_probe(KAN3, 2, 0.1, 4, bad, 1e-3, 1), 0),
    "base_orbit_angles": (lambda bad: base_orbit_angles(3, 0.3, bad), 0),
    "orbit_points": (lambda bad: orbit_points(INV3, P, bad), 0),
    "orbit_histogram_n": (lambda bad: orbit_histogram(INV3, P, bad, 4, 4, burn_in=0), 1),
    "orbit_histogram_bins_x": (lambda bad: orbit_histogram(INV3, P, 100, bad, 4, burn_in=0), 1),
    "orbit_histogram_bins_y": (lambda bad: orbit_histogram(INV3, P, 100, 4, bad, burn_in=0), 1),
    "orbit_histogram_burn_in": (lambda bad: orbit_histogram(INV3, P, 100, 4, 4, burn_in=bad), 0),
    "birkhoff_n": (lambda bad: birkhoff_average(INV3, "y", P, bad, burn_in=0), 1),
    "birkhoff_burn_in": (lambda bad: birkhoff_average(INV3, "y", P, 100, burn_in=bad), 0),
    "quadrature_nodes":
        (lambda bad: transverse_exponent_quadrature(kan_family(0.5), 0, bad), 16),
    "exponent_report": (lambda bad: exponent_report(KAN3, bad), 16),
    "transverse_exponent_birkhoff":
        (lambda bad: transverse_exponent_birkhoff(KAN3, 0, 0.3, bad), 1),
    "jacobian_max_defect": (lambda bad: jacobian_max_defect(INV3, bad, 1), 1),
}


@pytest.mark.parametrize("call,bad", [
    pytest.param(call, bad, id=f"{bad}-{name}")
    for name, (call, least) in COUNTS.items()
    for bad in [10.5, 2.0, True, "3", None, -1] + ([0] if least >= 1 else [])])
def test_walk_lengths_and_counts_must_be_integers(call, bad):
    with pytest.raises(PreconditionError):
        call(bad)


@pytest.mark.parametrize("modulus,bins", [
    (math.inf, 16), (-math.inf, 16), (-1.0, 16), (1.0, 2.5), (1.0, True), (1.0, 16.0)])
def test_equidistribution_refuses_an_infinite_modulus_and_a_fractional_bin_count(modulus, bins):
    tr = simulate_walk(PM1, 0.0, 100, seed=1)
    with pytest.raises(PreconditionError):
        circle_equidistribution(tr, modulus, bins)


def _loop_walk(values, t0, n, seed):
    # the general path: the step values gathered off the digit stream, then summed in order
    key, t = base._stream_key(seed), np.empty(n + 1)
    t[1:] = np.take(np.asarray(values, dtype=float), base.digits(key, 0, n, len(values)))
    return fiber._translation_orbit(t0, t)


_BYTE_LENGTHS = [0, 1, 7, 8, 9, 63, 64, 65, walks._CHUNK - 1, walks._CHUNK, walks._CHUNK + 1,
                 2 * walks._CHUNK + 5]


@pytest.mark.parametrize("values,table", [
    ((1.0, -1.0), True), ((3.0, -2.0), True), ((0.0, 5.0), True), ((15.0, -15.0), True),
    ((16.0, -1.0), False), ((0.25, -0.25), False)])
@pytest.mark.parametrize("t0", [0.0, -0.0, 7.0, -2.0**52 + 3])
def test_byte_table_walk_equals_the_float_loop_bit_for_bit(values, table, t0):
    takes = table and not (t0 == 0.0 and math.copysign(1.0, t0) < 0.0)
    for n in _BYTE_LENGTHS:
        assert walks._takes_byte_table(values, t0, n) == takes
        for seed in (0, 7):
            got = simulate_walk(StepProfile(values), t0, n, seed=seed).t
            assert got.tobytes() == _loop_walk(values, t0, n, seed).tobytes()


@pytest.mark.parametrize("values", [(1.0, 1.0), (-15.0, -15.0), (15.0, -15.0)])
def test_byte_table_walk_at_the_exact_integer_edge(values):
    n = 2 * walks._CHUNK + 5
    edge = 2**53 - n * int(abs(values[0]))  # a height n steps away is at most 2^53
    for t0, takes in ((edge, True), (edge + 1, False)):
        t0 = math.copysign(t0, values[0])
        assert walks._takes_byte_table(values, t0, n) == takes
        got = simulate_walk(StepProfile(values), t0, n, seed=3).t
        assert got.tobytes() == _loop_walk(values, t0, n, 3).tobytes()
    if values == (1.0, 1.0):
        assert got[-1] == 2.0**53  # past the edge the float loop rounds: 2^53 + 1 reads 2^53


@pytest.mark.parametrize("values", [(0.0, -0.0), (-0.0, -0.0)])
def test_byte_table_walk_keeps_the_signed_zeros_of_a_negative_zero_start(values):
    for t0 in (-0.0, 0.0):
        assert walks._takes_byte_table(values, t0, 200) == (not np.signbit(t0))
        # seed 6 steps by values[1] first; -0.0 + -0.0 is the only sum that reads -0.0
        got = simulate_walk(StepProfile(values), t0, 200, seed=6).t
        assert got.tobytes() == _loop_walk(values, t0, 200, 6).tobytes()
        assert np.signbit(got[1]) == bool(np.signbit(t0))
    assert np.signbit(simulate_walk(StepProfile((-0.0, -0.0)), -0.0, 200, seed=2).t).all()


@pytest.mark.parametrize("chunk", [200, 8])
@pytest.mark.parametrize("values", [(1.0, -1.0), (3.0, -2.0)])
def test_byte_table_walk_of_chunks_that_start_inside_a_word(monkeypatch, chunk, values):
    # a chunk of 200 digits starts at digit 8, 16, 24, ... of a 64-digit
    # word, and one of 8 digits at each of its bytes
    monkeypatch.setattr(walks, "_CHUNK", chunk)
    assert walks._takes_byte_table(values, 0.0, 1000)
    for seed in (0, 5):
        got = simulate_walk(StepProfile(values), 0.0, 1000, seed=seed).t
        assert got.tobytes() == _loop_walk(values, 0.0, 1000, seed).tobytes()


def _chunks(threshold):
    # one chunk of heights per verdict, each _CHUNK long, then a short straddling tail
    rng, c, n = np.random.default_rng(5), walks._CHUNK, threshold
    steps = rng.integers(0, 4, c).astype(float)
    inside = rng.uniform(-n, n, c) if n else rng.choice([0.0, -0.0], c)
    inside[:2] = -n, n
    return [n + 1 + steps, -n - 1 - steps,  # wholly above, wholly below
            inside,  # inside, min and max exactly at -N and N
            n + steps, -n - steps,  # min exactly at N, max exactly at -N
            rng.normal(0.0, 3 * n + 1, c),  # straddling both ends
            rng.choice([math.inf, -math.inf, n + 1, 0.0], c),  # +-inf among finite heights
            np.full(c, math.inf), np.full(c, -math.inf),
            rng.choice([0.0, -0.0], c),  # signed zeros
            rng.normal(0.0, 3 * n + 1, 17)]


@pytest.mark.parametrize("threshold", [0.0, 1.0, 2.5])
def test_running_ratio_verdicts_match_the_three_count_reference(threshold):
    chunks = _chunks(threshold)
    for order in (chunks, chunks[::-1], chunks[2::3] + chunks[::3] + chunks[1::3]):
        tr = WalkTrace(t=np.concatenate([[0.0], *order]), steps_used=PM1.values, seed=0)
        st = occupation_ratios(tr, threshold)
        for got, want in zip((st.a_over_n, st.b_over_n, st.c_over_n),
                             _occupation_reference(tr, threshold)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_running_ratio_of_a_nan_chunk_counts_its_hits(threshold):
    # occupation_ratios refuses NaN; stats built directly count NaN in no band
    c = walks._CHUNK
    for fill in (threshold + 1, -threshold - 1, 0.0):
        t = np.concatenate([[0.0], np.full(c, threshold + 2), np.full(c, fill), [0.0, -5.0]])
        t[c + 5] = math.nan
        st = walks.OccupationStats(threshold, t[1:])
        for got, want in zip((st.a_over_n, st.b_over_n, st.c_over_n),
                             _occupation_reference(WalkTrace(t, PM1.values, 0), threshold)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("modulus", [1e-320, 1e-300, 2.0**-52 * 20])
def test_equidistribution_refuses_a_modulus_that_leaves_no_fraction_bits(modulus):
    tr = simulate_walk(PM1, 0.0, 1000, seed=1)
    assert np.abs(tr.t).max() >= 20.0  # so some |t|/L reaches 2^52
    with pytest.raises(PreconditionError, match="2\\^52"):
        circle_equidistribution(tr, modulus, 16)
    below = WalkTrace(t=np.clip(tr.t, -19.0, 19.0), steps_used=PM1.values, seed=1)
    assert 0.0 <= circle_equidistribution(below, 2.0**-52 * 20, 16).cdf_deviation <= 1.0


def _loop_counts(heights, threshold):
    # the per-walk loop: every height of each walk t_1 .. t_n, compared
    rows = []
    for t in heights:
        above, below = np.count_nonzero(t > threshold), np.count_nonzero(t < -threshold)
        rows.append((above, t.size - above - below, below))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def _loop_heights(values, n, seeds):
    return [_loop_walk(values, 0.0, n, seed)[1:] for seed in seeds]


_COUNT_THRESHOLDS = [0.0, -0.0, 0.5, 1.0, 2.5, 8.0, 1e300, math.inf]


@pytest.mark.parametrize("values", [(1.0, -1.0), (2.0, -1.0), (15.0, -15.0), (0.0, 0.0),
                                    (1.0, 1.0)])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 10**4, walks._CHUNK + 5,
                               8 * walks._CHUNK + 100])
def test_byte_counts_equal_the_walk_loop_bit_for_bit(values, n):
    # 8 * _CHUNK digits fill one block, so the longest walk is cut along itself
    profile = StepProfile(values)
    assert walks._takes_byte_table(values, 0.0, n)
    seeds = [0, np.uint32(7), *np.random.SeedSequence(11).spawn(2)]
    heights = _loop_heights(values, n, seeds)
    for threshold in _COUNT_THRESHOLDS:
        got = final_counts(profile, n, seeds, threshold)
        assert got.dtype == np.int64
        assert got.tobytes() == _loop_counts(heights, threshold).tobytes()


@pytest.mark.parametrize("chunk", [8, 12, 200])
def test_byte_counts_of_blocks_cut_inside_a_walk(monkeypatch, chunk):
    # a block of 8, 12 or 200 bytes: walks of 1000 digits (125 bytes) are
    # cut into 16, 11 or 1 blocks, and blocks of 12 bytes start inside the
    # stream's 8-byte words; walks of 1603 digits (201 bytes, the last of 3
    # digits) into 26, 17 or 2 blocks; walks of 13 digits share blocks
    monkeypatch.setattr(walks, "_CHUNK", chunk)
    seeds = list(range(7))
    for values, n in (((1.0, -1.0), 1000), ((3.0, -2.0), 1000), ((1.0, -1.0), 13),
                      ((2.0, -1.0), 64 * 25 + 3)):
        heights = _loop_heights(values, n, seeds)
        for threshold in (0.0, 1.0, 3.5):
            got = final_counts(StepProfile(values), n, seeds, threshold)
            assert got.tobytes() == _loop_counts(heights, threshold).tobytes()


@pytest.mark.parametrize("values", [(16.0, -1.0), (0.3, -0.7), (1.0, -1.0, 0.0)])
def test_final_counts_off_the_byte_table_draw_each_walk(monkeypatch, values):
    drawn = []

    def draw(profile, t0, n, seed):
        drawn.append((t0, n, seed))
        return simulate_walk(profile, t0, n, seed)

    monkeypatch.setattr(walks, "simulate_walk", draw)
    seeds = [3, 4]
    got = final_counts(StepProfile(values), 500, seeds, 1.0)
    assert drawn == [(0.0, 500, 3), (0.0, 500, 4)]
    assert got.tobytes() == _loop_counts(_loop_heights(values, 500, seeds), 1.0).tobytes()


def test_byte_table_ensembles_draw_no_walk(monkeypatch):
    # a return to one simulate_walk per walk fails here, with no timing
    want_counts = final_counts(PM1, 10**4, [1, 2, 3], 1.0)
    want_points = arcsine_ensemble(PM1, 10**4, 50, [0.5, 0.25], seed=4)
    monkeypatch.setattr(walks, "simulate_walk", _raises_on_call)
    assert final_counts(PM1, 10**4, [1, 2, 3], 1.0).tobytes() == want_counts.tobytes()
    assert arcsine_ensemble(PM1, 10**4, 50, [0.5, 0.25], seed=4) == want_points


def _raises_on_call(*args, **kwargs):
    raise AssertionError("a walk was drawn")


def test_byte_counts_allocate_no_walk_sized_array():
    import tracemalloc

    tracemalloc.start()
    try:
        arcsine_ensemble(PM1, 10**4, 2000, [0.5, 0.25], seed=3)
        ensemble_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        final_counts(PM1, 10**6, [0, 1], 1.0)
        counts_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 1e6-step walk is 8 MB of heights
    assert ensemble_peak <= 4 * 2**20
    assert counts_peak <= 4 * 2**20


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_running_ratio_of_inside_then_straddling_then_a_partial_chunk(threshold):
    c = walks._CHUNK
    rng = np.random.default_rng(3)
    t = np.concatenate([[0.0], rng.uniform(-threshold, threshold, c),  # all inside
                        rng.normal(0.0, 3 * threshold + 1, c),  # straddling
                        [threshold + 1]])  # a last chunk of one height
    assert t.size - 1 == 2 * c + 1
    tr = WalkTrace(t=t, steps_used=PM1.values, seed=0)
    st = occupation_ratios(tr, threshold)
    for got, want in zip((st.a_over_n, st.b_over_n, st.c_over_n),
                         _occupation_reference(tr, threshold)):
        assert got.tobytes() == want.tobytes()
