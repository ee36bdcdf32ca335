"""Orbit histograms, uniformity statistics, Jacobian identity, time averages."""

import math

import numpy as np
import pytest

from cylmaps import (
    CylinderSystem,
    CylPoint,
    DomainError,
    FiberFamily,
    PreconditionError,
    StepProfile,
    WrongFamilyError,
    base_orbit_angles,
    birkhoff_average,
    fractional_linear_family,
    inverse_kan_family,
    jacobian_branch_sum,
    kan_family,
    orbit_histogram,
    transverse_exponent_birkhoff,
    uniformity_stats,
)
from cylmaps import fiber, measures
from cylmaps.fiber import INVERSE_KAN
from cylmaps.measures import TEST_FUNCTIONS, Histogram2D, histogram_csv, orbit_points

INV3 = CylinderSystem(3, inverse_kan_family(0.5))
KAN3 = CylinderSystem(3, kan_family(0.5))
START = CylPoint(0.1234, 0.4)


def test_histogram_conservation():
    h = orbit_histogram(INV3, START, 20000, 16, 16, burn_in=1000, seed=7)
    assert int(h.counts.sum()) == h.total == 19000


def test_single_point_histogram():
    h = orbit_histogram(INV3, START, 1001, 8, 8, burn_in=1000, seed=7)
    assert h.total == 1
    assert int(h.counts.sum()) == 1


def test_histogram_gates():
    with pytest.raises(PreconditionError):
        orbit_histogram(INV3, START, 1000, 16, 16, burn_in=1000)
    with pytest.raises(DomainError):
        orbit_histogram(INV3, CylPoint(0.1, 0.0), 2000, 16, 16)


def test_inverse_regime_is_uniform():
    h = orbit_histogram(INV3, START, 10**6, 16, 16, burn_in=1000, seed=7)
    rep = uniformity_stats(h)
    assert rep.dof == 255
    assert rep.max_rel_dev < 0.1


def test_negative_regime_collapses_to_boundaries():
    h = orbit_histogram(KAN3, START, 10**6, 16, 16, burn_in=1000, seed=7)
    interior = h.counts[:, 2:14].sum() / h.total  # bins fully inside y in (1/8, 7/8)
    assert interior < 0.05
    assert uniformity_stats(h).max_rel_dev > 1.0


def test_kan_orbit_steps_the_scalar_kernel_only_until_it_sticks(monkeypatch):
    # c08's Kan orbit stays at 1 - 2**-53 from within its first chunk on:
    # the loop takes one more chunk to see it, the scalar kernel applied to
    # -sup|p| and +sup|p| shows that every parameter left fixes it, so the
    # rest of the 10**6 parameters are never computed, and neither the array
    # kernel nor the lanes' step kernel is ever called
    kan = fiber._KERNELS[fiber.KAN]
    apply, step = kan["apply"], kan["step"]
    steps, array_calls, lane_rounds, computed = [0], [], [0], [0]

    def counted(p, y, xp):
        if xp is math:
            steps[0] += 1
        else:
            array_calls.append(np.size(p))
        return apply(p, y, xp)

    def counted_step(p, y):
        lane_rounds[0] += 1
        return step(p, y)

    displacement = FiberFamily.displacement

    def counted_displacement(family, x):
        computed[0] += np.size(x)
        return displacement(family, x)

    monkeypatch.setitem(kan, "apply", counted)
    monkeypatch.setitem(kan, "step", counted_step)
    monkeypatch.setattr(FiberFamily, "displacement", counted_displacement)
    _, ys = orbit_points(KAN3, START, 10**6, seed=7)
    assert ys[-1] == 1.0 - 2.0**-53
    assert computed[0] <= 3 * fiber._ORBIT_CHUNK
    assert steps[0] <= 3 * fiber._ORBIT_CHUNK
    assert array_calls == []
    assert lane_rounds[0] == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 23: the rounded inverse-Kan root "
                   "fixes 1 - 2**-53 at every parameter of this profile")
def test_inverse_kan_orbit_leaves_the_repelling_top_boundary():
    # the top boundary repels (exponent +0.014 a step), so an orbit started
    # within 4 ulps of 1 leaves the boundary layer, or is refused; fewer than
    # _MIN_LANES lanes, so the scalar loop steps it
    sys_ = CylinderSystem(3, FiberFamily(INVERSE_KAN, StepProfile((0.36, -0.5, 0.0))))
    for seed in (0, 1):
        for m in (1, 2, 4):
            try:
                _, ys = orbit_points(sys_, CylPoint(0.1234, 1.0 - m * 2.0**-53), 20_000, seed=seed)
            except DomainError:
                continue
            assert ys.min() < 1.0 - 2.0**-40, (seed, m)


HISTOGRAM_BINS = [(16, 16), (7, 13), (10, 3), (1, 1), (1000, 1)]


def _histogram2d(xs, ys, bins):
    counts, _, _ = np.histogram2d(xs, ys, bins=bins, range=[[0.0, 1.0], [0.0, 1.0]])
    return counts.astype(np.int64)


@pytest.mark.parametrize("bins", HISTOGRAM_BINS)
def test_histogram_bins_every_edge_as_histogram2d(bins, monkeypatch):
    # every edge of either axis, both its float neighbours and points outside
    # [0, 1], paired with those of the other axis
    def near_edges(b):
        edges = np.linspace(0.0, 1.0, b + 1)
        return np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
                               [0.0, 1.0, -0.0, -3.0, 7.0]])

    xs, ys = (v.ravel() for v in np.meshgrid(*map(near_edges, bins), indexing="ij"))
    monkeypatch.setattr(measures, "orbit_points", lambda *args, **kwargs: (xs, ys))
    h = orbit_histogram(INV3, START, xs.size, *bins, burn_in=0)
    assert h.counts.shape == bins and h.counts.dtype == np.int64
    assert np.array_equal(h.counts, _histogram2d(xs, ys, bins))


@pytest.mark.parametrize("sys_", [INV3, KAN3], ids=["INV3", "KAN3"])
@pytest.mark.parametrize("bins", HISTOGRAM_BINS)
def test_orbit_histogram_is_histogram2d(sys_, bins):
    xs, ys = orbit_points(sys_, START, 50_000, seed=7)
    h = orbit_histogram(sys_, START, 50_000, *bins, burn_in=1000, seed=7)
    assert np.array_equal(h.counts, _histogram2d(xs[1000:], ys[1000:], bins))


CHUNK = measures._BIN_CHUNK


@pytest.mark.parametrize("bins", [(16, 16), (7, 13)])
@pytest.mark.parametrize("n,burn_in", [
    (CHUNK - 1, 0), (CHUNK - 1, 1000), (CHUNK + 1, 0), (CHUNK + 1, CHUNK - 1),
    (CHUNK + 1, CHUNK), (2 * CHUNK + 1, 3), (2 * CHUNK + 1, CHUNK + 2)])
def test_chunked_histogram_is_histogram2d(n, burn_in, bins):
    # one chunk less one, one more, two more and one; burn-ins short of,
    # at and past a chunk's length, so the chunks start off the boundaries
    xs, ys = orbit_points(INV3, START, n, seed=7)
    h = orbit_histogram(INV3, START, n, *bins, burn_in=burn_in, seed=7)
    assert h.counts.dtype == np.int64 and h.counts.flags.c_contiguous
    assert np.array_equal(h.counts, _histogram2d(xs[burn_in:], ys[burn_in:], bins))


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_small_chunks_bin_every_edge_as_histogram2d(chunk, monkeypatch):
    # the edge points of both axes and points outside [0, 1], in a
    # shuffled order, counted a few at a time
    edges = np.linspace(0.0, 1.0, 14)
    near = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0), [-3.0, 7.0]])
    rng = np.random.default_rng(2)
    xs, ys = rng.choice(near, 3001), rng.choice(near, 3001)
    monkeypatch.setattr(measures, "orbit_points", lambda *args, **kwargs: (xs, ys))
    monkeypatch.setattr(measures, "_BIN_CHUNK", chunk)
    h = orbit_histogram(INV3, START, xs.size, 7, 13, burn_in=11)
    assert np.array_equal(h.counts, _histogram2d(xs[11:], ys[11:], (7, 13)))


def test_orbit_histogram_holds_no_orbit_length_temporary():
    import tracemalloc

    # the orbit's angles, parameters and heights take 24 MB; the binning of
    # the whole orbit at once peaked at 41 MB
    orbit_histogram(INV3, START, 2000, 16, 16, burn_in=1000, seed=7)  # first-call allocations
    tracemalloc.start()
    try:
        orbit_histogram(INV3, START, 10**6, 16, 16, burn_in=1000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_uniformity_hand_values():
    flat = Histogram2D(2, 2, np.full((2, 2), 5, dtype=np.int64), 20, 0)
    rep = uniformity_stats(flat)
    assert rep.chi_square == 0.0 and rep.max_rel_dev == 0.0
    spike = Histogram2D(2, 2, np.array([[4, 0], [0, 0]], dtype=np.int64), 4, 0)
    rep = uniformity_stats(spike)
    assert rep.chi_square == pytest.approx(12.0, abs=1e-12)
    assert rep.max_rel_dev == pytest.approx(3.0, abs=1e-12)


def test_uniformity_empty_gate():
    with pytest.raises(PreconditionError):
        uniformity_stats(Histogram2D(2, 2, np.zeros((2, 2), dtype=np.int64), 0, 0))


def test_jacobian_branch_sum_identity():
    assert jacobian_branch_sum(INV3, CylPoint(0.2, 0.7)) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = CylPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        assert abs(jacobian_branch_sum(INV3, p) - 1.0) < 1e-12


def test_jacobian_branch_values_at_zero_amplitude():
    tiny = CylinderSystem(4, inverse_kan_family(1e-15))
    assert jacobian_branch_sum(tiny, CylPoint(0.3, 0.3)) == pytest.approx(1.0, abs=1e-12)


def test_jacobian_branch_sum_of_a_step_profile_is_one_plus_the_weighted_mean():
    # 1 + (1 - 2y) * mean(values) = 1 + 0.8 * 0.25
    sys = CylinderSystem(3, FiberFamily(INVERSE_KAN, StepProfile((0.5, 0.5, -0.25))))
    assert jacobian_branch_sum(sys, CylPoint(0.2, 0.1)) == pytest.approx(1.2, abs=1e-15)
    flat = CylinderSystem(3, FiberFamily(INVERSE_KAN, StepProfile((0.5, -0.25, -0.25))))
    assert abs(jacobian_branch_sum(flat, CylPoint(0.2, 0.1)) - 1.0) < 1e-15


@pytest.mark.parametrize("x", (0.0, 1.0 - 2.0 ** -53))
def test_jacobian_branch_sum_reads_each_step_of_the_profile_once(x):
    # the float preimage (x + j)/k rounds below j/k near x = 0, and x just
    # below 1 reaches (j + 1)/k: neither may read a neighbouring step
    sys = CylinderSystem(22, FiberFamily(INVERSE_KAN, StepProfile(tuple(np.linspace(-0.9, 0.9, 22)))))
    assert jacobian_branch_sum(sys, CylPoint(x, 0.1)) == 1.0


def test_jacobian_wrong_family():
    with pytest.raises(WrongFamilyError):
        jacobian_branch_sum(KAN3, CylPoint(0.2, 0.7))


def test_lebesgue_invariance_under_one_step():
    # push a uniform cloud through one application of the map and re-bin;
    # the Jacobian identity means the uniformity statistic barely moves
    rng = np.random.default_rng(0)
    ux = rng.uniform(0.0, 1.0, 10**6)
    uy = rng.uniform(0.0, 1.0, 10**6)
    before, _, _ = np.histogram2d(ux, uy, bins=[16, 16], range=[[0, 1], [0, 1]])
    from cylmaps.fiber import _apply_fiber

    vy = _apply_fiber(INV3.family, ux, uy)
    vx = (3.0 * ux) % 1.0
    after, _, _ = np.histogram2d(vx, vy, bins=[16, 16], range=[[0, 1], [0, 1]])
    expected = ux.size / 256
    dev_before = np.abs(before / expected - 1.0).max()
    dev_after = np.abs(after / expected - 1.0).max()
    assert abs(dev_after - dev_before) < 0.02


def test_birkhoff_averages_match_lebesgue():
    assert birkhoff_average(INV3, "y", START, 10**6, seed=8) == pytest.approx(0.5, abs=0.01)
    assert birkhoff_average(INV3, "y_squared", START, 10**6, seed=8) == pytest.approx(1.0 / 3.0, abs=0.01)
    assert birkhoff_average(INV3, "cos_x", START, 10**6, seed=8) == pytest.approx(0.0, abs=0.01)


def test_birkhoff_unknown_function_gate():
    with pytest.raises(PreconditionError):
        birkhoff_average(INV3, "sin_x", START, 10**4)


# the test functions of (x, y) that TEST_FUNCTIONS restates in y and cos(2*pi*x)
SPELLED_OUT = {
    "y": lambda x, y: y,
    "y_squared": lambda x, y: y * y,
    "cos_x": lambda x, y: np.cos(2.0 * np.pi * x),
    "y_cos_x": lambda x, y: y * np.cos(2.0 * np.pi * x),
}
MEMO_SYSTEMS = {
    "INV3": INV3,
    "KAN3": KAN3,
    "moebius_step": CylinderSystem(3, fractional_linear_family(StepProfile((0.3, -0.1, -0.2)))),
    "inverse_kan_step": CylinderSystem(3, FiberFamily(INVERSE_KAN, StepProfile((0.5, -0.25, -0.25)))),
}


@pytest.fixture
def memo():
    measures._memo_orbit_means.cache_clear()
    return measures._memo_orbit_means


@pytest.mark.parametrize("seed", [None, 8, np.int64(12)], ids=["None", "int", "int64"])
@pytest.mark.parametrize("name", MEMO_SYSTEMS)
def test_birkhoff_means_are_the_spelled_out_means(name, seed, memo):
    # both burn-ins after one clear: a memo key without burn_in reads the
    # first one's means for the second
    sys_, n = MEMO_SYSTEMS[name], 20_000
    xs, ys = orbit_points(sys_, START, n, seed=seed)
    assert list(TEST_FUNCTIONS) == list(SPELLED_OUT)
    for burn_in in (0, 1000):
        for chi, f in SPELLED_OUT.items():
            want = float(np.mean(f(xs[burn_in:], ys[burn_in:])))
            got = birkhoff_average(sys_, chi, START, n, burn_in, seed=seed)
            assert got.hex() == want.hex(), (chi, burn_in)


def test_one_orbit_per_birkhoff_key(memo, monkeypatch):
    calls = []
    real = measures._orbit

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(measures, "_orbit", counted)
    key = (INV3, START, 5000, 100, 8)
    for chi in ("y", "y_squared", "cos_x"):
        birkhoff_average(INV3, chi, START, 5000, 100, seed=8)
    assert len(calls) == 1
    # an np.int64 seed is the same key as the int
    birkhoff_average(INV3, "y_cos_x", START, 5000, 100, seed=np.int64(8))
    assert len(calls) == 1
    for field, value in enumerate((KAN3, CylPoint(0.2, 0.4), 5001, 101, 9)):
        sys_, p0, n, burn_in, seed = key[:field] + (value,) + key[field + 1:]
        birkhoff_average(sys_, "y", p0, n, burn_in, seed=seed)
        assert len(calls) == field + 2, field
    birkhoff_average(INV3, "y", START, 5000, 100, seed=None)
    assert len(calls) == 7


@pytest.mark.parametrize("name,passes", [("INV3", [5000]), ("moebius_step", [4900])])
def test_a_birkhoff_miss_takes_one_cosine_pass(name, passes, memo, monkeypatch):
    # a cosine profile's fibre parameters give the unit cosines of all n
    # angles; a step profile's angles take the cosine after the burn-in
    sizes, cos = [], np.cos

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counted)
    for chi in TEST_FUNCTIONS:
        birkhoff_average(MEMO_SYSTEMS[name], chi, START, 5000, 100, seed=8)
    assert sizes == passes


SEED_TOOLS = {
    "birkhoff_average": lambda seed: birkhoff_average(INV3, "y", START, 5000, 100, seed=seed),
    "orbit_points": lambda seed: orbit_points(INV3, START, 5000, seed=seed),
    "orbit_histogram": lambda seed: orbit_histogram(INV3, START, 5000, 8, 8, 100, seed=seed),
    "base_orbit_angles": lambda seed: base_orbit_angles(3, START.x, 5000, seed=seed),
    "transverse_exponent_birkhoff":
        lambda seed: transverse_exponent_birkhoff(INV3, 0, START.x, 5000, seed=seed),
}


@pytest.mark.parametrize("seed", [np.random.default_rng(5), np.random.SeedSequence(5), 8.0, -1],
                         ids=["Generator", "SeedSequence", "float", "negative"])
@pytest.mark.parametrize("tool", SEED_TOOLS)
def test_orbit_tools_refuse_seeds_that_are_not_non_negative_integers(tool, seed, memo):
    # seed 8 first: 8.0 hashes like 8, and a memo hit must not answer for it
    SEED_TOOLS[tool](8)
    with pytest.raises(PreconditionError, match="seed"):
        SEED_TOOLS[tool](seed)


@pytest.mark.parametrize("n,burn_in", [(1e5, 1000), (10**5, 1000.0)], ids=["n", "burn_in"])
def test_birkhoff_refuses_float_counts_on_a_warm_memo(n, burn_in, memo):
    # 1e5 and 1000.0 hash like 10**5 and 1000, so a memo hit would answer for them
    birkhoff_average(INV3, "y", START, 10**5, 1000, seed=8)
    with pytest.raises(PreconditionError, match="integer"):
        birkhoff_average(INV3, "y", START, n, burn_in, seed=8)


def test_birkhoff_memo_keeps_only_the_means_of_a_bounded_number_of_orbits(memo):
    import tracemalloc

    birkhoff_average(INV3, "y", START, 10**4, 100)  # first-call allocations
    memo.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seed in range(4 * memo.cache_info().maxsize):
            birkhoff_average(INV3, "y", START, 10**4, 100, seed=seed)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert memo.cache_info().currsize <= memo.cache_info().maxsize
    assert retained < 64 * 1024  # one 10**4-step orbit array is 80 KB


def test_orbit_points_heights_follow_fibers(monkeypatch):
    from cylmaps import CosineProfile, eval_fiber, fiber, fractional_linear_family

    # bit-exact for the quadratic kinds, across the lane boundaries at
    # multiples of fiber._LANE: three lanes and a tail, the inverse-Kan orbit
    # stepped in lanes from two lanes on (its lanes settle)
    monkeypatch.setattr(fiber, "_MIN_LANES", 2)
    n = 3 * fiber._LANE + 100
    for family in (INV3.family, KAN3.family):
        xs, ys = orbit_points(CylinderSystem(3, family), START, n, seed=3)
        for i in range(n - 1):
            if 0.0 < ys[i] < 1.0:
                assert ys[i + 1] == eval_fiber(family, float(xs[i]), float(ys[i]))
    # Moebius heights are carried in t and read back through
    # poincare_coord_inv, so one fiber step from each stored height lands on
    # the next to rounding, also where the orbit sits at y = 1.0 (step 1868)
    family = fractional_linear_family(CosineProfile(0.8))
    xs, ys = orbit_points(CylinderSystem(3, family), START, 4200, seed=3)
    for i in range(4199):
        assert ys[i + 1] == pytest.approx(eval_fiber(family, float(xs[i]), float(ys[i])),
                                          abs=1e-12)


def test_moebius_orbit_stays_on_the_cylinder():
    from cylmaps import CosineProfile, eval_fiber, fractional_linear_family, poincare_coord

    # the y-space loop stepped 25,654 of these heights above 1 (up to 1036.65),
    # and the histogram then binned 44,891 of its 100,000 points
    family = fractional_linear_family(CosineProfile(0.8))
    sys = CylinderSystem(3, family)
    xs, ys = orbit_points(sys, START, 10**5, seed=3)
    assert ((0.0 <= ys) & (ys <= 1.0)).all()
    h = orbit_histogram(sys, START, 10**5, 8, 8, burn_in=0, seed=3)
    assert int(h.counts.sum()) == h.total == 10**5
    # while |t| <= 10, iterating the fiber maps in y tracks the orbit
    y, i = START.y, 0
    while abs(poincare_coord(y)) <= 10.0:
        assert abs(y - ys[i]) <= 1e-9
        y = eval_fiber(family, float(xs[i]), y)
        i += 1
    assert i > 10


@pytest.mark.parametrize("n", [0, 1, 10**5])
def test_moebius_orbit_is_the_exact_partial_sum(n):
    from cylmaps import StepProfile, fractional_linear_family, poincare_coord_inv

    # +-1 steps from y = 1/2 (t = 0): t_i is an integer partial sum, read off
    # the returned angles.  The y-space loop stalled 144 heights at 1 - 2^-53
    # and resumed from t ~ 36.7 instead of the true height.
    sys = CylinderSystem(2, fractional_linear_family(StepProfile((1.0, -1.0))))
    xs, ys = orbit_points(sys, CylPoint(0.3, 0.5), n, seed=3)
    assert xs.shape == ys.shape == (n,)
    t = 0
    for i in range(n):
        assert ys[i] == poincare_coord_inv(float(t))
        t += 1 if xs[i] < 0.5 else -1


def test_histogram_csv_roundtrip():
    h = orbit_histogram(INV3, START, 5000, 4, 4, burn_in=100, seed=5)
    text = histogram_csv(h)
    lines = text.strip().split("\n")
    assert lines[0] == "bin_x,bin_y,count"
    assert len(lines) == 1 + 16
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == h.total
