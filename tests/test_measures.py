"""Orbit histograms, uniformity statistics, Jacobian identity, time averages."""

import numpy as np
import pytest

from cylmaps import (
    CylinderSystem,
    CylPoint,
    DomainError,
    PreconditionError,
    WrongFamilyError,
    birkhoff_average,
    inverse_kan_family,
    jacobian_branch_sum,
    kan_family,
    orbit_histogram,
    uniformity_stats,
)
from cylmaps.measures import Histogram2D, histogram_csv, orbit_points

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


def test_orbit_points_heights_follow_fibers():
    from cylmaps import CosineProfile, eval_fiber, fractional_linear_family

    # bit-exact for every kind, across the scalar loop's chunk boundary at
    # 4096.  The Moebius orbit saturates to y = 1.0 at step 1868; from there
    # the loop's formula steps just past 1 while eval_fiber keeps endpoints,
    # so only steps from interior heights are compared.
    for family in (INV3.family, KAN3.family, fractional_linear_family(CosineProfile(0.8))):
        xs, ys = orbit_points(CylinderSystem(3, family), START, 4200, seed=3)
        for i in range(4199):
            if 0.0 < ys[i] < 1.0:
                assert ys[i + 1] == eval_fiber(family, float(xs[i]), float(ys[i]))


def test_histogram_csv_roundtrip():
    h = orbit_histogram(INV3, START, 5000, 4, 4, burn_in=100, seed=5)
    text = histogram_csv(h)
    lines = text.strip().split("\n")
    assert lines[0] == "bin_x,bin_y,count"
    assert len(lines) == 1 + 16
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == h.total
