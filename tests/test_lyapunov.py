"""Transverse exponent quadrature, Birkhoff averaging, and the sign law."""

import math

import numpy as np
import pytest

from cylmaps import (
    CylinderSystem,
    CosineProfile,
    FiberFamily,
    PreconditionError,
    StepProfile,
    exponent_report,
    fractional_linear_family,
    inverse_kan_family,
    kan_family,
    kan_exponent_closed_form,
    transverse_exponent_birkhoff,
    transverse_exponent_quadrature,
)
from cylmaps.fiber import INVERSE_KAN, KAN

EXPECTED_KAN_05 = -0.06933646419507394  # log((1 + sqrt(0.75))/2)


def test_closed_form_value():
    assert kan_exponent_closed_form(0.5) == pytest.approx(EXPECTED_KAN_05, abs=1e-15)


def test_quadrature_matches_closed_form():
    got = transverse_exponent_quadrature(kan_family(0.5), 0, 4096)
    assert got == pytest.approx(EXPECTED_KAN_05, abs=1e-6)
    got1 = transverse_exponent_quadrature(kan_family(0.5), 1, 4096)
    assert got1 == pytest.approx(EXPECTED_KAN_05, abs=1e-6)


def test_quadrature_small_epsilon_limit():
    assert transverse_exponent_quadrature(kan_family(1e-9), 0, 4096) == pytest.approx(0.0, abs=1e-9)


def test_inverse_family_negates_exponent():
    got = transverse_exponent_quadrature(inverse_kan_family(0.5), 0, 4096)
    assert got == pytest.approx(-EXPECTED_KAN_05, abs=1e-6)


def test_quadrature_node_gate():
    with pytest.raises(PreconditionError):
        transverse_exponent_quadrature(kan_family(0.5), 0, 8)


def test_quadrature_convergence():
    a = transverse_exponent_quadrature(kan_family(0.5), 0, 2048)
    b = transverse_exponent_quadrature(kan_family(0.5), 0, 4096)
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_sign_law(eps):
    kan = exponent_report(CylinderSystem(3, kan_family(eps)), 2048)
    inv = exponent_report(CylinderSystem(3, inverse_kan_family(eps)), 2048)
    assert kan.lyap0 + kan.lyap1 < 0.0 and kan.sum_sign == -1
    assert inv.lyap0 + inv.lyap1 > 0.0 and inv.sum_sign == 1


def test_report_symmetry_and_metadata():
    rep = exponent_report(CylinderSystem(3, kan_family(0.5)), 4096)
    assert rep.lyap0 == pytest.approx(rep.lyap1, abs=1e-12)
    assert rep.method == "quadrature"
    assert rep.resolution == 4096


def test_zero_mean_step_profile_is_exactly_zero():
    sys2 = CylinderSystem(2, fractional_linear_family(StepProfile((1.0, -1.0))))
    rep = exponent_report(sys2, 4096)
    assert rep.lyap0 == 0.0
    assert rep.lyap1 == 0.0
    assert rep.sum_sign == 0


def test_step_profile_integrates_as_mean():
    sys3 = CylinderSystem(3, fractional_linear_family(StepProfile((1.0, 1.0, -1.0))))
    got = transverse_exponent_quadrature(sys3.family, 0, 64)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert transverse_exponent_quadrature(sys3.family, 1, 64) == pytest.approx(-1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("nodes", [16, 4096])
def test_step_profile_kan_exponents_are_exact_finite_means(nodes):
    mean = (math.log1p(0.5) + math.log1p(-0.5)) / 3
    kan = exponent_report(CylinderSystem(3, FiberFamily(KAN, StepProfile((0.5, -0.5, 0.0)))), nodes)
    assert kan.lyap0 == kan.lyap1 == mean
    assert kan.sum_sign == -1 and kan.resolution == 3
    inv = exponent_report(CylinderSystem(3, FiberFamily(INVERSE_KAN, StepProfile((0.5, -0.5, 0.0)))),
                          nodes)
    assert inv.lyap0 == inv.lyap1 == -mean
    assert inv.sum_sign == 1


def test_step_profile_quadrature_reads_every_digit_once():
    # at k = 22 the angle 15/22 reads digit 14: the nodes must sit inside the digits
    values = tuple(np.linspace(-0.9, 0.9, 22))
    got = transverse_exponent_quadrature(FiberFamily(KAN, StepProfile(values)), 0, 64)
    assert got == pytest.approx(math.fsum(math.log1p(v) for v in values) / 22, abs=1e-15)


def test_birkhoff_fixed_angle_is_exceptional():
    sys3 = CylinderSystem(3, kan_family(0.5))
    got = transverse_exponent_birkhoff(sys3, 0, 0.0, 1000)
    assert got == pytest.approx(math.log(1.5), abs=1e-12)


def test_birkhoff_generic_orbit_matches_quadrature():
    sys3 = CylinderSystem(3, kan_family(0.5))
    got = transverse_exponent_birkhoff(sys3, 0, 0.2357, 10**6, seed=12)
    assert got == pytest.approx(EXPECTED_KAN_05, abs=2e-3)


def test_birkhoff_fractional_linear_cosine_mean_zero():
    sys3 = CylinderSystem(3, fractional_linear_family(CosineProfile(0.5)))
    got = transverse_exponent_birkhoff(sys3, 0, 0.6181, 10**6, seed=3)
    assert got == pytest.approx(0.0, abs=2e-3)


def test_birkhoff_reproducible_without_seed():
    sys3 = CylinderSystem(3, kan_family(0.5))
    a = transverse_exponent_birkhoff(sys3, 0, 0.2357, 10**4)
    b = transverse_exponent_birkhoff(sys3, 0, 0.2357, 10**4)
    assert a == b


def test_basin_measure_link():
    # both exponents negative: the raster decides almost everywhere; both
    # positive: classification within the same budget nearly never decides
    from cylmaps import classify_points, BasinClass

    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 1.0, 400)
    ys = rng.uniform(0.05, 0.95, 400)
    kan_sys = CylinderSystem(3, kan_family(0.5))
    inv_sys = CylinderSystem(3, inverse_kan_family(0.5))
    kan_cls = classify_points(kan_sys, xs, ys, 5000, 1e-6)
    frac0 = (kan_cls == BasinClass.BASIN0).mean()
    frac1 = (kan_cls == BasinClass.BASIN1).mean()
    assert frac0 > 0.05 and frac1 > 0.05
    # first-hit classification is monotone in the budget, so the decided
    # fraction can only grow with n_max; what vanishing basins mean here is
    # that it stays near zero at every desk-scale budget
    decided_small = (classify_points(inv_sys, xs, ys, 500, 1e-6) != BasinClass.UNDECIDED).mean()
    decided_large = (classify_points(inv_sys, xs, ys, 5000, 1e-6) != BasinClass.UNDECIDED).mean()
    assert decided_small < 0.05
    assert decided_large < 0.05
