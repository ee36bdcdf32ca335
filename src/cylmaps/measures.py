"""Empirical asymptotic-measure tools for the positive-curvature regime.

Long orbits of the inverse-quadratic systems equidistribute with respect
to Lebesgue measure on the cylinder; this module bins such orbits,
quantifies their uniformity, verifies the inverse-branch Jacobian identity
that makes Lebesgue measure invariant, and computes time averages of a few
named test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylinder import CylinderSystem, CylPoint, base_orbit_angles
from .errors import DomainError, PreconditionError, WrongFamilyError
from .fiber import (FRACTIONAL_LINEAR, INVERSE_KAN, StepProfile, _fiber_orbit,
                    _translation_orbit, poincare_coord, poincare_coord_inv)

DEFAULT_BURN_IN = 1000

#: named test functions chi(x, y) for Birkhoff averages
TEST_FUNCTIONS = {
    "y": lambda x, y: y,
    "y_squared": lambda x, y: y * y,
    "cos_x": lambda x, y: np.cos(2.0 * np.pi * x),
    "y_cos_x": lambda x, y: y * np.cos(2.0 * np.pi * x),
}


@dataclass(frozen=True)
class Histogram2D:
    """Occupation counts of an orbit segment on a [0,1) x [0,1] grid."""

    bins_x: int
    bins_y: int
    counts: np.ndarray  # int64, shape (bins_x, bins_y)
    total: int
    burn_in: int


@dataclass(frozen=True)
class UniformityReport:
    chi_square: float
    dof: int
    max_rel_dev: float


def orbit_points(sys: CylinderSystem, p0: CylPoint, n: int,
                 seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of the first n orbit points (x_i, y_i), i = 0..n-1.

    Angles come from :func:`cylmaps.cylinder.base_orbit_angles`; the heights
    follow the fiber maps driven by those angles, Moebius ones carried in t.
    Quadratic heights equal the scalar loop's bit for bit, but a long orbit
    is stepped as lanes from guessed starts, which contract onto the true
    orbit and, the step being deterministic, stay on it from the first equal
    height.  An orbit whose twin lanes contract too slowly (Kan), or one of
    whose lanes never meets it, goes to the scalar loop, which steps it only
    until it sticks at a float the fibres fix, such as 1 - 2**-53, and then
    checks with the array kernel that each further parameter leaves that
    height fixed (:func:`fiber._fiber_orbit`, :func:`fiber._fixed_run`).
    """
    if not 0.0 < p0.y < 1.0:
        raise DomainError("orbit statistics need an interior starting height")
    xs = base_orbit_angles(sys.k, p0.x, n, seed=seed)
    a = sys.family.displacement(xs)
    if sys.family.kind == FRACTIONAL_LINEAR:
        return xs, poincare_coord_inv(_translation_orbit(poincare_coord(p0.y), a)[:n])
    ys = np.empty(n, dtype=float)
    _fiber_orbit(sys.family, a, p0.y, ys)
    return xs, ys


def orbit_histogram(sys: CylinderSystem, p0: CylPoint, n: int, bins_x: int,
                    bins_y: int, burn_in: int = DEFAULT_BURN_IN,
                    seed=None) -> Histogram2D:
    """Bin the orbit points with index >= burn_in; total = n - burn_in."""
    if bins_x < 1 or bins_y < 1:
        raise PreconditionError("bin counts must be >= 1")
    if burn_in < 0 or n <= burn_in:
        raise PreconditionError("need n > burn_in >= 0")
    xs, ys = orbit_points(sys, p0, n, seed=seed)
    # bins -1 and bins_x or bins_y hold the points outside [0, 1]: they are
    # counted on the rim of a padded grid and cut off, as np.histogram2d does
    cell = _bin_index(xs[burn_in:], bins_x)
    cell *= bins_y + 2
    cell += _bin_index(ys[burn_in:], bins_y)
    cell += bins_y + 3
    padded = np.bincount(cell, minlength=(bins_x + 2) * (bins_y + 2))
    counts = padded.reshape(bins_x + 2, bins_y + 2)[1:-1, 1:-1]
    return Histogram2D(bins_x=bins_x, bins_y=bins_y, counts=counts.astype(np.int64),
                       total=n - burn_in, burn_in=burn_in)


def _bin_index(v: np.ndarray, bins: int) -> np.ndarray:
    """The bin of each v among the edges np.linspace(0, 1, bins + 1) that
    np.histogram2d uses: [e_i, e_{i+1}), with 1.0 in the last bin, -1 below
    0 and bins above 1.  floor(v * bins), clipped to a bin, is that bin or a
    neighbour, so one comparison with each of its edges settles it, for
    every bin count."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    left, right = edges[:-1], edges[1:].copy()
    right[-1] = np.nextafter(1.0, 2.0)
    i = np.multiply(v, bins)
    np.clip(i, 0, bins - 1, out=i)
    i = i.astype(np.intp)  # truncation, which is floor on the clipped values
    i[v < left[i]] -= 1
    i[v >= right[i]] += 1
    return i


def uniformity_stats(hist: Histogram2D) -> UniformityReport:
    """Chi-square and max relative deviation against the uniform expectation."""
    if hist.total <= 0:
        raise PreconditionError("histogram is empty")
    expected = hist.total / (hist.bins_x * hist.bins_y)
    dev = hist.counts / expected - 1.0
    chi2 = float(np.sum(dev * dev) * expected)
    return UniformityReport(chi_square=chi2,
                            dof=hist.bins_x * hist.bins_y - 1,
                            max_rel_dev=float(np.abs(dev).max()))


def jacobian_branch_sum(sys: CylinderSystem, p: CylPoint) -> float:
    """Sum of the k inverse-branch Jacobians of F at p: 1 + (1-2y)*mean(a_j).

    Each inverse branch of the inverse-quadratic system sends (x, y) to
    ((x+j)/k, y + a_j y (1-y)) with a_j = p((x+j)/k) and contributes the
    Jacobian (1 + a_j (1-2y))/k.  For a cosine profile the k values a_j sum
    to zero, so the total is 1 and Lebesgue measure is invariant; a step
    profile gives a_j = values[j], so the total is 1 only for zero mean.
    """
    if sys.family.kind != INVERSE_KAN:
        raise WrongFamilyError("the branch-Jacobian identity applies to the inverse-quadratic family")
    k, prof = sys.k, sys.family.profile
    # branch j lands in [j/k, (j+1)/k), where a step profile reads values[j],
    # wherever the float (x + j)/k rounds to
    a = (prof.values if isinstance(prof, StepProfile)
         else [float(prof.displacement((p.x + j) / k)) for j in range(k)])
    return math.fsum((1.0 + a_j * (1.0 - 2.0 * p.y)) / k for a_j in a)


def jacobian_max_defect(sys: CylinderSystem, points: int, seed: int) -> float:
    """Largest |jacobian_branch_sum - 1| over seeded uniform random points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        p = CylPoint(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
        worst = max(worst, abs(jacobian_branch_sum(sys, p) - 1.0))
    return worst


def _birkhoff_averages(sys: CylinderSystem, chis, p0: CylPoint, n: int,
                       burn_in: int = DEFAULT_BURN_IN, seed=None) -> list[float]:
    """Orbit means of the named test functions over one orbit."""
    for chi in chis:
        if chi not in TEST_FUNCTIONS:
            raise PreconditionError(
                f"unknown test function {chi!r}; choose from {sorted(TEST_FUNCTIONS)}")
    if burn_in < 0 or n <= burn_in:
        raise PreconditionError("need n > burn_in >= 0")
    xs, ys = orbit_points(sys, p0, n, seed=seed)
    return [float(np.mean(TEST_FUNCTIONS[chi](xs[burn_in:], ys[burn_in:])))
            for chi in chis]


def birkhoff_average(sys: CylinderSystem, chi: str, p0: CylPoint, n: int,
                     burn_in: int = DEFAULT_BURN_IN, seed=None) -> float:
    """Orbit mean of the named test function after the burn-in prefix."""
    return _birkhoff_averages(sys, (chi,), p0, n, burn_in, seed)[0]


def histogram_csv(hist: Histogram2D) -> str:
    """CSV rows (bin_x, bin_y, count) under a single header line."""
    lines = ["bin_x,bin_y,count"]
    for ix in range(hist.bins_x):
        for iy in range(hist.bins_y):
            lines.append(f"{ix},{iy},{int(hist.counts[ix, iy])}")
    return "\n".join(lines) + "\n"
