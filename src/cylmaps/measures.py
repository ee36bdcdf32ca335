"""Empirical asymptotic-measure tools for the positive-curvature regime.

Long orbits of the inverse-quadratic systems equidistribute with respect
to Lebesgue measure on the cylinder; this module bins such orbits,
quantifies their uniformity, verifies the inverse-branch Jacobian identity
that makes Lebesgue measure invariant, and computes time averages of a few
named test functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .base import base_orbit_angles
from .cylinder import CylinderSystem, CylPoint, _csv
from .errors import DomainError, PreconditionError, WrongFamilyError, _require_count, _require_seed
from .fiber import (INVERSE_KAN, CosineProfile, StepProfile, _fiber_orbit, _Parameters,
                    _unit_cosine)

DEFAULT_BURN_IN = 1000

#: named test functions chi(y, c) for Birkhoff averages, written in the
#: height y and c = cos(2*pi*x), so that one orbit evaluates the cosine
#: once for every entry; each entry's orbit mean equals the mean of the
#: same chi of (x, y) spelled out, bit for bit
TEST_FUNCTIONS = {
    "y": lambda y, c: y,
    "y_squared": lambda y, c: y * y,
    "cos_x": lambda y, c: c,
    "y_cos_x": lambda y, c: y * c,
}

#: points that orbit_histogram bins at a time
_BIN_CHUNK = 1 << 16


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

    Angles come from :func:`cylmaps.base.base_orbit_angles`; the heights
    follow the fiber maps driven by those angles (:func:`fiber._fiber_orbit`):
    Moebius heights are carried in t and read back through poincare_coord_inv,
    and quadratic heights equal the scalar loop's bit for bit.
    """
    xs, _, ys = _orbit(sys, p0, n, seed, unit_cosine=False)
    return xs, ys


def _orbit(sys: CylinderSystem, p0: CylPoint, n: int, seed,
           unit_cosine: bool) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """(xs, c, ys): the arrays of orbit_points and, when unit_cosine is set
    and the profile is a cosine, c_i = cos(2*pi*x_i), the unit cosines whose
    scaling gives the fibre parameters, so that no caller takes the cosine
    of the orbit twice; the cosines are taken in place of the angles, and xs
    is then None.  c is None otherwise.  Unset, the quadratic kinds get
    the angles, and the family's displacement computes the parameters a
    chunk at a time, only for the steps the orbit loop takes: a Kan orbit
    stuck at a boundary float computes none past the chunk that proves it
    stuck (:func:`fiber._scalar_orbit`).  Moebius fibres translate by every
    parameter, so they read all of them at once.
    base_orbit_angles is looked up through this module at call time."""
    if not 0.0 < p0.y < 1.0:
        raise DomainError("orbit statistics need an interior starting height")
    xs = base_orbit_angles(sys.k, p0.x, n, seed=seed)
    profile, c = sys.family.profile, None
    if unit_cosine and isinstance(profile, CosineProfile):
        # _unit_cosine(xs), bit for bit, in the angles' own array; scaled a
        # slice at a time they are profile.displacement of the angles, and
        # |c| <= 1, so each rounded |c * amplitude| is at most profile.bound()
        c = np.cos(np.multiply(2.0 * np.pi, xs, out=xs), out=xs)
        xs = None
        params = _Parameters(c, functools.partial(np.multiply, profile.amplitude), profile.bound())
    else:
        params = _Parameters(xs, sys.family.displacement, profile.bound())
    return xs, c, _fiber_orbit(sys.family, params, p0.y)


def orbit_histogram(sys: CylinderSystem, p0: CylPoint, n: int, bins_x: int,
                    bins_y: int, burn_in: int = DEFAULT_BURN_IN,
                    seed=None) -> Histogram2D:
    """Bin the orbit points with index >= burn_in; total = n - burn_in.

    The counts are np.histogram2d's.  The points are binned and counted in
    chunks of _BIN_CHUNK from burn_in on, whose temporaries stay in cache;
    no temporary spans the orbit.
    """
    _require_count(bins_x, "bins_x", 1)
    _require_count(bins_y, "bins_y", 1)
    _require_count(burn_in, "burn_in")
    _require_count(n, "orbit length", burn_in + 1)
    xs, ys = orbit_points(sys, p0, n, seed=seed)
    # bins -1 and bins_x or bins_y hold the points outside [0, 1]: they are
    # counted on the rim of a padded grid and cut off, as np.histogram2d does
    padded = np.zeros((bins_x + 2) * (bins_y + 2), dtype=np.int64)
    for lo in range(burn_in, n, _BIN_CHUNK):
        cell = _bin_index(xs[lo:lo + _BIN_CHUNK], bins_x)
        cell *= bins_y + 2
        cell += _bin_index(ys[lo:lo + _BIN_CHUNK], bins_y)
        cell += bins_y + 3
        padded += np.bincount(cell, minlength=padded.size)
    counts = padded.reshape(bins_x + 2, bins_y + 2)[1:-1, 1:-1]
    return Histogram2D(bins_x=bins_x, bins_y=bins_y, counts=counts.copy(),
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
    i[v < np.take(left, i)] -= 1
    i[v >= np.take(right, i)] += 1
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


def _check_branch_family(sys: CylinderSystem) -> None:
    """The family refusal of :func:`jacobian_branch_sum`, raised before any work."""
    if sys.family.kind != INVERSE_KAN:
        raise WrongFamilyError("the branch-Jacobian identity applies to the inverse-quadratic family")


def jacobian_branch_sum(sys: CylinderSystem, p: CylPoint) -> float:
    """Sum of the k inverse-branch Jacobians of F at p: 1 + (1-2y)*mean(a_j).

    Each inverse branch of the inverse-quadratic system sends (x, y) to
    ((x+j)/k, y + a_j y (1-y)) with a_j = p((x+j)/k) and contributes the
    Jacobian (1 + a_j (1-2y))/k.  For a cosine profile the k values a_j sum
    to zero, so the total is 1 and Lebesgue measure is invariant; a step
    profile gives a_j = values[j], so the total is 1 only for zero mean.
    """
    _check_branch_family(sys)
    k, prof = sys.k, sys.family.profile
    # branch j lands in [j/k, (j+1)/k), where a step profile reads values[j],
    # wherever the float (x + j)/k rounds to
    a = (prof.values if isinstance(prof, StepProfile)
         else [float(prof.displacement((p.x + j) / k)) for j in range(k)])
    return math.fsum((1.0 + a_j * (1.0 - 2.0 * p.y)) / k for a_j in a)


def jacobian_max_defect(sys: CylinderSystem, points: int, seed: int) -> float:
    """Largest |jacobian_branch_sum - 1| over seeded uniform random points."""
    _check_branch_family(sys)
    _require_count(points, "point count", 1)
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        p = CylPoint(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
        worst = max(worst, abs(jacobian_branch_sum(sys, p) - 1.0))
    return worst


def _orbit_means(sys: CylinderSystem, p0: CylPoint, n: int, burn_in: int,
                 seed) -> dict[str, float]:
    """Mean after burn-in of every TEST_FUNCTIONS entry over one orbit.
    _orbit is looked up through this module at call time.  A cosine profile
    hands over the unit cosines of its fibre parameters; a step profile's
    angles take the cosine here, after the burn-in."""
    xs, c, ys = _orbit(sys, p0, n, seed, unit_cosine=True)
    y = ys[burn_in:]
    c = _unit_cosine(xs[burn_in:]) if c is None else c[burn_in:]
    return {name: float(np.mean(chi(y, c))) for name, chi in TEST_FUNCTIONS.items()}


#: every caller asks for the test functions of one orbit in a row, so the
#: means of the last orbit are all the memo keeps
_memo_orbit_means = functools.lru_cache(maxsize=1)(_orbit_means)


def birkhoff_average(sys: CylinderSystem, chi: str, p0: CylPoint, n: int,
                     burn_in: int = DEFAULT_BURN_IN, seed=None) -> float:
    """Orbit mean of the named test function after the burn-in prefix.

    One orbit yields the means of every TEST_FUNCTIONS entry.  The means
    of the last orbit are kept, keyed by (sys, p0, n, burn_in, seed), so
    asking for another test function of the same orbit costs no orbit.
    The seed must be None or a non-negative integer (numpy integers
    included); it is checked before the memo is read, so a seed such as
    8.0, which hashes like 8, is refused and not answered from the memo.
    A call that misses costs one orbit plus four means: about 65 ms for
    1e6 inverse-Kan steps on one Xeon core, of which the means take about
    10 ms, because a cosine profile's orbit hands the means the cosines of
    its fibre parameters.  The memo keeps only floats, never an orbit array.
    """
    if chi not in TEST_FUNCTIONS:
        raise PreconditionError(
            f"unknown test function {chi!r}; choose from {sorted(TEST_FUNCTIONS)}")
    _require_count(burn_in, "burn_in")
    _require_count(n, "orbit length", burn_in + 1)
    _require_seed(seed)
    return _memo_orbit_means(sys, p0, n, burn_in, seed)[chi]


def histogram_csv(hist: Histogram2D) -> str:
    """CSV rows (bin_x, bin_y, count) under a single header line."""
    return _csv("bin_x,bin_y,count",
                ((ix, iy, count) for (ix, iy), count in np.ndenumerate(hist.counts)))
