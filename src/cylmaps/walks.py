"""Boundary random walks of the zero-curvature regime.

With fractional-linear fibers and a step displacement profile, the height
coordinate t(y) = log(y/(1-y)) performs a random walk whose increments are
the profile values indexed by i.i.d. base-k digits.  This module simulates
those walks, computes the occupation ratios above/inside/below a threshold
band, estimates the arcsine-law ensemble frequencies, measures
equidistribution of the walk reduced modulo L, and decides the exact
finite-cyclic-support condition that governs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cylinder import CylinderSystem
from .errors import DomainError, PreconditionError, WrongFamilyError
from .fiber import (
    FRACTIONAL_LINEAR,
    DisplacementProfile,
    StepProfile,
    _fiber_steps,
    poincare_coord,
)


@dataclass(frozen=True)
class WalkTrace:
    """A realized walk t_0 .. t_n with the step multiset and seed that made it."""

    t: np.ndarray
    steps_used: tuple
    seed: int


@dataclass(frozen=True)
class OccupationStats:
    """Running ratios a_n/n, b_n/n, c_n/n (above, inside, below the band)."""

    threshold: float
    a_over_n: np.ndarray
    b_over_n: np.ndarray
    c_over_n: np.ndarray


@dataclass(frozen=True)
class CircleWalkReport:
    modulus: float
    bins: int
    cdf_deviation: float


@dataclass(frozen=True)
class ArcsinePoint:
    """Empirical vs limiting frequency of walks with a_n/n > 1 - eps."""

    eps: float
    empirical: float
    theoretical: float


def average_displacement(profile: DisplacementProfile) -> float:
    """Mean of p(x) over the circle: exact 0 for cosine, value mean for steps."""
    return profile.mean()


def _require_step(profile) -> StepProfile:
    if not isinstance(profile, StepProfile):
        raise PreconditionError("walk simulation needs a step displacement profile")
    return profile


def simulate_walk(profile: StepProfile, t0: float, n: int, seed: int) -> WalkTrace:
    """Walk with i.i.d. uniform digits in {0..k-1}; t_{i+1} = t_i + values[digit].

    Deterministic for a fixed seed.  Integer-valued steps produce exactly
    representable t throughout.
    """
    profile = _require_step(profile)
    if n < 0:
        raise PreconditionError("walk length must be >= 0")
    digits = np.random.default_rng(seed).integers(0, profile.k, size=n)
    steps = np.asarray(profile.values, dtype=float)[digits]
    t = np.empty(n + 1, dtype=float)
    t[0] = t0
    if n:
        np.cumsum(steps, out=t[1:])
        t[1:] += t0
    return WalkTrace(t=t, steps_used=profile.values, seed=seed)


def occupation_ratios(trace: WalkTrace, threshold: float) -> OccupationStats:
    """Counts over i = 1..n of t_i > N (a), |t_i| <= N (b), t_i < -N (c)."""
    if threshold < 0.0:
        raise PreconditionError("threshold must be >= 0")
    tt = trace.t[1:]
    n = np.arange(1, tt.size + 1, dtype=float)
    a = np.cumsum(tt > threshold)
    c = np.cumsum(tt < -threshold)
    b = np.cumsum(np.abs(tt) <= threshold)
    return OccupationStats(threshold=threshold, a_over_n=a / n,
                           b_over_n=b / n, c_over_n=c / n)


def arcsine_ensemble(profile: StepProfile, n: int, num_walks: int,
                     eps_list, seed: int) -> list[ArcsinePoint]:
    """Fraction of walks whose final a_n/n exceeds 1 - eps, per eps.

    Only zero-mean profiles qualify (the mean is taken over the float step
    values, summed exactly).  The limiting frequency is (2/pi) asin(sqrt(eps)).
    Walks use spawned per-walk substreams, so ensembles are reproducible and
    order-independent.
    """
    profile = _require_step(profile)
    if math.fsum(profile.values) != 0.0:
        raise PreconditionError("arcsine statistics need a zero-mean step profile")
    if n < 1 or num_walks < 1:
        raise PreconditionError("need n >= 1 and num_walks >= 1")
    eps_list = list(eps_list)
    for eps in eps_list:
        if not 0.0 < eps <= 1.0:
            raise PreconditionError(f"eps must lie in (0, 1], got {eps}")
    values = np.asarray(profile.values, dtype=float)
    final_frac = np.empty(num_walks, dtype=float)
    for w, sub in enumerate(np.random.SeedSequence(seed).spawn(num_walks)):
        rng = np.random.default_rng(sub)
        t = np.cumsum(values[rng.integers(0, profile.k, size=n)])
        final_frac[w] = np.count_nonzero(t > 0.0) / n
    out = []
    for eps in eps_list:
        emp = float(np.count_nonzero(final_frac > 1.0 - eps) / num_walks)
        theo = (2.0 / math.pi) * math.asin(math.sqrt(eps))
        out.append(ArcsinePoint(eps=float(eps), empirical=emp, theoretical=theo))
    return out


def circle_equidistribution(trace: WalkTrace, modulus: float,
                            bins: int) -> CircleWalkReport:
    """Max deviation of the empirical CDF of (t_i/L mod 1) from uniform."""
    if modulus <= 0.0:
        raise PreconditionError("modulus must be positive")
    if bins < 2:
        raise PreconditionError("need at least 2 bins")
    if trace.t.size == 0:
        raise PreconditionError("empty trace")
    if not np.isfinite(trace.t).all():
        raise PreconditionError("trace contains non-finite entries")
    tau = np.sort(np.mod(trace.t / modulus, 1.0))
    edges = np.arange(1, bins + 1, dtype=float) / bins
    ecdf = np.searchsorted(tau, edges, side="right") / tau.size
    return CircleWalkReport(modulus=float(modulus), bins=bins,
                            cdf_deviation=float(np.abs(ecdf - edges).max()))


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, float):
        raise PreconditionError(
            f"{what} must be an exact rational (int, Fraction or string), not a float")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise PreconditionError(f"cannot read {what} {value!r} as a rational") from exc


def cyclic_support_check(step_values, modulus=None,
                         modulus_irrational: bool = False) -> bool:
    """True iff the reduced increments value/modulus all lie in one finite
    cyclic subgroup of R/Z.

    Inputs are exact: rational step values, and either a nonzero rational
    modulus or the explicit ``modulus_irrational`` flag (irrationality is
    declared, never detected from floats).  Rational reductions always share
    the finite subgroup generated by 1/lcm of their denominators, so the
    check returns True for every rational modulus; with an irrational
    modulus only the zero walk stays in a finite subgroup.
    """
    vals = [_as_fraction(v, "step value") for v in step_values]
    if modulus_irrational:
        return all(v == 0 for v in vals)
    mod = _as_fraction(modulus, "modulus")
    if mod == 0:
        raise PreconditionError("modulus must be nonzero")
    return True


def fl_orbit_as_walk(sys: CylinderSystem, p0, n: int, seed: int) -> WalkTrace:
    """Run the fractional-linear cylinder orbit and record t(y_i).

    The base digits come from the same seeded stream as
    :func:`simulate_walk`, so for equal seeds the recorded increments equal
    the walk increments up to floating error.  If the height saturates to a
    boundary at float precision the remaining entries are +-inf; the
    coordinate is far better conditioned near y = 0 (tiny floats keep full
    relative precision) than near y = 1.
    """
    if sys.family.kind != FRACTIONAL_LINEAR:
        raise WrongFamilyError("walk extraction needs a fractional-linear system")
    profile = _require_step(sys.family.profile)
    if not 0.0 < p0.y < 1.0:
        raise DomainError("walk extraction needs an interior starting height")
    if n < 0:
        raise PreconditionError("walk length must be >= 0")
    digits = np.random.default_rng(seed).integers(0, sys.k, size=n)
    apply, coefs = _fiber_steps(sys.family, profile.values)
    t = np.empty(n + 1, dtype=float)
    t[0] = poincare_coord(p0.y)
    y = p0.y
    for i, digit in enumerate(digits.tolist(), 1):
        if 0.0 < y < 1.0:  # a height that reaches a boundary stays there
            y = apply(coefs[digit], y, math)
        t[i] = -math.inf if y <= 0.0 else math.inf if y >= 1.0 else poincare_coord(y)
    return WalkTrace(t=t, steps_used=profile.values, seed=seed)


def occupation_csv(stats: OccupationStats, every: int = 1) -> str:
    """CSV rows (n, a_over_n, b_over_n, c_over_n), optionally downsampled."""
    if every < 1:
        raise PreconditionError("downsampling stride must be >= 1")
    lines = ["n,a_over_n,b_over_n,c_over_n"]
    size = stats.a_over_n.size
    for i in range(every - 1, size, every):
        lines.append(f"{i + 1},{float(stats.a_over_n[i])!r},"
                     f"{float(stats.b_over_n[i])!r},{float(stats.c_over_n[i])!r}")
    return "\n".join(lines) + "\n"


def arcsine_csv(points: list[ArcsinePoint]) -> str:
    lines = ["eps,empirical,theoretical"]
    for p in points:
        lines.append(f"{p.eps!r},{p.empirical!r},{p.theoretical!r}")
    return "\n".join(lines) + "\n"
