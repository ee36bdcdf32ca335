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
from functools import cached_property

import numpy as np

from .cylinder import CylinderSystem, _mod1
from .errors import DomainError, PreconditionError, WrongFamilyError
from .fiber import FRACTIONAL_LINEAR, StepProfile, _translation_orbit, poincare_coord


@dataclass(frozen=True)
class WalkTrace:
    """A realized walk t_0 .. t_n with the step multiset and seed that made it."""

    t: np.ndarray
    steps_used: tuple
    seed: int


def _running_ratio(hits: np.ndarray) -> np.ndarray:
    """count_i / i for i = 1..n; integer counts are exact, so with NaN
    refused b_n equals n - a_n - c_n and every quotient is correctly rounded."""
    count = np.cumsum(hits, dtype=np.int32 if hits.size < 2**31 else np.int64)
    ratio = np.arange(1, hits.size + 1, dtype=float)
    return np.divide(count, ratio, out=ratio)


@dataclass(frozen=True)
class OccupationStats:
    """Running ratios a_n/n, b_n/n, c_n/n (above, inside, below the band).

    Built as ``OccupationStats(threshold, t)`` from the heights t_1..t_n.
    Each ratio array is counted when it is first read, and kept.  ``t`` is
    a view of the trace, so writing into ``trace.t`` before a read changes
    that read.
    """

    threshold: float
    t: np.ndarray

    @cached_property
    def a_over_n(self) -> np.ndarray:
        return _running_ratio(self.t > self.threshold)

    @cached_property
    def b_over_n(self) -> np.ndarray:
        return _running_ratio(np.abs(self.t) <= self.threshold)

    @cached_property
    def c_over_n(self) -> np.ndarray:
        return _running_ratio(self.t < -self.threshold)


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
    if not math.isfinite(t0):
        raise PreconditionError(f"walk start must be finite, got {t0}")
    if n < 0:
        raise PreconditionError("walk length must be >= 0")
    digits = np.random.default_rng(seed).integers(0, profile.k, size=n)
    steps = np.asarray(profile.values, dtype=float)[digits]
    return WalkTrace(t=_translation_orbit(t0, steps), steps_used=profile.values, seed=seed)


def occupation_ratios(trace: WalkTrace, threshold: float) -> OccupationStats:
    """Counts over i = 1..n of t_i > N (a), |t_i| <= N (b), t_i < -N (c).

    The gates run here.  The result is ``OccupationStats(threshold, t)``
    with ``t`` a view of ``trace.t[1:]``: each ratio array is counted when
    it is first read, so writing into the trace before a read changes it.
    """
    _require_threshold(threshold)
    tt = trace.t[1:]
    if np.isnan(tt).any():
        raise PreconditionError("trace contains NaN")
    return OccupationStats(threshold, tt)


def _require_threshold(threshold: float) -> None:
    if not threshold >= 0.0:
        raise PreconditionError("threshold must be >= 0")


def final_counts(profile: StepProfile, n: int, seeds, threshold: float) -> np.ndarray:
    """Row w: the final counts (a_n, b_n, c_n), as int64, of the heights of
    ``simulate_walk(profile, 0.0, n, seeds[w])`` above, inside and below the
    band |t| <= threshold; over n they equal the last ``occupation_ratios``
    ratios bit for bit.  Steps are finite, so no height is NaN."""
    _require_threshold(threshold)
    counts = np.empty((len(seeds), 3), dtype=np.int64)
    for w, seed in enumerate(seeds):
        t = simulate_walk(profile, 0.0, n, seed).t[1:]
        counts[w, 0] = np.count_nonzero(t > threshold)
        counts[w, 2] = np.count_nonzero(t < -threshold)
    counts[:, 1] = n - counts[:, 0] - counts[:, 2]
    return counts


def arcsine_ensemble(profile: StepProfile, n: int, num_walks: int,
                     eps_list, seed: int) -> list[ArcsinePoint]:
    """Fraction of walks whose final a_n/n exceeds 1 - eps, per eps.

    Only zero-mean profiles qualify (the mean is taken over the float step
    values, summed exactly).  The limiting frequency is (2/pi) asin(sqrt(eps)).
    Walks use spawned per-walk substreams, so ensembles are reproducible and
    order-independent; each a_n comes from :func:`final_counts` at threshold 0.
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
    seeds = np.random.SeedSequence(seed).spawn(num_walks)
    final_frac = final_counts(profile, n, seeds, 0.0)[:, 0] / n
    out = []
    for eps in eps_list:
        emp = float(np.count_nonzero(final_frac > 1.0 - eps) / num_walks)
        theo = (2.0 / math.pi) * math.asin(math.sqrt(eps))
        out.append(ArcsinePoint(eps=float(eps), empirical=emp, theoretical=theo))
    return out


def circle_equidistribution(trace: WalkTrace, modulus: float,
                            bins: int) -> CircleWalkReport:
    """Max deviation of the empirical CDF of (t_i/L mod 1) from uniform."""
    if not modulus > 0.0:
        raise PreconditionError("modulus must be positive")
    if bins < 2:
        raise PreconditionError("need at least 2 bins")
    if trace.t.size == 0:
        raise PreconditionError("empty trace")
    if not np.isfinite(trace.t).all():
        raise PreconditionError("trace contains non-finite entries")
    tau = _mod1(trace.t / modulus)
    tau.sort()
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
    """The fractional-linear orbit from height p0.y, recorded as t(y_i).

    In t = log(y/(1-y)) every Moebius fiber is the translation t -> t + c,
    and a step profile reads c off the base digit.  The digits are i.i.d.
    from ``seed``: the orbit over a Lebesgue-typical angle.  p0.x is not read:
    a float angle runs out of digits after 53 bits, and the fixed angle x = 0
    would drift by values[0] every step.  The result is the walk of
    :func:`simulate_walk` from t(p0.y), with t carried exactly: it never
    meets the rounding of 1 - y.
    """
    if sys.family.kind != FRACTIONAL_LINEAR:
        raise WrongFamilyError("walk extraction needs a fractional-linear system")
    profile = _require_step(sys.family.profile)
    if not 0.0 < p0.y < 1.0:
        raise DomainError("walk extraction needs an interior starting height")
    if n < 0:
        raise PreconditionError("walk length must be >= 0")
    return simulate_walk(profile, poincare_coord(p0.y), n, seed)


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
