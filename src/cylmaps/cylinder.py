"""Skew products on the cylinder (R/Z) x [0, 1].

The map is F(x, y) = (k*x mod 1, f_x(y)) for an integer base multiplier
k >= 2 and a fiber family from :mod:`cylmaps.fiber`.  Both boundary circles
{y = 0} and {y = 1} are invariant; this module provides forward orbits,
backward orbits steered toward a marked angle, the push/pull hypothesis
check near marked periodic angles, first-hitting classification of points
into the two boundary basins, and bisection estimates of the fiberwise
separator height sigma(x).

Angles live in [0, 1) and are reduced mod 1.  All operations are pure;
the vectorized classifiers write only into caller-disjoint slots, so they
are safe to run concurrently over grid chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DomainError, PreconditionError, WrongFamilyError
from .fiber import (
    FRACTIONAL_LINEAR,
    KAN,
    FiberFamily,
    StepProfile,
    _apply_fiber,
    eval_fiber,
    invert_fiber,
)

#: angles are accepted as periodic/fixed when k^p * x returns this close
_FIXED_ANGLE_TOL = 1e-9

#: float orbits of x -> k*x mod 1 degenerate after about this many steps
EXACT_ORBIT_PREFIX = 50


@dataclass(frozen=True)
class CylinderSystem:
    """Base multiplier k plus the fiber family; the cylinder map F."""

    k: int
    family: FiberFamily

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 2:
            raise PreconditionError(f"base multiplier k must be an integer >= 2, got {self.k}")
        prof = self.family.profile
        if self.family.kind == FRACTIONAL_LINEAR and isinstance(prof, StepProfile):
            if prof.k != self.k:
                raise PreconditionError(
                    f"step profile has {prof.k} values but the base multiplier is {self.k}")


@dataclass(frozen=True)
class CylPoint:
    x: float
    y: float

    def __post_init__(self):
        if not 0.0 <= self.x < 1.0:
            raise DomainError(f"angle must lie in [0, 1), got {self.x}")
        if not 0.0 <= self.y <= 1.0:
            raise DomainError(f"height must lie in [0, 1], got {self.y}")


class BasinClass(IntEnum):
    BASIN0 = 0
    BASIN1 = 1
    UNDECIDED = 2


@dataclass(frozen=True)
class SeparatorSample:
    """One bisection estimate of the separator height over angle x."""

    x: float
    sigma: float
    bracket: float
    decided: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Result of the marked-angle push/pull check; lists failing samples."""

    passed: bool
    checked: int
    violations: tuple


def circle_distance(u: float, v: float) -> float:
    d = abs(u - v) % 1.0
    return min(d, 1.0 - d)


def is_periodic_angle(k: int, x: float, period: int = 1,
                      tol: float = _FIXED_ANGLE_TOL) -> bool:
    """True when k^period * x returns to x mod 1, up to rounding slack."""
    xx = x
    for _ in range(period):
        xx = (k * xx) % 1.0
    return circle_distance(xx, x) <= tol


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def step(sys: CylinderSystem, p: CylPoint) -> CylPoint:
    """One application of F. Boundary rows stay on boundary rows exactly."""
    return CylPoint((sys.k * p.x) % 1.0, eval_fiber(sys.family, p.x, p.y))


def orbit(sys: CylinderSystem, p0: CylPoint, n: int) -> list[CylPoint]:
    """The n+1 points p0, F(p0), ..., F^n(p0)."""
    if n < 0:
        raise PreconditionError("orbit length must be >= 0")
    pts = [p0]
    for _ in range(n):
        pts.append(step(sys, pts[-1]))
    return pts


def backward_orbit_toward(sys: CylinderSystem, p0: CylPoint, x_star: float,
                          n: int) -> list[CylPoint]:
    """Backward orbit whose angle preimage is always the one closest to x_star.

    x_star must be fixed under multiplication by k.  Each step replaces the
    angle x by the preimage (x + j)/k minimizing circle distance to x_star
    (ties resolve to the smaller representative) and pulls the height back
    through the fiber inverse.  The returned list has n+1 entries, ending at
    the deepest preimage.
    """
    if not is_periodic_angle(sys.k, x_star, period=1):
        raise PreconditionError(f"x_star={x_star} is not fixed under multiplication by {sys.k}")
    if not 0.0 < p0.y < 1.0:
        raise DomainError("backward orbits need an interior starting height")
    pts = [p0]
    x, y = p0.x, p0.y
    for _ in range(n):
        pre = [(x + j) / sys.k for j in range(sys.k)]
        x = min(pre, key=lambda u: (circle_distance(u, x_star), u))
        y = invert_fiber(sys.family, x, y)
        pts.append(CylPoint(x, y))
    return pts


def canonical_fixed_angle(k: int) -> float:
    """The marked repelling angle used by the quadratic examples:
    1/2 for odd k, k/(2k-2) for even k >= 4; always inside [1/3, 2/3]."""
    if k < 3:
        raise PreconditionError(f"canonical fixed angle needs k >= 3, got {k}")
    if k % 2 == 1:
        return 0.5
    return k / (2.0 * k - 2.0)


# ---------------------------------------------------------------------------
# the marked-angle hypothesis
# ---------------------------------------------------------------------------

def check_kan_hypothesis(sys: CylinderSystem, x_minus: float, x_plus: float,
                         radius: float, grid: tuple = (33, 17),
                         period: int = 1, max_listed: int = 50) -> HypothesisReport:
    """Grid check that fibers push down near x_minus and up near x_plus.

    Samples angles within +-radius of each marked angle and interior heights;
    passes iff the period-fold fiber map satisfies f(y) < y throughout the
    x_minus neighborhood and f(y) > y throughout the x_plus neighborhood.
    """
    if radius <= 0.0:
        raise PreconditionError("radius must be positive")
    if period < 1:
        raise PreconditionError("period must be >= 1")
    for label, xm in (("x_minus", x_minus), ("x_plus", x_plus)):
        if not is_periodic_angle(sys.k, xm, period):
            raise PreconditionError(
                f"{label}={xm} is not periodic with period {period} under multiplication by {sys.k}")
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise PreconditionError("grid counts must be >= 1")
    ys = [(j + 1.0) / (ny + 1.0) for j in range(ny)]
    violations = []
    checked = 0
    for center, want_down in ((x_minus, True), (x_plus, False)):
        offsets = np.linspace(-radius, radius, nx) if nx > 1 else np.array([0.0])
        for dx in offsets:
            x = (center + float(dx)) % 1.0
            for y in ys:
                fy = orbit(sys, CylPoint(x % 1.0, y), period)[-1].y
                checked += 1
                bad = (fy >= y) if want_down else (fy <= y)
                if bad and len(violations) < max_listed:
                    side = "x_minus" if want_down else "x_plus"
                    violations.append((side, x, y, fy))
                elif bad:
                    violations.append(None)  # counted, not listed
    listed = tuple(v for v in violations if v is not None)
    return HypothesisReport(passed=not violations, checked=checked, violations=listed)


# ---------------------------------------------------------------------------
# basin classification
# ---------------------------------------------------------------------------

def classify_points(sys: CylinderSystem, xs, ys, n_max: int,
                    delta: float) -> np.ndarray:
    """First-hitting classification of many points at once.

    Returns an int8 array of BasinClass values.  A point is Basin0 the first
    time its height drops below delta, Basin1 the first time it exceeds
    1 - delta, Undecided when the budget n_max runs out first.  Heights that
    are exactly 0 or 1 classify immediately.
    """
    if not 0.0 < delta < 0.5:
        raise PreconditionError(f"delta must lie in (0, 0.5), got {delta}")
    if n_max < 0:
        raise PreconditionError("iteration budget must be >= 0")
    x = np.array(xs, dtype=float).ravel()
    y = np.array(ys, dtype=float).ravel()
    if x.shape != y.shape:
        raise PreconditionError("xs and ys must have matching shapes")
    out = np.full(x.shape, BasinClass.UNDECIDED, dtype=np.int8)
    out[y < delta] = BasinClass.BASIN0
    out[y > 1.0 - delta] = BasinClass.BASIN1
    active = out == BasinClass.UNDECIDED
    for _ in range(n_max):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        xa, ya = x[idx], y[idx]
        ya = _apply_fiber(sys.family, xa, ya)
        xa = (sys.k * xa) % 1.0
        x[idx], y[idx] = xa, ya
        hit0 = ya < delta
        hit1 = ya > 1.0 - delta
        out[idx[hit0]] = BasinClass.BASIN0
        out[idx[hit1]] = BasinClass.BASIN1
        active[idx[hit0 | hit1]] = False
    return out


def classify_point(sys: CylinderSystem, p: CylPoint, n_max: int,
                   delta: float) -> BasinClass:
    """Scalar wrapper around :func:`classify_points` (identical arithmetic)."""
    return BasinClass(int(classify_points(sys, [p.x], [p.y], n_max, delta)[0]))


# ---------------------------------------------------------------------------
# separator estimation
# ---------------------------------------------------------------------------

def estimate_separator_batch(sys: CylinderSystem, xs, n_max: int, delta: float,
                             tol: float) -> list[SeparatorSample]:
    """Bisection estimates of sigma(x) for a batch of angles.

    Maintains per-angle brackets [lo, hi] with lo classified Basin0 and hi
    Basin1, seeded from the trivial bracket [0, 1] sharpened by probes at
    delta and 1 - delta.  Any Undecided classification flags the sample
    (decided=False) instead of guessing.
    """
    if sys.family.kind != KAN:
        raise WrongFamilyError("separator estimation applies to the quadratic (negative-curvature) family")
    if tol <= 0.0:
        raise PreconditionError("bracket tolerance must be positive")
    xs = np.array(xs, dtype=float).ravel()
    m = xs.size
    lo = np.zeros(m)
    hi = np.ones(m)
    decided = np.ones(m, dtype=bool)
    for probe in (delta, 1.0 - delta):
        cls = classify_points(sys, xs, np.full(m, probe), n_max, delta)
        lo[(cls == BasinClass.BASIN0) & (probe > lo)] = probe
        hi[(cls == BasinClass.BASIN1) & (probe < hi)] = probe
    active = (hi - lo) > tol
    while active.any():
        mid = 0.5 * (lo + hi)
        idx = np.flatnonzero(active)
        cls = classify_points(sys, xs[idx], mid[idx], n_max, delta)
        sel0 = idx[cls == BasinClass.BASIN0]
        sel1 = idx[cls == BasinClass.BASIN1]
        dead = idx[cls == BasinClass.UNDECIDED]
        lo[sel0] = mid[sel0]
        hi[sel1] = mid[sel1]
        decided[dead] = False
        active[dead] = False
        active[(hi - lo) <= tol] = False
    return [
        SeparatorSample(x=float(xs[i]), sigma=float(0.5 * (lo[i] + hi[i])),
                        bracket=float(hi[i] - lo[i]), decided=bool(decided[i]))
        for i in range(m)
    ]


def estimate_separator(sys: CylinderSystem, x: float, n_max: int, delta: float,
                       tol: float) -> SeparatorSample:
    return estimate_separator_batch(sys, [x], n_max, delta, tol)[0]


def separator_sweep(sys: CylinderSystem, num_angles: int, n_max: int, delta: float,
                    tol: float, seed: int) -> tuple[list[SeparatorSample], int, int]:
    """Separator estimates at seeded uniform angles x, checked at k*x mod 1.

    Returns (samples at x, good, pairs): of the pairs of angles decided at
    both x and k*x, good satisfy the pushforward functional equation
    sigma(kx) = f_x(sigma(x)) within 1e-2.
    """
    xs = np.random.default_rng(seed).uniform(0.0, 1.0, num_angles)
    at_x = estimate_separator_batch(sys, xs, n_max, delta, tol)
    at_kx = estimate_separator_batch(sys, (sys.k * xs) % 1.0, n_max, delta, tol)
    pairs = [(sx, skx) for sx, skx in zip(at_x, at_kx) if sx.decided and skx.decided]
    good = sum(abs(skx.sigma - eval_fiber(sys.family, sx.x, sx.sigma)) < 1e-2
               for sx, skx in pairs)
    return at_x, good, len(pairs)


def separator_csv(samples: list[SeparatorSample]) -> str:
    """CSV rows (x, sigma, bracket, decided) under a single header line."""
    lines = ["x,sigma,bracket,decided"]
    lines += [f"{s.x!r},{s.sigma!r},{s.bracket!r},{int(s.decided)}" for s in samples]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# base-orbit angles for long time averages
# ---------------------------------------------------------------------------

def base_orbit_angles(k: int, x0: float, n: int, seed=None) -> np.ndarray:
    """Driving angles x_0 .. x_{n-1} for a length-n orbit segment.

    Binary floating point cannot follow x -> k*x mod 1 for long: the orbit
    collapses onto k-adic artifacts after roughly 50 steps.  The first
    EXACT_ORBIT_PREFIX angles therefore come from the float map and the rest
    are drawn i.i.d. uniform, which has the same distribution for time
    averages of integrable observables.  Angles x0 that the float map fixes
    exactly are kept constant for all n (deliberate exceptional orbits).

    The default seed is derived from the bits of x0, so results are
    reproducible without an explicit seed.
    """
    if n < 0:
        raise PreconditionError("orbit length must be >= 0")
    x0 = x0 % 1.0
    out = np.empty(n, dtype=float)
    if n == 0:
        return out
    if (k * x0) % 1.0 == x0:
        out.fill(x0)
        return out
    m = min(n, EXACT_ORBIT_PREFIX)
    x = x0
    for i in range(m):
        out[i] = x
        x = (k * x) % 1.0
    if n > m:
        if seed is None:
            seed = int(np.float64(x0).view(np.uint64))
        rng = np.random.default_rng(seed)
        out[m:] = rng.uniform(0.0, 1.0, n - m)
    return out
