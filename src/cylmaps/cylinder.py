"""Skew products on the cylinder (R/Z) x [0, 1].

The map is F(x, y) = (k*x mod 1, f_x(y)) for an integer base multiplier
k >= 2 and a fiber family from :mod:`cylmaps.fiber`.  Both boundary circles
{y = 0} and {y = 1} are invariant; this module provides forward orbits,
backward orbits steered toward a marked angle, the push/pull hypothesis
check near marked periodic angles, first-hitting classification of points
into the two boundary basins (the points over one angle share its base
orbit, and every batch runs blocks of rounds between hit tests), the
column search that finds where a column {x} x [0, 1] changes class, and
estimates of the fiberwise separator height sigma(x) by that search on a
dyadic ladder of heights, each bracket made of two classified heights.

Angles live in [0, 1) and are reduced mod 1.  All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DomainError, PreconditionError, WrongFamilyError
from .fiber import (
    KAN,
    FiberFamily,
    StepProfile,
    _KERNELS,
    _apply_fiber,
    eval_fiber,
    invert_fiber,
)

#: angles are accepted as periodic/fixed when k^p * x returns this close
_FIXED_ANGLE_TOL = 1e-9

#: float orbits of x -> k*x mod 1 degenerate after about this many steps
EXACT_ORBIT_PREFIX = 50

#: parts each open column search is cut into per classifier call
_SECTIONS = 12

#: a classifier block steps up to _BLOCK_ROUNDS rounds before it tests for
#: hits, and at most _BLOCK_ELEMENTS // live rounds (at least one) for live
#: undecided points, which bounds the block's rounds x live arrays
_BLOCK_ROUNDS = 32
_BLOCK_ELEMENTS = 2048 * _BLOCK_ROUNDS

#: finest separator ladder 2^-L: rung numerators j < 2^53 are exact floats
_MAX_LADDER_DEPTH = 53


def _require_multiplier(k) -> None:
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise PreconditionError(f"base multiplier k must be an integer >= 2, got {k}")


@dataclass(frozen=True)
class CylinderSystem:
    """Base multiplier k plus the fiber family; the cylinder map F."""

    k: int
    family: FiberFamily

    def __post_init__(self):
        _require_multiplier(self.k)
        prof = self.family.profile
        if isinstance(prof, StepProfile) and prof.k != self.k:
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
    """One estimate of the separator height over angle x: the bracket
    [lo, hi], whose ends the classifier put in Basin0 and Basin1; decided
    when no undecided height was found between them and hi - lo <= tol.

    The search of a column stops at the first level at which one of its
    rungs reads Undecided, so an undecided sample's bracket is the one it
    had then: its ends still read Basin0 and Basin1 (or are the ends
    nextafter(delta, 0) and nextafter(1 - delta, 1)), but it can be wider
    than the bracket a full search would find."""

    x: float
    lo: float
    hi: float
    decided: bool

    @property
    def sigma(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def bracket(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class HypothesisReport:
    """Result of the marked-angle push/pull check; lists failing samples."""

    passed: bool
    checked: int
    violations: tuple


def _mod1(v: np.ndarray) -> np.ndarray:
    """v mod 1, in place on a float array the caller owns.  v - floor(v) rounds
    the same exact real as numpy's remainder(v, 1.0), so the two agree bit for
    bit (a zero comes out +0.0; NaN and +-inf give NaN)."""
    v -= np.floor(v)
    return v


def circle_distance(u: float, v: float) -> float:
    d = abs(u - v) % 1.0
    return min(d, 1.0 - d)


def is_periodic_angle(k: int, x: float, period: int = 1) -> bool:
    """True when k^period * x returns to x mod 1, up to rounding slack."""
    xx = x
    for _ in range(period):
        xx = (k * xx) % 1.0
    return circle_distance(xx, x) <= _FIXED_ANGLE_TOL


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
    if n < 0:
        raise PreconditionError("orbit length must be >= 0")
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
    if not 0.0 < radius < np.inf:
        raise PreconditionError("radius must be positive and finite")
    if period < 1:
        raise PreconditionError("period must be >= 1")
    for label, xm in (("x_minus", x_minus), ("x_plus", x_plus)):
        if not is_periodic_angle(sys.k, xm, period):
            raise PreconditionError(
                f"{label}={xm} is not periodic with period {period} under multiplication by {sys.k}")
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise PreconditionError("grid counts must be >= 1")
    offsets = np.linspace(-radius, radius, nx) if nx > 1 else np.zeros(1)
    # sample order: x_minus then x_plus, angle offset, then height
    angles = _mod1(np.array([[x_minus], [x_plus]]) + offsets)
    shape = (2, nx, ny)
    x0 = np.broadcast_to(angles[:, :, None], shape).ravel()
    y0 = np.broadcast_to((np.arange(ny) + 1.0) / (ny + 1.0), shape).ravel()
    x, y = x0, y0
    for _ in range(period):
        y = _apply_fiber(sys.family, x, y)
        x = _mod1(sys.k * x)
    down = np.repeat([True, False], nx * ny)  # x_minus must push down
    bad = np.flatnonzero(np.where(down, y >= y0, y <= y0))
    violations = tuple(("x_minus" if down[i] else "x_plus", float(x0[i]), float(y0[i]),
                        float(y[i])) for i in bad[:max(max_listed, 0)])
    return HypothesisReport(passed=not bad.size, checked=y.size, violations=violations)


# ---------------------------------------------------------------------------
# basin classification
# ---------------------------------------------------------------------------

def _check_classification(sys: CylinderSystem, n_max: int, delta: float) -> None:
    """The refusals of :func:`classify_points`, for callers that must raise
    them before doing any work of their own."""
    if not 0.0 < delta < 0.5 or 1.0 - delta == 1.0:
        raise PreconditionError(f"delta must lie in (0, 0.5) with 1 - delta < 1, got {delta}")
    if n_max < 0:
        raise PreconditionError("iteration budget must be >= 0")
    if sys.k % 2 == 0:
        raise PreconditionError(
            f"classification needs an odd base multiplier k, got {sys.k}")


def classify_points(sys: CylinderSystem, xs, ys, n_max: int,
                    delta: float) -> np.ndarray:
    """First-hitting classification of many points at once.

    Returns an int8 array of BasinClass values.  A point is Basin0 the first
    time its height drops below delta, Basin1 the first time it exceeds
    1 - delta, Undecided when the budget n_max runs out first.  Heights that
    are exactly 0 or 1 classify immediately.

    The rounds run in blocks: min(_BLOCK_ROUNDS, _BLOCK_ELEMENTS // live)
    rounds, at least one, for live undecided points, cut at n_max.  A block
    steps the distinct angles of the undecided points once a round, in
    place as k*x - floor(k*x), which is k*x mod 1 bit for bit, into one row
    a round; computes the coefficients of all its rows in one call and
    gathers them to the points that share each angle (nothing is gathered
    when no angle repeats); steps the heights row by row with the family's
    in-place step kernel, which rounds as its apply kernel does; and then
    reads each point's class at its first hitting round, discards its steps
    past that round, and drops the decided points.  Every point meets the
    same coefficients, bit for bit and in the same order, as it would alone
    (0.0 and -0.0 give the same ones), so a point's class does not depend
    on the other points in the batch, and callers may classify any union of
    questions in one call.  xs and ys are copied first and never written.
    Angles and heights must be finite.

    Even k is refused: the float base orbit k*x mod 1 then sheds low bits each
    step and collapses onto x = 0, whose fiber alone would decide every class.
    """
    _check_classification(sys, n_max, delta)
    x = np.array(xs, dtype=float).ravel()
    y = np.array(ys, dtype=float).ravel()
    if x.shape != y.shape:
        raise PreconditionError("xs and ys must have matching shapes")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise PreconditionError("angles and heights must be finite")
    out = np.full(x.shape, BasinClass.UNDECIDED, dtype=np.int8)
    out[y < delta] = BasinClass.BASIN0
    out[y > 1.0 - delta] = BasinClass.BASIN1
    # the undecided points only, as (slot in out, angle, height); when angles
    # repeat, x holds each distinct angle once and point i reads x[col[i]].
    # Batches of distinct angles (probe samples, random points) skip the
    # gather: through an identity col they give the same bits, but 400,000
    # distinct Kan points (k 3, n_max 300) took 3.0-3.2 s of CPU against
    # 2.5-2.6 s without it, on a 2-core Xeon host
    idx = np.flatnonzero(out == BasinClass.UNDECIDED)
    x, y = x[idx], y[idx]
    shared = bool((np.diff(np.sort(x)) == 0.0).any())
    if shared:
        x, col = np.unique(x, return_inverse=True)
    kernels = _KERNELS[sys.family.kind]
    coef, fibre_step = kernels["coef"], kernels["step"]
    # weights of the block's rounds r = 0, 1, ...: 2 * (rounds - r) - 1
    weights = np.arange(2 * _BLOCK_ROUNDS - 1, 0, -2, dtype=np.uint8)[:, None]
    done = 0
    while idx.size and done < n_max:
        rounds = min(_BLOCK_ROUNDS, max(1, _BLOCK_ELEMENTS // idx.size), n_max - done)
        done += rounds
        # row r of X holds the angles of round r: k*x - floor(k*x), stepped
        # in place, and x goes on to the next block's first round
        X = np.empty((rounds, x.size))
        X[0] = x
        for r in range(1, rounds):
            _mod1(np.multiply(X[r - 1], sys.k, out=X[r]))
        x = _mod1(X[-1] * sys.k)
        H = coef(sys.family.displacement(X))
        if shared:
            H = H.take(col, axis=1)
        # row r of H becomes the heights after round r.  Rows past the first
        # can follow a point's first hit: those heights are never read, and
        # they may leave [0, 1] (an inverse-Kan height above 1 meets a
        # negative radicand)
        y = fibre_step(H[0], y)
        if rounds > 1:
            with np.errstate(invalid="ignore"):
                for r in range(1, rounds):
                    y = fibre_step(H[r], y)
        hit0 = np.less(H, delta).view(np.uint8)
        code = np.greater(H, 1.0 - delta).view(np.uint8)
        code |= hit0
        if code.any():  # a block that decides no point compacts nothing
            # a point's code is the largest weight of its hitting rounds,
            # plus 1 for a Basin0 hit: its first hit, whose parity is its class
            code *= weights[-rounds:]
            code += hit0
            code = code.max(axis=0)
            decided = code > 0
            out[idx[decided]] = code[decided] & 1
            keep = ~decided
            # one array at a time, so that each freed block of 8-byte items
            # can take the next: the heap then does not grow from op to op
            idx = idx[keep]
            y = y[keep]
            if shared:
                col = col[keep]
                if 2 * col.size < x.size:  # most angles have no point left
                    live, col = np.unique(col, return_inverse=True)
                    x = x[live]
            else:
                x = x[keep]
    return out


def classify_point(sys: CylinderSystem, p: CylPoint, n_max: int,
                   delta: float) -> BasinClass:
    """Scalar wrapper around :func:`classify_points` (identical arithmetic)."""
    return BasinClass(int(classify_points(sys, [p.x], [p.y], n_max, delta)[0]))


def _column_thresholds(sys: CylinderSystem, xs: np.ndarray, height_at, n: int,
                       n_max: int, delta: float,
                       stop_at_undecided: bool = False) -> np.ndarray:
    """First index of each column {xs[i]} x [0, 1], over the increasing
    heights height_at(0 .. n - 1), that is not Basin0 (row 0) and that is
    Basin1 (row 1), or n where there is none.

    With stop_at_undecided, both searches of a column stop at the level
    where one of its probes reads Undecided, at the ends they have reached:
    row 0 one past an index read Basin0 (or 0), row 1 an index read Basin1
    (or n).

    Each level cuts every open search into _SECTIONS parts with one
    classifier call that classifies each distinct probe point once: at most
    ceil(log_SECTIONS(n + 1)) calls of 2 * (_SECTIONS - 1) points a column.
    Each answer below n read the class sought and the index below each
    answer above 0 did not, so answers rest on classified heights; they
    equal a scan of every height when the classes are monotone in y.
    classify_points is looked up through this module at call time.
    """
    lo = np.zeros((2, xs.size), dtype=np.int64)
    hi = np.full((2, xs.size), n, dtype=np.int64)
    part = np.arange(1, _SECTIONS)
    while (lo < hi).any():
        search, col = np.nonzero(lo < hi)
        below, above = lo[search, col], hi[search, col]
        probe = below[:, None] + (above - below)[:, None] * part // _SECTIONS
        # one complex point x + iy per probe: unique keeps each distinct point once
        point, seen = np.unique(xs[col, None] + 1j * height_at(probe), return_inverse=True)
        cls = classify_points(sys, point.real, point.imag, n_max, delta)[seen].reshape(probe.shape)
        found = np.where(search[:, None] == 0, cls != BasinClass.BASIN0,
                         cls == BasinClass.BASIN1)
        # the probes before the first that finds the answer are passed over
        passed = np.logical_and.accumulate(~found, axis=1).sum(axis=1)
        ends = np.column_stack([below - 1, probe, above])
        rows = np.arange(search.size)
        lo[search, col] = ends[rows, passed] + 1
        hi[search, col] = ends[rows, passed + 1]
        if stop_at_undecided:
            stuck = col[(cls == BasinClass.UNDECIDED).any(axis=1)]
            hi[0, stuck] = lo[0, stuck]
            lo[1, stuck] = hi[1, stuck]
    return lo


# ---------------------------------------------------------------------------
# separator estimation
# ---------------------------------------------------------------------------

def estimate_separator_batch(sys: CylinderSystem, xs, n_max: int, delta: float,
                             tol: float) -> list[SeparatorSample]:
    """Bracket estimates of sigma(x) for a batch of angles.

    Fibers are increasing, so each column {x} x [0, 1] reads Basin0 below
    the classifier's threshold and Basin1 above it.  The column search runs
    on the rungs j / 2^L in [delta, 1 - delta], L = ceil(-log2(tol)) kept in
    [0, _MAX_LADDER_DEPTH], between nextafter(delta, 0) and
    nextafter(1 - delta, 1), which classify at once.  lo is the last Basin0
    rung and hi the first Basin1 rung, so both ends are classified and the
    bracket holds the threshold by construction.  A sample is decided when
    no rung lies between them and hi - lo <= tol.  Once a rung of a column
    reads Undecided, that column's search stops: with classes monotone in
    the height, the undecided rung lies between lo and hi, and the sample
    cannot be decided.
    """
    if sys.family.kind != KAN:
        raise WrongFamilyError("separator estimation applies to the quadratic (negative-curvature) family")
    if not tol > 0.0:
        raise PreconditionError("bracket tolerance must be positive")
    _check_classification(sys, n_max, delta)
    xs = np.array(xs, dtype=float).ravel()
    if not np.isfinite(xs).all():
        raise PreconditionError("angles must be finite")
    scale = 2.0 ** int(np.clip(np.ceil(-np.log2(tol)), 0, _MAX_LADDER_DEPTH))
    first = np.ceil(delta * scale)
    n = int(np.floor((1.0 - delta) * scale) - first) + 1

    def rung(i):
        return (first + i) / scale

    t0, t1 = _column_thresholds(sys, xs, rung, n, n_max, delta, stop_at_undecided=True)
    lo = np.where(t0 > 0, rung(t0 - 1), np.nextafter(delta, 0.0))
    hi = np.where(t1 < n, rung(t1), np.nextafter(1.0 - delta, 1.0))
    decided = (t0 == t1) & (hi - lo <= tol)
    return [SeparatorSample(x=float(xs[i]), lo=float(lo[i]), hi=float(hi[i]),
                            decided=bool(decided[i]))
            for i in range(xs.size)]


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
    both = estimate_separator_batch(sys, np.concatenate([xs, _mod1(sys.k * xs)]),
                                    n_max, delta, tol)
    at_x, at_kx = both[:num_angles], both[num_angles:]
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
    reproducible without an explicit seed.  A non-finite x0 is refused, and
    so is a k that is not an integer >= 2.
    """
    _require_multiplier(k)
    if n < 0:
        raise PreconditionError("orbit length must be >= 0")
    if not np.isfinite(x0):
        raise PreconditionError(f"orbit start angle must be finite, got {x0}")
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
