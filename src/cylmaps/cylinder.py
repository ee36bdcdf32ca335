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

Angles live in [0, 1) and are reduced mod 1; the base map and its digit
streams live in :mod:`cylmaps.base`.  All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .base import _mod1, advance, advance_rows, circle_distance, is_periodic_angle
from .errors import DomainError, PreconditionError, WrongFamilyError, _require_count, _require_seed
from .fiber import (
    KAN,
    FiberFamily,
    StepProfile,
    _KERNELS,
    _apply_fiber,
    eval_fiber,
    invert_fiber,
)

#: most parts each open column search is cut into per classifier call; the
#: search over n + 1 answers takes ceil(log_SECTIONS(n + 1)) calls
_SECTIONS = 12

#: a classifier block steps up to _BLOCK_ROUNDS rounds before it tests for
#: hits, and at most _BLOCK_ELEMENTS // live rounds (at least one) for live
#: undecided points, which bounds the block's rounds x live arrays
_BLOCK_ROUNDS = 32
_BLOCK_ELEMENTS = 2048 * _BLOCK_ROUNDS

#: finest separator ladder 2^-L: rung numerators j < 2^53 are exact floats
_MAX_LADDER_DEPTH = 53

#: the marked-angle check samples (angles, heights) around each marked
#: angle and lists at most _MAX_LISTED of its failing samples
_HYPOTHESIS_GRID = (33, 17)
_MAX_LISTED = 50


def _csv(header: str, rows) -> str:
    """An artifact table: the header, then one comma-joined line per row,
    each line ending in a newline.  Values are written with str, which
    gives a float's round-trip repr and a numpy scalar's plain number."""
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


@dataclass(frozen=True)
class CylinderSystem:
    """Base multiplier k plus the fiber family; the cylinder map F."""

    k: int
    family: FiberFamily

    def __post_init__(self):
        _require_count(self.k, "base multiplier k", 2)
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


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def step(sys: CylinderSystem, p: CylPoint) -> CylPoint:
    """One application of F. Boundary rows stay on boundary rows exactly."""
    return CylPoint(advance(sys.k, p.x), eval_fiber(sys.family, p.x, p.y))


def orbit(sys: CylinderSystem, p0: CylPoint, n: int) -> list[CylPoint]:
    """The n+1 points p0, F(p0), ..., F^n(p0)."""
    _require_count(n, "orbit length")
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
    _require_count(n, "orbit length")
    pts = [p0]
    x, y = p0.x, p0.y
    for _ in range(n):
        pre = [(x + j) / sys.k for j in range(sys.k)]
        x = min(pre, key=lambda u: (circle_distance(u, x_star), u))
        y = invert_fiber(sys.family, x, y)
        pts.append(CylPoint(x, y))
    return pts


# ---------------------------------------------------------------------------
# the marked-angle hypothesis
# ---------------------------------------------------------------------------

def check_kan_hypothesis(sys: CylinderSystem, x_minus: float, x_plus: float,
                         radius: float, period: int = 1) -> HypothesisReport:
    """Grid check that fibers push down near x_minus and up near x_plus.

    Samples _HYPOTHESIS_GRID angles within +-radius of each marked angle
    times interior heights; passes iff the period-fold fiber map satisfies
    f(y) < y throughout the x_minus neighborhood and f(y) > y throughout
    the x_plus neighborhood.  The first _MAX_LISTED failing samples are
    listed.
    """
    if not 0.0 < radius < np.inf:
        raise PreconditionError("radius must be positive and finite")
    _require_count(period, "period", 1)
    for label, xm in (("x_minus", x_minus), ("x_plus", x_plus)):
        if not is_periodic_angle(sys.k, xm, period):
            raise PreconditionError(
                f"{label}={xm} is not periodic with period {period} under multiplication by {sys.k}")
    nx, ny = _HYPOTHESIS_GRID
    offsets = np.linspace(-radius, radius, nx)
    # sample order: x_minus then x_plus, angle offset, then height
    angles = _mod1(np.array([[x_minus], [x_plus]]) + offsets)
    shape = (2, nx, ny)
    x0 = np.broadcast_to(angles[:, :, None], shape).ravel()
    y0 = np.broadcast_to((np.arange(ny) + 1.0) / (ny + 1.0), shape).ravel()
    x, y = x0, y0
    for _ in range(period):
        y = _apply_fiber(sys.family, x, y)
        x = advance(sys.k, x)
    down = np.repeat([True, False], nx * ny)  # x_minus must push down
    bad = np.flatnonzero(np.where(down, y >= y0, y <= y0))
    violations = tuple(("x_minus" if down[i] else "x_plus", float(x0[i]), float(y0[i]),
                        float(y[i])) for i in bad[:_MAX_LISTED])
    return HypothesisReport(passed=not bad.size, checked=y.size, violations=violations)


# ---------------------------------------------------------------------------
# basin classification
# ---------------------------------------------------------------------------

def _check_classification(sys: CylinderSystem, n_max: int, delta: float) -> None:
    """The refusals of :func:`classify_points`, for callers that must raise
    them before doing any work of their own."""
    if not 0.0 < delta < 0.5 or 1.0 - delta == 1.0:
        raise PreconditionError(f"delta must lie in (0, 0.5) with 1 - delta < 1, got {delta}")
    _require_count(n_max, "iteration budget")
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
        x = advance_rows(sys.k, x, X)
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
                    # keep the live angles in order and renumber col to them
                    alive = np.zeros(x.size, dtype=bool)
                    alive[col] = True
                    col = (np.cumsum(alive) - 1)[col]
                    x = x[alive]
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

    Each level is one classifier call that classifies each distinct probe
    point once.  The search keeps L = ceil(log_SECTIONS(n + 1)) levels and
    cuts every open search into the fewest parts s with s^L >= n + 1, which
    closes the n + 1 possible answers of a search in L levels: L calls of
    at most 2 * (s - 1) points a column (s = 9 for 512 heights, 11 for the
    separator's 1,023 rungs).  Each answer below n read the class sought
    and the index below each answer above 0 did not, so answers rest on
    classified heights; they equal a scan of every height when the classes
    are monotone in y.
    classify_points is looked up through this module at call time.
    """
    lo = np.zeros((2, xs.size), dtype=np.int64)
    hi = np.full((2, xs.size), n, dtype=np.int64)
    levels = 1
    while _SECTIONS ** levels <= n:
        levels += 1
    sections = 2
    while sections ** levels <= n:
        sections += 1
    part = np.arange(1, sections)
    while (lo < hi).any():
        search, col = np.nonzero(lo < hi)
        below, above = lo[search, col], hi[search, col]
        probe = below[:, None] + (above - below)[:, None] * part // sections
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

def _check_separator(sys: CylinderSystem, n_max: int, delta: float, tol: float) -> None:
    """The refusals of :func:`estimate_separator_batch`, raised before any work."""
    if sys.family.kind != KAN:
        raise WrongFamilyError("separator estimation applies to the quadratic (negative-curvature) family")
    if not tol > 0.0:
        raise PreconditionError("bracket tolerance must be positive")
    _check_classification(sys, n_max, delta)


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
    _check_separator(sys, n_max, delta, tol)
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
    _require_count(num_angles, "angle count")
    _require_seed(seed)
    _check_separator(sys, n_max, delta, tol)
    xs = np.random.default_rng(seed).uniform(0.0, 1.0, num_angles)
    both = estimate_separator_batch(sys, np.concatenate([xs, advance(sys.k, xs)]),
                                    n_max, delta, tol)
    at_x, at_kx = both[:num_angles], both[num_angles:]
    pairs = [(sx, skx) for sx, skx in zip(at_x, at_kx) if sx.decided and skx.decided]
    good = sum(abs(skx.sigma - eval_fiber(sys.family, sx.x, sx.sigma)) < 1e-2
               for sx, skx in pairs)
    return at_x, good, len(pairs)


def separator_csv(samples: list[SeparatorSample]) -> str:
    """CSV rows (x, sigma, bracket, decided) under a single header line."""
    return _csv("x,sigma,bracket,decided",
                ((s.x, s.sigma, s.bracket, int(s.decided)) for s in samples))
