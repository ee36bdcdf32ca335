"""Boundary random walks of the zero-curvature regime.

With fractional-linear fibers and a step displacement profile, the height
coordinate t(y) = log(y/(1-y)) performs a random walk whose increments are
the profile values indexed by i.i.d. base-k digits.  This module simulates
those walks, computes the occupation ratios above/inside/below a threshold
band, estimates the arcsine-law ensemble frequencies, measures
equidistribution of the walk reduced modulo L, and decides the exact
finite-cyclic-support condition that governs it.

A walk's seed names a stream key (:func:`cylmaps.base._stream_key`),
and its digit i is digit i of that counter-based stream,
:func:`cylmaps.base.digits`; no numpy Generator draws them, so a walk's
bits do not depend on numpy's generator algorithms.  Walks are built in
their output array, and the running ratios are counted in cache-sized
chunks into theirs: no temporary spans the walk.  Where the answer is exact
without a running sum, none is taken: a two-step walk of small integers
reads eight steps per lookup in a byte table, and its final counts, which
the arcsine ensemble reads, come from its digit bytes, a block of walks at
a time, with no height built; a ratio counts only the chunks whose heights
straddle an end of its band, and writes each quotient once.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .base import _digit_bytes, _mod1, _stream_key, digits
from .cylinder import CylinderSystem, _csv
from .errors import DomainError, PreconditionError, WrongFamilyError, _require_count, _require_seed
from .fiber import FRACTIONAL_LINEAR, StepProfile, _translation_orbit, poincare_coord


#: walks take their digits, and the running ratios and final counts read
#: their heights, this many at a time, so that every temporary stays in cache
_CHUNK = 2**15


@dataclass(frozen=True)
class WalkTrace:
    """A realized walk t_0 .. t_n with the step multiset and seed that made it.

    The seed names the digit stream: digit i of the walk is digit i of
    ``base.digits(base._stream_key(seed), 0, n, k)``.
    """

    t: np.ndarray
    steps_used: tuple
    seed: int


def _running_ratio(t: np.ndarray, low: float, high: float, closed: bool) -> np.ndarray:
    """count_i / i for i = 1..n, where count_i counts the heights of t[:i]
    in the interval from low to high, with its finite ends included if
    closed; an infinite end always is, so +-inf heights count on their side.

    A chunk of _CHUNK heights whose [min, max] lies inside the interval
    counts total + 1 .. total + m, and one that does not meet it leaves the
    count at total; only a chunk that straddles an end (or holds a NaN)
    counts its hits.  Every chunk divides by one float index buffer, lo + 1
    .. lo + m, advanced in place, so a chunk that leaves the count at total
    writes its ratios in one pass.  Integer counts and indices are exact,
    so with NaN refused b_n equals n - a_n - c_n and every quotient is
    correctly rounded."""
    above, below = (np.greater_equal, np.less_equal) if closed else (np.greater, np.less)

    def inside(x):
        # an infinite end holds every height that is not NaN, so it is not compared
        if high == math.inf:
            return above(x, low)
        if low == -math.inf:
            return below(x, high)
        return above(x, low) & below(x, high)

    ratio = np.empty(t.size, dtype=float)
    count = np.empty(min(t.size, _CHUNK), dtype=np.int32 if t.size < 2**31 else np.int64)
    ramp = np.arange(1, count.size + 1, dtype=count.dtype)
    index = np.arange(1 - _CHUNK, count.size + 1 - _CHUNK, dtype=float)
    total = 0
    for lo in range(0, t.size, _CHUNK):
        m = min(_CHUNK, t.size - lo)
        index += _CHUNK  # lo + 1 .. lo + _CHUNK, exact
        chunk, c, i, out = t[lo:lo + m], count[:m], index[:m], ratio[lo:lo + m]
        lowest, highest = chunk.min(), chunk.max()  # NaN if the chunk holds one
        if inside(lowest) and inside(highest):  # every height is inside
            np.add(ramp[:m], total, out=c)
        elif lowest == lowest and not (above(highest, low) and below(lowest, high)):
            # no height is inside (all heights on an infinite end took the branch above)
            np.divide(total, i, out=out)
            continue
        else:
            np.cumsum(inside(chunk), out=c)
            c += total
        total = int(c[-1])
        np.divide(c, i, out=out)
    return ratio


@dataclass(frozen=True)
class OccupationStats:
    """Running ratios a_n/n, b_n/n, c_n/n (above, inside, below the band).

    Built as ``OccupationStats(threshold, t)`` from the heights t_1..t_n.
    Each ratio array is counted when it is first read, and kept: a chunk of
    heights wholly inside or wholly outside the ratio's interval adds to
    the count without a running sum.  ``t`` is a view of the trace, so
    writing into ``trace.t`` before a read changes that read.
    """

    threshold: float
    t: np.ndarray

    @cached_property
    def a_over_n(self) -> np.ndarray:
        return _running_ratio(self.t, self.threshold, math.inf, False)

    @cached_property
    def b_over_n(self) -> np.ndarray:
        return _running_ratio(self.t, -self.threshold, self.threshold, True)

    @cached_property
    def c_over_n(self) -> np.ndarray:
        return _running_ratio(self.t, -math.inf, -self.threshold, False)


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
    if profile.k < 2:
        # one value is a base multiplier k = 1: a translation, not a walk
        raise PreconditionError(f"walk simulation needs at least 2 step values, got {profile.k}")
    return profile


def _require_walk_seed(seed) -> None:
    """A walk's seed is None, a non-negative integer or a SeedSequence."""
    if not isinstance(seed, np.random.SeedSequence):
        _require_seed(seed)


def simulate_walk(profile: StepProfile, t0: float, n: int, seed: int) -> WalkTrace:
    """Walk with i.i.d. uniform digits in {0..k-1}; t_{i+1} = t_i + values[digit].

    Deterministic for a fixed seed.  Integer-valued steps produce exactly
    representable t throughout.  At k = 2, with integer steps of at most
    15, an integer start that is not -0.0 and every height within 2^53, the
    walk reads eight steps per byte table lookup, with the bits of the
    step-by-step sum that every other walk takes.  The seed is None, a
    non-negative integer or a SeedSequence, such as the children
    arcsine_ensemble spawns; it names the stream key of the walk's digits
    (see :class:`WalkTrace`).
    """
    profile = _require_step(profile)
    _require_walk_seed(seed)
    if not math.isfinite(t0):
        raise PreconditionError(f"walk start must be finite, got {t0}")
    _require_count(n, "walk length")
    key, t = _stream_key(seed), np.empty(n + 1, dtype=float)
    if _takes_byte_table(profile.values, t0, n):
        _byte_walk(key, t0, _byte_table(*profile.values), t)
    else:
        # the step values are gathered into t[1:] a chunk of digits at a
        # time, and summed there
        values = np.asarray(profile.values, dtype=float)
        for lo in range(0, n, _CHUNK):
            d = digits(key, lo, min(_CHUNK, n - lo), profile.k)
            # mode "wrap" writes out directly ("raise" buffers it); digits < k never wrap
            np.take(values, d, out=t[1 + lo:1 + lo + d.size], mode="wrap")
        _translation_orbit(t0, t)
    return WalkTrace(t=t, steps_used=profile.values, seed=seed)


def _takes_byte_table(values: tuple, t0: float, n: int) -> bool:
    """True when every height of the walk is an exact integer that a byte
    table reaches: two integer steps of at most 15 (eight of them fit an
    int8), an integer start that is not -0.0, and no height beyond 2^53.
    Then any order of summation gives the float recurrence's bits."""
    return (len(values) == 2 and all(v.is_integer() and abs(v) <= 15 for v in values)
            and float(t0).is_integer() and not (t0 == 0.0 and math.copysign(1.0, t0) < 0.0)
            and abs(int(t0)) + n * int(max(map(abs, values))) <= 2**53)


@lru_cache(maxsize=16)
def _byte_table(v0: float, v1: float) -> np.ndarray:
    """Entry b packs, as eight int8 in one uint64, the partial sums of the
    steps v0 (bit 0) and v1 (bit 1) read off bits 0..7 of the byte b."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    partial = np.cumsum(np.where(bits, int(v1), int(v0)), axis=1).astype(np.int8)
    return partial.view(np.uint64).reshape(256)


def _byte_walk(key: int, t0: float, table: np.ndarray, t: np.ndarray) -> None:
    """The k = 2 walk t_0 = t0 .. t_n of stream ``key`` in place in t, eight
    steps a table read: digit i is bit i % 8 of byte i // 8 of the stream
    (:func:`cylmaps.base._digit_bytes`), so chunk lo starts at byte lo // 8
    (_CHUNK is a multiple of 8).  A chunk's bytes start from the exclusive
    sums of the byte totals, and each height is its byte's start plus its
    partial sum."""
    t[0] = t0
    n = t.size - 1
    for lo in range(0, n, _CHUNK):
        m = min(_CHUNK, n - lo)
        data = _digit_bytes(key, lo // 8, -(-(lo + m) // 8))
        partial = np.take(table, data).view(np.int8).reshape(-1, 8)
        start = np.empty(data.size, dtype=float)
        start[0] = t[lo]
        start[1:] = partial[:-1, 7]
        np.cumsum(start, out=start)
        heights = t[1 + lo:1 + lo + m]
        heights[:] = partial.reshape(-1)[:m]  # a cast copy, then a float add, beats a mixed add
        np.add(heights, np.repeat(start, 8)[:m], out=heights)


def occupation_ratios(trace: WalkTrace, threshold: float) -> OccupationStats:
    """Counts over i = 1..n of t_i > N (a), |t_i| <= N (b), t_i < -N (c).

    The gates run here.  The result is ``OccupationStats(threshold, t)``
    with ``t`` a view of ``trace.t[1:]``: each ratio array is counted when
    it is first read, so writing into the trace before a read changes it.
    """
    _require_threshold(threshold)
    tt = trace.t[1:]
    if tt.size and np.isnan(tt.min()):  # min propagates NaN
        raise PreconditionError("trace contains NaN")
    return OccupationStats(threshold, tt)


def _require_threshold(threshold: float) -> None:
    if not threshold >= 0.0:
        raise PreconditionError("threshold must be >= 0")


def final_counts(profile: StepProfile, n: int, seeds, threshold: float) -> np.ndarray:
    """Row w: the final counts (a_n, b_n, c_n), as int64, of the heights of
    ``simulate_walk(profile, 0.0, n, seeds[w])`` above, inside and below the
    band |t| <= threshold; over n they equal the last ``occupation_ratios``
    ratios bit for bit.  Steps are finite, so no height is NaN.

    The profile, n, the threshold and every seed are checked before the
    first walk; seeds is a sequence, and a set or a mapping, whose order is
    not the caller's, is refused like an iterator.  A walk that reads a
    byte table (see :func:`simulate_walk`) is counted from its digit bytes,
    with no height built (:func:`_byte_counts`); any other walk is drawn by
    simulate_walk and its heights are counted a chunk at a time."""
    profile = _require_step(profile)
    _require_count(n, "walk length")
    _require_threshold(threshold)
    if isinstance(seeds, (Set, Mapping)):
        raise PreconditionError(f"seeds must be a sequence, got a {type(seeds).__name__}")
    try:
        counts = np.zeros((len(seeds), 3), dtype=np.int64)
    except TypeError:
        raise PreconditionError(f"seeds must be a sequence, got {seeds!r}") from None
    for seed in seeds:
        _require_walk_seed(seed)
    if _takes_byte_table(profile.values, 0.0, n):
        _byte_counts(profile.values, n, [_stream_key(seed) for seed in seeds], threshold, counts)
    else:
        for w, seed in enumerate(seeds):
            t = simulate_walk(profile, 0.0, n, seed).t
            for lo in range(1, n + 1, _CHUNK):
                chunk = t[lo:lo + _CHUNK]
                counts[w, 0] += np.count_nonzero(chunk > threshold)
                counts[w, 2] += np.count_nonzero(chunk < -threshold)
    counts[:, 1] = n - counts[:, 0] - counts[:, 2]
    return counts


@lru_cache(maxsize=16)
def _count_table(v0: float, v1: float) -> np.ndarray:
    """Entry (d + 121) * 256 + b: how many of the eight partial sums of the
    byte b (see :func:`_byte_table`) exceed d, for d = -121 .. 120.  The
    sums lie in -120 .. 120, so d = -121 counts all eight and d = 120 none."""
    partial = _byte_table(v0, v1).view(np.int8).reshape(256, 8)
    d = np.arange(-121, 121).reshape(-1, 1, 1)
    return np.count_nonzero(partial > d, axis=2).astype(np.uint8).reshape(-1)


def _byte_counts(values: tuple, n: int, keys: list, threshold: float,
                 counts: np.ndarray) -> None:
    """Add to columns 0 and 2 of counts[w] how many heights of the n-step
    byte-table walk of stream keys[w] from 0 lie above threshold and below
    -threshold, building no height.

    Heights 8j+1 .. 8j+8 are the start s of byte j of the walk's digits
    (see :func:`_byte_walk`), the sum of the byte totals before it, plus
    the byte's partial sums P.  All are integers, so s + P > threshold
    exactly when P > floor(threshold) - s, and s + P < -threshold when P
    is not above -floor(threshold) - s - 1: a full byte counts with two
    :func:`_count_table` reads, and the last partial byte is counted
    directly.  The threshold is first cut to 2^53, beyond which no height
    lies.  A block holds the bytes of as many whole walks as fit in _CHUNK
    bytes; a longer walk is cut into blocks of _CHUNK bytes, and carries
    its byte start from one to the next."""
    table = _count_table(*values)
    partial = _byte_table(*values).view(np.int8).reshape(256, 8)
    totals = partial[:, 7].astype(np.int64)
    floor = math.floor(min(threshold, 2.0**53))
    length, (full, rest) = -(-n // 8), divmod(n, 8)  # a walk's bytes, full bytes, last digits
    per = max(1, _CHUNK // max(1, length))  # walks a block
    keys = np.array(keys, dtype=np.uint64).reshape(-1, 1)
    for w in range(0, len(keys), per):
        rows = counts[w:w + per]
        start = np.zeros((len(rows), 1), dtype=np.int64)
        for j in range(0, length, _CHUNK):
            data = _digit_bytes(keys[w:w + per], j, min(j + _CHUNK, length))
            m = min(full - j, data.shape[1])  # the block's full bytes
            if m > 0:
                b = data[:, :m]
                tot = totals[b]
                s = np.cumsum(tot, axis=1)
                s -= tot
                s += start
                start = s[:, -1:] + tot[:, -1:]

                def above(edge):  # per walk, how many s + P exceed the integer edge
                    d = np.subtract(edge + 121, s)
                    np.clip(d, 0, 241, out=d)
                    d <<= 8
                    d |= b
                    return table.take(d).sum(axis=1, dtype=np.int64)

                rows[:, 0] += above(floor)
                rows[:, 2] += 8 * m - above(-floor - 1)
            if rest and j + _CHUNK >= length:  # the last byte, of rest digits
                h = start + partial[data[:, full - j], :rest]
                rows[:, 0] += np.count_nonzero(h > threshold, axis=1)
                rows[:, 2] += np.count_nonzero(h < -threshold, axis=1)


def arcsine_ensemble(profile: StepProfile, n: int, num_walks: int,
                     eps_list, seed: int) -> list[ArcsinePoint]:
    """Fraction of walks whose final a_n/n exceeds 1 - eps, per eps.

    Only zero-mean profiles qualify (the float step values are summed as
    fractions, so exactly).  The limiting frequency is (2/pi) asin(sqrt(eps)).
    Walks use spawned per-walk substreams, so ensembles are reproducible and
    order-independent; each a_n comes from :func:`final_counts` at threshold 0,
    which counts a byte-table walk, such as +-1, from its digit bytes and
    draws no walk through simulate_walk.
    """
    profile = _require_step(profile)
    if sum(map(Fraction, profile.values)) != 0:
        raise PreconditionError("arcsine statistics need a zero-mean step profile")
    _require_count(n, "walk length", 1)
    _require_count(num_walks, "num_walks", 1)
    eps_list = list(eps_list)
    for eps in eps_list:
        if not 0.0 < eps <= 1.0:
            raise PreconditionError(f"eps must lie in (0, 1], got {eps}")
    _require_seed(seed)
    seeds = np.random.SeedSequence(seed).spawn(num_walks)
    final_frac = final_counts(profile, n, seeds, 0.0)[:, 0] / n
    out = []
    for eps in eps_list:
        emp = float(np.count_nonzero(final_frac > 1.0 - eps) / num_walks)
        theo = (2.0 / math.pi) * math.asin(math.sqrt(eps))
        out.append(ArcsinePoint(eps=float(eps), empirical=emp, theoretical=theo))
    return out


def _check_circle(modulus: float, bins: int) -> None:
    """The refusals of :func:`circle_equidistribution` that read no trace."""
    if not 0.0 < modulus < math.inf:
        raise PreconditionError(f"modulus must be positive and finite, got {modulus!r}")
    _require_count(bins, "bin count", 2)


def circle_equidistribution(trace: WalkTrace, modulus: float,
                            bins: int) -> CircleWalkReport:
    """Max deviation of the empirical CDF of (t_i/L mod 1) from uniform.

    Refused when some |t_i|/L reaches 2^52: from there on t_i/L has no
    fractional bits left, so it reads 0 mod 1 (or overflows)."""
    _check_circle(modulus, bins)
    if trace.t.size == 0:
        raise PreconditionError("empty trace")
    lowest, highest = float(trace.t.min()), float(trace.t.max())  # NaN propagates
    if not (math.isfinite(lowest) and math.isfinite(highest)):
        raise PreconditionError("trace contains non-finite entries")
    if max(-lowest, highest) >= 2.0**52 * float(modulus):  # exact, or inf
        raise PreconditionError(f"modulus {modulus!r} is too small: some |t|/L reaches "
                                "2^52, where t/L mod 1 has no fractional bits")
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
    if not 0.0 < p0.y < 1.0:
        raise DomainError("walk extraction needs an interior starting height")
    return simulate_walk(sys.family.profile, poincare_coord(p0.y), n, seed)


def _require_stride(every: int) -> None:
    """The refusal of :func:`occupation_csv`, which reads no statistics."""
    _require_count(every, "downsampling stride", 1)


def occupation_csv(stats: OccupationStats, every: int = 1) -> str:
    """CSV rows (n, a_over_n, b_over_n, c_over_n), optionally downsampled."""
    _require_stride(every)
    rows = slice(every - 1, None, every)
    # as lists, since str of a float is faster than str of a numpy scalar
    a, b, c = (r[rows].tolist() for r in (stats.a_over_n, stats.b_over_n, stats.c_over_n))
    return _csv("n,a_over_n,b_over_n,c_over_n", zip(range(every, stats.t.size + 1, every), a, b, c))


def arcsine_csv(points: list[ArcsinePoint]) -> str:
    return _csv("eps,empirical,theoretical", ((p.eps, p.empirical, p.theoretical) for p in points))
