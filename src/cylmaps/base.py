"""The base map x -> k*x mod 1 of the cylinder map, and its digit streams.

Every step of the base map goes through :func:`advance` or, for the
classifier's blocks of rounds, :func:`advance_rows`.  Beside them live the
map's periodic angles, the orbit segments of :func:`base_orbit_angles` and
the counter-based base-k digit streams of the walks (:func:`digits`).
The module imports nothing of the package but :mod:`cylmaps.errors`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import PreconditionError, _require_count, _require_seed

#: angles are accepted as periodic/fixed when k^p * x returns this close
_FIXED_ANGLE_TOL = 1e-9

#: float orbits of x -> k*x mod 1 degenerate after about this many steps
EXACT_ORBIT_PREFIX = 50


def _mod1(v: np.ndarray) -> np.ndarray:
    """v mod 1, in place on a float array the caller owns.  v - floor(v) rounds
    the same exact real as numpy's remainder(v, 1.0), so the two agree bit for
    bit (a zero comes out +0.0; NaN and +-inf give NaN)."""
    v -= np.floor(v)
    return v


def advance(k: int, x):
    """One step k*x mod 1 of the base map: a Python float for a float x, a
    new array for an array x, numpy's remainder(k*x, 1.0) bit for bit."""
    return (k * x) % 1.0


def advance_rows(k: int, x: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Fill row r of X with r steps of the angles x, in place, and return
    the angles one step past the last row.  Each step is k*x - floor(k*x),
    which is :func:`advance` bit for bit at a fraction of its cost."""
    X[0] = x
    for r in range(1, len(X)):
        _mod1(np.multiply(X[r - 1], k, out=X[r]))
    return _mod1(X[-1] * k)


def circle_distance(u: float, v: float) -> float:
    d = abs(u - v) % 1.0
    return min(d, 1.0 - d)


def is_periodic_angle(k: int, x: float, period: int = 1) -> bool:
    """True when k^period * x returns to x mod 1, up to rounding slack.
    A non-finite x is refused."""
    if not np.isfinite(x):
        raise PreconditionError(f"angle must be finite, got {x}")
    xx = x
    for _ in range(period):
        xx = advance(k, xx)
    return circle_distance(xx, x) <= _FIXED_ANGLE_TOL


def canonical_fixed_angle(k: int) -> float:
    """The marked repelling angle used by the quadratic examples:
    1/2 for odd k, k/(2k-2) for even k >= 4; always inside [1/3, 2/3]."""
    _require_count(k, "canonical fixed angle's k", 3)
    if k % 2 == 1:
        return 0.5
    return k / (2.0 * k - 2.0)


# ---------------------------------------------------------------------------
# base-orbit angles for long time averages
# ---------------------------------------------------------------------------

def base_orbit_angles(k: int, x0: float, n: int, seed=None) -> np.ndarray:
    """Driving angles x_0 .. x_{n-1} in [0, 1) for a length-n orbit segment.

    Binary floating point cannot follow x -> k*x mod 1 for long: the orbit
    collapses onto k-adic artifacts after roughly 50 steps, and at even k
    onto the fixed angle 0 (from 0.1234 at k = 4, after 28 steps).  So the
    angles come from the float map for at most EXACT_ORBIT_PREFIX steps,
    ending before the first angle that the float map fixes, and the rest
    are drawn i.i.d. uniform, which has the same distribution for time
    averages of integrable observables.  Angles x0 that the float map fixes
    exactly are kept constant for all n (deliberate exceptional orbits).
    A start that reduces to 1.0 (a tiny negative x0) is the angle 0.0.

    The default seed is derived from the bits of x0, so results are
    reproducible without an explicit seed.  A non-finite x0 is refused, and
    so are a k that is not an integer >= 2, a seed that is neither None nor
    a non-negative integer, and an n that is not an integer >= 0.
    """
    _require_count(k, "base multiplier k", 2)
    _require_seed(seed)
    _require_count(n, "orbit length")
    if not np.isfinite(x0):
        raise PreconditionError(f"orbit start angle must be finite, got {x0}")
    x0 = x0 % 1.0
    if x0 == 1.0:
        x0 = 0.0
    out = np.empty(n, dtype=float)
    m, x = 0, x0
    while m < min(n, EXACT_ORBIT_PREFIX) and (nxt := advance(k, x)) != x:
        out[m] = x
        x = nxt
        m += 1
    if m == 0:  # n = 0, or the float map fixes x0
        out.fill(x0)
        return out
    if n > m:
        if seed is None:
            seed = int(np.float64(x0).view(np.uint64))
        # the bits of rng.uniform(0.0, 1.0, n - m), as 0 + 1*u = u, drawn in place
        np.random.default_rng(seed).random(n - m, out=out[m:])
    return out


# ---------------------------------------------------------------------------
# counter-based digit streams
# ---------------------------------------------------------------------------

_MASK64 = 2**64 - 1
#: splitmix64's increment, the golden ratio in 64 bits
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser, in place on a uint64 array; array products
    wrap mod 2^64 without a warning."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


@lru_cache(maxsize=64)
def _digit_layout(k: int) -> tuple[int, int]:
    """(M, limit): a word w < limit holds the M base-k digits floor(w/k^d)
    mod k, d = 0..M-1, each exactly uniform for a uniform w, as limit =
    k^M * floor(2^64/k^M) is a multiple of k^M.  Words at or above limit are
    redrawn.  M maximises the digits a word yields, M * limit / 2^64: for a
    power of two it is 64 // log2(k) and limit is 2^64, so nothing is
    redrawn; at k = 3 it is 38, and 4.8 % of words are redrawn."""
    m = max((m for m in range(1, 65) if k**m <= 2**64),
            key=lambda m: m * k**m * (2**64 // k**m))
    return m, k**m * (2**64 // k**m)


def _redraw(words: np.ndarray, limit: int) -> np.ndarray:
    """Replace, in place, every word >= limit by a hash of it and the attempt
    counter a = 1, 2, ..., splitmix64(w + a * golden), until all are below
    limit; a word below limit is kept."""
    if limit > _MASK64:
        return words
    bad = np.flatnonzero(words >= np.uint64(limit))
    attempt = 0
    while bad.size:
        attempt += 1
        redrawn = words[bad]
        redrawn += np.uint64(attempt * _GOLDEN & _MASK64)
        words[bad] = _splitmix64(redrawn)
        bad = bad[redrawn >= np.uint64(limit)]
    return words


def _words(key, first: int, stop: int, limit: int) -> np.ndarray:
    """Words first .. stop-1 of stream ``key``: word j is splitmix64's
    output j from the state key, that is the finaliser of key + (j + 1) *
    golden mod 2^64, redrawn by :func:`_redraw` while it is at or above
    ``limit``.  A uint64 column of keys gives a row of words per key, for
    a limit of 2^64, which redraws nothing."""
    counter = np.arange(first + 1, stop + 1, dtype=np.uint64)
    counter *= np.uint64(_GOLDEN)
    return _redraw(_splitmix64(counter + np.uint64(key)), limit)


def digits(key: int, start: int, n: int, k: int) -> np.ndarray:
    """Digits start .. start+n-1 of the base-k stream ``key``, each i.i.d.
    uniform in {0..k-1}, as the smallest unsigned dtype that holds k - 1.

    Digit i is a pure function of (key, i): digit i mod M of word i // M
    of :func:`_words`, with the M and limit of :func:`_digit_layout`.  So a
    stream can be read in any pieces, in any order.  At k = 2 the digits
    are the 64 bits of each word, least significant first; for a power of
    two k, log2(k) bits per digit.
    """
    _require_count(key, "stream key")
    _require_count(start, "stream start")
    _require_count(n, "digit count")
    _require_count(k, "base multiplier k", 2)
    if key > _MASK64 or k > _MASK64:
        raise PreconditionError(f"stream key and base k must be below 2^64, got {key!r}, {k!r}")
    k = int(k)
    per_word, limit = _digit_layout(k)
    first = start // per_word
    words = _words(key, first, -(-(start + n) // per_word), limit)
    if k == 2:
        out = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    else:
        out = np.empty((words.size, per_word), dtype=np.min_scalar_type(k - 1))
        base, quotient = np.uint64(k), np.empty_like(words)
        for d in range(per_word):
            # floor_divide by a scalar is numpy's fast path; remainder is not
            np.floor_divide(words, base, out=quotient)
            words -= quotient * base
            out[:, d] = words
            words, quotient = quotient, words
        out = out.reshape(-1)
    lo = start - first * per_word
    return out[lo:lo + n]


def _stream_key(seed) -> int:
    """The digit-stream key of a seed: a SeedSequence's own first uint64
    word, so a spawned child keys its own stream, and otherwise that of
    SeedSequence(seed), where None draws fresh entropy."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return int(seed.generate_state(1, np.uint64)[0])
