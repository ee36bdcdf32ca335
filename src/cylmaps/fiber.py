"""Interval-diffeomorphism families on [0, 1].

Three families of orientation-preserving diffeomorphisms f_x of the unit
interval, indexed by an angle x on the circle R/Z, one per curvature regime:

* ``kan``               -- quadratic maps  q_a(y) = y + a*y*(1-y)  with
  a = p(x); curvature invariant negative wherever a != 0.
* ``inverse_kan``       -- the inverses q_a^{-1}; curvature invariant
  positive wherever a != 0.
* ``fractional_linear`` -- Moebius maps g_c(y) = e^c*y / (1 + (e^c-1)*y)
  with c = p(x); curvature invariant is identically zero, so in the
  coordinate t(y) = log(y/(1-y)) every fiber acts as the translation
  t -> t + c.

Every family is a kind plus a displacement profile p(x): a cosine, as in
``kan_family(epsilon)``, or one value per base-k digit of x.

The curvature invariant is the third-order expression
S f = f'''/f' - (3/2)(f''/f')^2, computed here in closed form per family
and by finite differences for arbitrary callables.  Its sign controls
whether a fiber map increases, decreases or preserves cross-ratios.

All evaluators accept floats or numpy arrays and never move the endpoints:
f_x(0) = 0 and f_x(1) = 1 exactly, with no rounding drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DegenerateQuadrupleError, DomainError, PreconditionError

KAN = "kan"
INVERSE_KAN = "inverse_kan"
FRACTIONAL_LINEAR = "fractional_linear"

# ---------------------------------------------------------------------------
# displacement profiles p(x)
# ---------------------------------------------------------------------------

def _unit_cosine(x):
    """cos(2*pi*x) in a fresh float array: the product 2*pi*x takes the
    cosine in place.  A scalar or 0-d x gives a numpy scalar."""
    t = np.multiply(2.0 * np.pi, x, dtype=float)
    if not t.ndim:
        return np.cos(t)
    np.cos(t, out=t)
    return t


@dataclass(frozen=True)
class CosineProfile:
    """p(x) = amplitude * cos(2*pi*x); zero mean."""

    amplitude: float

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise PreconditionError("cosine amplitude must be finite")

    def displacement(self, x):
        """amplitude * cos(2*pi*x), bit for bit, in one scratch array: the
        fresh unit cosine takes the scaling in place.  A scalar or 0-d x
        gives a numpy scalar."""
        c = _unit_cosine(x)
        if not c.ndim:
            return self.amplitude * c
        c *= self.amplitude
        return c

    def mean(self) -> float:
        return 0.0

    def bound(self) -> float:
        return abs(self.amplitude)


@dataclass(frozen=True)
class StepProfile:
    """p(x) constant on each interval [j/k, (j+1)/k), j = 0..k-1."""

    values: tuple

    def __post_init__(self):
        try:
            vals = tuple(float(v) for v in self.values)
        except OverflowError:  # an int or Fraction past the largest float
            raise PreconditionError("step values must be finite") from None
        if not vals:
            raise PreconditionError("step profile needs at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise PreconditionError("step values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def k(self) -> int:
        return len(self.values)

    def displacement(self, x):
        # the digit of x mod 1: floor(k*x) mod k, so x = 1.0 reads values[0]
        idx = (np.floor(np.multiply(x, self.k, dtype=float)) % self.k).astype(int)
        return np.asarray(self.values, dtype=float)[idx]

    def mean(self) -> float:
        return math.fsum(self.values) / self.k

    def bound(self) -> float:
        return max(abs(v) for v in self.values)


DisplacementProfile = Union[CosineProfile, StepProfile]


# ---------------------------------------------------------------------------
# fiber families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberFamily:
    """A one-parameter family x -> f_x of interval diffeomorphisms.

    Every kind reads its driving parameter off the displacement profile:
    a = p(x) for the quadratic kinds, where sup|p| < 1 keeps every q_a a
    diffeomorphism, and c = p(x), the translation length in the t
    coordinate, for the fractional-linear kind.
    """

    kind: str
    profile: DisplacementProfile

    def __post_init__(self):
        if self.kind not in _KERNELS:
            raise PreconditionError(f"unknown fiber kind {self.kind!r}")
        if not isinstance(self.profile, (CosineProfile, StepProfile)):
            raise PreconditionError(f"{self.kind} needs a cosine or step profile")
        if self.kind != FRACTIONAL_LINEAR and not self.profile.bound() < 1.0:
            raise PreconditionError(f"{self.kind} needs sup|p| < 1, got {self.profile.bound()}")

    def displacement(self, x):
        """Driving parameter at angle x: a for quadratic kinds, c for Moebius."""
        return self.profile.displacement(x)


def _cosine_profile(epsilon: float) -> CosineProfile:
    if not 0.0 < epsilon < 1.0:
        raise PreconditionError(f"epsilon must lie in (0, 1), got {epsilon}")
    return CosineProfile(epsilon)


def kan_family(epsilon: float) -> FiberFamily:
    return FiberFamily(KAN, _cosine_profile(epsilon))


def inverse_kan_family(epsilon: float) -> FiberFamily:
    return FiberFamily(INVERSE_KAN, _cosine_profile(epsilon))


def fractional_linear_family(profile: DisplacementProfile) -> FiberFamily:
    return FiberFamily(FRACTIONAL_LINEAR, profile)


@dataclass(frozen=True)
class MoebiusMap:
    """g_c(y) = e^c*y / (1 + (e^c - 1)*y); g_0 is the identity."""

    c: float

    def __call__(self, y):
        return moebius_eval(self, y)


# ---------------------------------------------------------------------------
# the kernel table: every fiber map of the package is evaluated through it
# ---------------------------------------------------------------------------
#
# A kernel op(p, y, xp) evaluates one family at heights y (float or ndarray)
# for coefficients p = coef(a) of the driving parameter a.  xp supplies sqrt:
# numpy for arrays, math in scalar loops; both round it correctly.
# log_slope(a) is log f'(0) at driving parameter a, on arrays; log f'(1) is log_slope(-a).

def _kan_apply(a, y, xp):
    # y + a*y*(1-y) is exact at y = 0 and y = 1 for every a
    return y + a * y * (1.0 - y)


def _kan_derivative(a, y, xp):
    return (1.0 + a) - 2.0 * a * y


def _kan_invert(a, y, xp):
    # root of a*u^2 - (1+a)*u + y = 0 with both summands of the denominator
    # positive for |a| < 1, so the a -> 0 limit degrades gracefully to u = y;
    # near y = 1 the radicand cancels to about (1-a)^2 (ROADMAP items 2, 23)
    s = 1.0 + a
    return 2.0 * y / (s + xp.sqrt(s * s - 4.0 * a * y))


def _kan_schwarzian(a, y, xp):
    d = _kan_derivative(a, y, xp)
    return -6.0 * a * a / (d * d)


def _inverse_kan_schwarzian(a, y, xp):
    # S(q^-1)(y) = -S q(u) / q'(u)^2 at the preimage u = q^-1(y)
    d = _kan_derivative(a, _kan_invert(a, y, xp), xp)
    return 6.0 * a * a / (d * d * d * d)


def _moebius_apply(w, y, xp):
    # g_c(y) with w = e^-c: the denominator is never smaller than the
    # numerator, so no image leaves [0, 1], and w = 1 returns y exactly
    return y / (y + w * (1.0 - y))


def _moebius_invert(w, y, xp):
    return y * w / (y * w + (1.0 - y))


def _moebius_derivative(w, y, xp):
    d = y + w * (1.0 - y)
    return w / (d * d)


# A step kernel step(p, y) is its family's apply kernel on arrays, written
# into p, a coefficient array the caller owns: the same operations rounded
# in the same order, with one or two scratch arrays instead of four to eight.

def _kan_step(a, y):
    a *= y
    a *= 1.0 - y
    a += y
    return a


def _kan_invert_step(a, y):
    s, q = _kan_invert_terms(a, None, None)
    return _kan_invert_root(a, s, q, y, a)


def _kan_invert_terms(a, s, q):
    """The first half of _kan_invert_step, which a lane orbit takes once a
    block of rounds: q <- 4a, s <- 1 + a, then a <- s*s in place; s and q,
    arrays or None for fresh ones, are returned."""
    q = np.multiply(4.0, a, out=q)
    s = np.add(a, 1.0, out=s)
    np.multiply(s, s, out=a)
    return s, q


def _kan_invert_root(s2, s, q, y, out):
    """The second half, once a round: out = 2y / (s + sqrt(s2 - q*y)) from
    the terms of one parameter array; q is scratch, and y + y is 2y
    exactly, without a scalar."""
    q *= y
    np.subtract(s2, q, out=q)
    np.sqrt(q, out=q)
    q += s
    np.add(y, y, out=out)
    out /= q
    return out


def _moebius_step(w, y):
    w *= 1.0 - y
    w += y
    return np.divide(y, w, out=w)


# monotone: the rounded apply kernel is non-decreasing in its coefficient
# at every height in [0, 1], so a height that the coefficients -B and +B
# both map to itself is mapped to itself by every coefficient in [-B, B]:
# the proof by which _scalar_orbit ends a stuck orbit.
# Kan's y + a*y*(1-y) is: a*y, then *(1-y), then y + are each monotone in
# a for y, 1 - y >= 0, and round-to-nearest keeps x <= x' as fl(x) <= fl(x').
# The inverse-Kan root has no such proof.

_KERNELS = {
    KAN: dict(coef=lambda a: a, apply=_kan_apply, step=_kan_step, invert=_kan_invert,
              derivative=_kan_derivative, schwarzian=_kan_schwarzian, log_slope=np.log1p,
              monotone=True),
    INVERSE_KAN: dict(
        coef=lambda a: a, apply=_kan_invert, step=_kan_invert_step, invert=_kan_apply,
        derivative=lambda a, y, xp: 1.0 / _kan_derivative(a, _kan_invert(a, y, xp), xp),
        schwarzian=_inverse_kan_schwarzian, log_slope=lambda a: -np.log1p(a), monotone=False),
    FRACTIONAL_LINEAR: dict(
        coef=lambda c: np.exp(-c), apply=_moebius_apply, step=_moebius_step,
        invert=_moebius_invert, derivative=_moebius_derivative,
        schwarzian=lambda w, y, xp: 0.0, log_slope=lambda c: c, monotone=False),
}

#: heights a scalar orbit loop collects before storing them into its array
_ORBIT_CHUNK = 4096
#: steps per lane of a lane-stepped orbit, and the fewest lanes that are
#: stepped together: a lane orbit takes about two lane lengths of numpy
#: rounds, and a round of 64 lanes costs 14-17 scalar steps (2-core Xeon),
#: so lanes break even near 30
_LANE = 2048
_MIN_LANES = 64
#: numpy rounds a lane orbit may take, over all its passes, before it goes
#: to the scalar loop
_ROUNDS = 8192
#: rounds of a lane orbit that share one pass of the parameter terms, and
#: whose heights move from a buffer to the (lanes, _LANE) view at once: a
#: column of the view touches one page per lane
_BLOCK = 64


def _apply_fiber(family: FiberFamily, x, y):
    """f_x(y) elementwise over arrays of angles and heights."""
    kernels = _KERNELS[family.kind]
    return kernels["apply"](kernels["coef"](family.displacement(x)), y, np)


class _Parameters:
    """The fibre parameters of one orbit, read a slice at a time: of(values[s])
    for an elementwise map ``of``, such as a family's displacement at the
    orbit's angles, computed when the slice is read, or values[s] itself
    for held parameters (of None: np.asarray hands an array back as it is).
    A chunk's parameters equal the same slice of the whole array's bit for
    bit, as ``of`` is elementwise.  ``bound`` is at least |a| of every
    parameter; held parameters may leave it None (see :meth:`bound`)."""

    def __init__(self, values: np.ndarray, of=None, bound: float | None = None):
        self.values, self.of, self.size, self._bound = values, of or np.asarray, values.size, bound

    def __getitem__(self, s: slice) -> np.ndarray:
        return self.of(self.values[s])

    def lanes(self, lanes: int, length: int) -> np.ndarray:
        """The first lanes*length parameters lane-major: a C-contiguous
        (length, lanes) array whose row r, column i holds parameter
        i*length + r, filled _BLOCK rows at a time from the transposed
        view of values (``of`` reads that view)."""
        V = self.values[:lanes * length].reshape(lanes, length).T
        L = np.empty((length, lanes))
        for b in range(0, length, _BLOCK):
            L[b:b + _BLOCK] = self.of(V[b:b + _BLOCK])
        return L

    def bound(self, lo: int) -> float:
        """A bound on |a| over the parameters from lo on, computing none of
        them: the bound the caller gave, or else the largest held |a|."""
        if self._bound is not None:
            return self._bound
        return float(np.abs(self.values[lo:]).max(initial=0.0))


def _fiber_orbit(family: FiberFamily, params: _Parameters, y: float) -> np.ndarray:
    """The heights y_0..y_{n-1} of the orbit y_0 = y, y_{i+1} = f(y_i) at
    driving parameter params[i], for every kind.  A Moebius orbit is summed
    in t from t(y) (:func:`_translation_orbit`) and read back through
    poincare_coord_inv; quadratic heights equal the scalar loop's.

    An inverse-Kan orbit of at least _MIN_LANES lanes of _LANE steps reads
    its lanes' parameters lane-major (:meth:`_Parameters.lanes`) and is
    stepped in lanes (see :func:`_lane_orbit`): its fibre exponent is
    negative (Lebesgue measure is invariant, so Jensen's inequality
    applies), and lanes started from a guess contract onto the true orbit.
    Kan's boundaries attract, so its lanes drift to different boundaries and
    do not meet: a Kan orbit, a short one, and lanes that do not settle
    within _ROUNDS rounds go to :func:`_scalar_orbit`, which reads the
    parameters (those after the lanes, or all again after a fallback) a
    chunk at a time and fills the rest of a Kan orbit once it proves the
    height stuck at a float that every parameter left maps to itself; a
    Kan orbit given its angles computes no parameter past that proof.
    """
    if family.kind == FRACTIONAL_LINEAR:
        t = np.empty(params.size)
        t[1:] = params[:-1]
        return poincare_coord_inv(_translation_orbit(poincare_coord(y), t))
    out = rest = np.empty(params.size)
    lanes = params.size // _LANE
    if family.kind == INVERSE_KAN and lanes >= _MIN_LANES:
        body = lanes * _LANE
        end = _lane_orbit(params.lanes(lanes, _LANE), y, out[:body].reshape(lanes, _LANE))
        if end is not None:
            params = _Parameters(params.values[body:], params.of, params._bound)
            y, rest = end, out[body:]
    _scalar_orbit(_KERNELS[family.kind], params, y, rest)
    return out


def _scalar_orbit(kernels: dict, params: _Parameters, y: float, out: np.ndarray) -> float:
    """The scalar loop of the kind's apply kernel: out[i] = y_i from y_0 = y;
    returns y_n.  It reads the parameters, and so computes them when params
    holds angles, one chunk of _ORBIT_CHUNK at a time, as it steps them.
    Heights are stored a chunk at a time: storing floats one by one costs
    more than the arithmetic, and one list for the whole orbit would hold
    32 bytes per step.

    After a full chunk that starts and ends at the height y it hands on, a
    monotone kind (see _KERNELS) applies the scalar kernel to -B and +B,
    for B = params.bound(lo) >= |a| of every parameter left: if both leave
    y in place, so does every a in [-B, B], and the rest of the orbit is y
    (Kan's 5e-324 or 1 - 2**-53, say) with no parameter computed.
    Otherwise, and always for the other kinds, the loop steps on.
    """
    apply, xp = kernels["apply"], math
    lo = 0
    while lo < params.size:
        heights = []
        push = heights.append
        for p in params[lo:lo + _ORBIT_CHUNK].tolist():
            push(y)
            y = apply(p, y, xp)
        out[lo:lo + len(heights)] = heights
        lo += len(heights)
        if (kernels["monotone"] and len(heights) == _ORBIT_CHUNK
                and heights[0] == heights[-1] == y):
            b = params.bound(lo)
            if apply(-b, y, xp) == y == apply(b, y, xp):
                out[lo:] = y
                return y
    return y


def _lane_orbit(A: np.ndarray, y: float, Y: np.ndarray):
    """Fill Y, a (lanes, length) view of one inverse-Kan orbit cut into
    lanes, with the orbit of y over the lane-major parameters A (length,
    lanes), stepping all lanes at once; returns the height after the last
    lane, or None, with Y unfinished, when the lanes do not settle within
    _ROUNDS rounds.  A block of _BLOCK rounds takes the root's parameter
    terms once (_kan_invert_terms) and a round takes the root
    (_kan_invert_root): the operations of _kan_invert_step, in its order.

    Pass 1 starts lane 0 at y and the others at a guess; each later pass
    starts every lane at its predecessor's end in the pass before.  The
    lanes have settled when all of them meet the heights stored by the pass
    before: that pass then started each lane at its predecessor's true end,
    by induction from lane 0.  A step is deterministic, so each stored
    height is then the scalar loop's.  Heights are never NaN or -0.0, so ==
    on them is bit equality.
    """
    length, lanes = A.shape
    P, S, Q = np.empty((3, _BLOCK, lanes))
    # pass 1: lane 0 from y, the others from 1/2
    h = np.full(lanes, 0.5)
    h[0] = y
    ends = None
    for _ in range(0, _ROUNDS, length):
        Y[:, 0] = h
        for b in range(0, length, _BLOCK):
            P[...] = A[b:b + _BLOCK]
            _kan_invert_terms(P, S, Q)
            # each round writes its heights over its own row of terms, so
            # P ends holding the heights of columns b + 1 .. b + _BLOCK
            for p, s, q in zip(P, S, Q):
                h = _kan_invert_root(p, s, q, h, p)
            h = h.copy()  # the last row of P, which the next block overwrites
            e = b + _BLOCK
            settled = ends is not None and (h == (Y[:, e] if e < length else ends)).all()
            out = Y[:, b + 1:e + 1]
            out[...] = P[:out.shape[1]].T
            if settled:
                return ends[-1]
        ends = h
        h = np.concatenate(([y], ends[:-1]))
    return None


def _translation_orbit(t0: float, t: np.ndarray) -> np.ndarray:
    """t_0 = t0, t_i = t_{i-1} + c_i, rounded step by step as the orbit of
    Moebius fibers translating t by c: in place on a float array t whose
    t[1:] holds c_1..c_n.  Returns t."""
    if t.size:
        t[0] = t0
        np.cumsum(t, out=t)
    return t


# ---------------------------------------------------------------------------
# scalar fiber operations
# ---------------------------------------------------------------------------

def _scalar(op: str, kind: str, a, y, what="y", ends_fixed=True) -> float:
    """Table kernel op at one height y in [0, 1]; maps (ends_fixed) return
    the endpoints exactly."""
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"{what} must lie in [0, 1], got {y}")
    if ends_fixed and (y == 0.0 or y == 1.0):
        return 0.0 if y == 0.0 else 1.0
    kernels = _KERNELS[kind]
    return float(kernels[op](kernels["coef"](float(a)), y, np))


def eval_fiber(family: FiberFamily, x: float, y: float) -> float:
    """f_x(y). Endpoints are returned exactly."""
    return _scalar("apply", family.kind, family.displacement(x), y)


def fiber_derivative(family: FiberFamily, x: float, y: float) -> float:
    """d f_x / dy, strictly positive on [0, 1]."""
    return _scalar("derivative", family.kind, family.displacement(x), y, ends_fixed=False)


def invert_fiber(family: FiberFamily, x: float, y_image: float) -> float:
    """The unique y with f_x(y) = y_image."""
    return _scalar("invert", family.kind, family.displacement(x), y_image, "y_image")


def schwarzian_analytic(family: FiberFamily, x: float, y: float) -> float:
    """Closed-form S f_x(y): -6a^2/(q_a')^2, its sign flip for the inverse
    family (evaluated at the preimage), identically 0 for Moebius fibers."""
    return _scalar("schwarzian", family.kind, family.displacement(x), y, ends_fixed=False)


def schwarzian_numeric(f: Callable[[float], float], y: float,
                       h: float = 1e-3) -> float:
    """Finite-difference S f(y) from 5-point central stencils.

    The derivatives f', f'', f''' are estimated on the stencil
    y - 2h .. y + 2h, so y must be at least 2h away from both endpoints.
    """
    if not h > 0.0:
        raise PreconditionError("stencil step h must be positive")
    if y - 2.0 * h < 0.0 or y + 2.0 * h > 1.0:
        raise DomainError(f"stencil [y-2h, y+2h] leaves [0, 1] at y={y}, h={h}")
    f0 = f(y)
    fp1, fp2 = f(y + h), f(y + 2.0 * h)
    fm1, fm2 = f(y - h), f(y - 2.0 * h)
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    d3 = (fp2 - 2.0 * fp1 + 2.0 * fm1 - fm2) / (2.0 * h * h * h)
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


# ---------------------------------------------------------------------------
# cross-ratio and the hyperbolic coordinate
# ---------------------------------------------------------------------------

def cross_ratio(y0: float, y1: float, y2: float, y3: float) -> float:
    """rho = (y2-y0)(y3-y1) / ((y1-y0)(y3-y2)); > 1 on ordered quadruples."""
    if len({y0, y1, y2, y3}) < 4:
        raise DegenerateQuadrupleError(
            f"cross-ratio needs pairwise distinct points, got {(y0, y1, y2, y3)}")
    return (y2 - y0) * (y3 - y1) / ((y1 - y0) * (y3 - y2))


def poincare_coord(y: float) -> float:
    """t(y) = log(y/(1-y)), the coordinate in which Moebius fibers translate."""
    if not 0.0 < y < 1.0:
        raise DomainError(f"poincare coordinate needs 0 < y < 1, got {y}")
    return math.log(y) - math.log1p(-y)


def poincare_coord_inv(t):
    """Inverse of the arclength coordinate, y = e^t/(1+e^t), overflow-safe."""
    return np.exp(-np.logaddexp(0.0, -t))


def poincare_distance(y1: float, y2: float) -> float:
    """|t(y2) - t(y1)|, the hyperbolic distance inside (0, 1)."""
    return abs(poincare_coord(y2) - poincare_coord(y1))


def moebius_eval(m: MoebiusMap, y: float) -> float:
    """g_c(y); shifts the coordinate t by exactly c, endpoints fixed."""
    return _scalar("apply", FRACTIONAL_LINEAR, m.c, y)
