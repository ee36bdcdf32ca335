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

@dataclass(frozen=True)
class CosineProfile:
    """p(x) = amplitude * cos(2*pi*x); zero mean."""

    amplitude: float

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise PreconditionError("cosine amplitude must be finite")

    def displacement(self, x):
        """amplitude * cos(2*pi*x), bit for bit, in one scratch array: the
        fresh product 2*pi*x takes the cosine and the scaling in place.  A
        scalar or 0-d x gives a numpy scalar."""
        t = np.multiply(2.0 * np.pi, x, dtype=float)
        if not t.ndim:
            return self.amplitude * np.cos(t)
        np.cos(t, out=t)
        t *= self.amplitude
        return t

    def mean(self) -> float:
        return 0.0

    def bound(self) -> float:
        return abs(self.amplitude)


@dataclass(frozen=True)
class StepProfile:
    """p(x) constant on each interval [j/k, (j+1)/k), j = 0..k-1."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
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

def _kan_apply(a, y, xp):
    # y + a*y*(1-y) is exact at y = 0 and y = 1 for every a
    return y + a * y * (1.0 - y)


def _kan_derivative(a, y, xp):
    return (1.0 + a) - 2.0 * a * y


def _kan_invert(a, y, xp):
    # cancellation-stable root of a*u^2 - (1+a)*u + y = 0; both summands of
    # the denominator are positive for |a| < 1, so no subtraction occurs and
    # the a -> 0 limit degrades gracefully to u = y
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
    q = 4.0 * a
    q *= y
    a += 1.0  # s = 1 + a
    r = a * a
    r -= q
    np.sqrt(r, out=r)
    r += a
    np.multiply(2.0, y, out=a)
    a /= r
    return a


def _moebius_step(w, y):
    w *= 1.0 - y
    w += y
    return np.divide(y, w, out=w)


_KERNELS = {
    KAN: dict(coef=lambda a: a, apply=_kan_apply, step=_kan_step, invert=_kan_invert,
              derivative=_kan_derivative, schwarzian=_kan_schwarzian),
    INVERSE_KAN: dict(
        coef=lambda a: a, apply=_kan_invert, step=_kan_invert_step, invert=_kan_apply,
        derivative=lambda a, y, xp: 1.0 / _kan_derivative(a, _kan_invert(a, y, xp), xp),
        schwarzian=_inverse_kan_schwarzian),
    FRACTIONAL_LINEAR: dict(
        coef=lambda c: np.exp(-c), apply=_moebius_apply, step=_moebius_step,
        invert=_moebius_invert, derivative=_moebius_derivative,
        schwarzian=lambda w, y, xp: 0.0),
}

#: heights a scalar orbit loop collects before storing them into its array
_ORBIT_CHUNK = 4096
#: steps per lane of a lane-stepped orbit, and the fewest lanes for which
#: stepping them together beats the scalar loop: they take about 1.5 lane
#: lengths of numpy rounds, and a round costs about 40 scalar steps
_LANE = 4096
_MIN_LANES = 64
#: twin lanes per orbit that test the contraction after _LANE // 8 rounds
_TWINS = 8


def _apply_fiber(family: FiberFamily, x, y):
    """f_x(y) elementwise over arrays of angles and heights."""
    kernels = _KERNELS[family.kind]
    return kernels["apply"](kernels["coef"](family.displacement(x)), y, np)


def _fiber_orbit(family: FiberFamily, a: np.ndarray, y: float,
                 out: np.ndarray) -> None:
    """out[i] = y_i for y_0 = y, y_{i+1} = f(y_i) at driving parameter a[i],
    for the quadratic kinds, whose coefficient is a itself; out is contiguous.

    An orbit of at least _MIN_LANES lanes of _LANE steps is stepped in lanes,
    all at once with the kind's step kernel (see :func:`_lane_orbit`): lane 0
    from y, the others from a guess, then again from their predecessor's end.
    A step is deterministic, so once every lane's height equals its stored
    height bit for bit, every lane started from its predecessor's true end
    and each stored height is the scalar loop's.  Lanes converge because
    the fibre exponent is negative (Lebesgue measure is invariant, so
    Jensen's inequality applies).  Where twin lanes contract too slowly
    (Kan's attracting boundaries, small displacements), or a lane never
    meets its stored heights, the orbit goes to :func:`_scalar_orbit`,
    which skips, verified, the runs where the height is stuck at a float
    that the fibres map to itself.
    """
    kernels = _KERNELS[family.kind]
    lanes = a.size // _LANE
    if lanes >= _MIN_LANES:
        body = lanes * _LANE
        end = _lane_orbit(kernels["step"], a[:body].reshape(lanes, _LANE), y,
                          out[:body].reshape(lanes, _LANE))
        if end is not None:
            a, y, out = a[body:], end, out[body:]
    _scalar_orbit(kernels["apply"], a, y, out)


def _scalar_orbit(apply, a: np.ndarray, y: float, out: np.ndarray) -> float:
    """The scalar loop: out[i] = y_i from y_0 = y; returns y_n.  Heights are
    stored a chunk at a time: storing floats one by one costs more than the
    arithmetic, and one list for the whole orbit would hold 32 bytes per step.

    A full chunk that starts and ends at the height it hands on hints at a
    fixed height, such as Kan's 5e-324 or 1 - 2**-53: :func:`_fixed_run`
    then finds the next parameter that moves it and the loop goes on there.
    """
    xp = math
    lo = 0
    while lo < a.size:
        heights = []
        push = heights.append
        for p in a[lo:lo + _ORBIT_CHUNK].tolist():
            push(y)
            y = apply(p, y, xp)
        out[lo:lo + len(heights)] = heights
        lo += len(heights)
        if len(heights) == _ORBIT_CHUNK and heights[0] == heights[-1] == y:
            lo = _fixed_run(apply, a, y, out, lo)
    return y


def _fixed_run(apply, a: np.ndarray, y: float, out: np.ndarray, lo: int) -> int:
    """Store y from out[lo] on while the parameters a[lo:] map y to itself;
    returns the index of the first one that moves it, or a.size.

    Each parameter is checked, with the apply kernel on arrays, in windows
    of one chunk and then twice the last: a false alarm costs one chunk,
    a run costs O(its length).  The array kernel rounds as the scalar one
    does and heights are never NaN or -0.0, so a parameter whose image
    == y is a step the scalar loop takes from y to y bit for bit.
    """
    width = _ORBIT_CHUNK
    while lo < a.size:
        seg = a[lo:lo + width]
        moved = np.flatnonzero(apply(seg, y, np) != y)
        stop = lo + (int(moved[0]) if moved.size else seg.size)
        out[lo:stop] = y
        if moved.size:
            return stop
        lo, width = stop, 2 * width
    return lo


def _lane_orbit(step, A: np.ndarray, y: float, Y: np.ndarray):
    """Fill Y with the orbit of y over parameters A, both (lanes, length) views
    of one orbit cut into lanes; returns the height after the last lane, or
    None, with Y unfinished, when the twin lanes contract too slowly or some
    lane never meets its stored heights in the second pass.

    Heights are never NaN or -0.0, so == on them is bit equality.
    """
    lanes, length = A.shape
    rows = range(1, lanes, max(1, (lanes - 1) // _TWINS))[:_TWINS]
    twins = slice(rows.start, rows.stop, rows.step)
    # pass 1: lane 0 from y, the others from 1/2, twins of a few from 1/4
    h = np.full(lanes + len(rows), 0.5)
    h[0], h[lanes:] = y, 0.25
    p = np.empty_like(h)
    for i in range(length):
        if i == length // 8 and not _contracting(h[twins], h[lanes:], i / length):
            return None
        Y[:, i] = h[:lanes]
        p[:lanes] = A[:, i]
        p[lanes:] = A[twins, i]
        h, p = step(p, h), h
    ends = h[:lanes].copy()
    # pass 2: each lane from its predecessor's end; once every lane meets its
    # stored heights, each started from its predecessor's true end (lane 0: y)
    h = np.concatenate(([y], ends[:-1]))
    p = np.empty(lanes)
    for i in range(length):
        if i % 8 == 0 and (h == Y[:, i]).all():
            return ends[-1]
        Y[:, i] = h
        p[:] = A[:, i]
        h, p = step(p, h), h
    return None


def _contracting(y: np.ndarray, twin: np.ndarray, elapsed: float) -> bool:
    """Whether every twin pair, started at 1/2 and 1/4 and run for the
    fraction elapsed of a lane, is equal or has shrunk its gap in
    t = log(y/(1-y)), log 3 at the start, at the pace of 53 halvings a
    lane, which is what meeting bit for bit within a lane takes.  A pair at an attracting
    boundary keeps its gap in t."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(np.log(y) - np.log1p(-y) - np.log(twin) + np.log1p(-twin))
    return bool(((y == twin) | (gap <= math.log(3.0) * 2.0 ** (-53.0 * elapsed))).all())


def _translation_orbit(t0: float, steps: np.ndarray) -> np.ndarray:
    """t_0 = t0, t_{i+1} = t_i + steps[i]: Moebius fibers translating t by c."""
    t = np.empty(steps.size + 1, dtype=float)
    t[0] = t0
    np.cumsum(steps, out=t[1:])
    t[1:] += t0
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
