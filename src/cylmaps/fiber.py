"""Interval-diffeomorphism families on [0, 1].

Three families of orientation-preserving diffeomorphisms f_x of the unit
interval, indexed by an angle x on the circle R/Z, one per curvature regime:

* ``kan``               -- quadratic maps  q_a(y) = y + a*y*(1-y)  with
  a = epsilon*cos(2*pi*x); curvature invariant negative wherever a != 0.
* ``inverse_kan``       -- the inverses q_a^{-1}; curvature invariant
  positive wherever a != 0.
* ``fractional_linear`` -- Moebius maps g_c(y) = e^c*y / (1 + (e^c-1)*y)
  with c = p(x) given by a displacement profile; curvature invariant is
  identically zero, so in the coordinate t(y) = log(y/(1-y)) every fiber
  acts as the translation t -> t + c.

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
        return self.amplitude * np.cos(2.0 * np.pi * np.asarray(x, dtype=float))

    def mean(self) -> float:
        return 0.0


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
        x = np.asarray(x, dtype=float)
        idx = np.minimum((x * self.k).astype(int), self.k - 1)
        return np.asarray(self.values, dtype=float)[idx]

    def mean(self) -> float:
        return math.fsum(self.values) / self.k


DisplacementProfile = Union[CosineProfile, StepProfile]


# ---------------------------------------------------------------------------
# fiber families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberFamily:
    """A one-parameter family x -> f_x of interval diffeomorphisms.

    For the quadratic kinds the driving parameter is a = epsilon*cos(2*pi*x)
    with 0 < epsilon < 1, which keeps every q_a a diffeomorphism. The
    fractional-linear kind instead carries a displacement profile and uses
    c = p(x) as the translation length in the t coordinate.
    """

    kind: str
    epsilon: float = 0.0
    profile: DisplacementProfile | None = None

    def __post_init__(self):
        if self.kind not in _KERNELS:
            raise PreconditionError(f"unknown fiber kind {self.kind!r}")
        if self.kind in (KAN, INVERSE_KAN):
            if not 0.0 < self.epsilon < 1.0:
                raise PreconditionError(
                    f"epsilon must lie in (0, 1), got {self.epsilon}")
            if self.profile is not None:
                raise PreconditionError("quadratic kinds take no profile")
        else:
            if self.profile is None:
                raise PreconditionError("fractional_linear needs a profile")

    def displacement(self, x):
        """Driving parameter at angle x: a for quadratic kinds, c for Moebius."""
        if self.kind == FRACTIONAL_LINEAR:
            return self.profile.displacement(x)
        return self.epsilon * np.cos(2.0 * np.pi * np.asarray(x, dtype=float))


def kan_family(epsilon: float) -> FiberFamily:
    return FiberFamily(KAN, epsilon=epsilon)


def inverse_kan_family(epsilon: float) -> FiberFamily:
    return FiberFamily(INVERSE_KAN, epsilon=epsilon)


def fractional_linear_family(profile: DisplacementProfile) -> FiberFamily:
    return FiberFamily(FRACTIONAL_LINEAR, profile=profile)


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
# numpy for arrays, math in scalar loops; both round it correctly.  Scalar
# loops take their coefficients from one vectorised coef call, because
# numpy's exp and expm1 round differently from math's.

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


def _moebius_coef(c):
    return np.stack((c, np.exp(c), np.expm1(c)))


def _moebius_apply(p, y, xp):
    _, e, em = p
    return e * y / (1.0 + em * y)


def _moebius_derivative(p, y, xp):
    _, e, em = p
    d = 1.0 + em * y
    return e / (d * d)


_KERNELS = {
    KAN: dict(coef=lambda a: a, apply=_kan_apply, invert=_kan_invert,
              derivative=_kan_derivative, schwarzian=_kan_schwarzian),
    INVERSE_KAN: dict(
        coef=lambda a: a, apply=_kan_invert, invert=_kan_apply,
        derivative=lambda a, y, xp: 1.0 / _kan_derivative(a, _kan_invert(a, y, xp), xp),
        schwarzian=_inverse_kan_schwarzian),
    FRACTIONAL_LINEAR: dict(
        coef=_moebius_coef, apply=_moebius_apply,
        invert=lambda p, y, xp: _moebius_apply(_moebius_coef(-p[0]), y, xp),
        derivative=_moebius_derivative, schwarzian=lambda p, y, xp: 0.0),
}

#: heights a scalar orbit loop collects before storing them into its array
_ORBIT_CHUNK = 4096


def _apply_fiber(family: FiberFamily, x, y):
    """f_x(y) elementwise over arrays of angles and heights."""
    kernels = _KERNELS[family.kind]
    return kernels["apply"](kernels["coef"](family.displacement(x)), y, np)


def _fiber_steps(family: FiberFamily, a):
    """(apply, coefs) for scalar loops: apply(coefs[i], y, math) is the fiber
    map at driving parameter a[i]."""
    kernels = _KERNELS[family.kind]
    return kernels["apply"], kernels["coef"](np.asarray(a, dtype=float)).T.tolist()


def _fiber_orbit(family: FiberFamily, a: np.ndarray, y: float,
                 out: np.ndarray) -> float:
    """out[i] = y_i for y_0 = y, y_{i+1} = f(y_i) at driving parameter a[i];
    returns the height after the last step.  Heights are stored a chunk at a
    time: storing floats one by one costs more than the arithmetic, and one
    list for the whole orbit would hold 32 bytes per step."""
    xp = math
    for lo in range(0, a.size, _ORBIT_CHUNK):
        apply, coefs = _fiber_steps(family, a[lo:lo + _ORBIT_CHUNK])
        heights = []
        push = heights.append
        for p in coefs:
            push(y)
            y = apply(p, y, xp)
        out[lo:lo + len(heights)] = heights
    return y


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
    if h <= 0.0:
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


def poincare_coord_inv(t: float) -> float:
    """Inverse of the arclength coordinate, y = e^t/(1+e^t), overflow-safe."""
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def poincare_distance(y1: float, y2: float) -> float:
    """|t(y2) - t(y1)|, the hyperbolic distance inside (0, 1)."""
    return abs(poincare_coord(y2) - poincare_coord(y1))


def moebius_eval(m: MoebiusMap, y: float) -> float:
    """g_c(y); shifts the coordinate t by exactly c, endpoints fixed."""
    return _scalar("apply", FRACTIONAL_LINEAR, m.c, y)
