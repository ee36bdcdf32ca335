"""Transverse Lyapunov exponents of the two boundary circles.

The exponent along the invariant circle {y = iota} is the circle average
of log f'_x(iota).  For cosine profiles the composite trapezoid rule on
the periodic integrand converges spectrally; step profiles of every kind
are integrated exactly as finite means over the k digits.  A Birkhoff
average along base orbits is provided as the dynamical counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import base_orbit_angles
from .cylinder import CylinderSystem
from .errors import PreconditionError, _require_count
from .fiber import FRACTIONAL_LINEAR, KAN, FiberFamily, StepProfile

#: |lyap0 + lyap1| below this counts as a vanishing exponent sum
SUM_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class ExponentReport:
    """Both boundary exponents (nats per iterate) with method metadata;
    resolution is the number of quadrature nodes used."""

    lyap0: float
    lyap1: float
    method: str
    resolution: int
    sum_sign: int


def _require_boundary(boundary) -> None:
    """The integer 0 or 1, numpy integers included; not a bool or a float."""
    if (isinstance(boundary, bool) or not isinstance(boundary, (int, np.integer))
            or boundary not in (0, 1)):
        raise PreconditionError(f"boundary must be the integer 0 or 1, got {boundary!r}")


def _log_boundary_derivative(family: FiberFamily, boundary: int, x) -> np.ndarray:
    """log f'_x(boundary) for an array of angles, in closed form.

    Quadratic family: f'(0) = 1+a, f'(1) = 1-a with a = p(x);
    the inverse family reciprocates both; Moebius fibers give exactly +-c.
    """
    a = family.displacement(x)
    signed = a if boundary == 0 else -a
    if family.kind == FRACTIONAL_LINEAR:
        return signed
    # FiberFamily refuses sup|p| >= 1 for the quadratic kinds, so 1 + signed > 0
    val = np.log1p(signed)
    return val if family.kind == KAN else -val


def _quadrature_nodes(family: FiberFamily, nodes: int) -> np.ndarray:
    """The angles of the periodic trapezoid rule: nodes of them, or for a
    step profile one per digit, which gives the exact mean."""
    _require_count(nodes, "quadrature node count", 16)
    if isinstance(family.profile, StepProfile):
        # digit midpoints: at k = 22 the node 15/22 would read digit 14
        return (np.arange(family.profile.k) + 0.5) / family.profile.k
    return np.arange(nodes, dtype=float) / nodes


def transverse_exponent_quadrature(family: FiberFamily, boundary: int,
                                   nodes: int) -> float:
    """Circle average of log f'_x(boundary) by the periodic trapezoid rule
    (see :func:`_quadrature_nodes`)."""
    _require_boundary(boundary)
    x = _quadrature_nodes(family, nodes)
    return float(np.mean(_log_boundary_derivative(family, boundary, x)))


def transverse_exponent_birkhoff(sys: CylinderSystem, boundary: int, x0: float,
                                 n: int, seed=None) -> float:
    """(1/n) sum of log f'_{x_i}(boundary) along the base orbit of x0.

    Uses :func:`cylmaps.base.base_orbit_angles`, so angles beyond the
    exact float prefix are drawn i.i.d. uniform; exactly fixed x0 stays put,
    which reproduces exceptional periodic-orbit averages.
    """
    _require_boundary(boundary)
    _require_count(n, "orbit length", 1)
    angles = base_orbit_angles(sys.k, x0, n, seed=seed)
    return float(np.mean(_log_boundary_derivative(sys.family, boundary, angles)))


def exponent_report(sys: CylinderSystem, nodes: int) -> ExponentReport:
    """Quadrature exponents for both boundaries plus the sign of their sum."""
    l0 = transverse_exponent_quadrature(sys.family, 0, nodes)
    l1 = transverse_exponent_quadrature(sys.family, 1, nodes)
    total = l0 + l1
    sign = 0 if abs(total) < SUM_SIGN_TOL else (1 if total > 0.0 else -1)
    return ExponentReport(lyap0=l0, lyap1=l1, method="quadrature",
                          resolution=_quadrature_nodes(sys.family, nodes).size, sum_sign=sign)


def kan_exponent_closed_form(epsilon: float) -> float:
    """log((1 + sqrt(1 - eps^2))/2), the exact circle average of
    log(1 + eps*cos(2 pi x)); the oracle for the quadrature tests."""
    if not 0.0 < epsilon < 1.0:
        raise PreconditionError("epsilon must lie in (0, 1)")
    return math.log((1.0 + math.sqrt(1.0 - epsilon * epsilon)) / 2.0)
