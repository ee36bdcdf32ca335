"""Fiber family calculus: evaluation, inversion, curvature, cross-ratios."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cylmaps import (
    CosineProfile,
    DegenerateQuadrupleError,
    DomainError,
    MoebiusMap,
    PreconditionError,
    StepProfile,
    cross_ratio,
    eval_fiber,
    fiber_derivative,
    fractional_linear_family,
    inverse_kan_family,
    invert_fiber,
    kan_family,
    moebius_eval,
    poincare_coord,
    poincare_coord_inv,
    poincare_distance,
    schwarzian_analytic,
    schwarzian_numeric,
)
from cylmaps import fiber
from cylmaps.base import base_orbit_angles
from cylmaps.cylinder import CylinderSystem, CylPoint
from cylmaps.measures import orbit_points
from cylmaps.fiber import FRACTIONAL_LINEAR, _KERNELS

KAN05 = kan_family(0.5)
INV05 = inverse_kan_family(0.5)
FL_LOG2 = fractional_linear_family(CosineProfile(math.log(2.0)))

ALL_FAMILIES = [KAN05, INV05, FL_LOG2,
                fractional_linear_family(StepProfile((1.0, -1.0, 0.5)))]


def kan_map(a):
    return lambda y: y + a * y * (1.0 - y)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.3])
def test_kan_epsilon_gate(eps):
    with pytest.raises(PreconditionError):
        kan_family(eps)
    with pytest.raises(PreconditionError):
        inverse_kan_family(eps)


def test_fractional_linear_requires_profile():
    with pytest.raises(PreconditionError):
        fractional_linear_family(None)


@pytest.mark.parametrize("value", [math.inf, math.nan, 10**400, Fraction(-(10**400), 3)],
                         ids=["inf", "nan", "huge-int", "huge-fraction"])
def test_step_profile_refuses_values_past_the_float_range(value):
    # an exact value too large for a float is refused, not an OverflowError
    with pytest.raises(PreconditionError, match="finite"):
        StepProfile((1.0, value))


def test_step_profile_mean():
    assert StepProfile((1.0, -1.0)).mean() == 0.0
    assert StepProfile((1.0, 1.0, -1.0)).mean() == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert CosineProfile(0.75).mean() == 0.0


def test_cosine_displacement_matches_the_allocating_expression_bit_for_bit():
    # the cosine is evaluated in place in one scratch array; it must keep the
    # bits of amplitude * cos(2*pi*x) computed with a fresh array per step
    rng = np.random.default_rng(77)
    inputs = [rng.uniform(0.0, 1.0, 100_000), rng.uniform(-3.0, 4.0, 10_000),
              np.array([0.0, 0.5, 1.0 - 2.0**-53, -0.0, 0.25, 1.0]),
              rng.uniform(0.0, 1.0, (7, 3)),
              0.0, 0.5, 1.0 - 2.0**-53, 0.3, np.float64(0.7), np.array(0.1234)]
    cases = [(CosineProfile(amp), amp) for amp in (0.5, 0.99, -0.3, math.log(2.0))]
    cases += [(kan_family(eps), eps) for eps in (0.5, 0.9)]
    for owner, amp in cases:
        for x in inputs:
            want = amp * np.cos(2.0 * np.pi * np.asarray(x, dtype=float))
            got = owner.displacement(x)
            assert np.shape(got) == np.shape(want)
            assert (np.asarray(got).view(np.uint64) == np.asarray(want).view(np.uint64)).all()
    # scalar callers read the same parameter
    a = float(0.5 * np.cos(2.0 * np.pi * 0.3))
    assert eval_fiber(KAN05, 0.3, 0.4) == 0.4 + a * 0.4 * (1.0 - 0.4)


#: heights at which rounding is most delicate: zero, subnormals, the
#: floats next to 1/2 and the last floats below 1
EDGE_HEIGHTS = [0.0, 5e-324, 1e-323, 2.0**-1022, 1e-300, 2.0**-53, 1e-3,
                math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 0.3, 0.7,
                0.999, 1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0]


@pytest.mark.parametrize("kind", [fiber.KAN, fiber.INVERSE_KAN])
def test_array_apply_is_the_scalar_apply_bit_for_bit(kind):
    # the orbit loop steps one height with math, eval_fiber and _apply_fiber
    # use numpy: both must round alike
    rng = np.random.default_rng(79)
    a = np.concatenate([rng.uniform(-0.999, 0.999, 2000),
                        [0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 0.999, -0.999, 5e-324]])
    heights = list(EDGE_HEIGHTS)
    heights += rng.uniform(0.0, 1e-300, 5).tolist() + rng.uniform(0.49, 0.51, 5).tolist()
    heights += (1.0 - rng.uniform(0.0, 1e-15, 5)).tolist()
    apply = _KERNELS[kind]["apply"]
    for y in heights:
        want = np.array([apply(p, y, math) for p in a.tolist()])
        assert np.array_equal(apply(a, y, np).view(np.uint64), want.view(np.uint64)), y


def test_kan_apply_is_non_decreasing_in_the_parameter():
    # the premise of the -B, +B proof in _scalar_orbit: at a fixed height the
    # rounded Kan image never falls as a grows, in the scalar and the array
    # kernel, so a height that -B and +B both fix is fixed by all of [-B, B]
    assert _KERNELS[fiber.KAN]["monotone"]
    rng = np.random.default_rng(80)
    a = np.sort(np.concatenate([
        np.linspace(-0.999, 0.999, 1999), rng.uniform(-0.999, 0.999, 2000),
        [-0.5, 0.5, math.nextafter(0.5, 0.0), math.nextafter(-0.5, 0.0),
         -5e-324, 0.0, 5e-324, 2.0**-60, -(2.0**-60)]]))
    assert a[0] >= -0.999 and a[-1] <= 0.999 and {-0.5, 0.5} <= set(a.tolist())
    heights = EDGE_HEIGHTS + rng.uniform(0.0, 1e-300, 5).tolist()
    heights += (1.0 - rng.uniform(0.0, 1e-15, 5)).tolist()
    apply = _KERNELS[fiber.KAN]["apply"]
    for y in heights:
        scalar = np.array([apply(p, y, math) for p in a.tolist()])
        assert (np.diff(scalar) >= 0.0).all(), y
        assert (np.diff(apply(a, y, np)) >= 0.0).all(), y
    # at 5e-324 the parameters +-0.5 are the ties: a*y rounds to 0
    assert apply(-0.5, 5e-324, math) == 5e-324 == apply(0.5, 5e-324, math)
    assert apply(-0.75, 5e-324, math) == 0.0 and apply(0.75, 5e-324, math) == 1e-323


CHUNKED_FAMILIES = [KAN05, INV05, kan_family(0.05), FL_LOG2,
                    fiber.FiberFamily(fiber.KAN, StepProfile((0.6, -0.3, 0.0))),
                    fractional_linear_family(StepProfile((1.0, -1.0, 0.5, 2.0, -2.5)))]


@pytest.mark.parametrize("family", CHUNKED_FAMILIES, ids=lambda f: f"{f.kind}-{f.profile}")
def test_chunked_displacement_is_the_whole_arrays_slice_bit_for_bit(family):
    # the orbit loop computes parameters a chunk at a time: a vectorised
    # kernel's tail, at offsets and lengths off multiples of 8 and of the
    # chunk, must not change a parameter
    xs = np.concatenate([base_orbit_angles(3, 0.1234, 3 * CHUNK + 77, seed=5),
                         [0.0, 0.25, 0.5, 0.75, 1.0, 1.0 - 2.0**-53, 1.0 / 3.0]])
    whole = family.displacement(xs).view(np.uint64)
    params = fiber._Parameters(xs, family.displacement, family.profile.bound())
    for lo, hi in [(0, 1), (0, 7), (3, 12), (5, 5 + CHUNK), (13, 13 + CHUNK + 3),
                   (CHUNK - 1, 3 * CHUNK + 1), (2 * CHUNK + 9, xs.size), (xs.size - 3, xs.size),
                   (0, xs.size)]:
        want = whole[lo:hi]
        assert np.array_equal(family.displacement(xs[lo:hi]).view(np.uint64), want), (lo, hi)
        assert np.array_equal(params[lo:hi].view(np.uint64), want), (lo, hi)


@pytest.mark.parametrize("family", [None, INV05, fiber.FiberFamily(fiber.INVERSE_KAN,
                                                                    StepProfile((0.6, -0.3, 0.0)))],
                         ids=["held", "cosine", "step"])
@pytest.mark.parametrize("lanes, length", [(3, 2 * fiber._BLOCK), (5, 3 * fiber._BLOCK + 17),
                                           (2, 7)])
def test_lane_major_parameters_are_the_transposed_lanes_bit_for_bit(family, lanes, length):
    # lanes reads the parameters _BLOCK rows at a time, and a last block may
    # be short; the parameters past lanes * length are never read
    xs = base_orbit_angles(3, 0.1234, lanes * length + 11, seed=5)
    if family is None:
        values, params = xs, fiber._Parameters(xs)
    else:
        values = family.displacement(xs)
        params = fiber._Parameters(xs, family.displacement, family.profile.bound())
    got = params.lanes(lanes, length)
    assert got.shape == (length, lanes) and got.flags.c_contiguous
    want = values[:lanes * length].reshape(lanes, length).T
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_inverse_kan_terms_and_roots_are_the_step_bit_for_bit():
    # the lane orbit's block of terms, then one root a round, rounds every
    # height as successive step kernels and the apply kernel do
    heights = [0.0, 1.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53, 0.5]
    coefs = [0.999, -0.999, 0.0, -0.0]
    y0 = np.repeat(heights, len(coefs))
    A = np.array([np.roll(np.tile(coefs, len(heights)), r) for r in range(len(coefs))])
    P, S, Q = np.empty((3,) + A.shape)
    P[...] = A
    fiber._kan_invert_terms(P, S, Q)
    got, step, apply = y0, y0, y0
    for r in range(A.shape[0]):
        got = fiber._kan_invert_root(P[r], S[r], Q[r], got, P[r])
        step = fiber._kan_invert_step(A[r].copy(), step)
        apply = fiber._kan_invert(A[r], apply, np)
        assert np.array_equal(got.view(np.uint64), step.view(np.uint64)), r
        assert np.array_equal(got.view(np.uint64), apply.view(np.uint64)), r


@pytest.mark.parametrize("kind", sorted(_KERNELS))
def test_step_kernel_is_apply_in_place_bit_for_bit(kind):
    # the classifier's in-place fibre step must round as the apply kernel does
    rng = np.random.default_rng(78)
    y = np.concatenate([rng.uniform(0.0, 1.0, 50_000),
                        [0.0, 1.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53, 0.5, 0.5]])
    a = rng.uniform(-0.999, 0.999, y.size)
    a[-6:] = [0.0, -0.0, 0.999, -0.999, 5e-324, 0.0]
    if kind == FRACTIONAL_LINEAR:
        a *= 40.0
    kernels = _KERNELS[kind]
    p = kernels["coef"](a)
    want = kernels["apply"](p, y, np)
    scratch = p.copy()
    got = kernels["step"](scratch, y)
    assert got is scratch
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


LANE = fiber._LANE
LANE_FAMILIES = [make(eps) for make in (kan_family, inverse_kan_family) for eps in (0.1, 0.5, 0.9)]
LANE_FAMILIES += [fiber.FiberFamily(kind, StepProfile((0.6, -0.3, 0.0)))
                  for kind in (fiber.KAN, fiber.INVERSE_KAN)]


def _plain_orbit(kind, a, y):
    """The orbit by one scalar apply a step, the reference every orbit loop
    must equal bit for bit: its heights and the height after them."""
    apply = _KERNELS[kind]["apply"]
    heights = []
    for p in a.tolist():
        heights.append(y)
        y = apply(p, y, math)
    return np.array(heights, dtype=float), y


def _lane_and_plain_orbits(family, a, y):
    """(_fiber_orbit, plain loop) heights as uint64 bit patterns."""
    got = fiber._fiber_orbit(family, fiber._Parameters(a), y)
    want, _ = _plain_orbit(family.kind, a, y)
    return got.view(np.uint64), want.view(np.uint64)


def _count_lane_kernels(monkeypatch):
    """Count the calls of the lane orbit's two kernels: the root, one a
    numpy round, and the parameter terms, one a block of rounds."""
    calls = {"root": 0, "terms": 0}
    for name, kernel in (("root", fiber._kan_invert_root), ("terms", fiber._kan_invert_terms)):
        def counted(*args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(fiber, f"_kan_invert_{name}", counted)
    return calls


@pytest.fixture
def paths(monkeypatch):
    """Inverse-Kan orbits of two lanes or more run in lanes; records each
    lane run's verdict (None: fell back to the scalar loop) and its rounds,
    and checks that the run took the parameter terms once a block."""
    monkeypatch.setattr(fiber, "_MIN_LANES", 2)
    seen = {"lanes": [], "rounds": []}
    lane_orbit = fiber._lane_orbit
    calls = _count_lane_kernels(monkeypatch)

    def traced_lanes(*args):
        calls.update(root=0, terms=0)
        seen["lanes"].append(lane_orbit(*args))
        seen["rounds"].append(calls["root"])
        assert calls["terms"] * fiber._BLOCK == calls["root"]
        return seen["lanes"][-1]

    monkeypatch.setattr(fiber, "_lane_orbit", traced_lanes)
    return seen


def _settling_pass(rounds):
    """The pass of LANE rounds in which a lane run that took rounds settled."""
    return -(-rounds // LANE)


@pytest.mark.parametrize("family", LANE_FAMILIES, ids=lambda f: f"{f.kind}-{f.profile}")
def test_lane_orbit_is_the_scalar_loop_bit_for_bit(family, paths):
    xs = base_orbit_angles(3, 0.1234, 10 * LANE // 3, seed=5)
    a = family.displacement(xs)
    for n in (0, 1, LANE - 1, LANE, 2 * LANE - 1, 2 * LANE, 2 * LANE + 1, a.size):
        got, want = _lane_and_plain_orbits(family, a[:n], 0.4)
        assert np.array_equal(got, want), n
    for y in (1e-3, 2.0**-40, 0.999, 1.0 - 2.0**-40):
        got, want = _lane_and_plain_orbits(family, a, y)
        assert np.array_equal(got, want), y
    # the inverse-Kan orbits of two lanes or more ran in lanes, and Kan
    # orbits only in the scalar loop
    assert len(paths["lanes"]) == (3 + 4 if family.kind == fiber.INVERSE_KAN else 0)


def test_lane_orbit_settles_in_the_second_pass(paths):
    # strong contraction: every lane meets the true orbit well within a lane
    family = inverse_kan_family(0.9)
    a = family.displacement(base_orbit_angles(3, 0.3, 12 * LANE + 77, seed=9))
    got, want = _lane_and_plain_orbits(family, a, 0.6)
    assert np.array_equal(got, want)
    assert paths["lanes"][0] is not None
    assert _settling_pass(paths["rounds"][0]) == 2


def _orbit_with_identity_lanes(identity):
    """An inverse-Kan orbit of 40 strongly contracting lanes whose lanes
    32, 33, ... are identity lanes (a = 0).
    An identity lane hands its start on unchanged, so the true height
    crosses one of them a pass: m identity lanes settle in pass m + 2."""
    family = inverse_kan_family(0.9)
    a = family.displacement(base_orbit_angles(3, 0.3, 40 * LANE, seed=9))
    a[32 * LANE:(32 + identity) * LANE] = 0.0
    return family, a


@pytest.mark.parametrize("identity", [1, 2])
def test_lane_orbit_settles_in_a_later_pass_behind_identity_lanes(identity, paths):
    family, a = _orbit_with_identity_lanes(identity)
    got, want = _lane_and_plain_orbits(family, a, 0.6)
    assert np.array_equal(got, want)
    assert paths["lanes"][0] is not None
    assert _settling_pass(paths["rounds"][0]) == identity + 2


def test_lane_orbit_falls_back_when_identity_lanes_outlast_the_rounds(paths):
    # three identity lanes need five passes, and the rounds allow four
    assert fiber._ROUNDS == 4 * LANE
    family, a = _orbit_with_identity_lanes(3)
    got, want = _lane_and_plain_orbits(family, a, 0.6)
    assert np.array_equal(got, want)
    assert paths["lanes"] == [None]
    assert paths["rounds"] == [fiber._ROUNDS]


def test_lane_orbit_rounds_of_a_long_inverse_kan_orbit(monkeypatch):
    # time-free: the numpy rounds (root calls) of one 1e6-step INV3 orbit;
    # 4224 when lanes of 2048 steps began to repeat their passes, 6232 with
    # two passes over lanes of 4096 steps; the parameter terms are taken
    # once a block of rounds
    calls = _count_lane_kernels(monkeypatch)
    family = inverse_kan_family(0.5)
    a = family.displacement(base_orbit_angles(3, 0.1234, 10**6, seed=5))
    fiber._fiber_orbit(family, fiber._Parameters(a), 0.4)
    assert 0 < calls["root"] <= 4224
    assert calls["terms"] * fiber._BLOCK == calls["root"]


@pytest.mark.parametrize("family, rounds", [(inverse_kan_family(0.1), [fiber._ROUNDS]),
                                            (kan_family(0.5), [])],
                         ids=["slow-contraction", "attracting-boundaries"])
def test_lane_orbit_falls_back_when_lanes_contract_too_slowly(family, rounds, paths):
    a = family.displacement(base_orbit_angles(3, 0.1234, 12 * LANE, seed=7))
    got, want = _lane_and_plain_orbits(family, a, 0.4)
    assert np.array_equal(got, want)
    # slow lanes fall back after the round budget; Kan lanes, whose
    # boundaries attract, are never run
    assert paths["lanes"] == [None] * len(rounds)
    assert paths["rounds"] == rounds


def test_lane_orbit_from_angles_falls_back_to_the_family(paths):
    # a family's lanes that fall back hand the scalar loop the family and
    # the angles, which it reads again from the first
    family = inverse_kan_family(0.1)
    n = 64 * LANE + 777
    xs, ys = orbit_points(CylinderSystem(3, family), CylPoint(0.1234, 0.4), n, seed=7)
    want, _ = _plain_orbit(family.kind, family.displacement(xs), 0.4)
    assert np.array_equal(ys.view(np.uint64), want.view(np.uint64))
    assert paths["lanes"] == [None]


CHUNK = fiber._ORBIT_CHUNK
#: an orbit length that is not a multiple of the chunk
N_RUN = 5 * CHUNK + 123


class _Reached(fiber._Parameters):
    """_Parameters that record the end of the furthest slice read: the
    steps an orbit loop took."""
    reach = 0

    def __getitem__(self, s):
        self.reach = max(self.reach, s.indices(self.size)[1])
        return super().__getitem__(s)


def _counted_scalar_orbit(kind, a, y):
    """_scalar_orbit's heights as uint64 bits, the height after them and the
    number of parameters it stepped."""
    params, out = _Reached(a), np.empty(a.size)
    end = fiber._scalar_orbit(_KERNELS[kind], params, y, out)
    return out.view(np.uint64), end, params.reach


def _assert_plain(kind, a, y):
    """_scalar_orbit equals the plain loop bit for bit; returns (end, steps)."""
    got, end, steps = _counted_scalar_orbit(kind, a, y)
    want, want_end = _plain_orbit(kind, a, y)
    assert np.array_equal(got, want.view(np.uint64))
    assert np.array([end]).view(np.uint64) == np.array([want_end]).view(np.uint64)
    return end, steps


@pytest.mark.parametrize("eps, y, stuck", [
    (0.5, 1e-300, 5e-324), (0.5, 0.4, 1.0 - 2.0**-53), (0.9, 0.4, 1.0),
    (0.9, 1e-300, 0.0), (0.05, 1.0 - 1e-12, 1.0 - 5 * 2.0**-52), (0.05, 1e-320, 5e-323)])
def test_scalar_orbit_skips_kan_fixed_heights_bit_for_bit(eps, y, stuck):
    # Kan orbits end at a float that every fibre of the family maps to itself
    a = kan_family(eps).displacement(base_orbit_angles(3, 0.1234, N_RUN, seed=5))
    end, steps = _assert_plain(fiber.KAN, a, y)
    assert end == stuck
    assert steps < a.size  # the stuck tail was proved by -max|a| and +max|a|


@pytest.mark.parametrize("family", [kan_family(0.5), kan_family(0.9), kan_family(0.05),
                                    inverse_kan_family(0.5),
                                    fiber.FiberFamily(fiber.KAN, StepProfile((0.6, -0.3, 0.0)))],
                         ids=lambda f: f"{f.kind}-{f.profile}")
@pytest.mark.parametrize("y", [0.4, 1e-300, 1.0 - 1e-12, 1e-320, 0.0, 1.0])
def test_scalar_orbit_from_angles_computes_only_the_parameters_it_steps(family, y):
    # given the angles, the loop computes the parameters a chunk at a time:
    # its heights are the plain loop's over all the parameters bit for bit,
    # and once a Kan height sticks at a float that -sup|p| and +sup|p| both
    # fix, no parameter is computed past the first full chunk after that
    xs = base_orbit_angles(3, 0.1234, N_RUN, seed=5)
    params = _Reached(xs, family.displacement, family.profile.bound())
    out = np.empty(N_RUN)
    kernels = _KERNELS[family.kind]
    end = fiber._scalar_orbit(kernels, params, y, out)
    want, want_end = _plain_orbit(family.kind, family.displacement(xs), y)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
    assert np.array([end]).view(np.uint64) == np.array([want_end]).view(np.uint64)
    # the first index from which the orbit stays at its end
    moving = np.flatnonzero(want != want_end)
    first = int(moving[-1]) + 1 if moving.size else 0
    bound = family.profile.bound()
    apply = kernels["apply"]
    proved = (kernels["monotone"]
              and apply(-bound, want_end, math) == want_end == apply(bound, want_end, math))
    assert params.reach <= min(first + 2 * CHUNK, N_RUN) if proved else params.reach == N_RUN


@pytest.mark.parametrize("y, steps", [(0.4, N_RUN), (1e-300, N_RUN), (0.0, N_RUN)])
def test_scalar_orbit_of_inverse_kan_bit_for_bit(y, steps):
    # inverse-Kan fibres push heights off the ends: only 0 stays fixed (at 1
    # the quadratic root rounds off 1, see the xfail below), and the loop,
    # which has no proof that an inverse-Kan height is stuck, steps it on
    a = inverse_kan_family(0.5).displacement(base_orbit_angles(3, 0.1234, N_RUN, seed=5))
    assert _assert_plain(fiber.INVERSE_KAN, a, y)[1] == steps


@pytest.mark.parametrize("kind", [fiber.KAN, fiber.INVERSE_KAN])
@pytest.mark.parametrize("moved", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK,
                                   2 * CHUNK + 1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1,
                                   N_RUN - 1])
def test_scalar_orbit_moves_at_the_first_parameter_that_moves(kind, moved):
    # a = 0 is the identity: the height is stuck but for one parameter, placed
    # about the ends of chunks.  A Kan run is proved stuck after the chunk
    # that moves it and one full chunk more, when -max|a| and +max|a| of the
    # parameters left both fix it; inverse Kan has no such proof and steps on
    a = np.zeros(N_RUN)
    a[moved] = 0.5
    end, steps = _assert_plain(kind, a, 0.4)
    assert end != 0.4
    assert steps == (min((moved // CHUNK + 2) * CHUNK, N_RUN) if kind == fiber.KAN else N_RUN)


def test_stuck_proof_needs_both_ends_of_the_bound():
    # below 0.5 the floats are twice as dense: a*y*(1-y) = +-1.5 * 2**-55
    # rounds back to 0.5 above it and to the float below it, so +B alone
    # would not prove the run that -B ends
    b = 1.5 * 2.0**-53
    a = np.full(N_RUN, b)
    a[3 * CHUNK + 5] = -b
    apply = _KERNELS[fiber.KAN]["apply"]
    assert apply(b, 0.5, math) == 0.5 and apply(-b, 0.5, math) == 0.5 - 2.0**-54
    _assert_plain(fiber.KAN, a, 0.5)


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
def test_scalar_orbit_at_short_and_ragged_lengths(n):
    kan = kan_family(0.9).displacement(base_orbit_angles(3, 0.1234, n, seed=5))
    for a in (np.zeros(n), kan):
        for y in (0.4, 1.0):
            _assert_plain(fiber.KAN, a, y)


def test_step_profile_reads_the_digit_of_x_mod_1():
    prof = StepProfile((3.0, -3.0, 0.5))
    xs = np.array([-0.25, 0.75, 1.5, 0.5, 1.0, 0.0, -1.0, 1.0 - 2.0**-53, 2.0 / 3.0])
    assert prof.displacement(xs).tolist() == [0.5, 0.5, -3.0, -3.0, 3.0, 3.0, 3.0, 0.5, 0.5]
    assert prof.displacement(1.0) == 3.0  # x = 1.0 is the angle 0
    # inside [0, 1) the digit is min(int(k*x), k - 1), as it always was
    x = np.random.default_rng(8).uniform(0.0, 1.0, 50_000)
    assert (prof.displacement(x) == np.asarray(prof.values)[
        np.minimum((x * 3).astype(int), 2)]).all()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_identity_fiber_at_quarter_angle():
    # a = 0.5*cos(pi/2) vanishes, so the fiber is the identity
    assert eval_fiber(KAN05, 0.25, 0.3) == pytest.approx(0.3, abs=1e-15)


def test_eval_kan_hand_value():
    assert eval_fiber(KAN05, 0.0, 0.5) == 0.625


def test_eval_moebius_hand_value():
    # displacement log 2 at x = 0, so a = 2 and g(1/2) = 2/3
    assert eval_fiber(FL_LOG2, 0.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_boundaries_fixed_exactly(family):
    for x in np.linspace(0.0, 1.0, 256, endpoint=False):
        assert eval_fiber(family, float(x), 0.0) == 0.0
        assert eval_fiber(family, float(x), 1.0) == 1.0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_eval_domain_gate(family):
    with pytest.raises(DomainError):
        eval_fiber(family, 0.1, -0.01)
    with pytest.raises(DomainError):
        eval_fiber(family, 0.1, 1.01)


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------

def test_kan_derivative_endpoints():
    assert fiber_derivative(KAN05, 0.0, 0.0) == 1.5
    assert fiber_derivative(KAN05, 0.0, 1.0) == 0.5


def test_moebius_derivative_identity():
    fam = fractional_linear_family(StepProfile((0.0, 0.0)))
    for y in np.linspace(0.0, 1.0, 11):
        assert fiber_derivative(fam, 0.1, float(y)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_monotonicity_grid(family):
    xs = (np.arange(64) + 0.5) / 64
    ys = (np.arange(64) + 0.5) / 64
    for x in xs:
        for y in ys:
            assert fiber_derivative(family, float(x), float(y)) > 0.0


def test_derivative_matches_finite_difference():
    h = 1e-6
    for family in ALL_FAMILIES:
        for x in (0.0, 0.13, 0.77):
            for y in (0.2, 0.5, 0.8):
                fd = (eval_fiber(family, x, y + h) - eval_fiber(family, x, y - h)) / (2 * h)
                assert fiber_derivative(family, x, y) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_kan_hand_value():
    assert invert_fiber(KAN05, 0.0, 0.625) == 0.5


def test_invert_identity_fiber():
    for y in np.linspace(0.0, 1.0, 9):
        assert invert_fiber(KAN05, 0.25, float(y)) == pytest.approx(float(y), abs=1e-15)


def test_inverse_kan_inverse_is_forward_kan():
    for x in (0.0, 0.1, 0.6):
        for y in (0.1, 0.5, 0.9):
            assert invert_fiber(INV05, x, y) == eval_fiber(KAN05, x, y)


def test_invert_roundtrip_small_amplitude():
    # the stable quadratic root must survive a -> 0 without cancellation
    fam = kan_family(1e-12)
    for y in (0.1, 0.5, 0.9):
        assert invert_fiber(fam, 0.0, eval_fiber(fam, 0.0, y)) == pytest.approx(y, abs=1e-13)


# ---------------------------------------------------------------------------
# curvature invariant
# ---------------------------------------------------------------------------

def test_schwarzian_kan_hand_value():
    assert schwarzian_analytic(KAN05, 0.0, 0.5) == -1.5


def test_schwarzian_inverse_kan_hand_value():
    assert schwarzian_analytic(INV05, 0.0, 0.625) == pytest.approx(1.5, abs=1e-12)


def test_schwarzian_fractional_linear_is_zero():
    for x in (0.0, 0.2, 0.9):
        for y in (0.1, 0.5, 0.9):
            assert schwarzian_analytic(FL_LOG2, x, y) == 0.0


def test_schwarzian_sign_table():
    xs = [x for x in np.linspace(0.0, 1.0, 37, endpoint=False)
          if abs(math.cos(2 * math.pi * x)) > 1e-3]
    for x in xs:
        for y in (0.05, 0.3, 0.5, 0.95):
            assert schwarzian_analytic(KAN05, float(x), y) < 0.0
            assert schwarzian_analytic(INV05, float(x), y) > 0.0


def test_schwarzian_numeric_matches_analytic():
    got = schwarzian_numeric(kan_map(0.5), 0.5, h=1e-3)
    assert got == pytest.approx(-1.5, abs=1e-4)


def test_schwarzian_numeric_identity_and_moebius():
    assert schwarzian_numeric(lambda y: y, 0.37, h=1e-2) == pytest.approx(0.0, abs=1e-8)
    m = MoebiusMap(1.0)
    assert schwarzian_numeric(lambda y: moebius_eval(m, y), 0.3, h=1e-3) == pytest.approx(0.0, abs=1e-4)


def test_schwarzian_numeric_stencil_gate():
    with pytest.raises(DomainError):
        schwarzian_numeric(lambda y: y, 0.001, h=1e-3)
    with pytest.raises(PreconditionError):
        schwarzian_numeric(lambda y: y, 0.5, h=0.0)


def test_schwarzian_composition_rule():
    # S(f o g) = (g')^2 * Sf(g) + Sg, checked by finite differences
    for a in (-0.5, -0.3, 0.3, 0.5):
        for b in (-0.5, -0.3, 0.3, 0.5):
            f, g = kan_map(a), kan_map(b)
            for y in np.arange(0.1, 0.95, 0.1):
                y = float(y)
                gp = (1.0 + b) - 2.0 * b * y
                sf = -6.0 * a * a / ((1.0 + a) - 2.0 * a * g(y)) ** 2
                sg = -6.0 * b * b / ((1.0 + b) - 2.0 * b * y) ** 2
                expected = gp * gp * sf + sg
                got = schwarzian_numeric(lambda t: f(g(t)), y, h=1e-3)
                assert got == pytest.approx(expected, abs=1e-3)


def test_concavity_of_inverse_sqrt_derivative():
    # negative curvature <=> 1/sqrt(f') concave upward
    a = 0.5
    phi = lambda y: 1.0 / math.sqrt((1.0 + a) - 2.0 * a * y)
    h = 1e-4
    for y in np.linspace(0.01, 0.99, 100):
        y = float(y)
        second = (phi(y + h) - 2.0 * phi(y) + phi(y - h)) / (h * h)
        assert second >= -1e-9


def test_derivative_product_below_one():
    for x in (np.arange(64) + 0.5) / 64:
        x = float(x)
        a = 0.5 * math.cos(2.0 * math.pi * x)
        if abs(a) < 1e-6:
            continue
        prod = fiber_derivative(KAN05, x, 0.0) * fiber_derivative(KAN05, x, 1.0)
        assert prod < 1.0
        assert prod == pytest.approx(1.0 - a * a, abs=1e-15)


def test_interior_fixed_point_free():
    # positive displacement: the only fixed points on [0, 1] are the endpoints
    ys = np.linspace(0.0, 1.0, 2001)
    vals = np.array([eval_fiber(KAN05, 0.0, float(y)) - float(y) for y in ys])
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert (vals[1:-1] > 0.0).all()
    assert fiber_derivative(KAN05, 0.0, 0.0) > 1.0 > fiber_derivative(KAN05, 0.0, 1.0)


# ---------------------------------------------------------------------------
# cross-ratio and the hyperbolic coordinate
# ---------------------------------------------------------------------------

def test_cross_ratio_hand_value():
    assert cross_ratio(0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0) == pytest.approx(4.0, abs=1e-12)


def test_cross_ratio_degeneracy():
    assert cross_ratio(0.0, 0.5, 0.5 + 1e-9, 1.0) > 1.0
    with pytest.raises(DegenerateQuadrupleError):
        cross_ratio(0.0, 0.5, 0.5, 1.0)


def _ordered_quadruples(count, rng, min_gap=1e-3):
    out = []
    while len(out) < count:
        q = np.sort(rng.uniform(0.0, 1.0, 4))
        if np.diff(q).min() >= min_gap:
            out.append(tuple(float(v) for v in q))
    return out


def test_cross_ratio_exceeds_one_on_ordered_quadruples():
    rng = np.random.default_rng(101)
    for q in _ordered_quadruples(1000, rng):
        assert cross_ratio(*q) > 1.0


def test_cross_ratio_monotonicity_by_family():
    rng = np.random.default_rng(202)
    quads = _ordered_quadruples(1000, rng)
    m = MoebiusMap(0.8)
    for q in quads:
        rho = cross_ratio(*q)
        up = cross_ratio(*(eval_fiber(KAN05, 0.0, y) for y in q))
        down = cross_ratio(*(eval_fiber(INV05, 0.0, y) for y in q))
        kept = cross_ratio(*(moebius_eval(m, y) for y in q))
        assert up > rho
        assert down < rho
        assert kept == pytest.approx(rho, rel=1e-12)


def test_poincare_coord_values():
    assert poincare_coord(0.5) == 0.0
    assert poincare_coord(2.0 / 3.0) == pytest.approx(math.log(2.0), abs=1e-12)
    assert poincare_coord_inv(1.0) == pytest.approx(0.7310585786300049, abs=1e-6)


def test_poincare_roundtrips():
    # y -> t -> y is tight across the whole window t in [-30, 30]; the
    # t -> y -> t direction is float64-limited to |t| <~ 9 at 1e-12 because
    # 1 - y rounds near the upper boundary (see the module docs)
    for t in np.linspace(-30.0, 30.0, 601):
        y = poincare_coord_inv(float(t))
        assert poincare_coord_inv(poincare_coord(y)) == pytest.approx(y, abs=1e-12)
    for t in np.linspace(-8.0, 8.0, 161):
        y = poincare_coord_inv(float(t))
        assert poincare_coord(y) == pytest.approx(float(t), abs=1e-12)


def test_poincare_coord_inv_on_arrays():
    t = np.linspace(-60.0, 60.0, 1201)
    assert np.array_equal(poincare_coord_inv(t), [poincare_coord_inv(float(v)) for v in t])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert poincare_coord_inv(-800.0) == 0.0
        assert poincare_coord_inv(800.0) == 1.0
        assert poincare_coord_inv(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]


def test_poincare_domain_gates():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            poincare_coord(bad)
    with pytest.raises(DomainError):
        poincare_distance(0.0, 0.5)


def test_poincare_distance_values():
    assert poincare_distance(0.25, 0.5) == pytest.approx(math.log(3.0), abs=1e-12)
    assert poincare_distance(0.37, 0.37) == 0.0


def test_poincare_distance_is_log_cross_ratio():
    rng = np.random.default_rng(303)
    for _ in range(1000):
        y1, y2 = np.sort(rng.uniform(0.01, 0.99, 2))
        if y2 - y1 < 1e-6:
            continue
        lhs = poincare_distance(float(y1), float(y2))
        rhs = abs(math.log(cross_ratio(0.0, float(y1), float(y2), 1.0)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_moebius_identity_and_hand_value():
    ident = MoebiusMap(0.0)
    for y in np.linspace(0.0, 1.0, 100):
        assert moebius_eval(ident, float(y)) == float(y)
    assert moebius_eval(MoebiusMap(math.log(2.0)), 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


#: the quadratic root 2y / (1 + a + sqrt((1+a)^2 - 4ay)) cancels (1+a)^2 - 4ay
#: down to about (1-a)^2 near y = 1: a = 0.9cos(pi/16), y = 1 - 2^-53 maps to 1 + 2^-51
_ROOT_OVERSHOOTS = pytest.mark.xfail(strict=True, reason="quadratic root rounds above 1")


@pytest.mark.parametrize("family_of, op", [
    (kan_family, eval_fiber),
    pytest.param(kan_family, invert_fiber, marks=_ROOT_OVERSHOOTS),
    pytest.param(inverse_kan_family, eval_fiber, marks=_ROOT_OVERSHOOTS),
    (inverse_kan_family, invert_fiber),
    (lambda c: fractional_linear_family(StepProfile((c,))), eval_fiber),
    (lambda c: fractional_linear_family(StepProfile((c,))), invert_fiber),
], ids=["kan-apply", "kan-invert", "inverse-kan-apply", "inverse-kan-invert",
        "moebius-apply", "moebius-invert"])
def test_fibers_keep_heights_near_the_ends_in_the_interval(family_of, op):
    # within 20 ulps of 0 and of 1 no image may leave [0, 1]; the Moebius
    # form e^c*y / (1 + (e^c - 1)*y) put 23 images and 23 preimages above 1
    near = [m * 5e-324 for m in range(1, 21)] + [1.0 - m * 2.0**-53 for m in range(1, 21)]
    if family_of in (kan_family, inverse_kan_family):
        cases = [(family_of(eps), float(x)) for eps in (0.01, 0.1, 0.5, 0.9, 0.99)
                 for x in np.linspace(0.0, 1.0, 33)[:-1]]
    else:
        cases = [(family_of(float(c)), 0.0) for c in np.arange(-299, 300) / 100.0]
    for family, x in cases:
        for y in near:
            assert 0.0 <= op(family, x, y) <= 1.0


def test_moebius_group_law():
    rng = np.random.default_rng(404)
    for _ in range(200):
        c1, c2 = rng.uniform(-3.0, 3.0, 2)
        y = float(rng.uniform(0.02, 0.98))
        lhs = moebius_eval(MoebiusMap(float(c1)), moebius_eval(MoebiusMap(float(c2)), y))
        rhs = moebius_eval(MoebiusMap(float(c1 + c2)), y)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_moebius_translates_poincare_coord():
    for c in (-2.0, -0.5, 0.3, 1.7):
        for y in (0.1, 0.4, 0.8):
            shifted = poincare_coord(moebius_eval(MoebiusMap(c), y))
            assert shifted == pytest.approx(poincare_coord(y) + c, abs=1e-12)
