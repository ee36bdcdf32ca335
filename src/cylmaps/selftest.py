"""Built-in acceptance suite.

Every check runs a desk-scale experiment with pinned parameters and seeds,
measures its runtime, and reports one pass/fail record.  A check passes when
its numbers are right and it met each of its time bounds; every bound
carries its own verdict, so a slow host can be told apart from a wrong number.
A bound limits the CPU seconds of the calling thread, which a scheduler
stall does not inflate; the wall seconds are reported beside them.
The CLI exposes the suite as ``selftest``; the artifacts (PPM raster plus CSV
tables) contain no timestamps or timings, so two runs with the same seeds are
byte-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .basins import intermingle_csv, intermingle_probe, measure_fractions, rasterize, write_ppm
from .cylinder import (
    CylinderSystem,
    CylPoint,
    _csv,
    backward_orbit_toward,
    check_kan_hypothesis,
    estimate_separator_batch,
    separator_csv,
    separator_sweep,
)
from .fiber import (
    KAN,
    MoebiusMap,
    StepProfile,
    _KERNELS,
    cross_ratio,
    eval_fiber,
    fiber_derivative,
    fractional_linear_family,
    inverse_kan_family,
    kan_family,
    moebius_eval,
    schwarzian_analytic,
    schwarzian_numeric,
)
from .lyapunov import exponent_report, kan_exponent_closed_form, transverse_exponent_quadrature
from .measures import birkhoff_average, histogram_csv, jacobian_max_defect, orbit_histogram, uniformity_stats
from .walks import (
    arcsine_csv,
    arcsine_ensemble,
    circle_equidistribution,
    cyclic_support_check,
    final_counts,
    fl_orbit_as_walk,
    occupation_csv,
    occupation_ratios,
)

KAN3 = CylinderSystem(3, kan_family(0.5))
INV3 = CylinderSystem(3, inverse_kan_family(0.5))
PM1 = StepProfile((1.0, -1.0))
#: the zero-curvature cylinder map; its orbits from y = 1/2 are PM1 walks from t = 0.
#: fl_orbit_as_walk does not read MID.x: its digits are those of a typical angle
FLAT2 = CylinderSystem(2, fractional_linear_family(PM1))
MID = CylPoint(0.0, 0.5)


@dataclass(frozen=True)
class TimeBound:
    """One time bound of a check: the timed part used cpu_seconds < limit of
    the thread's CPU time; wall_seconds, its wall-clock time, is reported."""

    label: str
    wall_seconds: float
    cpu_seconds: float
    limit: float

    @property
    def passed(self) -> bool:
        return self.cpu_seconds < self.limit


@dataclass(frozen=True)
class _Stopwatch:
    """Both clocks at the start of a timed part."""

    wall: float
    cpu: float

    @classmethod
    def start(cls) -> "_Stopwatch":
        return cls(time.perf_counter(), time.thread_time())

    def bound(self, label: str, limit: float) -> TimeBound:
        """The bound on the part timed from the start until now."""
        return TimeBound(label, time.perf_counter() - self.wall,
                         time.thread_time() - self.cpu, limit)


@dataclass(frozen=True)
class CheckResult:
    name: str
    correct: bool    # the verdict on the numbers alone
    detail: str      # deterministic; goes into report artifacts
    seconds: float
    bounds: tuple = ()  # TimeBound verdicts; never written to artifacts

    @property
    def passed(self) -> bool:
        return self.correct and all(b.passed for b in self.bounds)


def _result(name, watch, ok, detail, *bounds):
    return CheckResult(name=name, correct=bool(ok), detail=detail,
                       seconds=time.perf_counter() - watch.wall, bounds=bounds)


def check_exponent_oracle(artifacts=None) -> CheckResult:
    """Quadrature exponents vs the closed form, plus the sign law sweep."""
    watch = _Stopwatch.start()
    expected = kan_exponent_closed_form(0.5)
    l0 = transverse_exponent_quadrature(kan_family(0.5), 0, 4096)
    l1 = transverse_exponent_quadrature(kan_family(0.5), 1, 4096)
    inv0 = transverse_exponent_quadrature(inverse_kan_family(0.5), 0, 4096)
    core = watch.bound("core", 0.1)
    ok = (abs(l0 - expected) < 1e-6 and abs(l1 - expected) < 1e-6
          and abs(inv0 + expected) < 1e-6)
    signs_ok = True
    for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
        kan = exponent_report(CylinderSystem(3, kan_family(eps)), 2048)
        inv = exponent_report(CylinderSystem(3, inverse_kan_family(eps)), 2048)
        signs_ok &= kan.sum_sign == -1 and inv.sum_sign == 1
    detail = (f"lyap0={l0:.9f} lyap1={l1:.9f} closed={expected:.9f} "
              f"inverse={inv0:.9f} sign_law={'ok' if signs_ok else 'BAD'}")
    return _result("exponent_oracle", watch, ok and signs_ok, detail, core)


def check_schwarzian_identities(artifacts=None) -> CheckResult:
    """Composition rule, sign table, and the boundary derivative product."""
    watch = _Stopwatch.start()
    worst_comp = 0.0
    # q_a, q_a' and S q_a of the Kan kernels, at scalar heights
    q, dq, sq = (_KERNELS[KAN][op] for op in ("apply", "derivative", "schwarzian"))
    for a in (-0.5, -0.3, 0.3, 0.5):
        for b in (-0.5, -0.3, 0.3, 0.5):
            for y in np.arange(0.1, 0.95, 0.1):
                y = float(y)
                gp = dq(b, y, math)
                sf = sq(a, q(b, y, math), math)
                sg = sq(b, y, math)
                got = schwarzian_numeric(lambda t: q(a, q(b, t, math), math), y, h=1e-3)
                worst_comp = max(worst_comp, abs(got - (gp * gp * sf + sg)))
    kan, inv = kan_family(0.5), inverse_kan_family(0.5)
    moeb = MoebiusMap(1.0)
    signs_ok = True
    worst_moebius = 0.0
    xs = [x for x in np.linspace(0.0, 1.0, 33, endpoint=False)
          if abs(math.cos(2 * math.pi * x)) > 1e-3]
    for x in xs:
        for y in (0.1, 0.5, 0.9):
            signs_ok &= schwarzian_analytic(kan, float(x), y) < 0.0
            signs_ok &= schwarzian_analytic(inv, float(x), y) > 0.0
    # h = 5e-4 keeps the O(h^2) stencil truncation of the (non-polynomial)
    # Moebius map below 4e-5 across the sweep; h = 1e-3 peaks at 1.4e-4
    for y in (0.1, 0.3, 0.5, 0.7, 0.9):
        worst_moebius = max(worst_moebius,
                            abs(schwarzian_numeric(lambda t: moebius_eval(moeb, t), y, h=5e-4)))
    prod_ok = True
    worst_prod = 0.0
    for x in (np.arange(64) + 0.5) / 64:
        x = float(x)
        a = 0.5 * math.cos(2.0 * math.pi * x)
        if abs(a) < 1e-6:
            continue
        prod = fiber_derivative(kan, x, 0.0) * fiber_derivative(kan, x, 1.0)
        worst_prod = max(worst_prod, abs(prod - (1.0 - a * a)))
        prod_ok &= prod < 1.0
    elapsed = watch.bound("elapsed", 1.0)
    ok = (worst_comp < 1e-3 and signs_ok and worst_moebius < 1e-4
          and prod_ok and worst_prod < 1e-15)
    detail = (f"composition_err={worst_comp:.2e} moebius_err={worst_moebius:.2e} "
              f"product_err={worst_prod:.2e} signs={'ok' if signs_ok else 'BAD'}")
    return _result("schwarzian_identities", watch, ok, detail, elapsed)


def check_cross_ratio_monotonicity(artifacts=None) -> CheckResult:
    """Quadratic fibers raise, inverse fibers lower, Moebius maps preserve."""
    watch = _Stopwatch.start()
    rng = np.random.default_rng(202)
    kan, inv = kan_family(0.5), inverse_kan_family(0.5)
    moeb = MoebiusMap(0.8)
    raised = lowered = 0
    worst_kept = 0.0
    count = 0
    while count < 1000:
        q = np.sort(rng.uniform(0.0, 1.0, 4))
        if np.diff(q).min() < 1e-3:
            continue
        count += 1
        q = [float(v) for v in q]
        rho = cross_ratio(*q)
        raised += cross_ratio(*(eval_fiber(kan, 0.0, y) for y in q)) > rho
        lowered += cross_ratio(*(eval_fiber(inv, 0.0, y) for y in q)) < rho
        kept = cross_ratio(*(moebius_eval(moeb, y) for y in q))
        worst_kept = max(worst_kept, abs(kept / rho - 1.0))
    elapsed = watch.bound("elapsed", 1.0)
    ok = raised == 1000 and lowered == 1000 and worst_kept < 1e-12
    detail = (f"raised={raised}/1000 lowered={lowered}/1000 "
              f"moebius_rel_err={worst_kept:.2e}")
    return _result("cross_ratio_monotonicity", watch, ok, detail, elapsed)


def check_jacobian_branch_sum(artifacts=None) -> CheckResult:
    """Sum of the k inverse-branch Jacobians equals 1 at random points."""
    watch = _Stopwatch.start()
    worst = jacobian_max_defect(INV3, 1000, seed=11)
    elapsed = watch.bound("elapsed", 0.1)
    return _result("jacobian_branch_sum", watch, worst < 1e-12, f"max|sum-1|={worst:.2e}",
                   elapsed)


def check_intermingled_basins(artifacts=None) -> CheckResult:
    """Hypothesis gate, raster statistics and the box-sampling probe."""
    watch = _Stopwatch.start()
    hyp = check_kan_hypothesis(KAN3, x_minus=0.5, x_plus=0.0, radius=0.1)
    raster_watch = _Stopwatch.start()
    raster = rasterize(KAN3, 512, 512, 5000, 1e-6)
    raster_bound = raster_watch.bound("raster", 30.0)
    f0, f1, fu = measure_fractions(raster)
    probe_watch = _Stopwatch.start()
    probe = intermingle_probe(KAN3, 100, 1.0 / 64.0, 500, 5000, 1e-6, seed=1)
    probe_bound = probe_watch.bound("probe", 10.0)
    if artifacts is not None:
        artifacts["basins.ppm"] = write_ppm(raster)
        artifacts["fractions.csv"] = _csv("frac_basin0,frac_basin1,frac_undecided",
                                          [(f0, f1, fu)]).encode()
        artifacts["intermingle.csv"] = intermingle_csv(probe).encode()
    ok = (hyp.passed and fu < 0.02 and abs(f0 - f1) < 0.02
          and probe.boxes_both >= 90)
    detail = (f"hypothesis={'pass' if hyp.passed else 'FAIL'} frac0={f0:.4f} "
              f"frac1={f1:.4f} undecided={fu:.4f} boxes_both={probe.boxes_both}")
    return _result("intermingled_basins", watch, ok, detail,
                   raster_bound, probe_bound)


def check_backward_orbit(artifacts=None) -> CheckResult:
    """Backward orbit steered toward the marked angle lands on (1/2, 1)."""
    watch = _Stopwatch.start()
    pts = backward_orbit_toward(KAN3, CylPoint(0.1, 0.5), 0.5, 200)
    elapsed = watch.bound("elapsed", 0.01)
    end = pts[-1]
    ok = abs(end.x - 0.5) < 1e-6 and end.y > 0.999
    return _result("backward_orbit", watch, ok, f"x={end.x!r} y={end.y!r}", elapsed)


def check_separator(artifacts=None) -> CheckResult:
    """Separator brackets satisfy the pushforward functional equation."""
    watch = _Stopwatch.start()
    samples, good, total = separator_sweep(KAN3, 200, 5000, 1e-6, 1e-3, seed=42)
    edge0, edge5 = estimate_separator_batch(KAN3, [0.0, 0.5], 5000, 1e-6, 1e-3)
    if artifacts is not None:
        artifacts["separator.csv"] = separator_csv(samples).encode()
    elapsed = watch.bound("elapsed", 30.0)
    frac = good / total if total else 0.0
    ok = (total > 0 and frac >= 0.9 and edge0.sigma < 0.01
          and edge5.sigma > 0.99)
    detail = (f"functional_eq={good}/{total} sigma(0)={edge0.sigma:.2e} "
              f"sigma(1/2)={edge5.sigma:.6f}")
    return _result("separator", watch, ok, detail, elapsed)


def check_asymptotic_measure(artifacts=None) -> CheckResult:
    """Positive-curvature orbits equidistribute; negative-curvature collapse."""
    watch = _Stopwatch.start()
    start = CylPoint(0.1234, 0.4)
    hist = orbit_histogram(INV3, start, 10**6, 16, 16, burn_in=1000, seed=7)
    rep = uniformity_stats(hist)
    # one orbit: the second and third calls read the first one's means
    avg_y, avg_y2, avg_cos = (birkhoff_average(INV3, chi, start, 10**6, seed=8)
                              for chi in ("y", "y_squared", "cos_x"))
    kan_hist = orbit_histogram(KAN3, start, 10**6, 16, 16, burn_in=1000, seed=7)
    interior = float(kan_hist.counts[:, 2:14].sum() / kan_hist.total)
    if artifacts is not None:
        artifacts["histogram.csv"] = histogram_csv(hist).encode()
    elapsed = watch.bound("elapsed", 10.0)
    ok = (rep.max_rel_dev < 0.1 and abs(avg_y - 0.5) < 0.01
          and abs(avg_y2 - 1.0 / 3.0) < 0.01 and abs(avg_cos) < 0.01
          and interior < 0.05)
    detail = (f"max_rel_dev={rep.max_rel_dev:.4f} <y>={avg_y:.4f} "
              f"<y^2>={avg_y2:.4f} <cos>={avg_cos:.5f} "
              f"kan_interior={interior:.4f}")
    return _result("asymptotic_measure", watch, ok, detail, elapsed)


def check_random_walk(artifacts=None) -> CheckResult:
    """Band-occupation decay and wildness of zero-curvature orbits; arcsine law."""
    watch = _Stopwatch.start()
    single = occupation_ratios(fl_orbit_as_walk(FLAT2, MID, 10**6, seed=0), 1.0)
    single_final = float(single.b_over_n[-1])
    seeds = [int(sub.generate_state(1)[0]) for sub in np.random.SeedSequence(2024).spawn(100)]
    median_final = float(np.median(final_counts(PM1, 10**6, seeds, 1.0)[:, 1] / 10**6))
    arcs = arcsine_ensemble(PM1, 10**4, 2000, [0.5, 0.25], seed=11)
    by_eps = {p.eps: p for p in arcs}
    covered = 0
    for sub in np.random.SeedSequence(7).spawn(20):
        tr = fl_orbit_as_walk(FLAT2, MID, 10**6, seed=int(sub.generate_state(1)[0]))
        ratios = occupation_ratios(tr, 0.0).a_over_n
        if ratios.max() >= 0.95 and ratios.min() <= 0.05:
            covered += 1
    if artifacts is not None:
        artifacts["walk_ratios.csv"] = occupation_csv(single, every=1000).encode()
        artifacts["arcsine.csv"] = arcsine_csv(arcs).encode()
    elapsed = watch.bound("elapsed", 60.0)
    ok = (single_final < 0.01 and median_final < 0.005
          and abs(by_eps[0.5].empirical - 0.5) < 0.03
          and abs(by_eps[0.25].empirical - 1.0 / 3.0) < 0.04
          and covered >= 1)
    detail = (f"b/n={single_final:.5f} median={median_final:.5f} "
              f"arcsine(.5)={by_eps[0.5].empirical:.4f} "
              f"arcsine(.25)={by_eps[0.25].empirical:.4f} "
              f"wild={covered}/20")
    return _result("random_walk", watch, ok, detail, elapsed)


def check_equidistribution(artifacts=None) -> CheckResult:
    """A zero-curvature orbit mod pi equidistributes; mod 2 it sits on two atoms."""
    watch = _Stopwatch.start()
    tr = fl_orbit_as_walk(FLAT2, MID, 10**6, seed=123)
    irr = circle_equidistribution(tr, math.pi, 256)
    rat = circle_equidistribution(tr, 2.0, 256)
    support_pi = cyclic_support_check([1, -1], modulus_irrational=True)
    support_2 = cyclic_support_check([1, -1], modulus=2)
    if artifacts is not None:
        artifacts["equidist.csv"] = _csv("modulus,bins,cdf_deviation,cyclic_support", [
            ("pi", irr.bins, irr.cdf_deviation, int(support_pi)),
            ("2", rat.bins, rat.cdf_deviation, int(support_2))]).encode()
    elapsed = watch.bound("elapsed", 5.0)
    ok = (irr.cdf_deviation < 0.01 and not support_pi
          and rat.cdf_deviation > 0.2 and support_2)
    detail = (f"dev(pi)={irr.cdf_deviation:.5f} dev(2)={rat.cdf_deviation:.3f} "
              f"support(pi)={support_pi} support(2)={support_2}")
    return _result("equidistribution", watch, ok, detail, elapsed)


ALL_CHECKS = (
    check_exponent_oracle,
    check_schwarzian_identities,
    check_cross_ratio_monotonicity,
    check_jacobian_branch_sum,
    check_intermingled_basins,
    check_backward_orbit,
    check_separator,
    check_asymptotic_measure,
    check_random_walk,
    check_equidistribution,
)


def run_selftest():
    """Run every check; returns (results, artifacts)."""
    artifacts: dict[str, bytes] = {}
    results = [check(artifacts) for check in ALL_CHECKS]
    report = "".join(
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n" for r in results)
    artifacts["report.txt"] = report.encode()
    return results, artifacts
