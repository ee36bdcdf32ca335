"""Command-line front end.

Each experiment is one subcommand with desk-scale defaults; reports go to
standard output prefixed by the subcommand name, and optional CSV/PPM
artifacts are byte-reproducible for a fixed seed.  Exit codes: 0 success,
1 failed selftest or I/O error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from .basins import intermingle_csv, intermingle_probe, measure_fractions, rasterize, write_ppm
from .base import canonical_fixed_angle
from .cylinder import CylinderSystem, CylPoint, backward_orbit_toward, separator_csv, separator_sweep
from .errors import CylmapsError, _require_count
from .fiber import FRACTIONAL_LINEAR, INVERSE_KAN, KAN, CosineProfile, FiberFamily, StepProfile
from .lyapunov import exponent_report
from .measures import (DEFAULT_BURN_IN, TEST_FUNCTIONS, birkhoff_average, histogram_csv,
                       jacobian_max_defect, orbit_histogram, uniformity_stats)
from .selftest import run_selftest
from .walks import (
    _check_circle,
    _require_stride,
    _require_threshold,
    arcsine_csv,
    arcsine_ensemble,
    circle_equidistribution,
    cyclic_support_check,
    occupation_csv,
    occupation_ratios,
    simulate_walk,
)


def _values(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse comma-separated numbers {text!r}") from exc


def _profile(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "cosine":
            return CosineProfile(float(rest))
        if kind == "step":
            return StepProfile(tuple(float(v) for v in rest.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse profile {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"unknown profile {text!r}")


_KINDS = {"kan": KAN, "inverse-kan": INVERSE_KAN, "fractional-linear": FRACTIONAL_LINEAR}


def _add_system_flags(sub, default_family="kan"):
    sub.add_argument("--family", choices=tuple(_KINDS), default=default_family)
    sub.add_argument("--k", type=int, default=3)
    sub.add_argument("--profile", type=_profile, default=None,
                     help="displacement profile of any family, 'cosine:AMP' or "
                          "'step:V1,V2,...' (default cosine:0.5 for the quadratic "
                          "families, step:1,-1,...,-1 for fractional-linear)")


def _build_system(args) -> CylinderSystem:
    kind = _KINDS[args.family]
    default = (StepProfile((1.0,) + (-1.0,) * (args.k - 1)) if kind == FRACTIONAL_LINEAR
               else CosineProfile(0.5))
    return CylinderSystem(args.k, FiberFamily(kind, args.profile or default))


def _write(args, data) -> None:
    """Write the artifact data() to --out, if given, and report it."""
    if args.out:
        Path(args.out).write_bytes(data())
        print(f"{args.command} wrote {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylmaps",
        description="experiments on skew-product cylinder maps")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("lyap", help="transverse boundary exponents by quadrature")
    p.set_defaults(run=_run_lyap)
    _add_system_flags(p)
    p.add_argument("--nodes", type=int, default=4096)

    p = subs.add_parser("basins", help="rasterize the boundary basins")
    p.set_defaults(run=_run_basins)
    _add_system_flags(p)
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--height", type=int, default=512)
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--out", default=None, help="write a P6 PPM here")

    p = subs.add_parser("intermingle", help="box-sampling intermingling probe")
    p.set_defaults(run=_run_intermingle)
    _add_system_flags(p)
    p.add_argument("--boxes", type=int, default=100)
    p.add_argument("--box-side", type=float, default=1.0 / 64.0)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write the report CSV here")

    p = subs.add_parser("separator", help="separator sweep by column search on a dyadic ladder")
    p.set_defaults(run=_run_separator)
    _add_system_flags(p)
    p.add_argument("--angles", type=int, default=200)
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None, help="write per-angle samples here")

    p = subs.add_parser("histogram", help="orbit histogram and uniformity stats")
    p.set_defaults(run=_run_histogram)
    _add_system_flags(p, default_family="inverse-kan")
    p.add_argument("--x0", type=float, default=0.1234)
    p.add_argument("--y0", type=float, default=0.4)
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--bins-x", type=int, default=16)
    p.add_argument("--bins-y", type=int, default=16)
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None, help="write bin counts here")

    p = subs.add_parser("jacobian-check", help="inverse-branch Jacobian sums")
    p.set_defaults(run=_run_jacobian_check)
    _add_system_flags(p, default_family="inverse-kan")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--seed", type=int, default=11)

    p = subs.add_parser("birkhoff", help="time average of a named test function")
    p.set_defaults(run=_run_birkhoff)
    _add_system_flags(p, default_family="inverse-kan")
    p.add_argument("--chi", choices=tuple(TEST_FUNCTIONS), default="y")
    p.add_argument("--x0", type=float, default=0.1234)
    p.add_argument("--y0", type=float, default=0.4)
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    p.add_argument("--seed", type=int, default=8)

    p = subs.add_parser("walk", help="step-profile random walk occupation ratios")
    p.set_defaults(run=_run_walk)
    p.add_argument("--values", type=_values, default=(1.0, -1.0))
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--every", type=int, default=1000,
                   help="CSV downsampling stride")
    p.add_argument("--out", default=None, help="write the ratio table here")

    p = subs.add_parser("arcsine", help="arcsine-law ensemble frequencies")
    p.set_defaults(run=_run_arcsine)
    p.add_argument("--values", type=_values, default=(1.0, -1.0))
    p.add_argument("--n", type=int, default=10**4)
    p.add_argument("--walks", type=int, default=2000)
    p.add_argument("--eps", type=_values, default=(0.5, 0.25))
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out", default=None, help="write the frequency table here")

    p = subs.add_parser("equidist", help="walk equidistribution mod L")
    p.set_defaults(run=_run_equidist)
    p.add_argument("--values", default="1,-1",
                   help="comma-separated exact rationals, e.g. '1,-1' or '1/3,-1/3'")
    p.add_argument("--modulus", default="pi",
                   help="'pi' (irrational) or an exact rational like '2' or '5/7'")
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--bins", type=int, default=256)
    p.add_argument("--seed", type=int, default=123)

    p = subs.add_parser("backward", help="backward orbit toward a marked angle")
    p.set_defaults(run=_run_backward)
    _add_system_flags(p)
    p.add_argument("--x0", type=float, default=0.1)
    p.add_argument("--y0", type=float, default=0.5)
    p.add_argument("--x-star", type=float, default=None,
                   help="marked fixed angle (default: the canonical one)")
    p.add_argument("--steps", type=int, default=200)

    p = subs.add_parser("selftest", help="run the full acceptance suite")
    p.set_defaults(run=_run_selftest)
    p.add_argument("--out-dir", default=None,
                   help="write the suite artifacts into this directory")
    return parser


def _run_lyap(args) -> int:
    rep = exponent_report(_build_system(args), args.nodes)
    print(f"lyap lyap0={rep.lyap0!r} lyap1={rep.lyap1!r} "
          f"sum_sign={rep.sum_sign} nodes={rep.resolution}")
    return 0


def _run_basins(args) -> int:
    raster = rasterize(_build_system(args), args.width, args.height,
                       args.max_iter, args.delta)
    f0, f1, fu = measure_fractions(raster)
    print(f"basins frac0={f0!r} frac1={f1!r} undecided={fu!r}")
    _write(args, lambda: write_ppm(raster))
    return 0


def _run_intermingle(args) -> int:
    rep = intermingle_probe(_build_system(args), args.boxes, args.box_side,
                            args.samples, args.max_iter, args.delta,
                            seed=args.seed)
    print(f"intermingle both={rep.boxes_both} only0={rep.boxes_only0} "
          f"only1={rep.boxes_only1} undecided={rep.boxes_undecided} "
          f"of {rep.boxes_total}")
    _write(args, lambda: intermingle_csv(rep).encode())
    return 0


def _run_separator(args) -> int:
    samples, good, total = separator_sweep(_build_system(args), args.angles, args.max_iter,
                                           args.delta, args.tol, seed=args.seed)
    decided = sum(s.decided for s in samples)
    print(f"separator decided={decided}/{args.angles} functional_eq={good}/{total}")
    _write(args, lambda: separator_csv(samples).encode())
    return 0


def _run_histogram(args) -> int:
    hist = orbit_histogram(_build_system(args), CylPoint(args.x0, args.y0),
                           args.n, args.bins_x, args.bins_y,
                           burn_in=args.burn_in, seed=args.seed)
    rep = uniformity_stats(hist)
    print(f"histogram chi_square={rep.chi_square!r} dof={rep.dof} "
          f"max_rel_dev={rep.max_rel_dev!r}")
    _write(args, lambda: histogram_csv(hist).encode())
    return 0


def _run_jacobian_check(args) -> int:
    worst = jacobian_max_defect(_build_system(args), args.points, seed=args.seed)
    print(f"jacobian-check points={args.points} max|sum-1|={worst!r}")
    return 0


def _run_birkhoff(args) -> int:
    value = birkhoff_average(_build_system(args), args.chi,
                             CylPoint(args.x0, args.y0), args.n,
                             burn_in=args.burn_in, seed=args.seed)
    print(f"birkhoff chi={args.chi} average={value!r}")
    return 0


def _run_walk(args) -> int:
    _require_count(args.n, "walk length", 1)  # the report prints the last ratio
    _require_threshold(args.threshold)
    if args.out:
        _require_stride(args.every)
    trace = simulate_walk(StepProfile(args.values), args.t0, args.n, seed=args.seed)
    stats = occupation_ratios(trace, args.threshold)
    table = occupation_csv(stats, every=args.every) if args.out else None  # before the report
    print(f"walk n={args.n} threshold={args.threshold!r} "
          f"a/n={float(stats.a_over_n[-1])!r} b/n={float(stats.b_over_n[-1])!r} "
          f"c/n={float(stats.c_over_n[-1])!r}")
    _write(args, lambda: table.encode())
    return 0


def _run_arcsine(args) -> int:
    points = arcsine_ensemble(StepProfile(args.values), args.n, args.walks,
                              list(args.eps), seed=args.seed)
    for pt in points:
        print(f"arcsine eps={pt.eps!r} empirical={pt.empirical!r} "
              f"theoretical={pt.theoretical!r}")
    _write(args, lambda: arcsine_csv(points).encode())
    return 0


def _run_equidist(args) -> int:
    values = args.values.split(",")  # cyclic_support_check refuses non-rationals
    if args.modulus == "pi":
        modulus, support = math.pi, cyclic_support_check(values, modulus_irrational=True)
    else:
        support = cyclic_support_check(values, modulus=args.modulus)
        try:
            modulus = float(Fraction(args.modulus))
        except OverflowError:  # past the largest float; _check_circle refuses it
            modulus = math.inf
    _check_circle(modulus, args.bins)
    trace = simulate_walk(StepProfile(tuple(map(Fraction, values))),
                          args.t0, args.n, seed=args.seed)
    rep = circle_equidistribution(trace, modulus, args.bins)
    print(f"equidist modulus={args.modulus} cdf_deviation={rep.cdf_deviation!r} "
          f"cyclic_support={support}")
    return 0


def _run_backward(args) -> int:
    sys_ = _build_system(args)
    x_star = args.x_star if args.x_star is not None else canonical_fixed_angle(sys_.k)
    pts = backward_orbit_toward(sys_, CylPoint(args.x0, args.y0), x_star, args.steps)
    end = pts[-1]
    print(f"backward steps={args.steps} x_star={x_star!r} "
          f"final_x={end.x!r} final_y={end.y!r}")
    return 0


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _run_selftest(args) -> int:
    results, artifacts = run_selftest()
    for r in results:
        print(f"selftest [{_verdict(r.correct)}] {r.name}: {r.detail} ({r.seconds:.2f}s)")
        for b in r.bounds:
            print(f"selftest [{_verdict(b.passed)}] {r.name} {b.label} took "
                  f"{b.cpu_seconds:.3g}s cpu ({b.wall_seconds:.3g}s wall), "
                  f"bound < {b.limit:g}s cpu")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, data in sorted(artifacts.items()):
            (out / name).write_bytes(data)
        print(f"selftest wrote {len(artifacts)} artifacts to {out}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"selftest FAILED: {', '.join(failed)}")
        return 1
    print(f"selftest all {len(results)} checks passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except CylmapsError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except OSError as exc:
        print(f"{parser.prog}: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
