"""The benchmark's three workloads: seeded inputs, one op each, answer checks.

An op calls the public functions of the cylmaps modules through their
module attributes (``basins.rasterize`` and so on), so that a traced run can
rebind them.  Parameters are those of the selftest checks c05 and c07-c10.
Every per-op input is drawn from a child of the workload seed's
``SeedSequence``; the program receives only the drawn values.  An op times
its two parts step by step on a :class:`clock.StepClock`: part 0 is the
workload's ``part1_s``, part 1 its ``part2_s``.  The walk statistics,
which stream 8 MB arrays through memory, are timed against the clock's
streaming kernel; everything else against its compute kernel.

The answer checks are the selftest's statistical gates without its
wall-clock bounds.  The selftest draws its inputs from pinned seeds; here
every op draws new ones, so a gate whose band a correct program leaves on a
measurable share of seeds is widened until that share is negligible.  Each
widened band names the selftest band and the measured spread it answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from clock import STREAMING
from cylmaps import basins, cylinder, fiber, measures, walks

KAN3 = cylinder.CylinderSystem(3, fiber.kan_family(0.5))
INV3 = cylinder.CylinderSystem(3, fiber.inverse_kan_family(0.5))
PM1 = fiber.StepProfile((1.0, -1.0))
N_MAX, DELTA = 5000, 1e-6
ORBIT_N, WALK_N = 10**6, 10**6

# Widened gates, from spreads measured over 150 to 800 seeded inputs.
# max_rel_dev: selftest < 0.1 failed 6 % of 800 start points (median 0.066,
# largest 0.134); a Gumbel fit puts 0.25 near 1e-6 per op.
MAX_REL_DEV = 0.25
# <y>, <y^2>: selftest 0.01, which is 3.8 sd of 0.0026.
MEAN_TOL = 0.015
# b/n of one walk: selftest 0.01, left by about 7e-4 of walks.
BAND_FRAC = 0.02
# arcsine frequencies: selftest 0.03 and 0.04 are 2.7 and 3.8 binomial sd
# (0.011 at 2000 walks) and fail 0.9 % and 0.03 % of ensembles.
ARCSINE_TOL = 0.06
# dev(pi): selftest 0.01; the largest of 150 walks read 0.0098.
DEV_PI = 0.02


def _gates(*pairs) -> list[str]:
    """Names of the gates that failed, from (name, passed) pairs."""
    return [name for name, passed in pairs if not passed]


# ---------------------------------------------------------------------------
# raster: one 512x512 basin raster at 1 and at 2 threads
# ---------------------------------------------------------------------------

def draw_raster(seq: np.random.SeedSequence) -> dict:
    # rasterize classifies a fixed grid of cell centres: every op repeats it
    return {}


def run_raster(inputs: dict, clock) -> dict:
    with clock.step(0):
        one = basins.rasterize(KAN3, 512, 512, N_MAX, DELTA, threads=1)
    with clock.step(1):
        two = basins.rasterize(KAN3, 512, 512, N_MAX, DELTA, threads=2)
    return {"cells_1t": one.cells.tobytes(), "cells_2t": two.cells.tobytes(),
            "fractions_1t": basins.measure_fractions(one),
            "fractions_2t": basins.measure_fractions(two)}


def check_raster(ans: dict) -> list[str]:
    f0, f1, fu = ans["fractions_1t"]
    return _gates(("|f0-f1|<0.02", abs(f0 - f1) < 0.02),
                  ("undecided<0.02", fu < 0.02),
                  ("cells equal at 1 and 2 threads", ans["cells_1t"] == ans["cells_2t"]))


def warm_raster():
    for threads in (1, 2):
        basins.rasterize(KAN3, 8, 8, N_MAX, DELTA, threads=threads)


# ---------------------------------------------------------------------------
# probe_separator: intermingling probe, then the c07 separator sweep
# ---------------------------------------------------------------------------

def draw_probe_separator(seq: np.random.SeedSequence) -> dict:
    probe, angles = seq.spawn(2)
    return {"probe_seed": int(probe.generate_state(1)[0]),
            "angles": np.random.default_rng(angles).uniform(0.0, 1.0, 200)}


def _separator(xs):
    return cylinder.estimate_separator_batch(KAN3, xs, N_MAX, DELTA, 1e-3)


def run_probe_separator(inputs: dict, clock) -> dict:
    with clock.step(0):
        probe = basins.intermingle_probe(KAN3, 100, 1.0 / 64.0, 500, N_MAX, DELTA,
                                         seed=inputs["probe_seed"])
    xs = inputs["angles"]
    with clock.step(1):
        at_x = _separator(xs)
    with clock.step(1):
        at_kx = _separator((3.0 * xs) % 1.0)
        edges = (_separator([0.0])[0], _separator([0.5])[0])
    return {"probe": probe, "at_x": at_x, "at_kx": at_kx, "edges": edges}


def check_probe_separator(ans: dict) -> list[str]:
    pairs = [(sx, skx) for sx, skx in zip(ans["at_x"], ans["at_kx"])
             if sx.decided and skx.decided]
    good = sum(abs(skx.sigma - fiber.eval_fiber(KAN3.family, sx.x, sx.sigma)) < 1e-2
               for sx, skx in pairs)
    edge0, edge5 = ans["edges"]
    return _gates(("boxes_both>=90", ans["probe"].boxes_both >= 90),
                  ("functional equation on >=0.9 of decided pairs",
                   bool(pairs) and good >= 0.9 * len(pairs)),
                  ("sigma(0)<0.01", edge0.sigma < 0.01),
                  ("sigma(1/2)>0.99", edge5.sigma > 0.99))


def warm_probe_separator():
    basins.intermingle_probe(KAN3, 2, 1.0 / 64.0, 10, N_MAX, DELTA, seed=0)
    _separator([0.1, 0.7])


# ---------------------------------------------------------------------------
# orbits: c08 orbit statistics, then the c09 and c10 walk statistics
# ---------------------------------------------------------------------------

def draw_orbits(seq: np.random.SeedSequence) -> dict:
    start, orbit, walk, arcsine = seq.spawn(4)
    rng = np.random.default_rng(start)
    x0 = float(rng.uniform(0.0, 1.0))
    y0 = int(rng.integers(1, 2**53)) / 2.0**53  # open interval (0, 1)
    hist_seed, avg_seed = (int(s) for s in orbit.generate_state(2))
    return {"start": cylinder.CylPoint(x0, y0), "hist_seed": hist_seed,
            "avg_seed": avg_seed,
            # 1 single walk, 100 for the median, 20 for wildness, 1 for c10
            "walk_seeds": [int(s.generate_state(1)[0]) for s in walk.spawn(122)],
            "arcsine_seed": int(arcsine.generate_state(1)[0])}


def _walk(seed):
    return walks.simulate_walk(PM1, 0.0, WALK_N, seed)


def _b_over_n(seeds) -> list[float]:
    return [float(walks.occupation_ratios(_walk(s), 1.0).b_over_n[-1]) for s in seeds]


def _wild(seeds) -> int:
    wild = 0
    for s in seeds:
        ratios = walks.occupation_ratios(_walk(s), 0.0).a_over_n
        wild += bool(ratios.max() >= 0.95 and ratios.min() <= 0.05)
    return wild


def run_orbits(inputs: dict, clock) -> dict:
    p, hs, avs = inputs["start"], inputs["hist_seed"], inputs["avg_seed"]
    seeds = inputs["walk_seeds"]
    # Steps of 1 s or less, so that the reference kernel follows the host.
    with clock.step(0):
        hist = measures.orbit_histogram(INV3, p, ORBIT_N, 16, 16, 1000, seed=hs)
        max_rel_dev = measures.uniformity_stats(hist).max_rel_dev
    avg = {}
    for chi in ("y", "y_squared", "cos_x"):
        with clock.step(0):
            avg[chi] = measures.birkhoff_average(INV3, chi, p, ORBIT_N, 1000, seed=avs)
    with clock.step(0):
        kan = measures.orbit_histogram(KAN3, p, ORBIT_N, 16, 16, 1000, seed=hs)
        interior = float(kan.counts[:, 2:14].sum() / kan.total)
    ratios = []
    for lo in range(0, 101, 20):  # the single walk, then the 100 for the median
        with clock.step(1, STREAMING):
            ratios += _b_over_n(seeds[lo:min(lo + 20, 101)])
    single, median = ratios[0], float(np.median(ratios[1:]))
    with clock.step(1, STREAMING):
        arcs = walks.arcsine_ensemble(PM1, 10**4, 2000, [0.5, 0.25], inputs["arcsine_seed"])
    with clock.step(1, STREAMING):
        wild = _wild(seeds[101:121])
    with clock.step(1, STREAMING):
        trace = _walk(seeds[121])
        dev_pi = walks.circle_equidistribution(trace, math.pi, 256).cdf_deviation
        dev_2 = walks.circle_equidistribution(trace, 2.0, 256).cdf_deviation
    return {"counts": hist.counts.tobytes(),
            "max_rel_dev": max_rel_dev,
            **avg, "kan_interior": interior, "b_over_n": single,
            "median_b_over_n": median, "arcsine": tuple(arcs), "wild": wild,
            "dev_pi": dev_pi, "dev_2": dev_2}


def check_orbits(ans: dict) -> list[str]:
    arcs = ans["arcsine"]
    return _gates(
        (f"max_rel_dev<{MAX_REL_DEV}", ans["max_rel_dev"] < MAX_REL_DEV),
        (f"|<y>-1/2|<{MEAN_TOL}", abs(ans["y"] - 0.5) < MEAN_TOL),
        (f"|<y^2>-1/3|<{MEAN_TOL}", abs(ans["y_squared"] - 1.0 / 3.0) < MEAN_TOL),
        ("|<cos>|<0.01", abs(ans["cos_x"]) < 0.01),
        ("kan_interior<0.05", ans["kan_interior"] < 0.05),
        (f"b/n<{BAND_FRAC}", ans["b_over_n"] < BAND_FRAC),
        ("median b/n<0.005", ans["median_b_over_n"] < 0.005),
        *((f"|arcsine({a.eps})-law|<{ARCSINE_TOL}",
           abs(a.empirical - a.theoretical) < ARCSINE_TOL) for a in arcs),
        ("wild>=1/20", ans["wild"] >= 1),
        (f"dev(pi)<{DEV_PI}", ans["dev_pi"] < DEV_PI),
        ("dev(2)>0.2", ans["dev_2"] > 0.2))


def warm_orbits():
    p = cylinder.CylPoint(0.1234, 0.4)
    measures.orbit_histogram(INV3, p, 2000, 16, 16, 1000, seed=0)
    measures.birkhoff_average(INV3, "y", p, 2000, 1000, seed=0)
    trace = walks.simulate_walk(PM1, 0.0, 1000, 0)
    walks.occupation_ratios(trace, 1.0)
    walks.arcsine_ensemble(PM1, 100, 10, [0.5], 0)
    walks.circle_equidistribution(trace, math.pi, 256)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    parts: tuple[str, str]  # what part1_s and part2_s time on this workload
    draw: Callable[[np.random.SeedSequence], dict]
    run: Callable[[dict, object], dict]  # (inputs, StepClock) -> answer
    check: Callable[[dict], list]
    warm_up: Callable[[], None]


WORKLOADS = {
    "raster": Workload(("raster_s", "raster_2t_s"), draw_raster, run_raster,
                       check_raster, warm_raster),
    "probe_separator": Workload(("probe_s", "separator_s"), draw_probe_separator,
                                run_probe_separator, check_probe_separator,
                                warm_probe_separator),
    "orbits": Workload(("orbit_stats_s", "walk_stats_s"), draw_orbits, run_orbits,
                       check_orbits, warm_orbits),
}
