"""Zero curvature: the height coordinate performs a recurrent random walk.

Fractional-linear fibers translate t(y) = log(y/(1-y)) by the step profile
value of the current base digit.  For a zero-mean profile the orbit hugs one
boundary for a long stretch, then migrates to the other, on such an
irregular schedule that no asymptotic measure exists.  This script shows the
conjugacy between the cylinder orbit and the literal random walk, the decay
of time spent mid-cylinder, the arcsine law for the time spent above the
midline, and the equidistribution dichotomy for the walk reduced mod L.
"""

import math

import numpy as np

from cylmaps import (
    CylinderSystem,
    CylPoint,
    StepProfile,
    arcsine_ensemble,
    circle_equidistribution,
    cyclic_support_check,
    fl_orbit_as_walk,
    fractional_linear_family,
    occupation_ratios,
    simulate_walk,
)

profile = StepProfile((1.0, -1.0))
system = CylinderSystem(2, fractional_linear_family(StepProfile((0.25, -0.25))))

# in t = log(y/(1-y)) the cylinder orbit is the abstract walk, exactly
walk = simulate_walk(StepProfile((0.25, -0.25)), 0.0, 1000, seed=11)
orbit = fl_orbit_as_walk(system, CylPoint(0.3, 0.5), 1000, seed=11)
print(f"cylinder orbit equals abstract walk: {np.array_equal(orbit.t, walk.t)}")

# occupation ratios of a +-1 walk: the middle band empties out
trace = simulate_walk(profile, 0.0, 10**6, seed=0)
stats = occupation_ratios(trace, threshold=1.0)
print(f"\n+-1 walk, n=10^6: a/n={stats.a_over_n[-1]:.4f} "
      f"b/n={stats.b_over_n[-1]:.5f} c/n={stats.c_over_n[-1]:.4f}")
running = stats.a_over_n
print(f"running a/n wanders over [{running.min():.4f}, {running.max():.4f}] "
      "- no limit frequency")

# arcsine law: fraction of walks that spend > (1-eps) of the time positive
print("\narcsine ensemble (2000 walks of 10^4 steps):")
for pt in arcsine_ensemble(profile, 10**4, 2000, [0.5, 0.25, 0.1], seed=11):
    print(f"  eps={pt.eps:<5} empirical={pt.empirical:.4f} "
          f"limit={pt.theoretical:.4f}")

# reduced mod L the walk equidistributes iff the steps generate no finite
# cyclic subgroup: true for L = pi, false for L = 2
for label, modulus, kwargs in (("pi", math.pi, dict(modulus_irrational=True)),
                               ("2", 2.0, dict(modulus=2))):
    rep = circle_equidistribution(trace, modulus, bins=256)
    trapped = cyclic_support_check([1, -1], **kwargs)
    print(f"\nmod {label}: cdf deviation {rep.cdf_deviation:.5f}; "
          f"steps confined to a finite subgroup: {trapped}")
