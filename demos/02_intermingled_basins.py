"""Negative curvature: two attractors whose basins are intermingled.

With fibers q_a(y) = y + a y (1-y), a = 0.5 cos(2 pi x) and base tripling,
both boundary circles attract positive measure, yet every open box contains
points of both basins.  This script verifies the push/pull hypothesis at the
marked angles, measures the transverse exponents, renders the basin raster
to a PPM image, runs the box-sampling probe, and traces the backward orbit
that underlies the intermingling argument.

Writes basins.ppm (512x512, blue = lower basin, amber = upper) to the
working directory.
"""

from cylmaps import (
    CylinderSystem,
    CylPoint,
    backward_orbit_toward,
    canonical_fixed_angle,
    check_kan_hypothesis,
    estimate_separator,
    exponent_report,
    intermingle_probe,
    kan_family,
    measure_fractions,
    rasterize,
    write_ppm,
)

system = CylinderSystem(3, kan_family(0.5))
x_minus = canonical_fixed_angle(3)

hyp = check_kan_hypothesis(system, x_minus=x_minus, x_plus=0.0, radius=0.1)
print(f"push/pull hypothesis near x-={x_minus}, x+=0.0:",
      "holds" if hyp.passed else "violated", f"({hyp.checked} samples)")

rep = exponent_report(system, 4096)
print(f"transverse exponents: lyap0={rep.lyap0:.6f} lyap1={rep.lyap1:.6f} "
      f"(sum sign {rep.sum_sign}) -> both circles attract")

print("\nrasterizing 512x512 basins (a few seconds)...")
raster = rasterize(system, 512, 512, n_max=5000, delta=1e-6)
f0, f1, fu = measure_fractions(raster)
print(f"measure fractions: lower={f0:.4f} upper={f1:.4f} undecided={fu:.4f}")
with open("basins.ppm", "wb") as fh:
    fh.write(write_ppm(raster))
print("wrote basins.ppm")

probe = intermingle_probe(system, num_boxes=100, box_side=1 / 64,
                          samples_per_box=500, n_max=5000, delta=1e-6, seed=1)
print(f"\nintermingling probe: {probe.boxes_both}/{probe.boxes_total} random "
      f"boxes contain BOTH basins")

# the backward orbit from any interior point climbs to (x-, 1): upper
# boundary points are accumulation points of the lower basin's support
tail = backward_orbit_toward(system, CylPoint(0.1, 0.5), x_minus, 200)[-1]
print(f"backward orbit toward x-: ends at angle {tail.x:.8f}, height {tail.y:.8f}")

# the separator sigma(x) splits each fiber; its graph is wildly discontinuous
for x in (0.0, 0.2, 0.35, x_minus):
    s = estimate_separator(system, x, n_max=5000, delta=1e-6, tol=1e-3)
    print(f"separator sigma({x:.2f}) ~ {s.sigma:.4f} (bracket {s.bracket:.1e},"
          f" decided={s.decided})")
