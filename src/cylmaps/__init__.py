"""cylmaps: a numerical laboratory for skew-product cylinder maps.

The cylinder map F(x, y) = (k*x mod 1, f_x(y)) behaves in three sharply
different ways depending on the sign of the curvature invariant of the
fiber maps f_x: negative sign produces two intermingled boundary basins,
positive sign produces a common asymptotic distribution for almost all
orbits, and zero sign turns the height coordinate into a recurrent random
walk with arcsine-law statistics.  Each regime gets a module:

* :mod:`cylmaps.base`     -- the base map x -> k*x mod 1 and its digit streams
* :mod:`cylmaps.fiber`    -- the fiber families and their calculus
* :mod:`cylmaps.cylinder` -- orbits, classification, separator estimation
* :mod:`cylmaps.lyapunov` -- transverse exponents of the boundary circles
* :mod:`cylmaps.basins`   -- basin rasters, intermingling probe, PPM output
* :mod:`cylmaps.measures` -- orbit histograms and Birkhoff averages
* :mod:`cylmaps.walks`    -- boundary random walks and equidistribution
* :mod:`cylmaps.cli`      -- command-line front end (``python -m cylmaps``)
"""

from .basins import (
    BasinRaster,
    IntermingleReport,
    intermingle_probe,
    measure_fractions,
    rasterize,
    write_ppm,
)
from .base import base_orbit_angles, canonical_fixed_angle
from .cylinder import (
    BasinClass,
    CylinderSystem,
    CylPoint,
    SeparatorSample,
    backward_orbit_toward,
    check_kan_hypothesis,
    classify_point,
    classify_points,
    estimate_separator,
    estimate_separator_batch,
    orbit,
    step,
)
from .errors import (
    CylmapsError,
    DegenerateQuadrupleError,
    DomainError,
    PreconditionError,
    WrongFamilyError,
)
from .fiber import (
    CosineProfile,
    FiberFamily,
    MoebiusMap,
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
from .lyapunov import (
    ExponentReport,
    exponent_report,
    kan_exponent_closed_form,
    transverse_exponent_birkhoff,
    transverse_exponent_quadrature,
)
from .measures import (
    Histogram2D,
    UniformityReport,
    birkhoff_average,
    jacobian_branch_sum,
    orbit_histogram,
    uniformity_stats,
)
from .walks import (
    ArcsinePoint,
    CircleWalkReport,
    OccupationStats,
    WalkTrace,
    arcsine_ensemble,
    circle_equidistribution,
    cyclic_support_check,
    final_counts,
    fl_orbit_as_walk,
    occupation_ratios,
    simulate_walk,
)

__version__ = "0.1.0"
