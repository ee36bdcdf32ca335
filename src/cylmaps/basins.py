"""Basin rasters, measure fractions, the box-sampling intermingling probe,
and portable PPM output.

Rasterization reads each grid column as two thresholds of the
first-hitting classifier: fibres are increasing, so a column is Basin0
below, Undecided between and Basin1 above, and the column search that
the separator also runs finds where each class begins.  The probe draws
random boxes and reports how many contain samples of both basins, which
is the desk-scale reading of "every open set meets both basins in
positive measure"; it classifies the samples in stages and stops a box
once it has seen both basins.  Both run on the calling thread.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .base import _mod1
from .cylinder import (BasinClass, CylinderSystem, _check_classification, _column_thresholds,
                       _csv, classify_points)
from .errors import PreconditionError, _require_count, _require_seed

#: samples a box has classified after each probe stage but the last, which takes the rest
_STAGE_ENDS = (8, 32, 128)

#: Basin0 blue, Basin1 amber, Undecided black; fixed so renders are bytewise stable
DEFAULT_PALETTE = ((0, 0, 255), (255, 200, 0), (0, 0, 0))


@dataclass(frozen=True)
class BasinRaster:
    """Grid classification; cell (i, j) is the center ((i+.5)/w, (j+.5)/h)."""

    width: int
    height: int
    cells: np.ndarray  # int8, shape (height, width), [j, i] indexing
    n_max: int
    delta: float
    system: str


@dataclass(frozen=True)
class IntermingleReport:
    boxes_total: int
    boxes_both: int
    boxes_only0: int
    boxes_only1: int
    boxes_undecided: int
    box_side: float
    samples_per_box: int
    seed: int


def rasterize(sys: CylinderSystem, width: int, height: int, n_max: int,
              delta: float, threads: int = 1) -> BasinRaster:
    """Classify every cell center; deterministic for fixed parameters.

    Each column is searched over its cell index for its first cell that is
    not Basin0 and its first Basin1 cell by the column search of the
    classifier (``cylinder._column_thresholds``): L = ceil(log12(height + 1))
    classifier calls, each cutting a search into the fewest parts s with
    s^L >= height + 1, so at most 2 * (s - 1) points a column (s = 9, 16
    points, at height 512).  Every call gathers the coefficients of the
    columns' first min(n_max, 65,536 // width) rounds from one store that
    the search fills once (128 rounds at width 512).  Cells below the
    first index are Basin0, from the second on Basin1, and Undecided
    between, written straight into the int8 cells with Basin0 last, so
    that it wins where the indices cross; this equals classifying every
    cell whenever a column's classes are monotone in y, as increasing
    fibres make them up to rounding.  The search runs on the calling
    thread.  threads has no effect; it stays only because perfbench/ops.py
    passes threads=1 and threads=2, and goes when the benchmark stops
    passing it.
    """
    _check_classification(sys, n_max, delta)
    _require_count(width, "raster width", 1)
    _require_count(height, "raster height", 1)
    xs = (np.arange(width, dtype=float) + 0.5) / width
    first = _column_thresholds(sys, xs, lambda j: (j + 0.5) / height, height, n_max, delta)
    row = np.arange(height)[:, None]
    cells = np.full((height, width), BasinClass.UNDECIDED, dtype=np.int8)
    cells[row >= first[1]] = BasinClass.BASIN1
    cells[row < first[0]] = BasinClass.BASIN0  # last: below both indices it wins
    return BasinRaster(width=width, height=height, cells=cells,
                       n_max=n_max, delta=delta, system=repr(sys))


def measure_fractions(raster: BasinRaster) -> tuple[float, float, float]:
    """Cell-count fractions (basin0, basin1, undecided); they sum to 1."""
    total = raster.width * raster.height
    n0 = int(np.count_nonzero(raster.cells == BasinClass.BASIN0))
    n1 = int(np.count_nonzero(raster.cells == BasinClass.BASIN1))
    nu = total - n0 - n1
    return n0 / total, n1 / total, nu / total


def intermingle_probe(sys: CylinderSystem, num_boxes: int, box_side: float,
                      samples_per_box: int, n_max: int, delta: float,
                      seed: int) -> IntermingleReport:
    """Sample random boxes and count how many contain both basins.

    Box centers are uniform with the y-center restricted to [0.1, 0.9]
    (detecting the minority basin inside boxes hugging a boundary needs
    sample sizes beyond desk scale).  Boxes wrap around in x and are
    clipped to the cylinder in y.  Each box owns a spawned substream of
    the master seed.  The samples of the boxes still open are classified in
    stages, up to the ends _STAGE_ENDS and then all; a box that has seen
    both basins is closed, since more samples cannot change its outcome,
    and every other box classifies every sample.  A point's class does not
    depend on the rest of its batch, so the report equals classifying every
    sample.
    """
    _check_classification(sys, n_max, delta)
    _require_count(num_boxes, "box count", 1)
    _require_count(samples_per_box, "samples per box", 1)
    if not 0.0 < box_side < 0.5:
        raise PreconditionError(f"box side must lie in (0, 0.5), got {box_side}")
    _require_seed(seed)
    sx = np.empty((num_boxes, samples_per_box))
    sy = np.empty((num_boxes, samples_per_box))
    for i, sub in enumerate(np.random.SeedSequence(seed).spawn(num_boxes)):
        rng = np.random.default_rng(sub)
        cx = rng.uniform(0.0, 1.0)
        cy = rng.uniform(0.1, 0.9)
        sx[i] = _mod1(cx - box_side / 2.0 + rng.uniform(0.0, box_side, samples_per_box))
        sy[i] = np.clip(cy - box_side / 2.0 + rng.uniform(0.0, box_side, samples_per_box), 0.0, 1.0)
    saw0 = np.zeros(num_boxes, dtype=bool)
    saw1 = np.zeros(num_boxes, dtype=bool)
    start = 0
    for end in [e for e in _STAGE_ENDS if e < samples_per_box] + [samples_per_box]:
        rows = np.flatnonzero(~(saw0 & saw1))
        if not rows.size:
            break
        cls = classify_points(sys, sx[rows, start:end], sy[rows, start:end], n_max,
                              delta).reshape(rows.size, -1)
        saw0[rows] |= (cls == BasinClass.BASIN0).any(axis=1)
        saw1[rows] |= (cls == BasinClass.BASIN1).any(axis=1)
        start = end
    outcome = 3 - 2 * saw0 - saw1  # 0 both, 1 only0, 2 only1, 3 neither
    both, only0, only1, undecided = np.bincount(outcome, minlength=4).tolist()
    return IntermingleReport(boxes_total=num_boxes, boxes_both=both, boxes_only0=only0,
                             boxes_only1=only1, boxes_undecided=undecided,
                             box_side=box_side, samples_per_box=samples_per_box, seed=seed)


def write_ppm(raster: BasinRaster) -> bytes:
    """Binary PPM (P6) bytes in DEFAULT_PALETTE; top image row is the y-near-1 edge."""
    lut = np.asarray(DEFAULT_PALETTE, dtype=np.uint8)
    rgb = lut[raster.cells[::-1]]  # flip so the upper boundary is on top
    return f"P6\n{raster.width} {raster.height}\n255\n".encode("ascii") + rgb.tobytes()


def intermingle_csv(report: IntermingleReport) -> str:
    """One-header CSV serialization of the probe report: its fields, in order."""
    return _csv(",".join(f.name for f in fields(report)), [astuple(report)])
