"""Basin rasters, measure fractions, the box-sampling intermingling probe,
and portable PPM output.

Rasterization reads each grid column as two thresholds of the
first-hitting classifier: fibres are increasing, so a column is Basin0
below, Undecided between and Basin1 above, and the column search that
the separator also runs finds where each class begins.  The probe draws
random boxes and reports how many contain samples of both basins, which
is the desk-scale reading of "every open set meets both basins in
positive measure"; it hands the classifier one row of samples per box,
one span of rows per thread.  A point's class does not depend on the rest of its batch, so
thread count never changes the output.
"""

from __future__ import annotations

import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cylinder import BasinClass, CylinderSystem, _column_thresholds, _mod1, classify_points
from .errors import PreconditionError

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


def _classify_rows(sys: CylinderSystem, xs: np.ndarray, ys: np.ndarray, n_max: int,
                   delta: float, threads: int) -> np.ndarray:
    """int8 classes of the 2-D point arrays (xs, ys), of their shape; one
    classifier call per contiguous span of rows, on a pool when threads > 1."""
    parts = max(1, min(threads, len(xs)))
    cuts = np.linspace(0, len(xs), parts + 1).astype(int)[1:-1]
    classify = partial(classify_points, sys, n_max=n_max, delta=delta)
    if parts == 1:
        classes = [classify(xs, ys)]
    else:
        with ThreadPoolExecutor(max_workers=parts) as pool:
            classes = list(pool.map(classify, np.split(xs, cuts), np.split(ys, cuts)))
    return np.concatenate(classes).reshape(xs.shape)


def rasterize(sys: CylinderSystem, width: int, height: int, n_max: int,
              delta: float, threads: int = 1) -> BasinRaster:
    """Classify every cell center; deterministic for fixed parameters.

    Each column is searched over its cell index for its first cell that is
    not Basin0 and its first Basin1 cell by the column search of the
    classifier (``cylinder._column_thresholds``): at most
    ceil(log12(height + 1)) classifier calls of at most 22 points a column.
    Cells below the first index are Basin0, from the second on Basin1, and
    Undecided between; this equals classifying every cell whenever a
    column's classes are monotone in y, as increasing fibres make them up
    to rounding.  The search runs on the calling thread; threads has no
    effect.
    """
    if width < 1 or height < 1:
        raise PreconditionError("raster dimensions must be >= 1")
    xs = (np.arange(width, dtype=float) + 0.5) / width
    first = _column_thresholds(sys, xs, lambda j: (j + 0.5) / height, height, n_max, delta)
    row = np.arange(height)[:, None]
    cells = np.where(row < first[0], BasinClass.BASIN0,
                     np.where(row < first[1], BasinClass.UNDECIDED, BasinClass.BASIN1))
    return BasinRaster(width=width, height=height, cells=cells.astype(np.int8),
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
                      seed: int, threads: int = 1) -> IntermingleReport:
    """Sample random boxes and count how many contain both basins.

    Box centers are uniform with the y-center restricted to [0.1, 0.9]
    (detecting the minority basin inside boxes hugging a boundary needs
    sample sizes beyond desk scale).  Boxes wrap around in x and are
    clipped to the cylinder in y.  Each box owns a spawned substream of
    the master seed, so serial and parallel runs agree exactly.
    """
    if num_boxes < 1:
        raise PreconditionError("need at least one box")
    if samples_per_box < 1:
        raise PreconditionError("need at least one sample per box")
    if not 0.0 < box_side < 0.5:
        raise PreconditionError(f"box side must lie in (0, 0.5), got {box_side}")
    sx = np.empty((num_boxes, samples_per_box))
    sy = np.empty((num_boxes, samples_per_box))
    for i, sub in enumerate(np.random.SeedSequence(seed).spawn(num_boxes)):
        rng = np.random.default_rng(sub)
        cx = rng.uniform(0.0, 1.0)
        cy = rng.uniform(0.1, 0.9)
        sx[i] = _mod1(cx - box_side / 2.0 + rng.uniform(0.0, box_side, samples_per_box))
        sy[i] = np.clip(cy - box_side / 2.0 + rng.uniform(0.0, box_side, samples_per_box), 0.0, 1.0)
    cls = _classify_rows(sys, sx, sy, n_max, delta, threads)
    saw0 = (cls == BasinClass.BASIN0).any(axis=1)
    saw1 = (cls == BasinClass.BASIN1).any(axis=1)
    outcome = 3 - 2 * saw0 - saw1  # 0 both, 1 only0, 2 only1, 3 neither
    both, only0, only1, undecided = np.bincount(outcome, minlength=4).tolist()
    return IntermingleReport(boxes_total=num_boxes, boxes_both=both, boxes_only0=only0,
                             boxes_only1=only1, boxes_undecided=undecided,
                             box_side=box_side, samples_per_box=samples_per_box, seed=seed)


def write_ppm(raster: BasinRaster, palette=DEFAULT_PALETTE) -> bytes:
    """Binary PPM (P6) bytes; top image row is the y-near-1 edge."""
    lut = np.asarray(palette, dtype=np.uint8)
    if lut.shape != (3, 3):
        raise PreconditionError("palette must give three RGB triples")
    rgb = lut[raster.cells[::-1]]  # flip so the upper boundary is on top
    out = io.BytesIO()
    out.write(f"P6\n{raster.width} {raster.height}\n255\n".encode("ascii"))
    out.write(rgb.tobytes())
    return out.getvalue()


def intermingle_csv(report: IntermingleReport) -> str:
    """One-header CSV serialization of the probe report."""
    head = ("boxes_total,boxes_both,boxes_only0,boxes_only1,"
            "boxes_undecided,box_side,samples_per_box,seed")
    row = (f"{report.boxes_total},{report.boxes_both},{report.boxes_only0},"
           f"{report.boxes_only1},{report.boxes_undecided},{report.box_side!r},"
           f"{report.samples_per_box},{report.seed}")
    return head + "\n" + row + "\n"
