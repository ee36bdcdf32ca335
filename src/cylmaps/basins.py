"""Basin rasters, measure fractions, the box-sampling intermingling probe,
and portable PPM output.

Rasterization classifies every cell center with the first-hitting
classifier; the probe draws random boxes and reports how many contain
samples of both basins, which is the desk-scale reading of "every open set
meets both basins in positive measure".  Both are embarrassingly parallel;
results land in disjoint slots so thread count never changes the output.
"""

from __future__ import annotations

import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cylinder import BasinClass, CylinderSystem, classify_points
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


def _run_chunked(work, total: int, threads: int) -> None:
    """Call work(a, b) on contiguous spans covering range(total), one span
    per thread of a pool when threads > 1."""
    parts = max(1, min(threads, total)) if total else 1
    bounds = np.linspace(0, total, parts + 1).astype(int)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda span: work(*span), spans))
    else:
        for span in spans:
            work(*span)


def rasterize(sys: CylinderSystem, width: int, height: int, n_max: int,
              delta: float, threads: int = 1) -> BasinRaster:
    """Classify every cell center; deterministic for fixed parameters."""
    if width < 1 or height < 1:
        raise PreconditionError("raster dimensions must be >= 1")
    xs = (np.arange(width, dtype=float) + 0.5) / width
    ys = (np.arange(height, dtype=float) + 0.5) / height
    gx, gy = np.meshgrid(xs, ys)  # shape (height, width)
    cells = np.empty((height, width), dtype=np.int8)

    def work(a, b):
        cells[a:b] = classify_points(
            sys, gx[a:b].ravel(), gy[a:b].ravel(), n_max, delta
        ).reshape(b - a, width)

    _run_chunked(work, height, threads)
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
    substreams = np.random.SeedSequence(seed).spawn(num_boxes)
    outcome = np.empty(num_boxes, dtype=np.int8)

    def work(first, stop):
        for i in range(first, stop):
            rng = np.random.default_rng(substreams[i])
            cx = rng.uniform(0.0, 1.0)
            cy = rng.uniform(0.1, 0.9)
            sx = (cx - box_side / 2.0 + rng.uniform(0.0, box_side, samples_per_box)) % 1.0
            sy = np.clip(cy - box_side / 2.0 + rng.uniform(0.0, box_side, samples_per_box), 0.0, 1.0)
            cls = classify_points(sys, sx, sy, n_max, delta)
            saw0 = bool((cls == BasinClass.BASIN0).any())
            saw1 = bool((cls == BasinClass.BASIN1).any())
            outcome[i] = 3 - 2 * saw0 - saw1  # 0 both, 1 only0, 2 only1, 3 neither

    _run_chunked(work, num_boxes, threads)
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
