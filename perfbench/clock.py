"""Step timings scaled to a fixed reference host speed.

The shared virtual machines this benchmark runs on change speed by up to
2x in stretches of a few seconds; process CPU time follows wall time, so
the slowdown is in the instructions, not in waiting for a core.  A run's
median wall time then says more about the host than about the program.

:class:`StepClock` therefore times each step of an op twice: by the wall
clock, and against a fixed reference :class:`Kernel` that never calls
cylmaps, run just before and just after the step.  A step's scaled time is
its wall time times the kernel's ``nominal_s`` over the mean of the two
kernel times: the seconds the step would take on a host that runs the
kernel in ``nominal_s``.  A change to the program moves the scaled time as
it moves the wall time; a change of host speed moves both the step and the
kernel, and cancels.

Two kernels mix what the program does.  :data:`COMPUTE` runs
gather-compute-scatter rounds on small numpy arrays, elementwise passes
over an array that fits in cache, and a scalar Python loop, at about 0.4,
0.3 and 0.3 of its time.  :data:`STREAMING` adds cumulative sums streamed
through 8 MB arrays, as the walk statistics do.  Over 200 interleaved
samples on this host, scaling by :data:`COMPUTE` cut the noise of the
separator, probe, orbit-loop and raster times by about a third but left
the walk statistics as noisy as their wall time; :data:`STREAMING` cut
theirs by about a third, and made the raster's worse.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

_rng = np.random.default_rng(0)
_SMALL_X, _SMALL_Y = _rng.random(300), _rng.random(300)
_LARGE = _rng.random(200_000)


def _compute():
    x, y = _SMALL_X.copy(), _SMALL_Y.copy()
    active = np.ones(x.size, dtype=bool)
    for _ in range(500):
        idx = np.flatnonzero(active)
        xa, ya = x[idx], y[idx]
        ya = ya + 0.25 * ya * (1.0 - ya) * np.cos(2.0 * np.pi * xa)
        x[idx], y[idx] = (3.0 * xa) % 1.0, ya
        active[idx[ya > 2.0]] = False
    z = _LARGE
    for _ in range(2):
        z = np.cumsum(np.abs(np.sin(z)) > 0.5) / z.size + _LARGE
    s, u = 0.0, 0.4
    for _ in range(90_000):
        u = (3.0 * u) % 1.0
        s += math.cos(u)


@functools.cache
def _stream_array() -> np.ndarray:
    # 8 MB, like one walk of 1e6 steps; made on first use, so that it
    # adds to peak_rss_mb only on the workload whose walks it stands for
    return np.random.default_rng(1).random(1_000_000)


def _streaming():
    _compute()
    stream = _stream_array()
    for _ in range(2):
        above = np.cumsum(stream > 0.5)
        near = np.cumsum(np.abs(stream - 0.5) <= 0.25)
        above / (near + 1.0)


@dataclass(frozen=True)
class Kernel:
    name: str
    run: Callable[[], None]
    # About the kernel's median time on the 2-vCPU Intel Xeon (2.1 GHz)
    # virtual machine where the benchmark was written; a constant, so that
    # scaled times of different runs and commits compare.
    nominal_s: float

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


COMPUTE = Kernel("compute", _compute, 0.03)
STREAMING = Kernel("streaming", _streaming, 0.065)


class StepClock:
    """Sums the wall and the scaled time of an op's steps, per part.

    ``with clock.step(part): ...`` times one step against :data:`COMPUTE`,
    ``clock.step(part, STREAMING)`` against :data:`STREAMING`.  The kernel
    runs between consecutive steps, and the median of its passes there is
    the "after" of one step and the "before" of the next (a step whose
    kernel differs from the last one's first runs one pass of its own).  A
    longer step gets more passes (one per 0.5 s of step, at most five), so
    that the kernel's own noise stays small beside the step at less than
    10 % overhead.
    """

    def __init__(self):
        self._kernel = COMPUTE
        self._last = COMPUTE.seconds()
        self.wall = defaultdict(float)
        self.scaled = defaultdict(float)
        self.passes = defaultdict(list)  # kernel name -> every pass's time

    def reset(self):
        """Start a new op; the last kernel time carries over."""
        self.wall.clear()
        self.scaled.clear()

    @contextmanager
    def step(self, part: int, kernel: Kernel = COMPUTE):
        if kernel is not self._kernel:
            self._kernel, self._last = kernel, kernel.seconds()
        before = self._last
        t0 = time.perf_counter()
        yield
        seconds = time.perf_counter() - t0
        passes = [kernel.seconds() for _ in range(max(1, min(5, round(seconds / 0.5))))]
        self._last = after = statistics.median(passes)
        self.passes[kernel.name] += passes
        self.wall[part] += seconds
        self.scaled[part] += seconds * kernel.nominal_s * 2.0 / (before + after)
