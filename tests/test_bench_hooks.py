"""The benchmark's traced run rebinds public names of the package.

``perfbench/tracer.py`` wraps ``basins.classify_points``,
``cylinder.classify_points``, ``FiberFamily.displacement`` and other public
names, and reads classifier rounds off the displacement calls.  These tests
import the tracer unchanged and check that the package still offers what it
hooks: every rebound name exists, the classifier is looked up through the
module global at call time and calls ``displacement`` once per block of
rounds, with one row a round of the distinct angles of its undecided points
(each angle once, however many points share it; a batch whose angles never
repeat keeps its order), so the tracer's rounds count blocks; the
raster makes one classifier call per level of its column search, on the
calling thread, with the same calls and angle-steps at any thread count; the probe reaches the classifier once per
stage, with the samples of the boxes that have not yet seen both basins; the
separator's column search makes every classifier call under the
separator's span, so the separator's point-steps are the classifier's; every
walk of an ensemble that no byte table counts is drawn by
``walks.simulate_walk``.
"""

import importlib
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from cylmaps import (
    BasinClass,
    CylinderSystem,
    FiberFamily,
    StepProfile,
    basins,
    cylinder,
    kan_family,
    walks,
)

SYS3 = CylinderSystem(3, kan_family(0.5))
PM1 = StepProfile((1.0, -1.0))
CLASSIFY = "cylinder.classify_points"


@pytest.fixture(scope="module")
def tracer():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        yield importlib.import_module("tracer")


def test_tracer_finds_every_hooked_name(tracer):
    tr = tracer.Tracer()
    assert tr.restored()


def test_traced_raster_makes_one_classifier_call_per_search_level(tracer):
    width, height = 32, 48
    plain = basins.rasterize(SYS3, width, height, 2000, 1e-6).cells
    tr = tracer.Tracer()
    with tr:
        traced = basins.rasterize(SYS3, width, height, 2000, 1e-6).cells
    assert tr.restored()
    assert np.array_equal(plain, traced)
    (raster,) = [s for s in tr.spans if s.name == "basins.rasterize"]
    calls = [s for s in tr.spans if s.name == CLASSIFY]
    # two levels cut at most two open searches a column into 7 parts each
    # (7^2 >= 49 heights and answers)
    assert all(s.parent is raster for s in calls)
    assert 0 < len(calls) <= math.ceil(math.log(height + 1, 12))
    assert all(0 < s.work["points"] <= 2 * 6 * width for s in calls)
    ((chunks, _, steps),) = tracer.raster_counts(tr.spans)
    assert chunks == len(calls) and steps > 0


def test_traced_classifier_steps_only_undecided_points(tracer, monkeypatch):
    angles = []
    displacement = FiberFamily.displacement
    monkeypatch.setattr(FiberFamily, "displacement",
                        lambda fam, x: angles.append(np.copy(x)) or displacement(fam, x))
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 1.0, 400)
    ys = rng.uniform(0.0, 1.0, 400)
    # heights at or beyond a threshold classify before the first round
    ys[::8], ys[1::8], ys[2::8], ys[3::8] = 0.0, 1e-7, 1.0, 1.0 - 1e-7
    tr = tracer.Tracer()
    with tr:
        cls = cylinder.classify_points(SYS3, xs, ys, 2000, 1e-6)
    assert tr.restored()
    (span,) = [s for s in tr.spans if s.name == CLASSIFY]
    counts = [s.work["elements"] for s in sorted(tr.spans, key=lambda s: s.start)
              if s.name == "fiber.displacement" and s.parent is span]
    # each call takes a block of rounds: one row of angles a round
    rows = [a.shape[0] for a in angles]
    widths = [a.shape[1] for a in angles]
    assert counts == [r * w for r, w in zip(rows, widths)]
    assert sum(rows) <= 2000
    undecided = (ys >= 1e-6) & (ys <= 1.0 - 1e-6)
    assert np.array_equal(angles[0][0], xs[undecided])
    assert widths[0] == np.count_nonzero(undecided) == 200
    assert all(a >= b > 0 for a, b in zip(widths, widths[1:]))
    assert widths[-1] >= np.count_nonzero(cls == BasinClass.UNDECIDED)


def test_traced_raster_steps_are_the_same_at_1_2_and_3_threads(tracer):
    # the search runs on the calling thread whatever threads says
    tr = tracer.Tracer()
    with tr:
        for threads in (1, 2, 3):
            basins.rasterize(SYS3, 64, 48, 2000, 1e-6, threads=threads)
    assert tr.restored()
    counts = tracer.raster_counts(tr.spans)
    assert len(counts) == 3 and len(set(counts)) == 1
    assert {s.thread for s in tr.spans} == {threading.get_ident()}


def _traced_probe_points(tracer, *args):
    tr = tracer.Tracer()
    with tr:
        rep = basins.intermingle_probe(*args)
    assert tr.restored()
    assert rep == basins.intermingle_probe(*args)
    return rep, [s.work["points"] for s in sorted(tr.spans, key=lambda s: s.start)
                 if s.name == CLASSIFY]


def test_traced_probe_classifies_the_open_boxes_in_stages(tracer):
    rep, points = _traced_probe_points(tracer, SYS3, 20, 1.0 / 64.0, 30, 2000, 1e-6, 1)
    # stage ends 8 and then all 30 samples: widths 8 and 22; a box that never
    # sees both basins stays open to the last stage
    widths = (8, 22)
    assert rep.boxes_both < rep.boxes_total and len(points) == len(widths)
    assert points[0] == 20 * 8
    open_boxes = [p // w for p, w in zip(points, widths)]
    assert [n * w for n, w in zip(open_boxes, widths)] == points
    assert 20 >= open_boxes[1] >= rep.boxes_total - rep.boxes_both


def test_traced_selftest_probe_classifies_few_points(tracer):
    rep, points = _traced_probe_points(tracer, SYS3, 100, 1.0 / 64.0, 500, 5000, 1e-6, 1)
    assert rep.boxes_both >= 90
    assert sum(points) <= 2000


def test_traced_separator_classifies_under_its_own_span(tracer):
    xs = np.random.default_rng(42).uniform(0.0, 1.0, 200)
    tr = tracer.Tracer()
    with tr:
        samples = cylinder.estimate_separator_batch(SYS3, xs, 5000, 1e-6, 1e-3)
    assert tr.restored()
    assert samples == cylinder.estimate_separator_batch(SYS3, xs, 5000, 1e-6, 1e-3)
    (sep,) = [s for s in tr.spans if s.name == "cylinder.estimate_separator_batch"]
    calls = [s for s in tr.spans if s.name == CLASSIFY]
    # the 1e-3 ladder has 1023 rungs: at most ceil(log12(1024)) = 3 levels
    assert 0 < len(calls) <= 3
    assert all(s.parent is sep and 0 < s.work["points"] <= 2 * 11 * 200 for s in calls)
    # every round is a classifier round: the separator steps no orbit itself
    disp = [s for s in tr.spans if s.name == "fiber.displacement"]
    assert disp and all(any(s.parent is c for c in calls) for s in disp)
    m = tracer.layer_metrics(tr.spans)
    assert m["cylinder.estimate_separator_batch.calls"] == 1
    assert m["cylinder.estimate_separator_batch.angles"] == 200
    assert m["cylinder.estimate_separator_batch.classify_calls"] == len(calls)
    assert m["cylinder.classify_points.rounds"] == len(disp)
    assert (m["cylinder.estimate_separator_batch.point_steps"]
            == m["cylinder.classify_points.point_steps"]
            == sum(s.work["elements"] for s in disp))
    assert m["fiber.displacement.calls"] == len(disp)
    assert m["fiber.displacement.elements"] == sum(s.work["elements"] for s in disp)


def test_traced_arcsine_draws_only_the_walks_a_byte_table_cannot_count(tracer):
    # a +-1 ensemble is counted from its digit bytes, with no walk drawn; a
    # profile off the byte table draws each walk through walks.simulate_walk
    for profile, drawn_walks in ((PM1, 0), (StepProfile((0.5, -0.5)), 5)):
        tr = tracer.Tracer()
        with tr:
            walks.arcsine_ensemble(profile, 100, 5, [0.5], 0)
        assert tr.restored()
        (ensemble,) = [s for s in tr.spans if s.name == "walks.arcsine_ensemble"]
        drawn = [s for s in tr.spans if s.name == "walks.simulate_walk"]
        assert len(drawn) == drawn_walks
        assert all(s.parent is ensemble and s.work["steps"] == 100 for s in drawn)
