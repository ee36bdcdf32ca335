"""Raster classification, measure fractions, probe statistics, PPM bytes."""

import math

import numpy as np
import pytest

from cylmaps import (
    BasinClass,
    CylinderSystem,
    CylPoint,
    PreconditionError,
    StepProfile,
    classify_point,
    classify_points,
    cylinder,
    estimate_separator_batch,
    fractional_linear_family,
    intermingle_probe,
    inverse_kan_family,
    kan_family,
    measure_fractions,
    rasterize,
    write_ppm,
)
from cylmaps.basins import intermingle_csv

SYS3 = CylinderSystem(3, kan_family(0.5))


def test_single_cell_raster_undecided():
    r = rasterize(SYS3, 1, 1, 0, 1e-6)
    assert r.cells.shape == (1, 1)
    assert r.cells[0, 0] == BasinClass.UNDECIDED
    assert measure_fractions(r) == (0.0, 0.0, 1.0)


def test_bottom_row_is_basin0():
    r = rasterize(SYS3, 32, 4096, 5000, 1e-6)
    bottom = r.cells[0]
    assert (bottom == BasinClass.BASIN0).mean() > 0.9


def test_fractions_sum_to_one():
    r = rasterize(SYS3, 64, 64, 300, 1e-6)
    f0, f1, fu = measure_fractions(r)
    assert abs(f0 + f1 + fu - 1.0) < 1e-12


def test_fractions_single_class():
    import dataclasses
    r = rasterize(SYS3, 4, 4, 0, 1e-6)
    r = dataclasses.replace(r, cells=np.zeros((4, 4), dtype=np.int8))
    assert measure_fractions(r) == (1.0, 0.0, 0.0)


def test_raster_determinism_and_thread_invariance():
    a = rasterize(SYS3, 96, 64, 800, 1e-6)
    b = rasterize(SYS3, 96, 64, 800, 1e-6)
    c = rasterize(SYS3, 96, 64, 800, 1e-6, threads=4)
    assert (a.cells == b.cells).all()
    assert (a.cells == c.cells).all()


def _record_classifier_calls(monkeypatch):
    """(angles, heights) of every classifier call the column search makes."""
    calls = []
    classify = cylinder.classify_points
    monkeypatch.setattr(cylinder, "classify_points", lambda sys_, xs, ys, *a, **kw:
                        calls.append((np.copy(xs), np.copy(ys))) or classify(sys_, xs, ys, *a, **kw))
    return calls


def test_raster_cuts_each_column_search_evenly_a_level(monkeypatch):
    # 48 cells a column: at most ceil(log12(49)) = 2 levels, each cutting a
    # search into 7 parts (7^2 >= 49 answers), so two searches of 6 probes a
    # column; the short budget leaves an Undecided band, so the two searches
    # of a column probe different cells
    calls = _record_classifier_calls(monkeypatch)
    r = rasterize(SYS3, 64, 48, 40, 1e-6)
    assert (r.cells == BasinClass.UNDECIDED).any()
    assert 0 < len(calls) <= math.ceil(math.log(48 + 1, 12))
    for xs, _ in calls:
        assert np.unique(xs, return_counts=True)[1].max() <= 2 * 6


def test_raster_classifies_a_cell_both_searches_probe_once(monkeypatch):
    # no Undecided cell, so both searches of every column probe the same cells
    calls = _record_classifier_calls(monkeypatch)
    r = rasterize(SYS3, 64, 48, 2000, 1e-6)
    assert not (r.cells == BasinClass.UNDECIDED).any()
    assert 0 < len(calls) <= 2
    for xs, ys in calls:
        assert xs.size <= 64 * 11
        assert len(set(zip(xs.tolist(), ys.tolist()))) == xs.size


def test_budget_monotone_on_raster():
    small = rasterize(SYS3, 64, 64, 100, 1e-6)
    large = rasterize(SYS3, 64, 64, 1000, 1e-6)
    decided = small.cells != BasinClass.UNDECIDED
    assert (small.cells[decided] == large.cells[decided]).all()


def test_desk_scale_raster_statistics():
    r = rasterize(SYS3, 256, 256, 5000, 1e-6, threads=2)
    f0, f1, fu = measure_fractions(r)
    assert fu < 0.02
    assert abs(f0 - f1) < 0.02


def test_probe_reference_system():
    rep = intermingle_probe(SYS3, 100, 1.0 / 64.0, 500, 5000, 1e-6, seed=1)
    assert rep.boxes_total == 100
    assert rep.boxes_both >= 90
    total = (rep.boxes_both + rep.boxes_only0 + rep.boxes_only1
             + rep.boxes_undecided)
    assert total == rep.boxes_total


# (system, boxes, samples a box, n_max, delta): 200 samples cross every stage
# end; inverse Kan at delta 0.01 reads all four outcomes; at epsilon 0.05 no
# box decides, so every sample of every box is classified; a quarter-side box
# wraps in x and clips to the boundary heights 0 and 1 far more often than a
# 1/64 box does
PROBE_CASES = {
    "kan-20": (SYS3, 40, 20, 120, 1e-6),
    "kan-200": (SYS3, 40, 200, 120, 1e-6),
    "inv-delta0.01": (CylinderSystem(3, inverse_kan_family(0.5)), 40, 20, 120, 0.01),
    "kan-eps0.05": (CylinderSystem(3, kan_family(0.05)), 10, 200, 120, 1e-6),
}


@pytest.mark.parametrize("side", [1.0 / 64.0, 0.25])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", PROBE_CASES.values(), ids=PROBE_CASES.keys())
def test_probe_matches_per_box_loop(case, seed, side):
    def per_box(sys_, num_boxes, side, samples, n_max, delta, seed):
        counts = [0, 0, 0, 0]  # both, only0, only1, neither
        for sub in np.random.SeedSequence(seed).spawn(num_boxes):
            rng = np.random.default_rng(sub)
            cx = rng.uniform(0.0, 1.0)
            cy = rng.uniform(0.1, 0.9)
            sx = (cx - side / 2.0 + rng.uniform(0.0, side, samples)) % 1.0
            sy = np.clip(cy - side / 2.0 + rng.uniform(0.0, side, samples), 0.0, 1.0)
            cls = classify_points(sys_, sx, sy, n_max, delta)
            saw0 = bool((cls == BasinClass.BASIN0).any())
            saw1 = bool((cls == BasinClass.BASIN1).any())
            counts[3 - 2 * saw0 - saw1] += 1
        return counts

    sys_, boxes, samples, n_max, delta = case
    rep = intermingle_probe(sys_, boxes, side, samples, n_max, delta, seed=seed)
    got = [rep.boxes_both, rep.boxes_only0, rep.boxes_only1, rep.boxes_undecided]
    assert got == per_box(sys_, boxes, side, samples, n_max, delta, seed)


def test_probe_is_regime_specific():
    # positive curvature repels both boundaries: nothing ever decides
    inv = CylinderSystem(3, inverse_kan_family(0.5))
    rep = intermingle_probe(inv, 20, 1.0 / 64.0, 100, 5000, 1e-6, seed=4)
    assert rep.boxes_both == 0
    assert rep.boxes_undecided == 20
    # the zero-curvature probe at k = 2 is refused: its float base orbit
    # collapses onto x = 0, where every step is +0.1, so it would report
    # "Basin1 only" in every box whatever the dynamics
    flat = CylinderSystem(2, fractional_linear_family(StepProfile((0.1, -0.1))))
    with pytest.raises(PreconditionError):
        intermingle_probe(flat, 20, 1.0 / 64.0, 100, 5000, 1e-6, seed=4)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("entry", [
    lambda sys: rasterize(sys, 8, 8, 100, 1e-6),
    lambda sys: intermingle_probe(sys, 4, 1.0 / 64.0, 10, 100, 1e-6, seed=1),
    lambda sys: estimate_separator_batch(sys, [0.1, 0.3], 100, 1e-6, 1e-3),
    lambda sys: classify_point(sys, CylPoint(0.3, 0.5), 100, 1e-6),
], ids=["raster", "probe", "separator", "point"])
def test_classification_refuses_even_k(entry, k):
    # the float orbit k*x mod 1 collapses onto x = 0 for even k; at k = 4 the
    # raster of kan(0.5) read (0, 1, 0) and the probe found no box with both
    # basins, against Kan's theorem
    with pytest.raises(PreconditionError, match="odd base multiplier"):
        entry(CylinderSystem(k, kan_family(0.5)))


@pytest.mark.parametrize("entry", [
    lambda sys, delta: rasterize(sys, 8, 8, 100, delta),
    lambda sys, delta: intermingle_probe(sys, 4, 1.0 / 64.0, 10, 100, delta, seed=1),
    lambda sys, delta: estimate_separator_batch(sys, [0.1, 0.3], 100, delta, 1e-3),
    lambda sys, delta: classify_point(sys, CylPoint(0.3, 0.5), 100, delta),
], ids=["raster", "probe", "separator", "point"])
def test_classification_refuses_delta_below_float_resolution(entry):
    # 1 - 1e-17 rounds to 1.0 and no height exceeds 1.0: the 32x32 raster read
    # frac1 = 0 and the separator decided 0 of 20 angles
    for delta in (1e-17, 2.0**-54):
        with pytest.raises(PreconditionError, match="1 - delta"):
            entry(SYS3, delta)
    entry(SYS3, 2.0**-53)  # 1 - 2^-53 is the float just below 1


def test_probe_gates():
    with pytest.raises(PreconditionError):
        intermingle_probe(SYS3, 10, 1.0 / 64.0, 0, 100, 1e-6, seed=1)
    with pytest.raises(PreconditionError):
        intermingle_probe(SYS3, 10, 0.7, 10, 100, 1e-6, seed=1)


def test_ppm_single_cell():
    r = rasterize(SYS3, 1, 1, 0, 1e-6)  # undecided -> black
    data = write_ppm(r)
    assert data == b"P6\n1 1\n255\n\x00\x00\x00"


def test_ppm_two_cells_row_order():
    import dataclasses
    r = rasterize(SYS3, 2, 1, 0, 1e-6)
    cells = np.array([[BasinClass.BASIN0, BasinClass.BASIN1]], dtype=np.int8)
    r = dataclasses.replace(r, cells=cells)
    data = write_ppm(r)
    assert data.startswith(b"P6\n2 1\n255\n")
    assert data[len(b"P6\n2 1\n255\n"):] == bytes((0, 0, 255, 255, 200, 0))


def test_ppm_top_row_is_upper_boundary():
    import dataclasses
    r = rasterize(SYS3, 1, 2, 0, 1e-6)
    cells = np.array([[BasinClass.BASIN0], [BasinClass.BASIN1]], dtype=np.int8)
    r = dataclasses.replace(r, cells=cells)
    payload = write_ppm(r)[len(b"P6\n1 2\n255\n"):]
    assert payload == bytes((255, 200, 0, 0, 0, 255))  # basin1 row rendered first


def test_ppm_deterministic():
    r = rasterize(SYS3, 16, 16, 200, 1e-6)
    assert write_ppm(r) == write_ppm(r)
    assert len(write_ppm(r)) == len(b"P6\n16 16\n255\n") + 3 * 16 * 16


def test_intermingle_csv_shape():
    rep = intermingle_probe(SYS3, 5, 1.0 / 64.0, 50, 500, 1e-6, seed=2)
    text = intermingle_csv(rep)
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("boxes_total,")
    assert int(lines[1].split(",")[0]) == 5
