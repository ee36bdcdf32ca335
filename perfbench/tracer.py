"""Spans for the traced benchmark run, recorded without touching ``src/``.

A :class:`Tracer` rebinds public names of the cylmaps modules to timing
wrappers while it is entered and restores the originals on exit.  Each
call becomes a :class:`Span` with its parent: the span open on the same
thread, or, for a call made on a worker thread of ``rasterize`` or
``intermingle_probe``, the span open on the benchmark's own thread.  A
span's self time is its duration minus its child spans on the same thread.
:func:`layer_metrics` reduces one op's spans to the per-layer metrics that
``BENCHMARK.json`` lists under ``per_layer``.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from cylmaps import basins, cylinder, fiber, measures, walks


@dataclass
class Span:
    name: str
    parent: Span | None
    thread: int
    start: float
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _classified(args, out):
    undecided = np.count_nonzero(out == cylinder.BasinClass.UNDECIDED)
    return {"points": out.size, "undecided": int(undecided)}


# (owner, attribute, span name, work counted from (positional args, result)).
# classify_points is rebound in basins and in cylinder, where rasterize,
# intermingle_probe and estimate_separator_batch look it up; orbit_points
# and base_orbit_angles are rebound in measures for the same reason.
TARGETS = (
    (basins, "rasterize", "basins.rasterize",
     lambda a, r: {"cells": r.cells.size}),
    (basins, "intermingle_probe", "basins.intermingle_probe",
     lambda a, r: {"boxes": r.boxes_total, "boxes_both": r.boxes_both}),
    (cylinder, "estimate_separator_batch", "cylinder.estimate_separator_batch",
     lambda a, r: {"angles": len(r),
                      "undecided": sum(not s.decided for s in r)}),
    (basins, "classify_points", "cylinder.classify_points", _classified),
    (cylinder, "classify_points", "cylinder.classify_points", _classified),
    (fiber.FiberFamily, "displacement", "fiber.displacement",
     lambda a, r: {"elements": int(np.size(a[1]))}),
    (measures, "orbit_histogram", "measures.orbit_histogram", None),
    (measures, "birkhoff_average", "measures.birkhoff_average", None),
    (measures, "orbit_points", "measures.orbit_points",
     lambda a, r: {"steps": r[0].size}),
    (measures, "base_orbit_angles", "cylinder.base_orbit_angles",
     lambda a, r: {"angles": r.size}),
    (walks, "simulate_walk", "walks.simulate_walk",
     lambda a, r: {"steps": r.t.size - 1}),
    (walks, "occupation_ratios", "walks.occupation_ratios",
     lambda a, r: {"steps": r.a_over_n.size}),
    (walks, "arcsine_ensemble", "walks.arcsine_ensemble",
     lambda a, r: {"walks": a[2]}),
    (walks, "circle_equidistribution", "walks.circle_equidistribution", None),
)


class Tracer:
    """Context manager that records a span for every call of :data:`TARGETS`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._originals = [(owner, attr, owner.__dict__[attr])
                           for owner, attr, _, _ in TARGETS]

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, work):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(name, parent, threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, result)
            self.spans.append(span)
            return result
        return wrapper

    def __enter__(self):
        for (owner, attr, original), (_, _, name, work) in zip(self._originals, TARGETS):
            setattr(owner, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        return False

    def restored(self) -> bool:
        """True when every rebound name is the original object again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._originals)


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)
    return kids


def _classifier_work(span, kids):
    """(rounds, point_steps) of one classify_points span: its displacement calls."""
    disp = [c for c in kids[id(span)] if c.name == "fiber.displacement"]
    return len(disp), sum(c.work["elements"] for c in disp)


def raster_counts(spans) -> list[tuple[int, int, int]]:
    """(chunks, rounds, point_steps) for each rasterize span, in call order."""
    kids = _children(spans)
    out = []
    for s in sorted((s for s in spans if s.name == "basins.rasterize"), key=lambda s: s.start):
        work = [_classifier_work(c, kids) for c in kids[id(s)]
                if c.name == "cylinder.classify_points"]
        out.append((len(work), sum(w[0] for w in work), sum(w[1] for w in work)))
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one op; a layer the op never calls reads 0."""
    kids = _children(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def self_s(name):
        return sum(s.seconds - sum(c.seconds for c in kids[id(s)] if c.thread == s.thread)
                   for s in by[name])

    def total(name, key):
        return sum(s.work[key] for s in by[name])

    def per_unit(name, count, scale):
        return sum(s.seconds for s in by[name]) / count * scale if count else 0.0

    m = {}
    cls = "cylinder.classify_points"
    work = [_classifier_work(s, kids) for s in by[cls]]
    rounds, steps = sum(w[0] for w in work), sum(w[1] for w in work)
    m.update({f"{cls}.calls": len(by[cls]), f"{cls}.points": total(cls, "points"),
              f"{cls}.rounds": rounds, f"{cls}.point_steps": steps,
              f"{cls}.undecided": total(cls, "undecided"), f"{cls}.self_s": self_s(cls),
              f"{cls}.ns_per_point_step": per_unit(cls, steps, 1e9),
              f"{cls}.us_per_round": per_unit(cls, rounds, 1e6)})

    disp = "fiber.displacement"
    m.update({f"{disp}.calls": len(by[disp]), f"{disp}.elements": total(disp, "elements"),
              f"{disp}.self_s": self_s(disp)})

    sep = "cylinder.estimate_separator_batch"
    sep_cls = [c for s in by[sep] for c in kids[id(s)] if c.name == cls]
    m.update({f"{sep}.calls": len(by[sep]), f"{sep}.angles": total(sep, "angles"),
              f"{sep}.classify_calls": len(sep_cls),
              f"{sep}.point_steps": sum(_classifier_work(c, kids)[1] for c in sep_cls),
              f"{sep}.undecided": total(sep, "undecided"), f"{sep}.self_s": self_s(sep)})

    ras = "basins.rasterize"
    imbalance = []
    for s in by[ras]:
        chunks = [c.seconds for c in kids[id(s)] if c.name == cls]
        if len(chunks) > 1:
            imbalance.append(max(chunks) / statistics.fmean(chunks))
    m.update({f"{ras}.cells": total(ras, "cells"), f"{ras}.self_s": self_s(ras),
              f"{ras}.chunk_imbalance": statistics.median(imbalance) if imbalance else 0.0})

    pr = "basins.intermingle_probe"
    boxes = total(pr, "boxes")
    m.update({f"{pr}.boxes": boxes,
              f"{pr}.boxes_both_ratio": total(pr, "boxes_both") / boxes if boxes else 0.0,
              f"{pr}.self_s": self_s(pr)})

    bo, op = "cylinder.base_orbit_angles", "measures.orbit_points"
    m.update({f"{bo}.angles": total(bo, "angles"), f"{bo}.self_s": self_s(bo),
              f"{op}.steps": total(op, "steps"), f"{op}.self_s": self_s(op),
              f"{op}.ns_per_step": per_unit(op, total(op, "steps"), 1e9),
              "measures.orbit_histogram.self_s": self_s("measures.orbit_histogram"),
              "measures.birkhoff_average.self_s": self_s("measures.birkhoff_average")})

    m.update({"walks.simulate_walk.steps": total("walks.simulate_walk", "steps"),
              "walks.simulate_walk.self_s": self_s("walks.simulate_walk"),
              "walks.occupation_ratios.steps": total("walks.occupation_ratios", "steps"),
              "walks.occupation_ratios.self_s": self_s("walks.occupation_ratios"),
              "walks.arcsine_ensemble.walks": total("walks.arcsine_ensemble", "walks"),
              "walks.arcsine_ensemble.self_s": self_s("walks.arcsine_ensemble"),
              "walks.circle_equidistribution.self_s": self_s("walks.circle_equidistribution")})
    return m
