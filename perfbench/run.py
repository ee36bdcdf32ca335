"""Benchmark of cylmaps: time to a verified answer per experiment.

    python3 perfbench/run.py --workload raster --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process is one client in a closed loop: it draws an op's
inputs from the workload seed, runs the op, checks the answer, and starts
the next op until ``--seconds`` have passed.  ``--trace 0`` reports the
``end_to_end`` metrics of ``BENCHMARK.json``, with every time scaled to a
fixed reference host speed (see ``clock.py``); ``--trace 1`` repeats one
op's inputs, alternately untraced and traced, and reports the
``per_layer`` metrics.  ``--workload all`` runs every workload in its own
process.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A fresh process that imports cylmaps, builds the systems and runs one
# tiny op: the set-up every command-line call pays.
SETUP_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import ops; "
               "ops.WORKLOADS[sys.argv[3]].warm_up()")
# Half of them run before the timed ops and half after, so that their
# median spans the run's slow and fast stretches of the host.
SETUP_REPS = 12

# Counts of the traced raster op at the commit that defined the benchmark:
# (rounds, point_steps) at 1 and at 2 threads.  Reported, not enforced: a
# change to the classifier may rightly change them.
RASTER_REFERENCE = ((711, 50_571_240), (1422, 50_571_240))


def _median_quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, q1, q3


def _tail(xs):
    """Highest of p99/p95/p90 with at least ten samples beyond it, or None."""
    for p in (99, 95, 90):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(xs, n=100)[p - 1]
    return None


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, ops_run: int, note: str) -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _commit(),
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "ops": ops_run, "inputs": note}


def measure_setup(workload: str, clock, reps: int, wall: list, scaled: list):
    """Append the wall and scaled times of ``reps`` fresh set-up processes."""
    for _ in range(reps):
        clock.reset()
        with clock.step(0):
            # no timeout: with one, the wait polls in steps of up to 50 ms
            subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload],
                           check=True)
        wall.append(clock.wall[0])
        scaled.append(clock.scaled[0])


def run_untraced(args, wl):
    import numpy as np
    from clock import COMPUTE, STREAMING, StepClock
    clock = StepClock()
    setup_wall, setup = [], []
    measure_setup(args.workload, clock, SETUP_REPS // 2, setup_wall, setup)
    wl.warm_up()
    seeds = np.random.SeedSequence(args.seed)
    parts, walls = ([], []), ([], [])
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while not parts[0] or time.perf_counter() < deadline:
        inputs = wl.draw(seeds.spawn(1)[0])
        clock.reset()
        answer = wl.run(inputs, clock)
        for part in (0, 1):
            parts[part].append(clock.scaled[part])
            walls[part].append(clock.wall[part])
        bad = wl.check(answer)
        if bad:
            failed += 1
            print(f"op {len(parts[0])} failed: {', '.join(bad)}")
    measure_setup(args.workload, clock, SETUP_REPS - SETUP_REPS // 2, setup_wall, setup)
    n = len(parts[0])
    metrics = {"setup_s": statistics.median(setup),
               "part1_s": statistics.median(parts[0]),
               "part2_s": statistics.median(parts[1]),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    print(f"setup_s {metrics['setup_s']:.4f} s  median of {len(setup)} fresh processes "
          f"(wall {statistics.median(setup_wall):.4f} s)")
    for part, key in enumerate(("part1_s", "part2_s")):
        xs = parts[part]
        med, q1, q3 = _median_quartiles(xs)
        tail = _tail(xs)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                     else "no tail percentile: fewer than 10 samples beyond p90")
        print(f"{wl.parts[part]} {med:.4f} s  [{key}] median of {n} ops, "
              f"quartiles {q1:.4f}-{q3:.4f} s, {tail_text} "
              f"(wall {statistics.median(walls[part]):.4f} s)")
    for kernel in (COMPUTE, STREAMING):
        if passes := clock.passes[kernel.name]:
            print(f"{kernel.name} kernel {statistics.median(passes):.4f} s  median of "
                  f"{len(passes)} passes, range {min(passes):.4f}-{max(passes):.4f} s; "
                  f"scaled to {kernel.nominal_s} s")
    print(f"fail_frac {failed / n:g}  ({failed} of {n} ops)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    note = ("fixed grid: every raster op repeats one input" if args.workload == "raster"
            else "each op draws its own inputs from the workload seed")
    return n, failed, [], metrics, note


def run_traced(args, wl, per_layer):
    import numpy as np
    import tracer
    from clock import StepClock
    clock = StepClock()
    wl.warm_up()
    # One input set, repeated: counts must then repeat exactly.
    inputs = wl.draw(np.random.SeedSequence(args.seed).spawn(1)[0])
    plain_s, traced_s, layers, problems = [], [], [], []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while len(traced_s) < 2 or time.perf_counter() < deadline:
        clock.reset()
        answer = wl.run(inputs, clock)
        plain_s.append(sum(clock.scaled.values()))
        tr = tracer.Tracer()
        clock.reset()
        with tr:
            traced_answer = wl.run(inputs, clock)
        traced_s.append(sum(clock.scaled.values()))
        failed += bool(wl.check(answer)) + bool(wl.check(traced_answer))
        if not tr.restored():
            problems.append("rebound names not restored after the traced op")
        if traced_answer != answer:
            problems.append("traced answer differs from the untraced answer")
        layers.append(tracer.layer_metrics(tr.spans))
        if args.workload == "raster":
            counts = tracer.raster_counts(tr.spans)
            if len({steps for _, _, steps in counts}) != 1:
                problems.append(f"point-steps differ across thread counts: {counts}")
            if len(layers) == 1:
                for (chunks, rounds, steps), ref in zip(counts, RASTER_REFERENCE):
                    match = "matches" if (rounds, steps) == ref else f"differs from {ref}"
                    print(f"raster {chunks} chunk(s): {rounds} rounds, {steps} point-steps "
                          f"({match} the reference counts)")
    for m in (m for m in per_layer if m["unit"] == "count"):
        if len({run[m["name"]] for run in layers}) != 1:
            problems.append(f"{m['name']} did not repeat exactly")
    metrics = {name: statistics.median_low(run[name] for run in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    for m in per_layer:
        print(f"{m['name']} {metrics[m['name']]!r} {m['unit']}")
    for p in problems:
        print(f"trace check failed: {p}")
    note = f"one input set repeated over {len(traced_s)} traced and {len(plain_s)} untraced ops"
    return len(plain_s) + len(traced_s), failed, problems, metrics, note


def run_all(args, names) -> int:
    """Every workload in its own process; metric names get a workload prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, check=True, timeout=900)
        lines = out.stdout.splitlines()
        print("\n".join(f"{name}: {line}" for line in lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cylmaps" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: run from a cylmaps source checkout; no {SRC / 'cylmaps'}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Single-threaded BLAS: the only parallelism is rasterize(threads=2).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import cylmaps
    if Path(cylmaps.__file__).resolve().parent != (SRC / "cylmaps").resolve():
        print(f"perfbench: imported cylmaps from {cylmaps.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import ops
    if args.workload == "all":
        return run_all(args, list(ops.WORKLOADS))
    if args.workload not in ops.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(ops.WORKLOADS)}")
    wl = ops.WORKLOADS[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        attempted, failed, problems, metrics, note = run_traced(args, wl, wanted)
    else:
        attempted, failed, problems, metrics, note = run_untraced(args, wl)
    print("stamp " + json.dumps(stamp(args, attempted, note)))
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
