"""One benchmark process: set up a workload, run whole rounds, check, report.

``run.py`` starts this script in a fresh interpreter with the worker and
BLAS settings of the workload already in the environment, and passes the
monotonic time at which it started the process.  Set-up ends just before
the first round, so ``setup_s`` covers interpreter start, imports, input
generation and any assumption scan.  The calibration kernel of
``calibrate.py`` is then timed once, and set-up time is reported with it.

Untraced, every round is timed and followed by one more calibration, so
that each round lies between two.  Traced, a first untraced round warms the
caches, then traced and untraced rounds alternate; the per-layer metrics
come from the traced rounds and the tracing overhead from comparing each
traced round with its untraced neighbours.  The last line of stdout is one
JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_package():
    """Import the package from the checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import tamedspde

    if not os.path.abspath(tamedspde.__file__).startswith(src + os.sep):
        raise ImportError(f"tamedspde imported from {tamedspde.__file__}, not {src}")


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def tracing_overhead(walls: list, traced: list) -> float:
    """Median over traced rounds of (traced wall - mean of its untraced neighbours).

    Comparing each traced round with the rounds just before and after it
    keeps a slow drift of the machine's speed out of the difference.  Round 0
    warms the caches and is no neighbour.
    """
    diffs = []
    for i, on in enumerate(traced):
        if on:
            near = [walls[j] for j in (i - 1, i + 1) if 0 < j < len(walls) and not traced[j]]
            if near:
                diffs.append(walls[i] - sum(near) / len(near))
    return statistics.median(diffs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    _import_package()
    import calibrate
    import settings
    import tracer as tracer_mod
    import workloads
    from tamedspde.parallel import worker_count

    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.install()  # set-up is traced too, for the assumption scan
    wl = workloads.build(args.workload, args.seed)
    if tracer:
        tracer.uninstall()
    setup_s = time.monotonic() - args.spawned_at
    # Calibrate once after set-up and, untraced, once after every round, so
    # that times can be given at the reference speed (see calibrate.py).
    cals = [calibrate.calibration_s()]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cal": cals[0]}))
        return 0

    rounds, walls, cpus, traced = [], [], [], []
    start = time.perf_counter()
    while True:
        i = len(rounds)
        # Traced runs: round 0 warms up untraced, then odd rounds are traced.
        on = bool(args.trace) and i % 2 == 1
        if on:
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rounds.append(wl.run_round(i))
        except Exception:  # a lost round counts its paths as failed
            traceback.print_exc(file=sys.stderr)
            rounds.append(workloads.Round(wl.paths_per_round, wl.paths_per_round))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if on:
            tracer.uninstall()
        traced.append(on)
        if not args.trace:
            cals.append(calibrate.calibration_s())
        enough = len(rounds) >= (3 if args.trace else settings.MIN_ROUNDS)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    failures, fit = wl.check(rounds)
    out = {
        "setup_s": setup_s,
        "setup_cal": cals[0],
        "walls": walls,
        "cpus": cpus,
        "cals": cals,
        "traced": traced,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "path_steps_per_round": wl.path_steps_per_round,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_failures": failures,
        "check": fit,
        "versions": versions(),
    }
    if tracer:
        n_traced = sum(traced)
        sp = tracer.spans()
        layer = tracer_mod.layer_metrics(
            sp, n_traced, n_traced * wl.paths_per_round, worker_count()
        )
        layer["trace.overhead_s"] = (tracing_overhead(walls, traced), "s")
        out["layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        out["spans"] = int(len(sp["id"]))
        if args.spans_out:
            tracer.save(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
