"""Fast self-test of the benchmark harness at toy sizes (about a second).

    python3 perfbench/selftest.py

It shows that each correctness check can fail: errors scaled as tau^0.5 fail
the ladder-tau band, errors that stall fail the strict-decrease rule, and a
moment series above the Lyapunov envelope, a wrong step-0 moment or a
blow-up fail the long-run check.  It then runs one traced round of each
workload at toy sizes through the same code the benchmark runs, checks its
output as the benchmark does, and checks that the tracer reports every
per-layer metric of BENCHMARK.json and puts back every function it wrapped,
and that the scaling to reference speed cancels a uniformly slower machine.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import measure

measure._import_package()

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import settings  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tamedspde import parallel  # noqa: E402

TAUS = np.array(settings.WORKLOADS["ladder-tau"]["coarse"])
HS = 1.0 / np.array(settings.WORKLOADS["ladder-h-fine"]["coarse"], dtype=float)

TOY = {
    "ladder-tau": {"ref_tau": 2.0**-8, "ref_cells": 16,
                   "coarse": tuple(2.0**-j for j in range(3, 7)), "paths_per_round": 2},
    "ladder-h-fine": {"ref_tau": 2.0**-5, "ref_cells": 64,
                      "coarse": (4, 8, 16), "paths_per_round": 2},
    "longrun-ensemble": {"n_cells": 16, "n_steps": 100, "record_stride": 20,
                         "paths_per_round": 30},
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def ladder_checks() -> None:
    band, r2 = settings.WORKLOADS["ladder-tau"]["slope_band"], 0.95
    fails, fit = workloads.check_ladder(TAUS, 0.3 * TAUS, band, r2)
    expect(not fails and abs(fit["slope"] - 1.0) < 1e-12, "errors ~ tau pass the tau band")
    fails, fit = workloads.check_ladder(TAUS, 0.3 * TAUS**0.5, band, r2)
    expect(any("slope" in f for f in fails), "errors ~ tau^0.5 fail the tau band")
    stalled = 0.3 * TAUS
    stalled[-1] = stalled[-2]
    fails, _ = workloads.check_ladder(TAUS, stalled, band, r2)
    expect(any("strictly" in f for f in fails), "errors that stall fail strict decrease")
    noisy = 0.3 * TAUS * np.exp(0.6 * np.array([1, -1, 1, -1, 1, -1]))
    fails, _ = workloads.check_ladder(TAUS, noisy, (0.0, 9.0), r2)
    expect(any("R^2" in f for f in fails), "a poor fit fails the R^2 floor")
    band_h = settings.WORKLOADS["ladder-h-fine"]["slope_band"]
    fails, _ = workloads.check_ladder(HS, 0.5 * HS**2, band_h)
    expect(not fails, "errors ~ h^2 pass the h band")
    fails, _ = workloads.check_ladder(HS, 0.5 * HS, band_h)
    expect(any("slope" in f for f in fails), "errors ~ h fail the h band")


def longrun_checks() -> None:
    k1, k2, tau, h, amp = 0.5, 40.0, 2.0**-6, 1.0 / 32, 10.0
    steps = np.arange(0, 2001, 100)
    x0 = workloads.x0_l2_sq(amp, h)
    expect(abs(x0 - 50.0 * (2.0 + math.cos(math.pi * h)) / 3.0) <= 1e-15 * x0,
           "closed-form ||X0||^2 = 50 (2 + cos pi h) / 3")
    envelope = k2 / k1 + np.exp(-k1 * tau * steps) * x0
    se = np.full(len(steps), 0.1)
    good = np.minimum(envelope, x0)
    good[0] = x0

    def run(mean, blowups=0):
        return workloads.check_longrun(
            steps, mean, se, blowups, k1, k2, tau, h, amp, steps
        )[0]

    expect(not run(good), "a series under the envelope passes")
    above = good.copy()
    above[7] = envelope[7] + 3.0 * se[7] + 1e-6
    expect(any("above envelope" in f for f in run(above)), "a series above the envelope fails")
    off = good.copy()
    off[0] *= 1.0 + 1e-10
    expect(any("step-0" in f for f in run(off)), "a step-0 moment off by 1e-10 fails")
    expect(any("blew up" in f for f in run(good, blowups=1)), "a blow-up fails")


def traced_toy_rounds() -> None:
    bench = json.load(open(os.path.join(measure.ROOT, "BENCHMARK.json")))
    wanted = {m["name"] for m in bench["per_layer"]} - {"trace.overhead_s"}
    originals = [(o, a, o.__dict__[a]) for o, a, _, _ in tracer_mod.POINTS]
    originals += [(m, "parallel_map", m.parallel_map) for m, _ in tracer_mod.MAP_CALLERS]
    os.environ["TAMEDSPDE_WORKERS"] = "2"
    for name, toy in TOY.items():
        spec = copy.deepcopy(settings.WORKLOADS[name])
        spec.update(toy)
        tr = tracer_mod.Tracer()
        tr.install()
        try:
            wl = workloads.build(name, settings.DEFAULT_SEED, spec)
            rnd = wl.run_round(0)
        finally:
            tr.uninstall()
        expect(all(o.__dict__[a] is f for o, a, f in originals),
               f"{name}: uninstall restores every wrapped function")
        expect(rnd.attempted == spec["paths_per_round"] and rnd.failed == 0,
               f"{name}: toy round attempts {rnd.attempted} paths, loses none")
        failures, _ = wl.check([rnd])
        expect(not failures, f"{name}: toy round passes its check ({failures})")
        layer = tracer_mod.layer_metrics(
            tr.spans(), 1, spec["paths_per_round"], parallel.worker_count()
        )
        expect(set(layer) == wanted and all(np.isfinite(v) for v, _ in layer.values()),
               f"{name}: tracer reports every per-layer metric")
        expect(layer["engine.advance_calls"][0] > 0 and layer["noise.draw_calls"][0] > 0,
               f"{name}: advance and draw spans were recorded")
    overhead = measure.tracing_overhead(
        [6.0, 5.5, 5.0, 5.4, 5.0, 5.3], [False, True, False, True, False, True]
    )
    expect(abs(overhead - 0.4) < 1e-12,
           "tracing overhead compares traced rounds with untraced neighbours")
    ref = calibrate.REFERENCE_S
    walls, cals = [3.0, 3.3], [ref, ref, 1.2 * ref]  # round 2 ran 10% slow
    scaled = calibrate.normalised_rounds(walls, cals)
    slow = calibrate.normalised_rounds([2 * w for w in walls], [2 * c for c in cals])
    expect(np.allclose(scaled, [3.0, 3.0]) and np.allclose(slow, scaled),
           "times at reference speed do not depend on the machine's speed")
    expect(workloads.round_seed(1, 0) == workloads.round_seed(1, 0)
           and workloads.round_seed(1, 0) != workloads.round_seed(2, 0),
           "round seeds are a pure function of (--seed, round)")


if __name__ == "__main__":
    ladder_checks()
    longrun_checks()
    traced_toy_rounds()
    print("selftest passed")
