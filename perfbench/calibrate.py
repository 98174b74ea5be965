"""Machine-speed calibration: a fixed kernel timed between the rounds of a run.

The benchmark shares a few cores of a host with other tenants, and how fast
those cores run changes in phases of seconds to minutes: the same 4-path
``ladder-tau`` round took 3.1 s in one minute and 4.4 s a quarter of an hour
later, with CPU time tracking wall time.  A run therefore times this kernel,
which does not touch the package, once before its first round and once after
each round.  A round's wall time divided by the mean of the two calibrations
around it, times the kernel's reference time ``REFERENCE_S``, is the
round's time at reference speed.  A change to the package changes the
rounds and not the kernel, so it shows in full.

The kernel is what the workloads spend most of their time on: a Python loop
of ufunc calls on one 256-wide row, with passes over a 1 MB array.  It runs
on one thread, as every workload does.
"""

from __future__ import annotations

import time

# Pieces of the kernel one calibration runs.
PIECES = 16

# Seconds one calibration stands for: about its median on the reference
# machine (2 vCPU Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6), where 330
# timings over thirty runs gave a median of 0.32 s.
REFERENCE_S = 0.30


def _kernel(pieces: int) -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    row, w = rng.standard_normal((1, 256)), rng.standard_normal(256)
    big = rng.standard_normal(1 << 17)
    acc = 0.0
    for _ in range(pieces):
        for _ in range(1600):
            z = row * w
            z += 1.0
            np.maximum(z, 0.0, out=z)
            acc += float(np.dot(z[0], w))
        for _ in range(120):
            big *= 0.999
            acc += float(big.sum())
    return acc


def calibration_s() -> float:
    """Wall seconds of one calibration."""
    t0 = time.perf_counter()
    _kernel(PIECES)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, calibration: float) -> float:
    """A time measured while the kernel took ``calibration`` s, at reference speed."""
    return seconds * REFERENCE_S / calibration


def normalised_rounds(walls: list, cals: list) -> list:
    """Each round's wall time at reference speed, from the calibrations around it."""
    return [
        at_reference_speed(w, 0.5 * (cals[i] + cals[i + 1])) for i, w in enumerate(walls)
    ]
