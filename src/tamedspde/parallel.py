"""Deterministic worker-pool mapping for Monte Carlo work items.

Worker count comes from the TAMEDSPDE_WORKERS environment variable (default
1) and controls scheduling only.  A work item is a slice of a probe's or a
ladder's paths, cut by one rule (``path_slices``) from the path count and
the values a path holds, and stepped as one ensemble by a module-level
function bound to plain data (picklable).  Results are combined in item
order, so every output is byte-identical at any parallelism level.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

PATH_CHUNK = 25  # the unit of a slice: paths stepped together at least
# Values per slice, above one chunk.  Peak RSS grows by about nine
# state-sized arrays per slice; the coupling probe at 4096 cells x 1000 paths
# peaked 65 MB higher at 2^20 (250-row slices) than here (25-row slices), at
# the same speed.
MAX_SLICE_VALUES = 1 << 17


def worker_count() -> int:
    raw = os.environ.get("TAMEDSPDE_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0  # rejected below, with the message a value below 1 gets
    if n < 1:
        raise ValueError(f"TAMEDSPDE_WORKERS must be an integer >= 1, got {raw!r}")
    return n


def parallel_map(fn, items) -> list:
    """Map fn over items, preserving order; threads only when worker_count() > 1."""
    items = list(items)
    w = worker_count()
    if w == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, items))


def path_slices(n_paths: int, row_values: int) -> list:
    """Ranges covering range(n_paths) in slices of whole PATH_CHUNKs.

    ``row_values`` is what one path holds: a probe's start values, a ladder's
    block buffers.  A slice holds at most MAX_SLICE_VALUES of them, or one
    chunk where a chunk holds more.
    """
    rows = max(1, MAX_SLICE_VALUES // (row_values * PATH_CHUNK)) * PATH_CHUNK
    return [range(a, min(a + rows, n_paths)) for a in range(0, n_paths, rows)]
