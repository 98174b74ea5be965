"""Deterministic worker-pool mapping for Monte Carlo work items.

Worker count comes from the TAMEDSPDE_WORKERS environment variable (default
1) and controls scheduling only.  A work item is a slice of a probe's paths,
stepped as one lockstep ensemble (``path_slices``), or a chunk of a strong-
error ladder's paths (``path_chunks``).  Both depend only on the path count
and the mesh, and results are combined in item order, so every output is
byte-identical at any parallelism level.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

PATH_CHUNK = 25  # paths per ladder chunk, and the unit of a probe's slices
# State values per slice, above one chunk.  Peak RSS grows by about nine
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


def path_chunks(n_paths: int) -> list:
    """[(start, stop), ...] covering range(n_paths) in chunks of PATH_CHUNK."""
    return [(a, min(a + PATH_CHUNK, n_paths)) for a in range(0, n_paths, PATH_CHUNK)]


def path_slices(n_paths: int, n_nodes: int) -> list:
    """[(start, stop), ...] covering range(n_paths) in slices of whole PATH_CHUNKs.

    A slice holds at most MAX_SLICE_VALUES states of ``n_nodes`` values, or
    one chunk where a chunk holds more.
    """
    rows = max(1, MAX_SLICE_VALUES // (n_nodes * PATH_CHUNK)) * PATH_CHUNK
    return [(a, min(a + rows, n_paths)) for a in range(0, n_paths, rows)]
