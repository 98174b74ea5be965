"""Deterministic worker-pool mapping for Monte Carlo path chunks.

Worker count comes from the TAMEDSPDE_WORKERS environment variable (default
1) and controls scheduling only: work items are fixed-size path chunks whose
contents and combination order never depend on the worker count, so every
output is byte-identical at any parallelism level.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

PATH_CHUNK = 25  # paths per work item; fixed so results cannot depend on workers


def worker_count() -> int:
    raw = os.environ.get("TAMEDSPDE_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0  # rejected below, with the message a value below 1 gets
    if n < 1:
        raise ValueError(f"TAMEDSPDE_WORKERS must be an integer >= 1, got {raw!r}")
    return n


def parallel_map(fn, items, workers: int | None = None) -> list:
    """Map fn over items, preserving order; threads only when workers > 1."""
    items = list(items)
    w = worker_count() if workers is None else max(1, workers)
    if w == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, items))


def path_chunks(n_paths: int, chunk: int = PATH_CHUNK) -> list:
    """[(start, stop), ...] covering range(n_paths) in fixed-size chunks."""
    return [(a, min(a + chunk, n_paths)) for a in range(0, n_paths, chunk)]
