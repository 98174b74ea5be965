"""Strong-error measurement against a coupled fine reference, and rate fits.

No closed-form solution exists for the nonlinear equation, so the strong
error of a coarse discretization is measured against the same scheme run at
a much finer resolution on the *same* Brownian path.  A slice of paths
(``parallel.path_slices``, by its block buffers per path) advances the
reference and every ladder member in lockstep, one row per path, streaming
the fine noise in blocks of the smallest multiple of lcm(ratios) that
covers ``engine.BLOCK_STEPS`` reference steps (the last block may be
shorter, still a multiple of lcm): each block's fine increments are drawn
once, by one ``PathSampler.coeffs`` call, summed over coarse steps level by
level (exact aggregation of the Wiener path), truncated to the coarse grid's
own modes, and the fine reference is restricted to coarse nodes (exact for nested
meshes); each member takes one error reduction per block.  The reference and the members step in ratio
groups (reference steps per member step): the chains of one ratio advance as
one ``BatchChains`` whose node axis holds their grids back to back, each
chain's noise synthesized on its own grid into its slice.  An h ladder is
then one group, one step call per reference step; a tau ladder with distinct
ratios has one chain per group.  Memory is O(slice x block x modes), whatever
the horizon, and a block past ``MAX_BLOCK_VALUES`` is rejected.  The
reported error per ladder point is

    RMS over paths of  max over the coarse time grid of  ||Z_coarse - R Z_ref||_{L2},

whose decay against tau or h gives the empirical convergence order via a
log-log least-squares fit.

``semigroup_error_test`` isolates the linear part (f = g = 0), where the
exact solution is sine-mode decay, and verifies the second-order spatial /
first-order temporal accuracy of the resolvent stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import fem
from .engine import BLOCK_STEPS, BatchChains, resolvent_rows
from .grid import Grid1D, rows_l2_sq, sine_mode
from .noise import PathSampler, pairwise_tree_sum_axis, synthesize
from .parallel import PATH_CHUNK, parallel_map, path_slices
from .schemes import InitialCondition, SchemeConfig, whole_steps


@dataclass(frozen=True)
class ErrorRow:
    tau: float
    n_cells: int
    n_paths: int
    rms_sup_error: float
    std_error: float
    n_excluded: int  # blown-up paths dropped from the average

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells


@dataclass(frozen=True)
class ErrorTable:
    rows: tuple
    ref_tau: float
    ref_n_cells: int
    axis: str  # "tau" or "h"

    def x_values(self) -> list:
        """The ladder's x axis: each row's tau on a tau ladder, its h on an h ladder."""
        return [r.tau if self.axis == "tau" else r.h for r in self.rows]


@dataclass(frozen=True, eq=False)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    n_excluded: int  # zero-error rows left out of the fit


MIN_FIT_POINTS = 4  # a rate fit needs at least this many positive errors
SEMIGROUP_MIN_AMPLITUDE = 1e-8  # a smaller exact amplitude leaves only rounding error
MAX_BLOCK_VALUES = 2**26  # float64 values one chunk's ladder block may hold (512 MB)


class RateFitError(ValueError):
    """Too few positive errors for a rate fit: a finding, not a bad input."""


def fit_line(x: np.ndarray, y: np.ndarray):
    """(slope, intercept, R^2) of the least-squares line through (x, y)."""
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def fit_rate_xy(x: Sequence[float], y: Sequence[float]) -> RateFit:
    """Least squares on (log x, log y); y = 0 rows are excluded with a note."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = y > 0
    n_excluded = int((~keep).sum())
    x, y = x[keep], y[keep]
    if len(x) < MIN_FIT_POINTS:
        raise RateFitError(
            f"need >= {MIN_FIT_POINTS} positive points for a rate fit, got {len(x)}"
        )
    slope, intercept, r2 = fit_line(np.log(x), np.log(y))
    return RateFit(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        n_points=int(len(x)),
        n_excluded=n_excluded,
    )


def fit_rate(table: ErrorTable) -> RateFit:
    """Fitted log-log slope of an error table along its varying axis."""
    return fit_rate_xy(table.x_values(), [r.rms_sup_error for r in table.rows])


# ---------------------------------------------------------------------------
# Coupled strong-error ladder
# ---------------------------------------------------------------------------


def _restriction_indices(fine: Grid1D, coarse: Grid1D) -> np.ndarray:
    if not fine.refines(coarse):
        raise ValueError(
            f"reference grid ({fine.n_cells} cells) does not refine "
            f"the coarse grid ({coarse.n_cells} cells)"
        )
    m = fine.n_cells // coarse.n_cells
    return np.arange(1, coarse.n_cells) * m - 1


@dataclass(frozen=True, eq=False)
class _Member:
    ratio: int  # reference steps per member step
    config: SchemeConfig
    restrict: np.ndarray  # reference node indices of the member's nodes


def _ladder_members(reference: SchemeConfig, coarse_taus: Optional[Sequence[float]],
                    coarse_n_cells: Optional[Sequence[int]]):
    """(axis, members) of a ladder, every member checked against the reference:
    a coarse tau is a whole number of reference steps (``whole_steps``), and
    divides the horizon, as the member's own ``SchemeConfig`` checks."""
    if (coarse_taus is None) == (coarse_n_cells is None):
        raise ValueError("specify exactly one of coarse_taus / coarse_n_cells")
    if coarse_taus is not None:
        axis = "tau"
        rungs = [(whole_steps(t, reference.tau, "coarse tau"), reference.grid)
                 for t in coarse_taus]
    else:
        axis = "h"
        rungs = [(1, Grid1D(nc)) for nc in coarse_n_cells]
    if not rungs:
        raise ValueError("the ladder needs at least one coarse member")
    members = [_Member(ratio, replace(reference, tau=ratio * reference.tau, grid=grid,
                                      noise=reference.noise.for_grid(grid)),
                       _restriction_indices(reference.grid, grid))
               for ratio, grid in rungs]
    return axis, members


def _block_shape(members):
    """(block, stride): the smallest multiple of lcm(ratios) covering
    ``BLOCK_STEPS`` reference steps, and gcd(ratios)."""
    ratios = [m.ratio for m in members]
    lcm = math.lcm(*ratios)
    return lcm * -(-BLOCK_STEPS // lcm), math.gcd(*ratios)


def _chain_groups(reference: SchemeConfig, members):
    """[(ratio, chain indices)] of the chains stepped as one stacked chain, by
    ascending ratio; index -1 is the reference, which leads the first group.
    A grid with one interior node steps alone: LAPACK solves a 1-node system
    with a reciprocal product, but that node with a division in a stack."""
    chains = [(1, reference.grid, -1)] + [(m.ratio, m.config.grid, j)
                                          for j, m in enumerate(members)]
    groups = {}
    for ratio, grid, j in chains:
        slot = j if grid.n_interior == 1 else -2  # -2: the ratio's stack
        groups.setdefault((ratio, slot), []).append(j)
    return [(ratio, js) for (ratio, _), js in sorted(groups.items())]


class _GroupRun:
    """The chains of one ratio group (the reference first in ratio 1) as one
    ``BatchChains`` over their stacked grids, with its block buffers: the
    nodal noise of each of its steps, and its states at multiples of
    max(ratio, stride) reference steps."""

    def __init__(self, ratio, configs, x0, n_rows, block, stride):
        grids = [c.grid for c in configs]
        start = np.concatenate([x0.build(g) for g in grids])
        self.chain = BatchChains(configs[0], np.broadcast_to(start, (n_rows, len(start))), grids)
        self.ratio, self.configs = ratio, configs
        self.cuts = [cut for cut, _ in self.chain.plan.segments]
        self.every = max(ratio, stride) // ratio  # own steps between kept states
        self.values = np.empty((block // ratio, n_rows, len(start)))
        self.kept = np.empty((block // (ratio * self.every), n_rows, len(start)))

    def step_block(self, coeffs: np.ndarray) -> np.ndarray:
        """Synthesize each chain's noise on its own grid into its slice, take
        the block's steps, and return the states kept."""
        values = self.values[: len(coeffs)]
        for config, cut in zip(self.configs, self.cuts):
            # each chain's mode prefix
            synthesize(coeffs[..., : config.noise.truncation], config.grid.n_cells,
                       out=values[..., cut])
        kept = self.kept[: len(coeffs) // self.every]
        for i, step_values in enumerate(values, 1):
            self.chain.advance(step_values)
            if i % self.every == 0:
                kept[i // self.every - 1] = self.chain.states
        return kept


def _ladder_chunk(reference: SchemeConfig, x0: InitialCondition, members, path_ids):
    """(squared sup errors (paths, members), blown (paths,)) of one path slice.

    The reference and the members are grouped by ratio (``_chain_groups``),
    and each group advances the slice's paths as rows of one stacked
    ``BatchChains``, a block of ``_block_shape`` reference steps at a time:
    one step call per group step, so an h ladder takes one per reference
    step.  A group sums its steps with the pairwise tree from the sums of
    the coarsest power-of-two ratio dividing its own, else from the fine
    draws (the tree composes over power-of-two groups bit for bit).  Each
    member compares its slice of its group's kept states with the
    reference's slice at multiples of its ratio.  A row blown in any chain
    freezes its whole group and is reported blown.
    """
    block, stride = _block_shape(members)
    sampler = PathSampler(reference.noise, reference.seed, path_ids, reference.tau)
    n, k_ref = len(path_ids), reference.noise.truncation
    groups = _chain_groups(reference, members)
    runs = [
        _GroupRun(ratio, [members[j].config if j >= 0 else reference for j in js],
                  x0, n, block, stride)
        for ratio, js in groups
    ]
    # (member index, its slice) of each group
    chains = [[(j, cut) for j, cut in zip(js, run.cuts) if j >= 0]
              for (_, js), run in zip(groups, runs)]
    worst = np.empty((n, len(members)))
    for run, pairs in zip(runs, chains):
        for j, cut in pairs:
            m = members[j]
            worst[:, j] = rows_l2_sq(run.chain.states[:, cut]
                                     - runs[0].chain.states[:, m.restrict], m.config.grid.h)
    fine_block = np.empty((block, n, k_ref))
    for start in range(0, reference.n_steps, block):
        size = min(block, reference.n_steps - start)  # a multiple of lcm(ratios)
        fine = sampler.coeffs(start, out=fine_block[:size])  # the block's steps, one call
        sums = {1: fine}  # this block's increments summed at power-of-two ratios
        kept = []
        for run in runs:
            r = run.ratio
            base = max(b for b in sums if r % b == 0)
            coeffs = sums[base]
            if r > base:
                coeffs = pairwise_tree_sum_axis(
                    coeffs.reshape(size // r, r // base, n, coeffs.shape[-1])
                )
                if r & (r - 1) == 0:
                    sums[r] = coeffs
            kept.append(run.step_block(coeffs))
        for states, pairs in zip(kept, chains):
            for j, cut in pairs:
                m = members[j]
                at = kept[0][m.ratio // stride - 1 :: m.ratio // stride][..., m.restrict]
                err = rows_l2_sq(states[..., cut] - at, m.config.grid.h).max(axis=0)
                np.maximum(worst[:, j], err, out=worst[:, j])
    blown = runs[0].chain.blown.copy()
    for run in runs[1:]:
        blown |= run.chain.blown
    return worst, blown


def _check_block_memory(reference: SchemeConfig, members, n_rows: int) -> int:
    """The float64 values a path's block buffers hold: the fine draws, and
    per ratio group its summed draws (ratio > 1), stacked noise values and
    kept states.  A ladder whose ``n_rows`` paths pass the cap is rejected."""
    block, stride = _block_shape(members)
    k_ref = reference.noise.truncation
    per_row = block * k_ref
    for ratio, js in _chain_groups(reference, members):
        nodes = sum((members[j].config if j >= 0 else reference).grid.n_interior for j in js)
        sums = k_ref if ratio > 1 else 0
        per_row += block // ratio * (sums + nodes) + block // max(ratio, stride) * nodes
    if per_row * n_rows > MAX_BLOCK_VALUES:
        raise ValueError(
            f"a ladder block of {block} reference steps needs {per_row * n_rows} "
            f"float64 values per path chunk, over the cap of {MAX_BLOCK_VALUES}"
        )
    return per_row


def ladder_plan(reference: SchemeConfig, n_paths: int, coarse_taus=None, coarse_n_cells=None):
    """(axis, members, values per path) of a ladder, checked as ``strong_error_ladder`` does."""
    axis, members = _ladder_members(reference, coarse_taus, coarse_n_cells)
    return axis, members, _check_block_memory(reference, members, min(n_paths, PATH_CHUNK))


def strong_error_ladder(
    reference: SchemeConfig,
    x0: InitialCondition,
    n_paths: int,
    coarse_taus: Optional[Sequence[float]] = None,
    coarse_n_cells: Optional[Sequence[int]] = None,
) -> ErrorTable:
    """Strong error of each ladder member against the coupled fine reference.

    Exactly one ladder may vary: ``coarse_taus`` (temporal; the mesh stays at
    the reference mesh) or ``coarse_n_cells`` (spatial; tau stays at the
    reference tau).  Every coarse step must be an integer multiple of the
    reference step that divides the horizon, and every coarse mesh must be
    refined by the reference mesh; both are checked before any stepping.
    All members of one path ride the same fine Brownian increments.
    """
    axis, members, per_path = ladder_plan(reference, n_paths, coarse_taus, coarse_n_cells)
    parts = parallel_map(partial(_ladder_chunk, reference, x0, members),
                         path_slices(n_paths, per_path))
    err_matrix = np.sqrt(np.maximum(np.concatenate([w for w, _ in parts]), 0.0))
    blown_mask = np.concatenate([b for _, b in parts])
    rows = []
    for j, m in enumerate(members):
        errs = err_matrix[~blown_mask, j]
        n_used = len(errs)
        if n_used == 0:
            raise RuntimeError("every path blew up; nothing to average")
        mean_sq = float(np.mean(errs**2))
        rms = math.sqrt(mean_sq)
        if n_used > 1 and rms > 0:
            se_mean_sq = float(np.std(errs**2, ddof=1)) / math.sqrt(n_used)
            se = se_mean_sq / (2.0 * rms)
        else:
            se = 0.0
        rows.append(
            ErrorRow(
                tau=m.config.tau,
                n_cells=m.config.grid.n_cells,
                n_paths=n_used,
                rms_sup_error=rms,
                std_error=se,
                n_excluded=int(blown_mask.sum()),
            )
        )
    return ErrorTable(
        rows=tuple(rows),
        ref_tau=reference.tau,
        ref_n_cells=reference.grid.n_cells,
        axis=axis,
    )


# ---------------------------------------------------------------------------
# Deterministic semigroup error (f = g = 0, exact sine-mode decay)
# ---------------------------------------------------------------------------


def semigroup_error(n_cells: int, tau: float, mode: int = 1, t: float = 1.0) -> float:
    """||exp(t Laplacian) e_mode - resolvent-power approximation|| in L2.

    The exact solution is exp(-(mode pi)^2 t) e_mode; the approximation is
    k = t/tau steps of the stepping core's resolvent applied to the nodal
    interpolant.  The L2 distance is evaluated by fine composite-trapezoid
    quadrature.
    """
    grid = Grid1D(n_cells)
    u_num = resolvent_rows(fem.assemble(grid), tau, sine_mode(grid, mode),
                           steps=whole_steps(t, tau, "t"))
    quad_n = 8192
    xs = np.linspace(0.0, 1.0, quad_n + 1)
    exact = math.exp(-((mode * math.pi) ** 2) * t) * np.sqrt(2.0) * np.sin(mode * np.pi * xs)
    nodes_full = np.linspace(0.0, 1.0, n_cells + 1)
    vals_full = np.concatenate([[0.0], u_num, [0.0]])
    approx = np.interp(xs, nodes_full, vals_full)
    return float(np.sqrt(np.trapezoid((exact - approx) ** 2, xs)))


def check_semigroup_ladder(n_cells_list, taus, mode: int, t: float) -> None:
    """``semigroup_error_test``'s checks before any solve, each a ``ValueError``: one
    tau per mesh, exact amplitude at t >= ``SEMIGROUP_MIN_AMPLITUDE``, t a multiple of every tau."""
    if len(n_cells_list) != len(taus):
        raise ValueError("n_cells_list and taus must have equal length")
    amplitude = math.sqrt(2.0) * math.exp(-((mode * math.pi) ** 2) * t)
    if amplitude < SEMIGROUP_MIN_AMPLITUDE:
        raise ValueError(
            f"exact amplitude {amplitude:.3g} at mode {mode}, t = {t} is below "
            f"{SEMIGROUP_MIN_AMPLITUDE:g}: the errors would be rounding error"
        )
    for tau in taus:
        whole_steps(t, tau, "t")


def semigroup_error_test(
    n_cells_list: Sequence[int],
    taus: Sequence[float],
    axis: str,
    mode: int = 1,
    t: float = 1.0,
):
    """(x axis, errors) along a (grid, tau) ladder; ``fit_rate_xy`` fits them.

    The x axis is each point's h on an "h" ladder and its tau on a "tau" one.
    """
    check_semigroup_ladder(n_cells_list, taus, mode, t)
    if axis == "h":
        xs = [1.0 / nc for nc in n_cells_list]
    elif axis == "tau":
        xs = list(taus)
    else:
        raise ValueError(f"axis must be 'tau' or 'h', got {axis!r}")
    errors = [
        semigroup_error(nc, tau, mode=mode, t=t) for nc, tau in zip(n_cells_list, taus)
    ]
    return xs, errors
