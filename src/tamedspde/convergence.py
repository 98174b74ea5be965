"""Strong-error measurement against a coupled fine reference, and rate fits.

No closed-form solution exists for the nonlinear equation, so the strong
error of a coarse discretization is measured against the same scheme run at
a much finer resolution on the *same* Brownian path.  A chunk of paths
advances the reference and every ladder member in lockstep, one row per path,
streaming the fine noise in blocks of the smallest multiple of lcm(ratios)
that covers ``MIN_BLOCK_STEPS`` reference steps (the last block may be
shorter, still a multiple of lcm): each block's fine increments are drawn
once, summed over coarse steps level by level (exact aggregation of the
Wiener path), truncated to the coarse grid's own modes, and the fine
reference is restricted to coarse nodes (exact for nested meshes); each
member takes one error reduction per block.  Synthesis runs one lcm-slab of
the block at a time, since up to 64 cells the dense product's bits depend on
its row count.
Memory is O(chunk x block x modes), whatever the horizon, and a block past
``MAX_BLOCK_VALUES`` is rejected.  The reported error per ladder point is

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
from typing import Optional, Sequence

import numpy as np

from . import fem
from .engine import BatchChains, resolvent_rows
from .grid import Grid1D, rows_l2_sq, sine_mode
from .noise import PathSampler, pairwise_tree_sum_axis, synthesize
from .parallel import PATH_CHUNK, parallel_map, path_chunks
from .schemes import InitialCondition, SchemeConfig


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
MIN_BLOCK_STEPS = 8  # reference steps a ladder block covers at least, tail aside


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


def _ladder_members(
    reference: SchemeConfig,
    coarse_taus: Optional[Sequence[float]],
    coarse_n_cells: Optional[Sequence[int]],
):
    """(axis, members) of a ladder, every member checked against the reference."""
    if (coarse_taus is None) == (coarse_n_cells is None):
        raise ValueError("specify exactly one of coarse_taus / coarse_n_cells")
    if coarse_taus is not None:
        axis = "tau"
        rungs = []
        for t in coarse_taus:
            ratio = t / reference.tau
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ValueError(
                    f"coarse tau {t} is not an integer multiple of the "
                    f"reference tau {reference.tau}"
                )
            rungs.append((int(round(ratio)), reference.grid))
    else:
        axis = "h"
        rungs = [(1, Grid1D(nc)) for nc in coarse_n_cells]
    if not rungs:
        raise ValueError("the ladder needs at least one coarse member")
    n_ref = reference.n_steps
    members = []
    for ratio, grid in rungs:
        if n_ref % ratio:
            raise ValueError(
                f"coarse tau {ratio * reference.tau} does not divide the horizon: "
                f"{n_ref} reference steps are not a multiple of {ratio}"
            )
        members.append(
            _Member(
                ratio,
                replace(
                    reference,
                    tau=ratio * reference.tau,
                    grid=grid,
                    noise=reference.noise.for_grid(grid),
                ),
                _restriction_indices(reference.grid, grid),
            )
        )
    return axis, members


def _start_rows(config: SchemeConfig, x0: InitialCondition, n_rows: int) -> BatchChains:
    values = x0.build(config.grid).values
    return BatchChains(config, np.broadcast_to(values, (n_rows, len(values))))


def _block_shape(members):
    """(slab, block, stride): lcm(ratios), its smallest multiple covering
    ``MIN_BLOCK_STEPS`` reference steps, and gcd(ratios)."""
    ratios = [m.ratio for m in members]
    slab = math.lcm(*ratios)
    return slab, slab * -(-MIN_BLOCK_STEPS // slab), math.gcd(*ratios)


def _ladder_chunk(reference: SchemeConfig, x0: InitialCondition, members, path_ids):
    """(squared sup errors (paths, members), blown (paths,)) of one path chunk.

    The reference and every member advance the chunk's paths as rows of one
    ``BatchChains`` each, a block of ``_block_shape`` reference steps at a
    time, synthesizing one slab of lcm(ratios) steps per call.  A member
    sums its steps with the pairwise tree from the sums of the coarsest
    power-of-two ratio dividing its own, else from the fine draws (the tree
    composes over power-of-two groups bit for bit).  The reference keeps its
    states at multiples of gcd(ratios), where members compare.
    """
    tau, n_cells = reference.tau, reference.grid.n_cells
    slab, block, stride = _block_shape(members)
    sampler = PathSampler(reference.noise, reference.seed, path_ids)
    n, k_ref = len(path_ids), reference.noise.truncation
    ref = _start_rows(reference, x0, n)
    runs = [_start_rows(m.config, x0, n) for m in members]
    worst = np.stack(
        [
            rows_l2_sq(run.states - ref.states[:, m.restrict], m.config.grid.h)
            for m, run in zip(members, runs)
        ],
        axis=1,
    )
    order = sorted(range(len(members)), key=lambda j: members[j].ratio)
    fine_block = np.empty((block, n, k_ref))
    kept_block = np.empty((block // stride, n, reference.grid.n_interior))
    for start in range(0, reference.n_steps, block):
        size = min(block, reference.n_steps - start)  # a multiple of slab
        fine, kept = fine_block[:size], kept_block[: size // stride]
        for i in range(size):
            sampler.coeffs(start + i, tau, out=fine[i])
        for s in range(0, size, slab):
            values = synthesize(fine[s : s + slab].reshape(slab * n, k_ref), n_cells)
            for i, step_values in enumerate(values.reshape(slab, n, -1), s + 1):
                ref.advance(step_values)
                if i % stride == 0:
                    kept[i // stride - 1] = ref.states
        sums = {1: fine}  # this block's increments summed at power-of-two ratios
        for j in order:
            m, run, grid = members[j], runs[j], members[j].config.grid
            base = max(r for r in sums if m.ratio % r == 0)
            coeffs = sums[base][..., : m.config.noise.truncation]  # the mode prefix
            k_c = coeffs.shape[-1]
            if m.ratio > base:
                coeffs = pairwise_tree_sum_axis(
                    coeffs.reshape(size // m.ratio, m.ratio // base, n, k_c)
                )
                if m.ratio & (m.ratio - 1) == 0:
                    sums[m.ratio] = coeffs
            per_slab = slab // m.ratio
            trail = []  # advance replaces ``states``: each step's array is kept as is
            for s in range(0, size // m.ratio, per_slab):
                member_values = synthesize(
                    coeffs[s : s + per_slab].reshape(-1, k_c), grid.n_cells
                )
                for step_values in member_values.reshape(per_slab, n, -1):
                    run.advance(step_values)
                    trail.append(run.states)
            states = np.stack(trail) if len(trail) > 1 else trail[0][None]
            at = kept[m.ratio // stride - 1 :: m.ratio // stride][..., m.restrict]
            err = rows_l2_sq(states - at, grid.h).max(axis=0)
            np.maximum(worst[:, j], err, out=worst[:, j])
    blown = ref.blown.copy()
    for run in runs:
        blown |= run.blown
    return worst, blown


def _check_block_memory(reference: SchemeConfig, members, n_rows: int) -> None:
    """Reject a ladder whose block buffers (fine draws, one slab's synthesis,
    kept reference states, member sums, slab values and states) pass the cap."""
    slab, block, stride = _block_shape(members)
    k_ref, n_ref = reference.noise.truncation, reference.grid.n_interior
    per_row = block * k_ref + slab * n_ref + block // stride * n_ref + sum(
        block // m.ratio * (k_ref + m.config.grid.n_interior)
        + slab // m.ratio * m.config.grid.n_interior
        for m in members
    )
    if per_row * n_rows > MAX_BLOCK_VALUES:
        raise ValueError(
            f"a ladder block of {block} reference steps needs {per_row * n_rows} "
            f"float64 values per path chunk, over the cap of {MAX_BLOCK_VALUES}"
        )


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
    axis, members = _ladder_members(reference, coarse_taus, coarse_n_cells)
    _check_block_memory(reference, members, min(n_paths, PATH_CHUNK))

    def one_chunk(rng):
        return _ladder_chunk(reference, x0, members, range(rng[0], rng[1]))

    parts = parallel_map(one_chunk, path_chunks(n_paths))
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
    k = round(t / tau)
    if k < 1 or abs(k * tau - t) > 1e-9 * t:
        raise ValueError(f"t = {t} must be an integer multiple of tau = {tau}")
    ops = fem.assemble(grid)
    u_num = sine_mode(grid, mode).values
    for _ in range(k):
        u_num = resolvent_rows(ops, tau, u_num)
    quad_n = 8192
    xs = np.linspace(0.0, 1.0, quad_n + 1)
    exact = math.exp(-((mode * math.pi) ** 2) * t) * np.sqrt(2.0) * np.sin(mode * np.pi * xs)
    nodes_full = np.linspace(0.0, 1.0, n_cells + 1)
    vals_full = np.concatenate([[0.0], u_num, [0.0]])
    approx = np.interp(xs, nodes_full, vals_full)
    return float(np.sqrt(np.trapezoid((exact - approx) ** 2, xs)))


def semigroup_error_test(
    n_cells_list: Sequence[int],
    taus: Sequence[float],
    axis: str,
    mode: int = 1,
    t: float = 1.0,
):
    """(x axis, errors, log-log fit) along a (grid, tau) ladder.

    The x axis is each point's h on an "h" ladder and its tau on a "tau" one.
    An exact amplitude below ``SEMIGROUP_MIN_AMPLITUDE`` is rejected first.
    """
    if len(n_cells_list) != len(taus):
        raise ValueError("n_cells_list and taus must have equal length")
    amplitude = math.sqrt(2.0) * math.exp(-((mode * math.pi) ** 2) * t)
    if amplitude < SEMIGROUP_MIN_AMPLITUDE:
        raise ValueError(
            f"exact amplitude {amplitude:.3g} at mode {mode}, t = {t} is below "
            f"{SEMIGROUP_MIN_AMPLITUDE:g}: the errors would be rounding error"
        )
    if axis == "h":
        xs = [1.0 / nc for nc in n_cells_list]
    elif axis == "tau":
        xs = list(taus)
    else:
        raise ValueError(f"axis must be 'tau' or 'h', got {axis!r}")
    errors = [
        semigroup_error(nc, tau, mode=mode, t=t) for nc, tau in zip(n_cells_list, taus)
    ]
    return xs, errors, fit_rate_xy(xs, errors)
