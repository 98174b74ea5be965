"""Strong-error measurement against a coupled fine reference, and rate fits.

No closed-form solution exists for the nonlinear equation, so the strong
error of a coarse discretization is measured against the same scheme run at
a much finer resolution on the *same* Brownian path.  A chunk of paths
advances the reference and every ladder member in lockstep, one row per path,
streaming the fine noise in blocks of lcm(ratios) reference steps: each
block's fine increments are drawn once, summed over coarse steps (exact
aggregation of the Wiener path), truncated to the coarse grid's own modes,
and the fine reference is restricted to coarse nodes (exact for nested
meshes).  Memory is O(chunk x block x modes), whatever the horizon.  The
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
from typing import Optional, Sequence

import numpy as np

from . import fem
from .engine import BatchChains
from .grid import Grid1D, GridFunction, rows_l2_sq
from .noise import PathSampler, pairwise_tree_sum_axis, synthesize
from .parallel import parallel_map, path_chunks
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


@dataclass(frozen=True, eq=False)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    n_excluded: int  # zero-error rows left out of the fit


MIN_FIT_POINTS = 4  # a rate fit needs at least this many positive errors


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
        raise ValueError(
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
    xs = [r.tau if table.axis == "tau" else r.h for r in table.rows]
    return fit_rate_xy(xs, [r.rms_sup_error for r in table.rows])


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


def _ladder_chunk(reference: SchemeConfig, x0: InitialCondition, members, path_ids):
    """(squared sup errors (paths, members), blown (paths,)) of one path chunk.

    The reference and every member advance the chunk's paths as rows of one
    ``BatchChains`` each, a block of lcm(ratios) reference steps at a time.
    Each block's fine coefficients are drawn once, step-major; a member
    aggregates its steps from them with the pairwise tree and keeps its mode
    prefix.  The reference keeps its states only at multiples of
    gcd(ratios), the points where some member compares against it.
    """
    tau, n_cells = reference.tau, reference.grid.n_cells
    block = math.lcm(*(m.ratio for m in members))
    stride = math.gcd(*(m.ratio for m in members))
    samplers = [PathSampler(reference.noise, reference.seed, p) for p in path_ids]
    n, k_ref = len(samplers), reference.noise.truncation
    ref = _start_rows(reference, x0, n)
    runs = [_start_rows(m.config, x0, n) for m in members]
    worst = np.stack(
        [
            rows_l2_sq(run.states - ref.states[:, m.restrict], m.config.grid.h)
            for m, run in zip(members, runs)
        ],
        axis=1,
    )
    fine = np.empty((block, n, k_ref))
    kept = np.empty((block // stride, n, reference.grid.n_interior))
    for start in range(0, reference.n_steps, block):
        for p, sampler in enumerate(samplers):
            for i in range(block):
                sampler.coeffs(start + i, tau, out=fine[i, p])
        values = synthesize(fine.reshape(block * n, k_ref), n_cells)
        values = values.reshape(block, n, -1)
        for i in range(block):
            ref.advance(values[i])
            if (i + 1) % stride == 0:
                kept[(i + 1) // stride - 1] = ref.states
        for j, (m, run) in enumerate(zip(members, runs)):
            grid = m.config.grid
            coeffs = fine[..., : m.config.noise.truncation]  # the mode prefix
            k_c = coeffs.shape[-1]
            if m.ratio > 1:
                coeffs = pairwise_tree_sum_axis(
                    coeffs.reshape(block // m.ratio, m.ratio, n, k_c)
                )
            member_values = synthesize(coeffs.reshape(-1, k_c), grid.n_cells)
            member_values = member_values.reshape(block // m.ratio, n, -1)
            for s in range(block // m.ratio):
                run.advance(member_values[s])
                at = kept[(s + 1) * m.ratio // stride - 1][:, m.restrict]
                np.maximum(
                    worst[:, j], rows_l2_sq(run.states - at, grid.h), out=worst[:, j]
                )
    blown = ref.blown.copy()
    for run in runs:
        blown |= run.blown
    return worst, blown


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


def semigroup_error(
    n_cells: int, tau: float, mode: int = 1, t: float = 1.0, amplitude: float = 1.0
) -> float:
    """||exp(t Laplacian) x - resolvent-power approximation|| for x = amplitude e_mode.

    The exact solution is exp(-(mode pi)^2 t) x; the approximation is
    k = t/tau resolvent steps applied to the nodal interpolant.  The L2
    distance is evaluated by fine composite-trapezoid quadrature.
    """
    grid = Grid1D(n_cells)
    k = round(t / tau)
    if k < 1 or abs(k * tau - t) > 1e-9 * t:
        raise ValueError(f"t = {t} must be an integer multiple of tau = {tau}")
    ops = fem.assemble(grid)
    x0 = GridFunction(
        grid, amplitude * np.sqrt(2.0) * np.sin(mode * np.pi * grid.nodes)
    )
    u_num = fem.apply_resolvent_power(ops, tau, x0, k)
    quad_n = 8192
    xs = np.linspace(0.0, 1.0, quad_n + 1)
    exact = (
        amplitude
        * math.exp(-((mode * math.pi) ** 2) * t)
        * np.sqrt(2.0)
        * np.sin(mode * np.pi * xs)
    )
    nodes_full = np.linspace(0.0, 1.0, n_cells + 1)
    vals_full = np.concatenate([[0.0], u_num.values, [0.0]])
    approx = np.interp(xs, nodes_full, vals_full)
    return float(np.sqrt(np.trapezoid((exact - approx) ** 2, xs)))


def semigroup_error_test(
    n_cells_list: Sequence[int],
    taus: Sequence[float],
    axis: str,
    mode: int = 1,
    t: float = 1.0,
):
    """Errors along a (grid, tau) ladder plus the log-log fit on one axis."""
    if len(n_cells_list) != len(taus):
        raise ValueError("n_cells_list and taus must have equal length")
    errors = [
        semigroup_error(nc, tau, mode=mode, t=t) for nc, tau in zip(n_cells_list, taus)
    ]
    if axis == "h":
        xs = [1.0 / nc for nc in n_cells_list]
    elif axis == "tau":
        xs = list(taus)
    else:
        raise ValueError(f"axis must be 'tau' or 'h', got {axis!r}")
    return errors, fit_rate_xy(xs, errors)
