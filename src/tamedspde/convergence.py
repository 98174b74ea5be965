"""Strong-error measurement against a coupled fine reference, and rate fits.

No closed-form solution exists for the nonlinear equation, so the strong
error of a coarse discretization is measured against the same scheme run at
a much finer resolution on the *same* Brownian path: fine noise increments
are generated once per path, summed over coarse steps (exact aggregation of
the Wiener path), truncated to the coarse grid's own modes, and the fine
reference is restricted to coarse nodes (exact for nested meshes).  The
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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fem
from .engine import BatchChains
from .grid import Grid1D, GridFunction, rows_l2_sq
from .noise import PathSampler, pairwise_tree_sum_axis, synth_rows
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
    seed: int  # coupling lineage: every row was driven by this master seed
    axis: str  # "tau" or "h"


@dataclass(frozen=True, eq=False)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    residuals: np.ndarray
    n_points: int
    n_excluded: int  # zero-error rows left out of the fit


def fit_rate_xy(x: Sequence[float], y: Sequence[float]) -> RateFit:
    """Least squares on (log x, log y); y = 0 rows are excluded with a note."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = y > 0
    n_excluded = int((~keep).sum())
    x, y = x[keep], y[keep]
    if len(x) < 4:
        raise ValueError(f"need >= 4 positive points for a rate fit, got {len(x)}")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    resid = ly - fit
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        residuals=resid,
        n_points=int(len(x)),
        n_excluded=n_excluded,
    )


def fit_rate(table: ErrorTable, axis: Optional[str] = None) -> RateFit:
    """Fitted log-log slope of an error table along its varying axis."""
    axis = axis or table.axis
    if axis == "tau":
        xs = [r.tau for r in table.rows]
    elif axis == "h":
        xs = [r.h for r in table.rows]
    else:
        raise ValueError(f"axis must be 'tau' or 'h', got {axis!r}")
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


def _member_config(reference: SchemeConfig, tau: float, grid: Grid1D) -> SchemeConfig:
    return SchemeConfig(
        tau=tau,
        grid=grid,
        horizon=reference.horizon,
        scheme=reference.scheme,
        coefficients=reference.coefficients,
        noise=reference.noise.for_grid(grid),
        seed=reference.seed,
    )


def _run_member(
    config: SchemeConfig, x0_vals: np.ndarray, noise_values: np.ndarray, record_every: int
):
    """March one chain; return (recorded states at multiples of record_every, blown)."""
    chains = BatchChains(config, x0_vals[None, :])
    recorded = [x0_vals.copy()]
    for n in range(1, noise_values.shape[0] + 1):
        chains.advance(noise_values[n - 1][None, :])
        if n % record_every == 0:
            recorded.append(chains.states[0].copy())
    return np.stack(recorded), bool(chains.blown[0])


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
    reference step and every coarse mesh must be refined by the reference
    mesh.  All members of one path ride the same fine Brownian increments.
    """
    if (coarse_taus is None) == (coarse_n_cells is None):
        raise ValueError("specify exactly one of coarse_taus / coarse_n_cells")
    n_ref = reference.n_steps
    if coarse_taus is not None:
        axis = "tau"
        members = []
        for t in coarse_taus:
            ratio = t / reference.tau
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ValueError(
                    f"coarse tau {t} is not an integer multiple of the "
                    f"reference tau {reference.tau}"
                )
            members.append((int(round(ratio)), reference.grid))
    else:
        axis = "h"
        members = [(1, Grid1D(nc)) for nc in coarse_n_cells]
        for _, g in members:
            _restriction_indices(reference.grid, g)  # validates nesting
    ratios = [r for r, _ in members]
    record_every = int(np.gcd.reduce(ratios))
    k_ref = reference.noise.truncation
    synth_ref = synth_rows(reference.grid.n_cells, k_ref)

    def one_path(path_id: int):
        sampler = PathSampler(reference.noise, reference.seed, path_id)
        fine = np.stack([sampler.coeffs(i, reference.tau) for i in range(n_ref)])
        ref_x0 = x0.build(reference.grid).values
        ref_states, ref_blown = _run_member(
            reference, ref_x0, fine @ synth_ref, record_every
        )
        errors = np.empty(len(members))
        blown = ref_blown
        for j, (ratio, grid) in enumerate(members):
            cfg = _member_config(reference, ratio * reference.tau, grid)
            k_c = cfg.noise.truncation
            agg = (
                fine
                if ratio == 1
                else pairwise_tree_sum_axis(fine.reshape(n_ref // ratio, ratio, k_ref))
            )
            vals = np.ascontiguousarray(agg[:, :k_c]) @ synth_rows(grid.n_cells, k_c)
            states, member_blown = _run_member(cfg, x0.build(grid).values, vals, 1)
            blown = blown or member_blown
            idx = _restriction_indices(reference.grid, grid)
            ref_at = ref_states[:: ratio // record_every][:, idx]
            diff = states - ref_at
            errors[j] = math.sqrt(max(rows_l2_sq(diff, grid.h).max(), 0.0))
        return errors, blown

    def one_chunk(rng):
        return [one_path(p) for p in range(rng[0], rng[1])]

    results = [r for part in parallel_map(one_chunk, path_chunks(n_paths)) for r in part]
    err_matrix = np.stack([e for e, _ in results])
    blown_mask = np.asarray([b for _, b in results])
    rows = []
    for j, (ratio, grid) in enumerate(members):
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
                tau=ratio * reference.tau,
                n_cells=grid.n_cells,
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
        seed=reference.seed,
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
