"""The stepping core: every driver advances chains through ``step_rows``.

The Monte Carlo harnesses advance many independent paths of the same scheme
configuration; doing so row-by-row wastes most of the time in per-call
overhead.  ``BatchChains`` keeps the ensemble as a (paths, nodes) matrix and
advances every path in one set of array operations; a single path is a
1-row ensemble.  ``EnsembleNoise`` draws each path's counter-based stream
and synthesizes the nodal increments of all rows in one call of
``noise.synthesize``: a product with the cached dense sine matrix on meshes
of up to 256 cells, a DST-I on wider ones.

Blow-up is detected, not raised: a row whose right-hand side or solution
trips the overflow guard is frozen at its last finite state, and the
failing step index is recorded, which is what the untamed baseline's
blow-up statistics measure.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpbtrs as _dpbtrs

from . import fem
from .coefficients import eval_f, eval_f_tau, eval_g, eval_g_tau
from .grid import Grid1D, rows_l2_sq
from .noise import PathSampler, synthesize
from .schemes import OVERFLOW_GUARD, Scheme, SchemeConfig


@functools.lru_cache(maxsize=32)
def _operators(grid: Grid1D) -> fem.FemOperators:
    return fem.assemble(grid)


def drift_diffusion_rows(config: SchemeConfig, values: np.ndarray):
    """Scheme-dependent (f*, g*) evaluation; shape-agnostic (rows or a vector)."""
    spec, tau = config.coefficients, config.tau
    if config.scheme is Scheme.GTEM:
        return eval_f_tau(spec, tau, values), eval_g_tau(spec, tau, values)
    if config.scheme is Scheme.DRIFT_GTEM:
        return eval_f_tau(spec, tau, values), eval_g(spec, values)
    return eval_f(spec, values), eval_g(spec, values)


def mass_matvec_rows(ops: fem.FemOperators, v: np.ndarray) -> np.ndarray:
    y = ops.mass_diag * v
    y[..., :-1] += ops.mass_off * v[..., 1:]
    y[..., 1:] += ops.mass_off * v[..., :-1]
    return y


def resolvent_rows(ops: fem.FemOperators, tau: float, v: np.ndarray) -> np.ndarray:
    """(M + tau K)^{-1} M applied to each row of v, by banded Cholesky solves."""
    z, info = _dpbtrs(ops._cholesky(tau), mass_matvec_rows(ops, v).T)
    if info != 0:
        raise RuntimeError(f"banded triangular solve failed (info={info})")
    return np.ascontiguousarray(z.T)


def step_rows(config: SchemeConfig, values: np.ndarray, noise_values: np.ndarray):
    """One scheme step for a (paths, nodes) matrix of states.

    Solves (M + tau K) Z_n = M [Z_{n-1} + tau f*(Z_{n-1}) + g*(Z_{n-1}) dW]
    row by row.  Returns (new_values, blown): ``blown`` marks rows that
    tripped the overflow guard during this step; such a row's output is
    meaningless and the caller keeps the previous state instead.
    """
    tau = config.tau
    f_part, g_part = drift_diffusion_rows(config, values)
    rhs = values + tau * f_part + g_part * noise_values
    with np.errstate(invalid="ignore"):
        bad_rhs = ~(np.abs(rhs).max(axis=-1) < np.inf)
    if np.any(bad_rhs):
        rhs = np.where(bad_rhs[:, None], 0.0, rhs)  # keep LAPACK inputs finite
    z = resolvent_rows(_operators(config.grid), tau, rhs)
    blown = bad_rhs.copy()
    with np.errstate(invalid="ignore"):
        suspect = ~(np.abs(z).max(axis=-1) <= OVERFLOW_GUARD)
    # The sup norm bounds the L2 norm on (0, 1), so only suspect rows need
    # the mass-norm decision.
    for i in np.nonzero(suspect & ~blown)[0]:
        row = z[i]
        if not np.all(np.isfinite(row)) or rows_l2_sq(row[None, :], config.grid.h)[
            0
        ] > OVERFLOW_GUARD**2:
            blown[i] = True
    return z, blown


class EnsembleNoise:
    """Per-path counter-based streams, synthesized jointly per step."""

    def __init__(self, config: SchemeConfig, path_ids: Sequence[int]):
        self.samplers = [
            PathSampler(config.noise, config.seed, pid) for pid in path_ids
        ]
        self.grid = config.grid
        self.tau = config.tau
        self.n_modes = config.noise.truncation

    def coeff_rows(self, step_index: int) -> np.ndarray:
        rows = np.empty((len(self.samplers), self.n_modes))
        for sampler, row in zip(self.samplers, rows):
            sampler.coeffs(step_index, self.tau, out=row)
        return rows

    def value_rows(self, step_index: int) -> np.ndarray:
        return synthesize(self.coeff_rows(step_index), self.grid.n_cells)


class BatchChains:
    """An ensemble of chains advanced in lockstep.

    ``states`` holds one row per path; rows freeze at their last finite
    state once the blow-up guard trips (``blowup_step[i]`` records when).
    """

    def __init__(self, config: SchemeConfig, x0_rows: np.ndarray):
        x0_rows = np.atleast_2d(np.asarray(x0_rows, dtype=np.float64))
        if x0_rows.shape[1] != config.grid.n_interior:
            raise ValueError(
                f"x0 rows have {x0_rows.shape[1]} columns, grid has "
                f"{config.grid.n_interior} interior nodes"
            )
        self.config = config
        self.states = x0_rows.copy()
        self.n_paths = x0_rows.shape[0]
        self.step_index = 0
        self.blowup_step = np.full(self.n_paths, -1, dtype=np.int64)

    @property
    def blown(self) -> np.ndarray:
        return self.blowup_step >= 0

    def advance(self, noise_values: np.ndarray) -> None:
        """One step for every live row, driven by the given nodal noise."""
        self.step_index += 1
        z, blown_now = step_rows(self.config, self.states, noise_values)
        newly = blown_now & ~self.blown
        self.blowup_step[newly] = self.step_index
        keep = self.blown | blown_now
        self.states = np.where(keep[:, None], self.states, z)

    def run(
        self,
        noise: EnsembleNoise,
        n_steps: int,
        record_stride: int = 1,
        record=None,
    ):
        """Advance ``n_steps`` steps, calling ``record(step, states)`` at strides.

        Records step 0, every multiple of ``record_stride`` and the last step.
        """
        if record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {record_stride}")
        if record is not None:
            record(0, self.states)
        for n in range(1, n_steps + 1):
            self.advance(noise.value_rows(n - 1))
            if record is not None and (n % record_stride == 0 or n == n_steps):
                record(n, self.states)
