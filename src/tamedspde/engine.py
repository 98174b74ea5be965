"""The stepping core: every driver advances chains through ``step_rows``.

The Monte Carlo harnesses advance many independent paths of the same scheme
configuration; doing so row-by-row wastes most of the time in per-call
overhead.  ``BatchChains`` keeps the ensemble as a (paths, nodes) matrix and
advances every path in one set of array operations; a single path is a
1-row ensemble, and a probe steps each slice of its paths
(``parallel.path_slices``) as one ensemble.  ``EnsembleNoise`` draws every
path's counter-based stream with one re-keyed generator
(``noise.PathSampler``) and synthesizes the nodal increments in slabs of
``parallel.PATH_CHUNK`` rows.

Blow-up is detected, not raised: a row whose solution trips the overflow
guard is frozen at its last finite state, and the failing step index is
recorded, which is what the untamed baseline's blow-up statistics measure.
Only this post-solve guard is needed: ``dpttrs`` solves each row's column
on its own, so a non-finite right-hand side gives a non-finite solution in
its own row, flagged at the same step, and leaves the other rows alone.  The
guard tests the whole block's max and min first; only a block that fails
that test takes the per-row sup and mass-norm rule.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpttrs

from . import fem
from .coefficients import DiffusionKind, eval_f, eval_g, tamed_diffusion, tamed_drift
from .fem import mass_matvec_rows
from .grid import Grid1D, rows_l2_sq
from .noise import PathSampler, synthesize
from .parallel import PATH_CHUNK
from .schemes import OVERFLOW_GUARD, Scheme, SchemeConfig


@functools.lru_cache(maxsize=32)
def _operators(grid: Grid1D) -> fem.FemOperators:
    return fem.assemble(grid)


def drift_diffusion_rows(config: SchemeConfig, values: np.ndarray):
    """Scheme-dependent (f*, g*); both tamings share one x**2, and tau was
    validated by ``SchemeConfig``.  Shape-agnostic (rows or a vector); an
    untamed one-coefficient g comes back as the float c0, which broadcasts."""
    spec, tau, scheme = config.coefficients, config.tau, config.scheme
    if scheme is Scheme.DRIFT_GTEM or scheme is Scheme.UNTAMED_EM:
        constant = spec.diffusion_kind is DiffusionKind.POLYNOMIAL and len(spec.diffusion) == 1
        g = spec.diffusion[0] if constant else eval_g(spec, values)
        if scheme is Scheme.UNTAMED_EM:
            return eval_f(spec, values), g
        return tamed_drift(spec, tau, values, values**2), g
    x2 = values**2
    power = spec.q // 2 if scheme is Scheme.GTEM else spec.q  # GTEM_B
    return tamed_drift(spec, tau, values, x2), tamed_diffusion(spec, tau, values, x2, power)


# perfbench's tracer (span ``fem.dpbtrs``) and the failing-solve tests patch
# this global by its old name and call shape, until the benchmark renames both.
def _dpbtrs(factor, load, overwrite_b=0):
    return dpttrs(*factor, load, overwrite_b=overwrite_b)


def resolvent_rows(ops: fem.FemOperators, tau: float, v: np.ndarray) -> np.ndarray:
    """(M + tau K)^{-1} M applied to each row of v, by the tridiagonal LDL^T
    solve with the factor cached per tau."""
    # The load is a fresh F-ordered array, so dpttrs may solve in place.
    z, info = _dpbtrs(ops._ldlt(tau), mass_matvec_rows(ops, v).T, overwrite_b=1)
    if info != 0:
        raise RuntimeError(f"tridiagonal LDL^T solve failed (info={info})")
    return np.ascontiguousarray(z.T)


def step_rows(config: SchemeConfig, values: np.ndarray, noise_values: np.ndarray):
    """One scheme step for a (paths, nodes) matrix of states.

    Solves (M + tau K) Z_n = M [Z_{n-1} + tau f*(Z_{n-1}) + g*(Z_{n-1}) dW]
    row by row.  Returns (new_values, blown): ``blown`` marks rows whose
    solution tripped the overflow guard during this step, a non-finite
    right-hand side included (see the module docstring); such a row's output
    is meaningless and the caller keeps the previous state instead.
    """
    tau = config.tau
    rhs, g = drift_diffusion_rows(config, values)
    # values + tau f* + g* dW, in the order of that sum, in the fresh f* array
    rhs *= tau
    rhs += values
    rhs += g * noise_values
    z = resolvent_rows(_operators(config.grid), tau, rhs)
    # One test of the whole block first; a NaN fails both comparisons.
    if z.size == 0 or (z.max() <= OVERFLOW_GUARD and z.min() >= -OVERFLOW_GUARD):
        return z, np.zeros(len(z), dtype=bool)
    blown = ~(np.abs(z).max(axis=-1) <= OVERFLOW_GUARD)  # NaN rows too
    # The sup norm bounds the L2 norm on (0, 1), so only these rows need the
    # mass-norm decision; a non-finite row has a non-finite norm.
    blown[blown] = ~(rows_l2_sq(z[blown], config.grid.h) <= OVERFLOW_GUARD**2)
    return z, blown


class EnsembleNoise:
    """Per-path counter-based streams, drawn by one sampler, synthesized per step.

    The rows are synthesized in slabs of ``PATH_CHUNK``: on the dense branch
    of ``synthesize`` (up to 64 cells) OpenBLAS picks its kernel by row count,
    so a path's nodal values could otherwise depend on the size of its
    ensemble.
    """

    def __init__(self, config: SchemeConfig, path_ids: Sequence[int]):
        self.sampler = PathSampler(config.noise, config.seed, path_ids)
        self.n_cells = config.grid.n_cells
        self.tau = config.tau

    def coeff_rows(self, step_index: int) -> np.ndarray:
        return self.sampler.coeffs(step_index, self.tau)

    def value_rows(self, step_index: int) -> np.ndarray:
        coeffs = self.coeff_rows(step_index)
        return np.concatenate([
            synthesize(coeffs[a:a + PATH_CHUNK], self.n_cells)
            for a in range(0, len(coeffs), PATH_CHUNK)
        ])


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
        self._n_blown = 0

    @property
    def blown(self) -> np.ndarray:
        return self.blowup_step >= 0

    def advance(self, noise_values: np.ndarray) -> None:
        """One step for every live row, driven by the given nodal noise."""
        self.step_index += 1
        z, blown_now = step_rows(self.config, self.states, noise_values)
        if self._n_blown == 0 and not blown_now.any():
            self.states = z
            return
        self.blowup_step[blown_now & (self.blowup_step < 0)] = self.step_index
        keep = self.blown
        self._n_blown = int(keep.sum())
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
        Once every row is frozen, no noise is drawn and no step is taken: the
        frozen states are recorded as they are.
        """
        if record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {record_stride}")
        if record is not None:
            record(0, self.states)
        for n in range(1, n_steps + 1):
            if self._n_blown < self.n_paths:
                self.advance(noise.value_rows(n - 1))
            else:
                self.step_index += 1
            if record is not None and (n % record_stride == 0 or n == n_steps):
                record(n, self.states)
