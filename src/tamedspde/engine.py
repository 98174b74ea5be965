"""The stepping core: every driver advances chains through ``step_rows``.

The Monte Carlo harnesses advance many independent paths of the same scheme
configuration; doing so row-by-row wastes most of the time in per-call
overhead.  ``BatchChains`` keeps the ensemble as a (paths, nodes) matrix and
advances every path in one set of array operations; a single path is a
1-row ensemble, and a probe or a ladder steps each slice of its paths
(``parallel.path_slices``) as one ensemble.  ``EnsembleNoise`` draws every
path's counter-based stream with one re-keyed generator
(``noise.PathSampler``) and synthesizes the nodal increments, once per path
however many copies of it the ensemble holds, a block of ``BLOCK_STEPS``
steps per call, as the ladders draw their fine blocks (``convergence``).
Per step of 100 rows at 31 modes and 32 cells (numpy 2.4.6, one BLAS
thread, 2-vCPU x86 host), the draw and synthesis take 171-175 us in blocks
of 8.

Everything a step needs that does not change from step to step is resolved
once per ensemble into a ``StepPlan`` (``step_plan``): the FEM operators,
the LDL^T factor of M + tau K, which of f and g the scheme tames, and a
one-coefficient g.  The step's scalars are resolved there as 0-d float64
arrays: tau, 1.0, sqrt(tau), c0, the drift's Horner terms
(``coefficients.horner_terms``) and, in the operators, the one-grid mass
diagonals.  A Python float operand costs each ufunc a scalar conversion,
which on a narrow row is a fair share of the call.  ``step_rows`` then does
only the step's arithmetic, through this module's ``drift_diffusion_rows``,
``mass_matvec_rows`` and ``_dpbtrs``.

A plan may also step a stack of grids whose nodes lie back to back on the
node axis, all with one scheme, coefficients and tau: the drift, taming
and noise terms act node by node, and the stacked operators are
block-diagonal (``fem.assemble``), so each grid's slice of a row that is
not blown steps with the bits of its own one-grid plan (a grid with one
interior node aside, see ``fem``).  The strong-error ladder steps the
reference and its same-ratio members this way, one call per step.

``BatchChains.run`` draws its paths' noise from its own plan's config, so no
driver can pair a chain with noise scaled for another tau, and holds the one
record schedule: it returns the steps it recorded and its observables'
values there, so no driver works them out.

Blow-up is detected, not raised: a row whose solution trips the overflow
guard is frozen at its last finite state, and the failing step index is
recorded, which is what the untamed baseline's blow-up statistics measure.
From then on only the live rows are stepped.  Only this post-solve guard is
needed: ``dpttrs`` solves each row's column on its own, so a non-finite
right-hand side gives a non-finite solution in its own row, flagged at the
same step, and leaves the other rows alone.  The guard takes two steps:
one dot of the whole block, z.z <= G^2/2, which implies every |z| <= G
(G = ``OVERFLOW_GUARD``), so the dot only skips work; when it fails, the
per-row sup and mass-norm rule, on each grid of a stack with that grid's h,
a row being blown when any of its grids is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dpttrs

from . import fem
from .coefficients import DiffusionKind, eval_g, horner, horner_terms
from .fem import mass_matvec_rows
from .grid import Grid1D, rows_l2_sq
from .noise import PathSampler, synthesize
from .schemes import OVERFLOW_GUARD, Scheme, SchemeConfig


@dataclass(frozen=True, eq=False)
class StepPlan:
    """What every step of one configuration needs, resolved once.

    ``tame_f``: f* = f_tau, else f.  ``g_power``: g* = g / (1 + sqrt(tau)
    x^(2 g_power))^{1/2}, or None for an untamed g.  ``g0``: c0 when g is the
    one-coefficient polynomial, else None.  ``unit_g``: g* is exactly 1.0.
    ``segments``: (slice of the node axis, h) of each grid of the stack.
    ``drift``: f's ``horner_terms``; ``diffusion``: g's, when g is a
    polynomial of two or more coefficients, else None.  The step's scalars
    (``tau``, ``one``, ``sqrt_tau``, ``g0``, the Horner terms) are 0-d float64
    arrays, so no ufunc of a step converts a Python float.
    """

    config: SchemeConfig
    ops: fem.FemOperators
    segments: tuple
    factor: tuple  # (d, e) of the LDL^T factor of M + tau K
    tame_f: bool
    g_power: Optional[int]
    tau: np.ndarray
    one: np.ndarray
    sqrt_tau: np.ndarray
    drift: tuple
    diffusion: Optional[tuple]
    g0: Optional[np.ndarray]
    unit_g: bool


def step_plan(config: SchemeConfig, grids: Sequence[Grid1D] = ()) -> StepPlan:
    """Resolve the scheme, operators and factor of ``config`` for its steps on
    its grid, or on a stack of ``grids`` with the config's scheme,
    coefficients and tau."""
    spec, scheme = config.coefficients, config.scheme
    grids = tuple(grids) or (config.grid,)
    ops = fem.assemble(*grids)
    stops = list(accumulate(g.n_interior for g in grids))
    g_power = {Scheme.GTEM: spec.q // 2, Scheme.GTEM_B: spec.q}.get(scheme)
    polynomial_g = spec.diffusion_kind is DiffusionKind.POLYNOMIAL
    g0 = spec.diffusion[0] if polynomial_g and len(spec.diffusion) == 1 else None
    return StepPlan(
        config=config,
        ops=ops,
        segments=tuple((slice(stop - g.n_interior, stop), g.h) for g, stop in zip(grids, stops)),
        factor=fem.ldlt(ops, config.tau),
        tame_f=scheme is not Scheme.UNTAMED_EM,
        g_power=g_power,
        tau=np.asarray(config.tau),
        one=np.asarray(1.0),
        sqrt_tau=np.asarray(math.sqrt(config.tau)),
        drift=horner_terms(spec.drift),
        diffusion=horner_terms(spec.diffusion) if polynomial_g and g0 is None else None,
        g0=None if g0 is None else np.asarray(g0),
        unit_g=g_power is None and g0 == 1.0,
    )


def _taming_divisor(x2: np.ndarray, power: int, scale: np.ndarray, one: np.ndarray) -> np.ndarray:
    """(one + scale x2^power)^{1/2} in one fresh array, in that order."""
    d = x2**power
    d *= scale
    d += one
    return np.sqrt(d, out=d)


def drift_diffusion_rows(plan: StepPlan, values: np.ndarray):
    """(f*, g*) of the plan's scheme, with the bits of the public evaluators
    (``coefficients.eval_f_tau`` and ``eval_g_tau``); both tamings share one
    x**2.  Rows or a vector; f* is a fresh array, and an untamed
    one-coefficient g comes back as c0, a 0-d array, which broadcasts."""
    spec = plan.config.coefficients
    f = horner(plan.drift, values)
    if plan.g0 is not None:
        g = plan.g0
    elif plan.diffusion is not None:
        g = horner(plan.diffusion, values)
    else:
        g = eval_g(spec, values)
    if not plan.tame_f:
        return f, g
    x2 = values**2
    f /= _taming_divisor(x2, spec.q, plan.tau, plan.one)
    if plan.g_power is None:
        return f, g
    d = _taming_divisor(x2, plan.g_power, plan.sqrt_tau, plan.one)
    return f, np.divide(g, d, out=d)


# perfbench's tracer (span ``fem.dpbtrs``) and the failing-solve tests patch
# this global by its old name and call shape, until the benchmark renames both.
def _dpbtrs(factor, load, overwrite_b=0):
    return dpttrs(*factor, load, overwrite_b=overwrite_b)


def _solve_rows(ops: fem.FemOperators, factor, v: np.ndarray) -> np.ndarray:
    """(M + tau K)^{-1} M applied to each row of v, given the LDL^T factor."""
    # The load is a fresh F-ordered array, so dpttrs may solve in place.
    z, info = _dpbtrs(factor, mass_matvec_rows(ops, v).T, overwrite_b=1)
    if info != 0:
        raise RuntimeError(f"tridiagonal LDL^T solve failed (info={info})")
    return np.ascontiguousarray(z.T)


def resolvent_rows(ops: fem.FemOperators, tau: float, v: np.ndarray, steps: int = 1):
    """((M + tau K)^{-1} M)^steps applied to each row of v, from one LDL^T factor."""
    factor = fem.ldlt(ops, tau)
    for _ in range(steps):
        v = _solve_rows(ops, factor, v)
    return v


# z.z <= G^2/2 implies |z_i| <= G for every entry: the computed sum of n
# nonnegative rounded squares is at least (1 - 2^-53)^n times the exact one,
# so each exact square stays below G^2 for any n < 2^51.  An overflowed square
# or a NaN fails the test.
_DOT_GUARD = OVERFLOW_GUARD**2 / 2


def step_rows(plan: StepPlan, values: np.ndarray, noise_values: np.ndarray):
    """One scheme step for a (paths, nodes) matrix of states.

    Solves (M + tau K) Z_n = M [Z_{n-1} + tau f*(Z_{n-1}) + g*(Z_{n-1}) dW]
    row by row.  Returns (new_values, blown): ``blown`` is None when every
    |z| <= ``OVERFLOW_GUARD``, else it marks the rows whose
    solution tripped it during this step, a non-finite right-hand side
    included (see the module docstring); such a row's output is meaningless
    and the caller keeps the previous state instead.
    """
    rhs, g = drift_diffusion_rows(plan, values)
    # values + tau f* + g* dW, in the order of that sum, in the fresh f* array
    rhs *= plan.tau
    rhs += values
    rhs += noise_values if plan.unit_g else g * noise_values  # 1.0 * x is x
    z = _solve_rows(plan.ops, plan.factor, rhs)
    # The whole block first, by one dot (see _DOT_GUARD): a NaN fails the
    # comparison, and an empty block's dot is 0.0.
    flat = z.reshape(-1)
    if flat @ flat <= _DOT_GUARD:
        return z, None
    blown = ~(np.abs(z).max(axis=-1) <= OVERFLOW_GUARD)  # NaN rows too
    if not blown.any():
        return z, None
    # The sup norm bounds the L2 norm on (0, 1), on each grid of a stack, so
    # only these rows need the mass-norm decision, grid by grid; a
    # non-finite row has a non-finite norm.
    rows, over = z[blown], np.zeros(int(blown.sum()), dtype=bool)
    for cut, h in plan.segments:
        over |= ~(rows_l2_sq(rows[:, cut], h) <= OVERFLOW_GUARD**2)
    blown[blown] = over
    return z, blown


# Steps of noise one draw covers: a run's block, and a ladder's block at
# least (``convergence``).  At 100 rows of 31 modes, blocks of 4 to 16
# steps drew and synthesized alike per step; 32 was slower.
BLOCK_STEPS = 8


class EnsembleNoise:
    """Per-path counter-based streams, drawn by one sampler, a block of steps
    per call.

    The sampler's noise scale is fixed by the config's tau.  A path's nodal
    values are fixed by the seed, its path id and the step, whatever ensemble
    it rides in and whatever block holds the step (``synthesize`` treats each
    row on its own).  With ``copies`` > 1 they are repeated: the rows are
    copy 0 of every path, then copy 1, ...
    """

    def __init__(self, config: SchemeConfig, path_ids: Sequence[int], copies: int = 1):
        self.sampler = PathSampler(config.noise, config.seed, path_ids, config.tau)
        self.n_cells = config.grid.n_cells
        self.copies = copies
        self._shape = (len(path_ids), config.noise.truncation)

    def coeff_rows(self, step_index: int, n_steps: int) -> np.ndarray:
        """(n_steps, paths, K) coefficients of steps ``step_index``, ``step_index + 1``, ..."""
        return self.sampler.coeffs(step_index, out=np.empty((n_steps, *self._shape)))

    def value_rows(self, step_index: int, n_steps: int) -> np.ndarray:
        """(n_steps, rows, nodes) nodal increments of the same steps."""
        values = synthesize(self.coeff_rows(step_index, n_steps), self.n_cells)
        return values if self.copies == 1 else np.tile(values, (1, self.copies, 1))


class BatchChains:
    """An ensemble of chains advanced in lockstep.

    ``states`` holds one row per path; rows freeze at their last finite
    state once the blow-up guard trips (``blowup_step[i]`` records when).
    A row spans the config's grid, or the stack of ``grids`` (``step_plan``).
    """

    def __init__(self, config: SchemeConfig, x0_rows: np.ndarray,
                 grids: Sequence[Grid1D] = ()):
        x0_rows = np.atleast_2d(np.asarray(x0_rows, dtype=np.float64))
        n_nodes = sum(g.n_interior for g in grids or (config.grid,))
        if x0_rows.shape[1] != n_nodes:
            raise ValueError(
                f"x0 rows have {x0_rows.shape[1]} columns, grid has "
                f"{n_nodes} interior nodes"
            )
        self.plan = step_plan(config, grids)
        self.states = x0_rows.copy()
        self.n_paths = x0_rows.shape[0]
        self.step_index = 0
        self.blowup_step = np.full(self.n_paths, -1, dtype=np.int64)
        self._n_blown = 0

    @property
    def blown(self) -> np.ndarray:
        return self.blowup_step >= 0

    def advance(self, noise_values: np.ndarray) -> None:
        """One step for every live row, driven by the given nodal noise.

        Once a row has blown, only the live rows are stepped, and their new
        states written back: rows step on their own, so their bits are those
        of a step of the whole block."""
        self.step_index += 1
        if self._n_blown == 0:
            z, blown_now = step_rows(self.plan, self.states, noise_values)
            if blown_now is None:
                self.states = z
                return
            live = np.arange(self.n_paths)
        else:
            live = np.flatnonzero(self.blowup_step < 0)
            z, blown_now = step_rows(self.plan, self.states[live], noise_values[live])
        if blown_now is not None:
            self.blowup_step[live[blown_now]] = self.step_index
            self._n_blown += int(blown_now.sum())
            live, z = live[~blown_now], z[~blown_now]
        states = self.states.copy()  # fresh, as after any step: an observable may keep it
        states[live] = z
        self.states = states

    def run(self, path_ids: Sequence[int], n_steps: int, record_stride: int = 1,
            observables: Sequence = ()):
        """Advance ``n_steps`` steps; return the recorded ``(steps, values)``.

        The rows are copies of ``path_ids`` in ``EnsembleNoise`` order, driven
        by their noise, drawn ``BLOCK_STEPS`` steps per call (a shorter run,
        or its tail, draws only its own steps); rows that are not whole copies
        are a ``ValueError``.  ``steps``: step 0, every multiple of
        ``record_stride`` and the last.  ``values[i]``:
        ``observables[i](states, plan.config)`` at each, stacked on a last
        axis; a row-wise observable gives (rows, len(steps)).  Once every row
        is frozen, no further block is drawn and no step is taken: the frozen
        states are recorded as they are.
        """
        if record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {record_stride}")
        if not len(path_ids) or self.n_paths % len(path_ids):
            raise ValueError(f"{self.n_paths} rows are not whole copies of {len(path_ids)} path ids")
        config, steps = self.plan.config, [0]
        noise = EnsembleNoise(config, path_ids, self.n_paths // len(path_ids))
        series = [[fn(self.states, config)] for fn in observables]
        for n in range(1, n_steps + 1):
            if self._n_blown < self.n_paths:
                i = (n - 1) % BLOCK_STEPS  # step n is driven by noise step n - 1
                if i == 0:
                    block = None  # freed before the next block is drawn
                    block = noise.value_rows(n - 1, min(BLOCK_STEPS, n_steps - n + 1))
                self.advance(block[i])
            else:
                self.step_index += 1
            if n % record_stride == 0 or n == n_steps:
                steps.append(n)
                for fn, s in zip(observables, series):
                    s.append(fn(self.states, config))
        return np.asarray(steps), [np.stack(s, axis=-1) for s in series]
