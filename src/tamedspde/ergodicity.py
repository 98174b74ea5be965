"""Empirical long-time diagnostics: Lyapunov contraction, moment bounds,
synchronous-coupling decay, ergodic-limit agreement, and the untamed blow-up
contrast.

These probes verify, at Monte Carlo resolution, the properties that make the
tamed schemes ergodicity-preserving:

- one-step contraction  E[V(Z_1) | Z_0 = x] <= (1 - K1 tau) ||x||^2 + K2 tau
  with (K1, K2) certified by ``check_assumptions``;
- the infinite-horizon envelope  E||Z_n||^2 <= K2/K1 + exp(-K1 tau n) ||X0||^2;
- geometric decay of the distance between two chains driven by the same
  noise (synchronous coupling), and agreement of time averages started from
  different initial data — the desk-scale proxies for geometric ergodicity;
- the blow-up frequency of the untamed baseline against a tamed twin on
  identical noise.

Every probe is deterministic in (config, seed) and acceptance bands are
3 Monte Carlo standard errors throughout.  Initial data and anchors are
nodal arrays (``InitialCondition.build``); ``BatchChains`` checks their
length against the config's grid.  The four Monte Carlo probes map one
work item over slices of their paths: ``run_slice`` bound to a ``SliceTask``,
plain data that pickles.  Every probe hands ``BatchChains.run`` its path ids,
and the run draws their noise; the probe reads the steps it recorded, and
its observables' values there, from what the run returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .coefficients import AssumptionReport, CoefficientSpec, eval_g
from .convergence import fit_line
from .engine import BatchChains
from .grid import rows_h1_sq, rows_l2_sq, rows_lp, rows_lyapunov
from .parallel import parallel_map, path_slices
from .schemes import InitialCondition, Scheme, SchemeConfig


class StepSizeNotCertified(ValueError):
    """Raised when a probe needs certified dissipation but tau > tau_max."""

    def __init__(self, tau: float, report: AssumptionReport):
        super().__init__(
            f"tau = {tau:g} exceeds the certified ceiling tau_max = "
            f"{report.tau_max:g} (L2 = {report.coercive_decay:g}, "
            f"L4 = {report.growth_scale:g}, beta = {report.beta:g})"
        )
        self.report = report


def require_certified(config: SchemeConfig, report: AssumptionReport) -> None:
    """What the certified probes check before any step: a feasible report
    (``InfeasibleAssumptions``) and tau <= tau_max (``StepSizeNotCertified``)."""
    report.require_feasible()
    if report.tau_max is None or config.tau > report.tau_max:
        raise StepSizeNotCertified(config.tau, report)


@dataclass(frozen=True, eq=False)
class SliceTask:
    """What a probe's slice of paths runs.

    Each path starts as the rows of ``starts`` (copies, nodes), all driven by
    the path's one noise stream, and takes ``n_steps`` steps.  ``observable``,
    a key of ``SLICE_OBSERVABLES``, if given, is recorded at step 0, every
    multiple of ``record_stride`` and the last step.
    """

    config: SchemeConfig
    starts: np.ndarray
    n_steps: int
    record_stride: int = 1
    observable: Optional[str] = None


def run_slice(task: SliceTask, paths: range):
    """(recorded steps, recorded columns (paths, records) or None, blow-up
    step of each row) of ``paths``, stepped as one ensemble of
    ``len(task.starts)`` copies."""
    chains = BatchChains(task.config, np.repeat(task.starts, len(paths), axis=0))
    fns = () if task.observable is None else (SLICE_OBSERVABLES[task.observable],)
    steps, values = chains.run(paths, task.n_steps, task.record_stride, fns)
    return steps, (values[0] if values else None), chains.blowup_step


def _run_paths(task: SliceTask, paths: range):
    """``run_slice`` mapped over the slices of ``paths``, its parts joined."""
    slices = [paths[s.start:s.stop] for s in path_slices(len(paths), task.starts.size)]
    steps, cols, blowups = zip(*parallel_map(partial(run_slice, task), slices))
    return steps[0], (None if cols[0] is None else np.vstack(cols)), np.concatenate(blowups)


# ---------------------------------------------------------------------------
# One-step Lyapunov contraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovProbe:
    """Monte Carlo estimate of E[V(Z_1)] from one anchor state."""

    anchor_l2_sq: float
    anchor_V: float
    estimate: float
    std_error: float
    bound: float  # (1 - K1 tau) ||x||^2 + K2 tau
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.estimate <= self.bound + 3.0 * self.std_error


def lyapunov_contraction_test(
    config: SchemeConfig,
    anchors: Sequence[np.ndarray],
    n_samples: int,
    report: AssumptionReport,
) -> list:
    """Estimate E[V(Z_1) | Z_0 = x] for each anchor and compare to the bound.

    Refuses to run when tau exceeds the certified tau_max.  Each anchor uses
    its own block of path ids, so all increments are independent, and steps
    them as one ensemble per slice.
    """
    require_certified(config, report)
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    k1, k2 = report.lyap_contraction, report.lyap_source
    h, tau = config.grid.h, config.tau
    probes = []
    for a, anchor in enumerate(anchors):
        task = SliceTask(config, anchor[None], 1, observable="lyapunov")
        v1 = _run_paths(task, range(a * n_samples, (a + 1) * n_samples))[1][:, -1]
        est = float(np.mean(v1))
        se = float(np.std(v1, ddof=1) / math.sqrt(n_samples))
        x_l2 = float(rows_l2_sq(anchor, h))
        probes.append(
            LyapunovProbe(
                anchor_l2_sq=x_l2,
                anchor_V=float(rows_lyapunov(anchor, h, tau)),
                estimate=est,
                std_error=se,
                bound=(1.0 - k1 * tau) * x_l2 + k2 * tau,
                n_samples=n_samples,
            )
        )
    return probes


# ---------------------------------------------------------------------------
# Infinite-horizon moment bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LongRunResult:
    steps: np.ndarray
    mean_l2_sq: np.ndarray
    std_error: np.ndarray
    envelope: np.ndarray
    n_blowups: int
    n_paths: int

    @property
    def passed(self) -> bool:
        ok = np.all(self.mean_l2_sq <= self.envelope + 3.0 * self.std_error)
        return bool(ok) and self.n_blowups == 0


def long_run_moment_test(
    config: SchemeConfig,
    x0: np.ndarray,
    n_paths: int,
    report: AssumptionReport,
    record_stride: int = 1000,
) -> LongRunResult:
    """Empirical E||Z_n||^2 against K2/K1 + exp(-K1 tau n) ||X0||^2."""
    require_certified(config, report)
    task = SliceTask(config, x0[None], config.n_steps, record_stride, "l2_sq")
    steps, all_l2, blowup_step = _run_paths(task, range(n_paths))  # (paths, n_recorded)
    k1, k2 = report.lyap_contraction, report.lyap_source
    env = k2 / k1 + np.exp(-k1 * config.tau * steps) * rows_l2_sq(x0, config.grid.h)
    return LongRunResult(
        steps=steps,
        mean_l2_sq=all_l2.mean(axis=0),
        std_error=all_l2.std(axis=0, ddof=1) / math.sqrt(n_paths),
        envelope=env,
        n_blowups=int((blowup_step >= 0).sum()),
        n_paths=n_paths,
    )


# ---------------------------------------------------------------------------
# Synchronous coupling
# ---------------------------------------------------------------------------


COUPLING_FIT_FLOOR = 1e-12  # mean distances below this share of the step-0 one


@dataclass(frozen=True, eq=False)
class CouplingResult:
    steps: np.ndarray
    mean_distance: np.ndarray
    slope: Optional[float]  # per-step slope of log E||Z^a - Z^b||
    intercept: Optional[float]
    r_squared: Optional[float]
    n_paths: int


def coupling_decay_test(
    config: SchemeConfig,
    x0_a: np.ndarray,
    x0_b: np.ndarray,
    n_steps: int,
    n_paths: int,
) -> CouplingResult:
    """Two chains per path on identical noise; fits log E||Z^a - Z^b|| vs n.

    A slice steps both chains of its paths as one ensemble [a; b].  Steps
    whose mean distance is at most ``COUPLING_FIT_FLOOR`` times the step-0
    one are rounding error and left out; with fewer than two left the slope
    is None.  A nonnegative slope is reported, not raised: a finding.
    """
    task = SliceTask(config, np.stack([x0_a, x0_b]), n_steps, 1, "distance")
    steps, dist, _ = _run_paths(task, range(n_paths))  # (paths, n_steps + 1)
    mean = dist.mean(axis=0)
    fit = mean > COUPLING_FIT_FLOOR * mean[0]  # the floor leaves rounding error out
    if fit.sum() >= 2:
        slope, intercept, r2 = fit_line(steps[fit], np.log(mean[fit]))
    else:
        slope = intercept = r2 = None
    return CouplingResult(
        steps=steps,
        mean_distance=mean,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        n_paths=n_paths,
    )


# ---------------------------------------------------------------------------
# Ergodic-limit agreement
# ---------------------------------------------------------------------------

# Vectorized observables over (paths, nodes) state matrices.
def _rows_mode1(v: np.ndarray, grid) -> np.ndarray:
    """First coefficient of ``grid.sine_transform`` per row, as a row-wise sum.

    Not a BLAS product: BLAS picks its kernel by row count, so a row's bits
    would depend on the size of its ensemble.
    """
    w = np.sqrt(2.0) * np.sin(np.pi * grid.nodes) / grid.n_cells
    scale = math.sqrt((2.0 + math.cos(math.pi * grid.h)) / 3.0)
    return (v * w).sum(axis=-1) * scale


OBSERVABLE_ROWS = {
    "l2_sq": lambda v, cfg: rows_l2_sq(v, cfg.grid.h),
    "h1_sq": lambda v, cfg: rows_h1_sq(v, cfg.grid.h),
    "lq2": lambda v, cfg: rows_lp(v, cfg.grid.h, cfg.coefficients.q + 2),
    "lyapunov": lambda v, cfg: rows_lyapunov(v, cfg.grid.h, cfg.tau),
    "mode1": lambda v, cfg: _rows_mode1(v, cfg.grid),
    "one": lambda v, cfg: np.ones(v.shape[0]),
    "exp_neg_l2sq": lambda v, cfg: np.exp(-rows_l2_sq(v, cfg.grid.h)),
}
# What a probe's slice may record (``SliceTask``): also ||a - b|| per path of a
# two-copy ensemble [a; b].
SLICE_OBSERVABLES = dict(OBSERVABLE_ROWS, distance=lambda v, cfg: np.sqrt(
    np.maximum(rows_l2_sq(np.subtract(*np.split(v, 2)), cfg.grid.h), 0.0)))


@dataclass(frozen=True, eq=False)
class ErgodicEstimate:
    observable: str
    time_averages: np.ndarray  # one per initial condition
    ensemble_average: float
    std_errors: np.ndarray  # batch-means SE per initial condition
    tolerance: float
    widened_ci: bool  # 3 SE exceeds the agreement tolerance: horizon too short

    @property
    def max_rel_disagreement(self) -> float:
        scale = max(abs(self.ensemble_average), 1e-12)
        return float(
            (self.time_averages.max() - self.time_averages.min()) / scale
        )

    @property
    def passed(self) -> bool:
        return self.max_rel_disagreement <= self.tolerance


def require_nondegenerate(spec: CoefficientSpec) -> None:
    """What ``ergodic_limit_test`` checks before any step, a pointwise surrogate
    of noise nondegeneracy: a ``ValueError`` if g vanishes on [-20, 20]."""
    xi = np.linspace(-20.0, 20.0, 20_001)
    gv = np.abs(eval_g(spec, xi))
    bad = xi[gv <= 1e-12 * max(1.0, float(gv.max()))]
    if bad.size:
        witnesses = tuple(float(b) for b in bad[:8])
        raise ValueError(f"nondegeneracy precheck failed: g vanishes at {witnesses}")


def ergodic_limit_test(
    config: SchemeConfig,
    observables: Sequence[str],
    x0_list: Sequence[np.ndarray],
    burn_in_steps: int,
    tolerance: float = 0.05,
    record_stride: int = 1,
) -> list:
    """Time averages from each initial condition must agree pairwise.

    Chains start from at least two different initial data on independent
    noise; after burn-in, each observable's time average is compared across
    initial conditions (relative tolerance, default 5%).
    """
    require_nondegenerate(config.coefficients)
    n_steps = config.n_steps
    if not 0 <= burn_in_steps < n_steps:
        raise ValueError(f"burn-in {burn_in_steps} must be < horizon {n_steps}")
    if len(x0_list) < 2:
        raise ValueError(f"agreement needs >= 2 initial conditions, got {len(x0_list)}")
    names = list(dict.fromkeys(observables))  # a repeated name is reported once
    chains = BatchChains(config, np.stack(x0_list))
    steps, series = chains.run(range(len(x0_list)), n_steps, record_stride,
                               [OBSERVABLE_ROWS[name] for name in names])
    keep = steps > burn_in_steps
    out = []
    for name, values in zip(names, series):
        mat = values[:, keep]  # (n_x0, n_kept)
        avgs = mat.mean(axis=1)
        ses = _batch_means_se(mat)
        ens = float(avgs.mean())
        widened = bool(np.any(3.0 * ses > tolerance * max(abs(ens), 1e-12)))
        out.append(
            ErgodicEstimate(
                observable=name,
                time_averages=avgs,
                ensemble_average=ens,
                std_errors=ses,
                tolerance=tolerance,
                widened_ci=widened,
            )
        )
    return out


def _batch_means_se(mat: np.ndarray, n_blocks: int = 10) -> np.ndarray:
    """Autocorrelation-robust SE of each row's time average, by batch means."""
    n = mat.shape[1]
    if n < 2 * n_blocks:
        return np.full(mat.shape[0], np.inf)
    cut = n - n % n_blocks
    blocks = mat[:, :cut].reshape(mat.shape[0], n_blocks, -1).mean(axis=2)
    return blocks.std(axis=1, ddof=1) / math.sqrt(n_blocks)


# ---------------------------------------------------------------------------
# Untamed blow-up contrast
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupRow:
    amplitude: float
    tau: float
    untamed_frequency: float
    tamed_frequency: float
    n_paths: int


def em_blowup_probe(
    config: SchemeConfig, amplitudes: Sequence[float], n_paths: int
) -> list:
    """Blow-up frequency of the untamed scheme vs a tamed twin on identical noise;
    the twin is ``Scheme.GTEM`` (f and g tamed) whatever ``config.scheme`` is."""
    untamed = replace(config, scheme=Scheme.UNTAMED_EM)
    tamed = replace(config, scheme=Scheme.GTEM)
    rows = []
    for amp in amplitudes:
        x0 = InitialCondition("sine", amplitude=amp).build(config.grid)[None]
        untamed_f, tamed_f = (
            int((_run_paths(SliceTask(cfg, x0, cfg.n_steps), range(n_paths))[2] >= 0).sum())
            / n_paths for cfg in (untamed, tamed))
        rows.append(
            BlowupRow(
                amplitude=float(amp),
                tau=config.tau,
                untamed_frequency=untamed_f,
                tamed_frequency=tamed_f,
                n_paths=n_paths,
            )
        )
    return rows

