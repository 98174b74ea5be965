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
3 Monte Carlo standard errors throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import fem
from .coefficients import AssumptionReport, CoefficientSpec, eval_g
from .convergence import fit_line
from .engine import BatchChains, EnsembleNoise
from .grid import (
    GridFunction,
    mass_weights,
    rows_h1_sq,
    rows_l2_sq,
    rows_lp,
    rows_lyapunov,
)
from .parallel import parallel_map, path_chunks
from .schemes import Scheme, SchemeConfig


class StepSizeNotCertified(ValueError):
    """Raised when a probe needs certified dissipation but tau > tau_max."""

    def __init__(self, tau: float, report: AssumptionReport):
        super().__init__(
            f"tau = {tau:g} exceeds the certified ceiling tau_max = "
            f"{report.tau_max:g} (L2 = {report.coercive_decay:g}, "
            f"L4 = {report.growth_scale:g}, beta = {report.beta:g})"
        )
        self.report = report


def _require_certified(config: SchemeConfig, report: AssumptionReport) -> None:
    report.require_feasible()
    if report.tau_max is None or config.tau > report.tau_max:
        raise StepSizeNotCertified(config.tau, report)


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
    anchors: Sequence[GridFunction],
    n_samples: int,
    report: AssumptionReport,
) -> list:
    """Estimate E[V(Z_1) | Z_0 = x] for each anchor and compare to the bound.

    Refuses to run when tau exceeds the certified tau_max.  Each anchor uses
    its own block of path ids, so all increments are independent.
    """
    _require_certified(config, report)
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    k1, k2 = report.lyap_contraction, report.lyap_source
    h, tau = config.grid.h, config.tau
    probes = []
    for a, anchor in enumerate(anchors):
        if anchor.grid != config.grid:
            raise ValueError("anchor grid does not match the scheme grid")

        def one_chunk(rng, _anchor=anchor, _a=a):
            start, stop = rng
            ids = [_a * n_samples + j for j in range(start, stop)]
            chains = BatchChains(config, np.tile(_anchor.values, (stop - start, 1)))
            noise = EnsembleNoise(config, ids)
            chains.advance(noise.value_rows(0))
            return rows_lyapunov(chains.states, h, tau)

        v1 = np.concatenate(parallel_map(one_chunk, path_chunks(n_samples)))
        est = float(np.mean(v1))
        se = float(np.std(v1, ddof=1) / math.sqrt(n_samples))
        x_l2 = float(rows_l2_sq(anchor.values, h))
        probes.append(
            LyapunovProbe(
                anchor_l2_sq=x_l2,
                anchor_V=float(rows_lyapunov(anchor.values, h, tau)),
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
    x0: GridFunction,
    n_paths: int,
    report: AssumptionReport,
    record_stride: int = 1000,
) -> LongRunResult:
    """Empirical E||Z_n||^2 against K2/K1 + exp(-K1 tau n) ||X0||^2."""
    _require_certified(config, report)
    n_steps = config.n_steps
    h = config.grid.h

    def one_chunk(rng):
        start, stop = rng
        chains = BatchChains(config, np.tile(x0.values, (stop - start, 1)))
        noise = EnsembleNoise(config, list(range(start, stop)))
        recorded = []
        steps = []
        chains.run(
            noise,
            n_steps,
            record_stride,
            lambda s, V: (steps.append(s), recorded.append(rows_l2_sq(V, h))),
        )
        return np.asarray(steps), np.column_stack(recorded), int(chains.blown.sum())

    parts = parallel_map(one_chunk, path_chunks(n_paths))
    steps = parts[0][0]
    all_l2 = np.vstack([p[1] for p in parts])  # (paths, n_recorded)
    n_blow = sum(p[2] for p in parts)
    k1, k2 = report.lyap_contraction, report.lyap_source
    env = k2 / k1 + np.exp(-k1 * config.tau * steps) * rows_l2_sq(x0.values, h)
    return LongRunResult(
        steps=steps,
        mean_l2_sq=all_l2.mean(axis=0),
        std_error=all_l2.std(axis=0, ddof=1) / math.sqrt(n_paths),
        envelope=env,
        n_blowups=n_blow,
        n_paths=n_paths,
    )


# ---------------------------------------------------------------------------
# Synchronous coupling
# ---------------------------------------------------------------------------


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
    x0_a: GridFunction,
    x0_b: GridFunction,
    n_steps: int,
    n_paths: int,
) -> CouplingResult:
    """Two chains per path on identical noise; fits log E||Z^a - Z^b|| vs n.

    A nonnegative slope is reported, not raised — it is a finding.
    """
    h = config.grid.h

    def one_chunk(rng):
        start, stop = rng
        m = stop - start
        a = BatchChains(config, np.tile(x0_a.values, (m, 1)))
        b = BatchChains(config, np.tile(x0_b.values, (m, 1)))
        noise = EnsembleNoise(config, list(range(start, stop)))
        dists = [np.sqrt(np.maximum(rows_l2_sq(a.states - b.states, h), 0.0))]
        for n in range(1, n_steps + 1):
            vals = noise.value_rows(n - 1)
            a.advance(vals)
            b.advance(vals)
            dists.append(np.sqrt(np.maximum(rows_l2_sq(a.states - b.states, h), 0.0)))
        return np.column_stack(dists)  # (m, n_steps + 1)

    dist = np.vstack(parallel_map(one_chunk, path_chunks(n_paths)))
    mean = dist.mean(axis=0)
    steps = np.arange(n_steps + 1)
    pos = mean > 0
    if pos.sum() >= 2:
        slope, intercept, r2 = fit_line(steps[pos], np.log(mean[pos]))
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
    """First coefficient of ``grid.sine_transform`` per row, as one dot product."""
    w = np.sqrt(2.0) * np.sin(np.pi * grid.nodes) / grid.n_cells
    scale = math.sqrt((2.0 + math.cos(math.pi * grid.h)) / 3.0)
    return (v @ w) * scale


OBSERVABLE_ROWS = {
    "l2_sq": lambda v, cfg: rows_l2_sq(v, cfg.grid.h),
    "h1_sq": lambda v, cfg: rows_h1_sq(v, cfg.grid.h),
    "lq2": lambda v, cfg: rows_lp(v, cfg.grid.h, cfg.coefficients.q + 2),
    "lyapunov": lambda v, cfg: rows_lyapunov(v, cfg.grid.h, cfg.tau),
    "mode1": lambda v, cfg: _rows_mode1(v, cfg.grid),
    "one": lambda v, cfg: np.ones(v.shape[0]),
    "exp_neg_l2sq": lambda v, cfg: np.exp(-rows_l2_sq(v, cfg.grid.h)),
}


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


@dataclass(frozen=True)
class PrecheckResult:
    passed: bool
    witnesses: tuple  # points where g vanishes


def nondegeneracy_precheck(spec: CoefficientSpec) -> PrecheckResult:
    """Pointwise surrogate of noise nondegeneracy: g must not vanish on [-20, 20]."""
    xi = np.linspace(-20.0, 20.0, 20_001)
    gv = np.abs(eval_g(spec, xi))
    tol = 1e-12 * max(1.0, float(gv.max()))
    bad = xi[gv <= tol]
    return PrecheckResult(passed=bad.size == 0, witnesses=tuple(float(b) for b in bad[:8]))


def ergodic_limit_test(
    config: SchemeConfig,
    observables: Sequence[str],
    x0_list: Sequence[GridFunction],
    burn_in_steps: int,
    tolerance: float = 0.05,
    record_stride: int = 1,
) -> list:
    """Time averages from each initial condition must agree pairwise.

    Chains start from different initial data on independent noise; after
    burn-in, each observable's time average is compared across initial
    conditions (relative tolerance, default 5%).
    """
    pre = nondegeneracy_precheck(config.coefficients)
    if not pre.passed:
        raise ValueError(
            f"nondegeneracy precheck failed: g vanishes at {pre.witnesses}"
        )
    n_steps = config.n_steps
    if not 0 <= burn_in_steps < n_steps:
        raise ValueError(f"burn-in {burn_in_steps} must be < horizon {n_steps}")
    fns = {name: OBSERVABLE_ROWS[name] for name in observables}
    chains = BatchChains(config, np.stack([x.values for x in x0_list]))
    noise = EnsembleNoise(config, list(range(len(x0_list))))
    series = {name: [] for name in fns}
    rec_steps = []

    def record(s, V):
        rec_steps.append(s)
        for name, fn in fns.items():
            series[name].append(fn(V, config))

    chains.run(noise, n_steps, record_stride, record)
    rec = np.asarray(rec_steps)
    keep = rec > burn_in_steps
    out = []
    for name in fns:
        mat = np.column_stack(series[name])[:, keep]  # (n_x0, n_kept)
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


def linear_stationary_l2_sq(config: SchemeConfig) -> float:
    """Closed-form stationary E||x||^2 for a linear drift and constant g.

    For f(x) = a1 x the scheme diagonalizes in the sine basis: each mode is a
    scalar AR(1) recursion whose stationary variance follows from the
    resolvent factor and the (possibly tamed) drift multiplier.
    """
    spec = config.coefficients
    if len(spec.drift) > 2 or spec.drift[0] != 0.0:
        raise ValueError("closed form requires f(x) = a1 * x")
    if not spec.g_is_constant:
        raise ValueError("closed form requires constant g")
    a1 = spec.drift[1] if len(spec.drift) == 2 else 0.0
    tau = config.tau
    if config.scheme in (Scheme.GTEM, Scheme.DRIFT_GTEM):
        a_eff = a1 / math.sqrt(1.0 + tau)  # q = 0 taming divides by sqrt(1 + tau)
    else:
        a_eff = a1
    g0 = spec.diffusion[0]
    n_modes = config.noise.truncation
    lam_q = config.noise.eigenvalues()
    mass_w = mass_weights(config.grid)[:n_modes]
    lam_h = fem.dispersion_eigenvalue(config.grid, np.arange(1, n_modes + 1))
    gain = 1.0 + tau * lam_h
    drift_mult = 1.0 + tau * a_eff
    var = g0**2 * lam_q * tau / (gain**2 - drift_mult**2)
    if np.any(var <= 0):
        raise ValueError("mode recursion is not contractive; no stationary law")
    return float(np.sum(mass_w * var))


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
    """Blow-up frequency of the untamed scheme vs a tamed twin on identical noise."""
    untamed = replace(config, scheme=Scheme.UNTAMED_EM)
    tamed = replace(config, scheme=Scheme.GTEM)
    rows = []
    for amp in amplitudes:
        x0 = np.sin(np.pi * config.grid.nodes) * amp

        def freq(cfg):
            def one_chunk(rng):
                start, stop = rng
                chains = BatchChains(cfg, np.tile(x0, (stop - start, 1)))
                noise = EnsembleNoise(cfg, list(range(start, stop)))
                chains.run(noise, cfg.n_steps)
                return int(chains.blown.sum())

            return sum(parallel_map(one_chunk, path_chunks(n_paths))) / n_paths

        rows.append(
            BlowupRow(
                amplitude=float(amp),
                tau=config.tau,
                untamed_frequency=freq(untamed),
                tamed_frequency=freq(tamed),
                n_paths=n_paths,
            )
        )
    return rows

