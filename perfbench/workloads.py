"""The benchmark workloads: inputs from a seed, one round of work, and checks.

A round is one call into the package's public entry point for the workload
(``convergence.strong_error_ladder`` or ``ergodicity.long_run_moment_test``)
on a fixed number of paths with a fresh master seed.  The entry points are
looked up on their modules at call time, so the tracer's wrappers apply.

The checks recompute the paper's properties from the returned tables with
the benchmark's own arithmetic: a log-log least-squares fit for the ladders,
and the Lyapunov envelope with a closed-form initial moment for the long run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tamedspde import coefficients, convergence, ergodicity
from tamedspde.coefficients import allen_cahn
from tamedspde.grid import Grid1D
from tamedspde.noise import QWienerSpec
from tamedspde.schemes import InitialCondition, SchemeConfig

import settings


def round_seed(seed: int, round_index: int) -> int:
    """Master seed of one round: a pure function of (--seed, round index)."""
    ss = np.random.SeedSequence([seed % 2**64, round_index])
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


@dataclass
class Round:
    """What one round attempted, lost, and returned for the check."""

    attempted: int
    failed: int
    payload: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Checks (pure functions of numbers, so the self-test can feed them failures)
# ---------------------------------------------------------------------------


def loglog_fit(x, y):
    """Least-squares line through (log x, log y): (slope, intercept, R^2)."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    dx, dy = lx - lx.mean(), ly - ly.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    intercept = float(ly.mean() - slope * lx.mean())
    ss_res = float(np.sum((ly - (slope * lx + intercept)) ** 2))
    ss_tot = float(np.sum(dy * dy))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def check_ladder(xs, errors, slope_band, min_r_squared=None):
    """(failures, fit) of a strong-error ladder against its rate band.

    The errors must be finite and positive, fall strictly as the step (or
    mesh width) shrinks, and follow a log-log slope inside ``slope_band``
    with R^2 >= ``min_r_squared`` when that is given.
    """
    xs = np.asarray(xs, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    failures = []
    if not np.all(np.isfinite(errors)) or np.any(errors <= 0):
        return [f"errors not finite and positive: {errors.tolist()}"], {}
    order = np.argsort(xs)[::-1]  # coarse to fine
    if not np.all(np.diff(errors[order]) < 0):
        failures.append(
            f"errors do not fall strictly as the step shrinks: {errors[order].tolist()}"
        )
    slope, _, r2 = loglog_fit(xs, errors)
    lo, hi = slope_band
    if not lo <= slope <= hi:
        failures.append(f"slope {slope:.4f} outside [{lo}, {hi}]")
    if min_r_squared is not None and r2 < min_r_squared:
        failures.append(f"R^2 {r2:.4f} < {min_r_squared}")
    return failures, {"slope": slope, "r_squared": r2}


def x0_l2_sq(amplitude: float, h: float) -> float:
    """Mass-norm square of the interpolant of amplitude * sin(pi x), in closed form."""
    return amplitude**2 * (2.0 + math.cos(math.pi * h)) / 6.0


def check_longrun(
    steps, mean_l2_sq, std_error, n_blowups, k1, k2, tau, h, amplitude, expected_steps
):
    """(failures, smallest margin) of a long-run moment series against the envelope.

    E||Z_n||^2 <= K2/K1 + exp(-K1 tau n) ||X0||^2 + 3 SE at every recorded
    step, no blow-ups, the recorded steps as requested, and the step-0 moment
    equal to the closed form to 1e-12 relative.
    """
    steps = np.asarray(steps)
    mean = np.asarray(mean_l2_sq, dtype=np.float64)
    se = np.asarray(std_error, dtype=np.float64)
    failures = []
    if n_blowups:
        failures.append(f"{n_blowups} paths blew up")
    if steps.shape != np.shape(expected_steps) or np.any(steps != expected_steps):
        failures.append(f"recorded steps {steps.tolist()} != {list(expected_steps)}")
        return failures, float("nan")
    x0 = x0_l2_sq(amplitude, h)
    if not abs(mean[0] - x0) <= 1e-12 * x0:
        failures.append(f"step-0 moment {mean[0]!r} != closed form {x0!r}")
    envelope = k2 / k1 + np.exp(-k1 * tau * steps) * x0
    excess = mean - (envelope + 3.0 * se)
    if not np.all(excess <= 0.0):
        bad = int(np.argmax(excess))
        failures.append(
            f"moment {mean[bad]:.6g} above envelope {envelope[bad]:.6g} + 3 SE "
            f"at step {int(steps[bad])}"
        )
    return failures, float(-excess.max())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class LadderWorkload:
    """A coupled strong-error ladder (temporal or spatial) for additive Allen-Cahn."""

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.paths_per_round = spec["paths_per_round"]
        self.grid = Grid1D(spec["ref_cells"])
        self.noise = QWienerSpec(
            settings.NOISE_DECAY, settings.NOISE_SCALE, self.grid.n_interior
        )
        self.x0 = InitialCondition("sine", amplitude=settings.LADDER_AMPLITUDE)
        self.ladder = (
            {"coarse_taus": list(spec["coarse"])}
            if spec["axis"] == "tau"
            else {"coarse_n_cells": list(spec["coarse"])}
        )
        self.ref_steps = round(1.0 / spec["ref_tau"])
        self.path_steps_per_round = self.paths_per_round * self.ref_steps

    def reference(self, round_index: int) -> SchemeConfig:
        return SchemeConfig(
            tau=self.spec["ref_tau"],
            grid=self.grid,
            horizon=1.0,
            scheme=settings.LADDER_SCHEME,
            coefficients=allen_cahn(1.0),
            noise=self.noise,
            seed=round_seed(self.seed, round_index),
        )

    def run_round(self, round_index: int) -> Round:
        table = convergence.strong_error_ladder(
            self.reference(round_index), self.x0, self.paths_per_round, **self.ladder
        )
        x = [r.tau if self.spec["axis"] == "tau" else r.h for r in table.rows]
        return Round(
            attempted=self.paths_per_round,
            failed=max(r.n_excluded for r in table.rows),
            payload={
                "x": x,
                "rms": [r.rms_sup_error for r in table.rows],
                "n_paths": [r.n_paths for r in table.rows],
            },
        )

    def check(self, rounds):
        """Pool the rounds' mean square errors per ladder member, then fit."""
        done = [r for r in rounds if r.payload]
        if not done:
            return ["no round finished"], {}
        expected = sorted(
            self.spec["coarse"]
            if self.spec["axis"] == "tau"
            else [1.0 / c for c in self.spec["coarse"]]
        )
        for r in done:
            if sorted(r.payload["x"]) != expected:
                return [f"ladder members {r.payload['x']} != {expected}"], {}
        n = np.array([r.payload["n_paths"] for r in done], dtype=np.float64)
        ms = np.array([r.payload["rms"] for r in done]) ** 2
        pooled = np.sqrt(np.sum(n * ms, axis=0) / np.sum(n, axis=0))
        x = done[0].payload["x"]
        failures, fit = check_ladder(
            x, pooled, self.spec["slope_band"], self.spec["min_r_squared"]
        )
        fit["x"] = list(x)
        fit["pooled_rms"] = pooled.tolist()
        fit["paths"] = int(n[:, 0].sum())
        return failures, fit


class LongRunWorkload:
    """The certified infinite-horizon moment bound for Allen-Cahn with GTEM."""

    def __init__(self, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.paths_per_round = spec["paths_per_round"]
        self.grid = Grid1D(spec["n_cells"])
        self.noise = QWienerSpec(
            settings.NOISE_DECAY, settings.NOISE_SCALE, self.grid.n_interior
        )
        self.report = coefficients.check_assumptions(allen_cahn(1.0), self.noise)
        if not self.report.feasible or spec["tau"] > self.report.tau_max:
            raise RuntimeError(
                f"tau = {spec['tau']} is not certified (tau_max = {self.report.tau_max})"
            )
        self.x0 = InitialCondition("sine", amplitude=spec["amplitude"]).build(self.grid)
        self.path_steps_per_round = self.paths_per_round * spec["n_steps"]

    def config(self, round_index: int) -> SchemeConfig:
        tau = self.spec["tau"]
        return SchemeConfig(
            tau=tau,
            grid=self.grid,
            horizon=tau * self.spec["n_steps"],
            scheme=settings.LONGRUN_SCHEME,
            coefficients=allen_cahn(1.0),
            noise=self.noise,
            seed=round_seed(self.seed, round_index),
        )

    def run_round(self, round_index: int) -> Round:
        res = ergodicity.long_run_moment_test(
            self.config(round_index),
            self.x0,
            n_paths=self.paths_per_round,
            report=self.report,
            record_stride=self.spec["record_stride"],
        )
        return Round(
            attempted=self.paths_per_round,
            failed=res.n_blowups,
            payload={
                "steps": res.steps.tolist(),
                "mean_l2_sq": res.mean_l2_sq.tolist(),
                "std_error": res.std_error.tolist(),
                "n_blowups": res.n_blowups,
            },
        )

    def check(self, rounds):
        """Every finished round must satisfy the envelope on its own."""
        done = [r for r in rounds if r.payload]
        if not done:
            return ["no round finished"], {}
        spec = self.spec
        expected = np.arange(0, spec["n_steps"] + 1, spec["record_stride"])
        k1, k2 = self.report.lyap_contraction, self.report.lyap_source
        failures, margins = [], []
        for i, r in enumerate(done):
            p = r.payload
            msgs, margin = check_longrun(
                p["steps"], p["mean_l2_sq"], p["std_error"], p["n_blowups"],
                k1, k2, spec["tau"], self.grid.h, spec["amplitude"], expected,
            )
            failures += [f"round {i}: {m}" for m in msgs]
            margins.append(margin)
        return failures, {"K1": k1, "K2": k2, "min_envelope_margin": min(margins)}


def build(name: str, seed: int, spec: dict | None = None):
    """Set up the named workload: its inputs and any assumption scan."""
    spec = settings.WORKLOADS[name] if spec is None else spec
    if spec["kind"] == "ladder":
        return LadderWorkload(spec, seed)
    return LongRunWorkload(spec, seed)
