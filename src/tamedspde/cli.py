"""Configuration-driven experiment runner.

Usage:

    tamedspde run <config.ini> [--output DIR]
    tamedspde list-presets

The config file is flat INI (key = value under sections); every run
validates the file against the schema before any computation, writes the
resolved configuration next to its outputs, and emits CSV tables plus a
plain-text verdict summary.  Exit codes: 0 all asserted checks pass,
1 a scientific check failed, 2 configuration error, 3 numerical failure
during compute (every path blew up, or a tridiagonal LDL^T factorization
or solve failed).

The TAMEDSPDE_WORKERS environment variable sets the worker-thread count
for Monte Carlo paths; it affects runtime only, never results.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from . import convergence, ergodicity
from .coefficients import PRESETS, CoefficientSpec, check_assumptions
from .engine import BatchChains, EnsembleNoise
from .grid import Grid1D
from .noise import QWienerSpec
from .reporting import CheckResult, write_csv, write_verdicts
from .schemes import InitialCondition, Scheme, SchemeConfig

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


class ConfigError(Exception):
    pass


class ConfigReader:
    """Typed access to an INI file with field-qualified error messages."""

    def __init__(self, path: Path):
        self.parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path, encoding="utf-8") as fh:
                self.parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}")

    def _raw(self, section: str, key: str, default):
        if not self.parser.has_option(section, key):
            if default is _REQUIRED:
                raise ConfigError(f"missing required field [{section}] {key}")
            return None
        return self.parser.get(section, key).strip()

    def get_str(self, section, key, default=None, choices=None):
        raw = self._raw(section, key, default)
        val = default if raw is None else raw
        if choices is not None and val not in choices:
            raise ConfigError(
                f"[{section}] {key} = {val!r} is not one of {sorted(choices)}"
            )
        return val

    def get_int(self, section, key, default=None, minimum=None, maximum=None):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            val = int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer")
        _check_range(section, key, val, minimum, maximum)
        return val

    def get_float(self, section, key, default=None, minimum=None, maximum=None,
                  exclusive_min=None):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a number")
        if exclusive_min is not None and val <= exclusive_min:
            raise ConfigError(
                f"[{section}] {key} = {val} must be > {exclusive_min}"
            )
        _check_range(section, key, val, minimum, maximum)
        return val

    def _get_list(self, section, key, default, cast, what):
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            values = [cast(tok.strip()) for tok in raw.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not {what}")
        if not values:
            raise ConfigError(f"[{section}] {key} is empty; expected {what}")
        return values

    def get_float_list(self, section, key, default=None):
        return self._get_list(section, key, default, float, "a number list")

    def get_int_list(self, section, key, default=None):
        return self._get_list(section, key, default, int, "an integer list")

    def get_str_list(self, section, key, default=None):
        return self._get_list(section, key, default, str, "a name list")


_REQUIRED = object()  # default= sentinel: the field has no default


def _check_range(section, key, val, minimum, maximum):
    if minimum is not None and val < minimum:
        raise ConfigError(f"[{section}] {key} = {val} must be >= {minimum}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"[{section}] {key} = {val} must be <= {maximum}")


# ---------------------------------------------------------------------------
# Config assembly
# ---------------------------------------------------------------------------


def _build_coefficients(cfg: ConfigReader) -> CoefficientSpec:
    variant = cfg.get_str("coefficients", "variant")
    if variant is not None:  # rejected, not mapped: the scheme says what is tamed
        kind = {"both_a": "gtem", "both_b": "gtem_b", "drift_only": "drift_gtem"}.get(
            variant, "gtem, gtem_b or drift_gtem")
        raise ConfigError(f"[coefficients] variant was removed; set [scheme] kind = {kind}")
    preset = cfg.get_str("coefficients", "preset", default="")
    if preset:
        if preset not in PRESETS:
            raise ConfigError(
                f"[coefficients] preset = {preset!r} is not one of {sorted(PRESETS)}"
            )
        factory = PRESETS[preset][0]
        if preset == "allen-cahn":
            eps = cfg.get_float("coefficients", "epsilon", default=1.0, exclusive_min=0.0)
            g0 = cfg.get_float("coefficients", "g0", default=1.0)
            return factory(eps, g0)
        return factory()
    drift = cfg.get_float_list("coefficients", "drift", default=_REQUIRED)
    diffusion = cfg.get_float_list("coefficients", "diffusion", default=_REQUIRED)
    q = cfg.get_int("coefficients", "q", default=_REQUIRED, minimum=0)
    kind = cfg.get_str(
        "coefficients", "diffusion_kind", default="polynomial",
        choices={"polynomial", "sqrt_quadratic"},
    )
    try:
        return CoefficientSpec(
            drift=tuple(drift), diffusion=tuple(diffusion), q=q,
            diffusion_kind=kind,
        )
    except ValueError as exc:
        raise ConfigError(f"[coefficients] {exc}")


def _build_noise(cfg: ConfigReader, grid: Grid1D) -> QWienerSpec:
    decay = cfg.get_float("noise", "decay", default=3.0, exclusive_min=1.0)
    scale = cfg.get_float("noise", "scale", default=1.0, exclusive_min=0.0)
    raw_trunc = cfg.get_str("noise", "truncation", default="auto")
    if raw_trunc == "auto":
        truncation = grid.n_interior
    else:
        truncation = cfg.get_int("noise", "truncation", minimum=1,
                                 maximum=grid.n_interior)
    return QWienerSpec(decay, scale, truncation)


def _build_scheme_config(cfg: ConfigReader, seed: int) -> SchemeConfig:
    n_cells = cfg.get_int("grid", "n_cells", default=_REQUIRED, minimum=2)
    grid = Grid1D(n_cells)
    tau = cfg.get_float("scheme", "tau", default=_REQUIRED, exclusive_min=0.0,
                        maximum=1.0)
    horizon = cfg.get_float("scheme", "horizon", default=_REQUIRED, exclusive_min=0.0)
    kind = cfg.get_str("scheme", "kind", default="gtem",
                       choices={s.value for s in Scheme})
    coefficients = _build_coefficients(cfg)
    noise = _build_noise(cfg, grid)
    try:
        return SchemeConfig(
            tau=tau, grid=grid, horizon=horizon, scheme=kind,
            coefficients=coefficients, noise=noise, seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"[scheme] {exc}")


def _build_initial(cfg: ConfigReader) -> InitialCondition:
    kind = cfg.get_str("initial", "kind", default="zero",
                       choices={"zero", "sine", "const", "bump"})
    return InitialCondition(
        kind=kind,
        amplitude=cfg.get_float("initial", "amplitude", default=1.0),
        mode=cfg.get_int("initial", "mode", default=1, minimum=1),
        center=cfg.get_float("initial", "center", default=0.5),
        width=cfg.get_float("initial", "width", default=0.1, exclusive_min=0.0),
    )


def _echo_resolved(cfg: ConfigReader, out_dir: Path) -> None:
    echo = configparser.ConfigParser()
    for section in cfg.parser.sections():
        echo[section] = dict(cfg.parser.items(section))
    with open(out_dir / "resolved_config.ini", "w", encoding="utf-8") as fh:
        echo.write(fh)


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------


def _assumption_report(cfg: ConfigReader, spec: CoefficientSpec, noise: QWienerSpec):
    """``check_assumptions`` on the scan the [assumptions] section sets."""
    radius = cfg.get_float("assumptions", "scan_radius", default=20.0, minimum=10.0)
    points = cfg.get_int("assumptions", "scan_points", default=200_001, minimum=10_000)
    return check_assumptions(spec, noise, scan_radius=radius, scan_points=points)


def _run_check_assumptions(cfg: ConfigReader, out: Path, seed: int) -> list:
    grid = Grid1D(cfg.get_int("grid", "n_cells", default=256, minimum=2))
    report = _assumption_report(cfg, _build_coefficients(cfg), _build_noise(cfg, grid))
    rows = [
        ("feasible", report.feasible),
        ("q_flag_outside_supported_range", report.q_flag),
        ("c_q_noise_sup_constant", report.c_q),
        ("coercive_offset_L1", report.coercive_offset),
        ("coercive_decay_L2", report.coercive_decay),
        ("growth_offset_L3", report.growth_offset),
        ("growth_scale_L4", report.growth_scale),
        ("one_sided_lipschitz", report.one_sided_lipschitz),
        ("derivative_growth", report.derivative_growth),
        ("tamed_derivative_bound", report.tamed_derivative_bound),
        ("second_derivative_offset", report.second_derivative_offset),
        ("second_derivative_scale", report.second_derivative_scale),
        ("beta", report.beta),
        ("alpha", report.alpha),
        ("lyapunov_contraction_K1", report.lyap_contraction),
        ("lyapunov_source_K2", report.lyap_source),
        ("tau_max_certified_step_ceiling", report.tau_max),
    ]
    write_csv(out / "assumption_report.csv", ["constant", "value"], rows)
    checks = [
        CheckResult(
            "assumptions-feasible",
            report.feasible,
            "all structural inequalities certified on the scan"
            if report.feasible
            else "; ".join(
                f"{v.inequality} violated at xi={v.witness:g} ({v.detail})"
                for v in report.violations
            ),
        )
    ]
    if report.q_flag:
        checks.append(
            CheckResult(
                "q-range-note", True,
                "q = 0 lies outside the supported q > 0 range; constants reported anyway",
            )
        )
    return checks


SIMULATE_OBSERVABLES = ("h1_sq", "l2_sq", "lq2", "lyapunov")


def _run_simulate(cfg: ConfigReader, out: Path, seed: int) -> list:
    config = _build_scheme_config(cfg, seed)
    x0 = _build_initial(cfg).build(config.grid)
    stride = cfg.get_int("monte_carlo", "record_stride", default=1, minimum=1)
    path_id = cfg.get_int("monte_carlo", "path_id", default=0, minimum=0)
    chain = BatchChains(config, x0.values)
    fns = [ergodicity.OBSERVABLE_ROWS[name] for name in SIMULATE_OBSERVABLES]
    rows = []

    def record(step, states):
        rows.append(
            [step, step * config.tau] + [float(fn(states, config)[0]) for fn in fns]
        )

    chain.run(EnsembleNoise(config, [path_id]), config.n_steps, stride, record)
    write_csv(out / "trajectory.csv", ["step", "time", *SIMULATE_OBSERVABLES], rows)
    blowup_step = int(chain.blowup_step[0])
    blew = blowup_step >= 0
    return [
        CheckResult(
            "simulate-completed",
            not blew,
            f"blow-up at step {blowup_step}" if blew else
            f"{config.n_steps} steps recorded every {stride}",
        )
    ]


def _run_lyapunov(cfg: ConfigReader, out: Path, seed: int) -> list:
    config = _build_scheme_config(cfg, seed)
    report = _assumption_report(cfg, config.coefficients, config.noise)
    amps = cfg.get_float_list("lyapunov", "amplitudes",
                              default=[float(a) for a in range(0, 11)])
    samples = cfg.get_int("lyapunov", "samples", default=10_000, minimum=1000)
    anchors = [
        InitialCondition("sine", amplitude=a).build(config.grid) for a in amps
    ]
    probes = ergodicity.lyapunov_contraction_test(config, anchors, samples, report)
    write_csv(
        out / "lyapunov_contraction.csv",
        ["experiment", "anchor_amplitude", "anchor_l2_sq", "anchor_V",
         "estimated_E_V_Z1", "mc_std_error", "contraction_bound", "n_samples",
         "passed"],
        [
            ("lyapunov", a, p.anchor_l2_sq, p.anchor_V, p.estimate, p.std_error,
             p.bound, p.n_samples, p.passed)
            for a, p in zip(amps, probes)
        ],
    )
    n_fail = sum(not p.passed for p in probes)
    return [
        CheckResult(
            "lyapunov-one-step-contraction",
            n_fail == 0,
            f"{len(probes) - n_fail}/{len(probes)} anchors within "
            "(1 - K1 tau) ||x||^2 + K2 tau + 3 SE",
        )
    ]


def _run_longrun(cfg: ConfigReader, out: Path, seed: int) -> list:
    config = _build_scheme_config(cfg, seed)
    report = _assumption_report(cfg, config.coefficients, config.noise)
    x0 = _build_initial(cfg).build(config.grid)
    paths = cfg.get_int("monte_carlo", "paths", default=100, minimum=2)
    stride = cfg.get_int("monte_carlo", "record_stride", default=1000, minimum=1)
    res = ergodicity.long_run_moment_test(config, x0, paths, report, stride)
    write_csv(
        out / "longrun_moments.csv",
        ["experiment", "step", "time", "mean_l2_sq", "mc_std_error",
         "envelope_K2_over_K1_plus_decay"],
        [
            ("longrun", int(s), float(s * config.tau), m, se, e)
            for s, m, se, e in zip(res.steps, res.mean_l2_sq, res.std_error, res.envelope)
        ],
    )
    return [
        CheckResult(
            "longrun-moment-envelope",
            res.passed,
            f"E||Z_n||^2 under envelope + 3 SE at all {len(res.steps)} recorded "
            f"times; blow-ups: {res.n_blowups}",
        )
    ]


def _run_coupling(cfg: ConfigReader, out: Path, seed: int) -> list:
    config = _build_scheme_config(cfg, seed)
    amp_a = cfg.get_float("coupling", "amplitude_a", default=0.0)
    amp_b = cfg.get_float("coupling", "amplitude_b", default=5.0)
    steps = cfg.get_int("coupling", "steps", default=200, minimum=10)
    paths = cfg.get_int("monte_carlo", "paths", default=100, minimum=1)
    x0a = InitialCondition("sine", amplitude=amp_a).build(config.grid)
    x0b = InitialCondition("sine", amplitude=amp_b).build(config.grid)
    res = ergodicity.coupling_decay_test(config, x0a, x0b, steps, paths)
    write_csv(
        out / "coupling_distance.csv",
        ["experiment", "step", "time", "mean_l2_distance"],
        [("coupling", int(s), float(s * config.tau), d)
         for s, d in zip(res.steps, res.mean_distance)],
    )
    min_r2 = cfg.get_float("coupling", "min_r_squared", default=0.9)
    ok = res.slope is not None and res.slope < 0 and res.r_squared >= min_r2
    detail = (
        "distance identically zero (identical initial data)"
        if res.slope is None
        else f"slope {res.slope:.6f}/step, R^2 = {res.r_squared:.4f}"
    )
    if res.slope is None and amp_a == amp_b:
        ok = True
    write_csv(
        out / "coupling_fit.csv",
        ["experiment", "slope_per_step", "intercept", "r_squared", "n_paths", "passed"],
        [("coupling", res.slope, res.intercept, res.r_squared, res.n_paths, ok)],
    )
    return [CheckResult("coupling-geometric-decay", ok, detail)]


def _run_ergodic(cfg: ConfigReader, out: Path, seed: int) -> list:
    config = _build_scheme_config(cfg, seed)
    amps = cfg.get_float_list("ergodic", "amplitudes", default=[0.0, 5.0])
    observables = cfg.get_str_list("ergodic", "observables", default=["l2_sq"])
    for name in observables:
        if name not in ergodicity.OBSERVABLE_ROWS:
            raise ConfigError(
                f"[ergodic] observables: {name!r} is not one of "
                f"{sorted(ergodicity.OBSERVABLE_ROWS)}"
            )
    tol = cfg.get_float("ergodic", "tolerance", default=0.05, exclusive_min=0.0)
    frac = cfg.get_float("ergodic", "burn_in_fraction", default=0.2,
                         minimum=0.0, maximum=0.9)
    stride = cfg.get_int("monte_carlo", "record_stride", default=1, minimum=1)
    burn = int(frac * config.n_steps)
    x0s = [InitialCondition("sine", amplitude=a).build(config.grid) for a in amps]
    estimates = ergodicity.ergodic_limit_test(
        config, observables, x0s, burn, tolerance=tol, record_stride=stride
    )
    rows = []
    for est in estimates:
        for amp, avg, se in zip(amps, est.time_averages, est.std_errors):
            rows.append(("ergodic", est.observable, amp, avg, se,
                         est.ensemble_average, est.max_rel_disagreement, est.passed))
    write_csv(
        out / "ergodic_averages.csv",
        ["experiment", "observable", "x0_amplitude", "time_average",
         "batch_means_std_error", "ensemble_average", "max_rel_disagreement",
         "passed"],
        rows,
    )
    checks = []
    for est in estimates:
        detail = (
            f"max relative disagreement {est.max_rel_disagreement:.4f} "
            f"(tolerance {tol})"
        )
        if est.widened_ci:
            detail += "; WARNING: horizon short, CI wider than tolerance"
        checks.append(CheckResult(f"ergodic-agreement-{est.observable}", est.passed, detail))
    return checks


def _run_blowup(cfg: ConfigReader, out: Path, seed: int) -> list:
    config = _build_scheme_config(cfg, seed)
    amps = cfg.get_float_list("blowup", "amplitudes", default=[1.0, 3.0, 5.0])
    paths = cfg.get_int("monte_carlo", "paths", default=100, minimum=1)
    rows = ergodicity.em_blowup_probe(config, amps, paths)
    write_csv(
        out / "blowup_frequencies.csv",
        ["experiment", "x0_amplitude", "tau", "untamed_blowup_frequency",
         "tamed_blowup_frequency", "n_paths"],
        [("blowup", r.amplitude, r.tau, r.untamed_frequency, r.tamed_frequency,
          r.n_paths) for r in rows],
    )
    min_freq = cfg.get_float("blowup", "min_untamed_frequency", default=None)
    checks = [
        CheckResult(
            "tamed-never-blows-up",
            all(r.tamed_frequency == 0.0 for r in rows),
            "tamed twin on identical noise never trips the overflow guard",
        )
    ]
    if min_freq is not None:
        worst = max(r.untamed_frequency for r in rows)
        checks.append(
            CheckResult(
                "untamed-blowup-frequency",
                worst >= min_freq,
                f"max untamed frequency {worst:.2f} (required >= {min_freq})",
            )
        )
    return checks


def _slope_checks(cfg: ConfigReader, section: str, fit, label: str) -> list:
    checks = []
    lo = cfg.get_float(section, "min_slope", default=None)
    hi = cfg.get_float(section, "max_slope", default=None)
    min_r2 = cfg.get_float(section, "min_r_squared", default=None)
    if lo is not None or hi is not None:
        ok = (lo is None or fit.slope >= lo) and (hi is None or fit.slope <= hi)
        checks.append(
            CheckResult(
                f"{label}-slope", ok,
                f"fitted slope {fit.slope:.4f} (band [{lo}, {hi}])",
            )
        )
    if min_r2 is not None:
        checks.append(
            CheckResult(
                f"{label}-fit-quality", fit.r_squared >= min_r2,
                f"R^2 = {fit.r_squared:.4f} (required >= {min_r2})",
            )
        )
    return checks


def _rate_ladder(cfg: ConfigReader, key: str) -> list:
    """The required [ladder] list ``taus`` or ``n_cells``, long enough for a rate fit.

    Checked before any stepping: a shorter ladder could never be fitted.
    """
    get = cfg.get_float_list if key == "taus" else cfg.get_int_list
    values = get("ladder", key, default=_REQUIRED)
    if len(values) < convergence.MIN_FIT_POINTS:
        raise ConfigError(
            f"[ladder] {key} lists {len(values)} values; a rate fit needs "
            f">= {convergence.MIN_FIT_POINTS}"
        )
    if key == "n_cells":
        _check_range("ladder", key, min(values), 2, None)
    return values


def _write_plot_data(path: Path, xs, ys, fit) -> None:
    rows = [
        (x, y, float(np.exp(fit.intercept) * x**fit.slope)) for x, y in zip(xs, ys)
    ]
    write_csv(path, ["x_step_or_width", "measured_error", "fitted_power_law"], rows)


def _run_strong_rate(cfg: ConfigReader, out: Path, seed: int) -> list:
    reference = _build_scheme_config(cfg, seed)
    x0 = _build_initial(cfg)
    paths = cfg.get_int("monte_carlo", "paths", default=100, minimum=2)
    axis = cfg.get_str("ladder", "axis", default=_REQUIRED, choices={"tau", "h"})
    if axis == "tau":
        taus = _rate_ladder(cfg, "taus")
        table = convergence.strong_error_ladder(
            reference, x0, paths, coarse_taus=taus
        )
    else:
        cells = _rate_ladder(cfg, "n_cells")
        table = convergence.strong_error_ladder(
            reference, x0, paths, coarse_n_cells=cells
        )
    write_csv(
        out / "strong_error_table.csv",
        ["tau", "h", "n_paths", "rms_sup_t_l2_error", "mc_std_error",
         "excluded_blowup_paths", "ref_tau", "ref_h"],
        [
            (r.tau, r.h, r.n_paths, r.rms_sup_error, r.std_error, r.n_excluded,
             table.ref_tau, 1.0 / table.ref_n_cells)
            for r in table.rows
        ],
    )
    try:
        fit = convergence.fit_rate(table)
    except convergence.RateFitError as exc:  # the ladder ran; its errors are the finding
        return [CheckResult("strong-rate-fit", False, str(exc))]
    _write_plot_data(out / "strong_error_plot.csv", table.x_values(),
                     [r.rms_sup_error for r in table.rows], fit)
    write_csv(
        out / "rate_fit.csv",
        ["axis", "slope", "intercept", "r_squared", "n_points", "excluded_zero_rows"],
        [(axis, fit.slope, fit.intercept, fit.r_squared, fit.n_points, fit.n_excluded)],
    )
    return _slope_checks(cfg, "ladder", fit, "strong-rate") or [
        CheckResult("strong-rate-computed", True,
                    f"slope {fit.slope:.4f}, R^2 {fit.r_squared:.4f}")
    ]


def _run_semigroup_rate(cfg: ConfigReader, out: Path, seed: int) -> list:
    axis = cfg.get_str("ladder", "axis", default=_REQUIRED, choices={"tau", "h"})
    t = cfg.get_float("ladder", "t", default=1.0, exclusive_min=0.0)
    if axis == "h":
        cells = _rate_ladder(cfg, "n_cells")
        taus = cfg.get_float_list("ladder", "taus", default=None)
        if taus is None:
            taus = [t / nc**2 for nc in cells]
    else:
        taus = _rate_ladder(cfg, "taus")
        nc = cfg.get_int("ladder", "fixed_n_cells", default=256, minimum=2)
        cells = [nc] * len(taus)
    # A higher mode aliases on the coarsest mesh.
    mode = cfg.get_int("ladder", "mode", default=1, minimum=1, maximum=min(cells) - 1)
    xs, errors, fit = convergence.semigroup_error_test(cells, taus, axis, mode=mode, t=t)
    write_csv(
        out / "semigroup_error_table.csv",
        ["n_cells", "h", "tau", "l2_error_at_t", "time_t"],
        [(c, 1.0 / c, tau, e, t) for c, tau, e in zip(cells, taus, errors)],
    )
    _write_plot_data(out / "semigroup_error_plot.csv", xs, errors, fit)
    return _slope_checks(cfg, "ladder", fit, "semigroup-rate") or [
        CheckResult("semigroup-rate-computed", True,
                    f"slope {fit.slope:.4f}, R^2 {fit.r_squared:.4f}")
    ]


# One runner per experiment kind; the config's [experiment] kind picks it.
RUNNERS = {
    "simulate": _run_simulate,
    "lyapunov": _run_lyapunov,
    "longrun": _run_longrun,
    "coupling": _run_coupling,
    "ergodic": _run_ergodic,
    "blowup": _run_blowup,
    "strong-rate": _run_strong_rate,
    "semigroup-rate": _run_semigroup_rate,
    "check-assumptions": _run_check_assumptions,
}
KINDS = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_experiment(config_path: Path, output_override=None) -> int:
    try:
        cfg = ConfigReader(config_path)
        kind = cfg.get_str("experiment", "kind", default=_REQUIRED, choices=set(KINDS))
        seed = cfg.get_int("experiment", "seed", default=_REQUIRED)
        out_dir = Path(
            output_override
            or cfg.get_str("experiment", "output_dir", default=_REQUIRED)
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo_resolved(cfg, out_dir)
        checks = RUNNERS[kind](cfg, out_dir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except RuntimeError as exc:  # every path blew up, or an LDL^T factor or solve failed
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    ok = write_verdicts(out_dir / "verdict.txt", checks)
    for line in (out_dir / "verdict.txt").read_text(encoding="utf-8").splitlines():
        print(line)
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def list_presets() -> str:
    lines = ["built-in coefficient presets:"]
    for name, (factory, desc, (decay, scale)) in PRESETS.items():
        spec = factory()
        lines.append(
            f"  {name}: {desc}\n"
            f"      drift = {spec.drift}, diffusion = {spec.diffusion}, "
            f"q = {spec.q}\n"
            f"      default noise: eigenvalue decay k^-{decay:g}, scale {scale:g}, "
            f"truncation tied to the mesh"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tamedspde",
        description="Experiment runner for tamed semi-implicit SPDE schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--output", type=Path, default=None,
                       help="override [experiment] output_dir")
    sub.add_parser("list-presets", help="print the built-in coefficient presets")
    args = parser.parse_args(argv)
    if args.command == "list-presets":
        print(list_presets())
        return EXIT_PASS
    return run_experiment(args.config, args.output)


if __name__ == "__main__":
    sys.exit(main())
