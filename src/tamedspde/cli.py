"""Configuration-driven experiment runner.

Usage:

    tamedspde run <config.ini> [--output DIR]
    tamedspde list-presets

The config file is flat INI (key = value under sections).  ``KEYS``
declares each key once: its type, default and bounds.  ``read_config`` is
the parse phase: a key no kind reads is an error, and so is a key off its
default that the run does not read (``_unread``); a section only another
kind reads is accepted.  Each key the kind reads is parsed and checked,
then the checks tying one value to another, which drop the keys the run
does not read, then the build step makes the model objects from the map
and runs the model's own checks (``_build``).  Every config error (exit 2)
is raised there, before the output directory is made; an output directory
that cannot be made or written is one too.  Then a run writes the parsed
map (``resolved_config.ini``), computes, and emits CSV tables and a
plain-text verdict.  Exit codes: 0 all asserted checks pass, 1 a scientific
check failed, 2 configuration error, 3 numerical failure during compute
(every path blew up, or a tridiagonal LDL^T factorization or solve failed),
4 program fault: any other exception, its traceback printed to stderr (a
C kernel that fails to build, ``kernel.KernelBuildError``, included).

The TAMEDSPDE_WORKERS environment variable sets the worker-thread count
for Monte Carlo paths; it affects runtime only, never results.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import sys
import traceback
from collections.abc import Collection
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args

import numpy as np

from . import __version__, convergence, ergodicity
from .coefficients import PRESETS, CoefficientSpec, check_assumptions
from .engine import BatchChains
from .grid import Grid1D
from .kernel import KernelBuildError
from .noise import QWienerSpec
from .parallel import worker_count
from .reporting import CheckResult, format_value, write_csv, write_verdicts
from .schemes import INITIAL_FIELDS, InitialCondition, Scheme, SchemeConfig

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3
EXIT_PROGRAM_FAULT = 4


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Key:
    """One config key: its type (int, float, str, or a ``list[...]`` of one),
    its default (``...`` for a required key) and the bounds a value given in
    the file must meet: ``v > above``, ``lo <= v <= hi``, ``v in choices``.
    A list meets them item by item; a default is valid by declaration."""

    type: type
    default: object = None
    lo: float | None = None
    hi: float | None = None
    above: float | None = None
    choices: Collection | None = None


# The sections each experiment kind reads; [experiment] is read by all.
MODEL = ("grid", "scheme", "coefficients", "noise")
KIND_SECTIONS = {
    "simulate": (*MODEL, "initial", "monte_carlo"),
    "lyapunov": (*MODEL, "assumptions", "lyapunov"),
    "longrun": (*MODEL, "assumptions", "initial", "monte_carlo"),
    "coupling": (*MODEL, "coupling", "monte_carlo"),
    "ergodic": (*MODEL, "ergodic", "monte_carlo"),
    "blowup": (*MODEL, "blowup", "monte_carlo"),
    "strong-rate": (*MODEL, "initial", "monte_carlo", "ladder"),
    "semigroup-rate": ("ladder",),
    "check-assumptions": ("grid", "coefficients", "noise", "assumptions"),
}
KINDS = tuple(KIND_SECTIONS)

# Every (section, key) that some experiment kind reads.  Anything else is
# rejected: a misspelled key would otherwise run its default unnoticed.
KEYS = {
    "experiment": {"kind": Key(str, ..., choices=KINDS), "seed": Key(int, ...),
                   "output_dir": Key(str)},  # required unless --output is given
    "grid": {"n_cells": Key(int, ..., lo=2)},
    "scheme": {"kind": Key(str, "gtem", choices={s.value for s in Scheme}),
               "tau": Key(float, ..., hi=1.0, above=0.0),
               "horizon": Key(float, ..., above=0.0)},
    "coefficients": {  # drift, diffusion and q are required without a preset
        "preset": Key(str, "", choices=PRESETS),
        "epsilon": Key(float, 1.0, above=0.0), "g0": Key(float, 1.0),
        "drift": Key(list[float]), "diffusion": Key(list[float]), "q": Key(int, lo=0),
        "diffusion_kind": Key(str, "polynomial", choices={"polynomial", "sqrt_quadratic"})},
    "noise": {"decay": Key(float, 3.0, above=1.0), "scale": Key(float, 1.0, above=0.0),
              "truncation": Key(str, "auto")},  # or an integer up to the interior nodes
    "initial": {"kind": Key(str, "zero", choices=INITIAL_FIELDS),
                "amplitude": Key(float, 1.0), "mode": Key(int, 1, lo=1),
                "center": Key(float, 0.5), "width": Key(float, 0.1, above=0.0)},
    "monte_carlo": {"paths": Key(int, 100, lo=1), "record_stride": Key(int, 1, lo=1),
                    "path_id": Key(int, 0, lo=0)},
    "assumptions": {"scan_radius": Key(float, 20.0, lo=10.0),
                    "scan_points": Key(int, 200_001, lo=10_000)},
    "lyapunov": {"amplitudes": Key(list[float], tuple(float(a) for a in range(0, 11))),
                 "samples": Key(int, 10_000, lo=1000)},
    "coupling": {"amplitude_a": Key(float, 0.0), "amplitude_b": Key(float, 5.0),
                 "steps": Key(int, 200, lo=10), "min_r_squared": Key(float, 0.9, hi=1.0)},
    "ergodic": {"amplitudes": Key(list[float], (0.0, 5.0)),
                "observables": Key(list[str], ("l2_sq",), choices=ergodicity.OBSERVABLE_ROWS),
                "tolerance": Key(float, 0.05, above=0.0),
                "burn_in_fraction": Key(float, 0.2, lo=0.0, hi=0.9)},
    "blowup": {"amplitudes": Key(list[float], (1.0, 3.0, 5.0)),
               "min_untamed_frequency": Key(float, lo=0.0, hi=1.0)},
    "ladder": {  # the axis says which of taus and n_cells is required
        "axis": Key(str, ..., choices={"tau", "h"}),
        "taus": Key(list[float]), "n_cells": Key(list[int], lo=2),
        "min_slope": Key(float), "max_slope": Key(float), "min_r_squared": Key(float, hi=1.0),
        "t": Key(float, 1.0, above=0.0), "fixed_n_cells": Key(int, 256, lo=2),
        "mode": Key(int, 1, lo=1)},  # and below the coarsest mesh
}

# The keys whose default or bound differs by kind.
KIND_OVERRIDES = {
    "longrun": {("monte_carlo", "paths"): {"lo": 2},
                ("monte_carlo", "record_stride"): {"default": 1000}},
    "strong-rate": {("monte_carlo", "paths"): {"lo": 2}},
    "check-assumptions": {("grid", "n_cells"): {"default": 256}},
}

WHAT = {int: "an integer", float: "a number", str: "a name"}


def read_config(path: Path) -> tuple[dict, dict]:
    """The parse phase: ``({(section, key): value}, {name: model object})``.

    The map holds every key the run reads, defaults included, and no other.
    Each value the file gives is parsed, type-checked and range-checked
    here, then the checks that tie one value to another, then the build
    step (``_build``), so a config error is reported before anything is made.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}")
    if parser.defaults():  # its keys would land in every section
        raise ConfigError("unknown section [DEFAULT]")
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]{_nearest(section, KEYS)}")
        for key in parser.options(section):
            if key not in KEYS[section]:
                raise ConfigError(
                    f"unknown key [{section}] {key}{_nearest(key, KEYS[section])}")
    kind = _value(parser, "experiment", "kind", KEYS["experiment"]["kind"])
    overrides = KIND_OVERRIDES.get(kind, {})
    cfg = {}
    for section in ("experiment", *KIND_SECTIONS[kind]):
        for key, spec in KEYS[section].items():
            spec = replace(spec, **overrides.get((section, key), {}))
            cfg[section, key] = _value(parser, section, key, spec)
    _check_dependent(cfg, KIND_SECTIONS[kind])
    return cfg, _build(cfg)


def _value(parser, section: str, key: str, spec: Key):
    if not parser.has_option(section, key):
        if spec.default is ...:
            raise ConfigError(f"missing required field [{section}] {key}")
        return spec.default
    return _parse(section, key, parser.get(section, key).strip(), spec)


def _parse(section: str, key: str, raw: str, spec: Key):
    (cast,) = get_args(spec.type) or (spec.type,)
    many = cast is not spec.type
    what = WHAT[cast] + " list" * many
    try:
        val = [cast(t.strip()) for t in raw.split(",") if t.strip()] if many else cast(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {what}")
    if many and not val:
        raise ConfigError(f"[{section}] {key} is empty; expected {what}")
    _check(section, key, val, spec)
    return val


def _check(section: str, key: str, val, spec: Key) -> None:
    many = isinstance(val, list)
    items = val if many else [val]
    if spec.choices is not None and val != spec.default:
        for item in items:
            if item not in spec.choices:
                raise ConfigError(f"[{section}] {key}{':' if many else ' ='} {item!r} "
                                  f"is not one of {sorted(spec.choices)}")
    if spec.above is not None and min(items) <= spec.above:
        raise ConfigError(f"[{section}] {key} = {min(items)} must be > {spec.above}")
    if spec.lo is not None and min(items) < spec.lo:
        raise ConfigError(f"[{section}] {key} = {min(items)} must be >= {spec.lo}")
    if spec.hi is not None and max(items) > spec.hi:
        raise ConfigError(f"[{section}] {key} = {max(items)} must be <= {spec.hi}")


def _nearest(name: str, known) -> str:
    close = difflib.get_close_matches(name, known, n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _unread(cfg: dict, sections: tuple) -> dict:
    """{(section, key): why the run does not read it}, as the preset, the
    start, the kind's [monte_carlo] keys and a ladder's kind and axis decide."""
    unread, kind = {}, cfg["experiment", "kind"]
    if "coefficients" in sections:
        preset = cfg["coefficients", "preset"]
        if preset:  # the preset's own coefficients run
            for key in ("drift", "diffusion", "q", "diffusion_kind"):
                unread["coefficients", key] = f"with preset = {preset}"
        if preset != "allen-cahn":
            for key in ("epsilon", "g0"):
                unread["coefficients", key] = "unless preset = allen-cahn, the one that reads it"
    if "initial" in sections:
        start = cfg["initial", "kind"]
        unread.update({("initial", key): f"with [initial] kind = {start}" for key in KEYS["initial"]
                       if key not in ("kind", *INITIAL_FIELDS[start])})
    if "monte_carlo" in sections:
        reads = {"simulate": ("record_stride", "path_id"), "longrun": ("paths", "record_stride"),
                 "ergodic": ("record_stride",)}.get(kind, ("paths",))
        unread.update({("monte_carlo", key): f"on a {kind} run, which reads only [monte_carlo] "
                       f"{' and '.join(reads)}" for key in KEYS["monte_carlo"] if key not in reads})
    if "ladder" in sections:
        strong = kind == "strong-rate"
        if cfg["ladder", "axis"] == "tau":
            mesh = "[grid] n_cells" if strong else "[ladder] fixed_n_cells"
            unread["ladder", "n_cells"] = f"on a tau ladder, whose mesh is {mesh}"
        elif strong:
            unread["ladder", "taus"] = "on a strong-rate h ladder, whose tau is [scheme] tau"
        else:
            unread["ladder", "fixed_n_cells"] = "on an h ladder, whose meshes are [ladder] n_cells"
        if strong:
            for key in ("t", "mode", "fixed_n_cells"):
                unread["ladder", key] = "on a strong-rate ladder; only semigroup-rate reads it"
    return unread


def _check_dependent(cfg: dict, sections: tuple) -> None:
    """The checks of one value against another, once each value has passed;
    a key the run does not read leaves the map, and off its default is an error."""
    for (section, key), why in _unread(cfg, sections).items():
        if cfg.pop((section, key)) != KEYS[section][key].default:
            raise ConfigError(f"[{section}] {key} cannot be given {why}")
    if "coefficients" in sections and not cfg["coefficients", "preset"]:
        for key in ("drift", "diffusion", "q"):
            if cfg["coefficients", key] is None:
                raise ConfigError(f"missing required field [coefficients] {key}")
    if "noise" in sections:  # resolved here: "auto" is every interior node
        interior = Grid1D(cfg["grid", "n_cells"]).n_interior
        raw = cfg["noise", "truncation"]
        cfg["noise", "truncation"] = interior if raw == "auto" else _parse(
            "noise", "truncation", raw, Key(int, lo=1, hi=interior))
    if "ergodic" in sections and len(cfg["ergodic", "amplitudes"]) < 2:  # nothing to agree with
        raise ConfigError("[ergodic] amplitudes lists 1 value; the agreement check needs >= 2")
    if "ladder" in sections:
        key = "taus" if cfg["ladder", "axis"] == "tau" else "n_cells"
        values = cfg["ladder", key]
        if values is None:
            raise ConfigError(f"missing required field [ladder] {key}")
        if len(values) < convergence.MIN_FIT_POINTS:  # a shorter ladder could never be fitted
            raise ConfigError(
                f"[ladder] {key} lists {len(values)} values; a rate fit needs "
                f">= {convergence.MIN_FIT_POINTS}"
            )
        lo, hi = cfg["ladder", "min_slope"], cfg["ladder", "max_slope"]
        if None not in (lo, hi) and lo > hi:  # no slope could pass
            raise ConfigError(f"[ladder] min_slope = {lo} must be <= max_slope = {hi}")


# ---------------------------------------------------------------------------
# The build step
# ---------------------------------------------------------------------------


def _section(cfg: dict, name: str) -> dict:
    return {key: value for (section, key), value in cfg.items() if section == name}


def _build(cfg: dict) -> dict:
    """``{name: model object}`` of the config's kind, each checked as its
    compute would check it; a rejection is a ``ConfigError``.  ``anchors``
    are the sine initial data of a lyapunov, coupling or ergodic run, and
    ``ladder`` the keyword arguments of a rate ladder."""
    kind = cfg["experiment", "kind"]
    sections, model = KIND_SECTIONS[kind], {}
    if "coefficients" in sections:
        c = _section(cfg, "coefficients")
        args = (c["epsilon"], c["g0"]) if c["preset"] == "allen-cahn" else ()
        try:
            model["coefficients"] = PRESETS[c["preset"]][0](*args) if c["preset"] else (
                CoefficientSpec(tuple(c["drift"]), tuple(c["diffusion"]), c["q"],
                                c["diffusion_kind"]))
        except ValueError as exc:
            raise ConfigError(f"[coefficients] {exc}")
        model["noise"] = QWienerSpec(cfg["noise", "decay"], cfg["noise", "scale"],
                                     cfg["noise", "truncation"])
    if "scheme" in sections:
        try:
            model["config"] = config = SchemeConfig(
                tau=cfg["scheme", "tau"], grid=Grid1D(cfg["grid", "n_cells"]),
                horizon=cfg["scheme", "horizon"], scheme=cfg["scheme", "kind"],
                coefficients=model["coefficients"], noise=model["noise"],
                seed=cfg["experiment", "seed"])
        except ValueError as exc:
            raise ConfigError(f"[scheme] {exc}")
    if "initial" in sections:
        model["x0"] = InitialCondition(**_section(cfg, "initial"))
    if kind in ("lyapunov", "coupling", "ergodic"):
        amps = ((cfg["coupling", "amplitude_a"], cfg["coupling", "amplitude_b"])
                if kind == "coupling" else cfg[kind, "amplitudes"])
        model["anchors"] = [InitialCondition("sine", amplitude=a).build(config.grid) for a in amps]
    if "assumptions" in sections:
        model["report"] = check_assumptions(model["coefficients"], model["noise"],
                                            **_section(cfg, "assumptions"))
    if "ladder" in sections:
        on_tau = cfg["ladder", "axis"] == "tau"
        if kind == "strong-rate":
            model["ladder"] = ({"coarse_taus": cfg["ladder", "taus"]} if on_tau else
                               {"coarse_n_cells": cfg["ladder", "n_cells"]})
        else:  # a tau ladder's mesh is fixed; an h ladder's taus default to t / n_cells^2
            taus = cfg["ladder", "taus"]
            cells = [cfg["ladder", "fixed_n_cells"]] * len(taus) if on_tau else (
                cfg["ladder", "n_cells"])
            taus = taus or [cfg["ladder", "t"] / nc**2 for nc in cells]
            if len(taus) != len(cells):
                raise ConfigError(f"[ladder] taus lists {len(taus)} values but [ladder] n_cells "
                                  f"lists {len(cells)}; an h ladder takes one tau per mesh")
            # A higher mode aliases on the coarsest mesh.
            _check("ladder", "mode", cfg["ladder", "mode"], Key(int, hi=min(cells) - 1))
            model["ladder"] = {"n_cells_list": cells, "taus": taus}
    try:  # the checks the compute makes before its first step
        if kind in ("lyapunov", "longrun"):
            ergodicity.require_certified(config, model["report"])
        elif kind == "ergodic":
            ergodicity.require_nondegenerate(config.coefficients)
        elif kind == "strong-rate":
            convergence.ladder_plan(config, n_paths=cfg["monte_carlo", "paths"],
                                    **model["ladder"])
        elif kind == "semigroup-rate":
            convergence.check_semigroup_ladder(**model["ladder"], mode=cfg["ladder", "mode"],
                                               t=cfg["ladder", "t"])
        worker_count()
    except ValueError as exc:
        raise ConfigError(str(exc))
    return model


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------


def _run_check_assumptions(cfg: dict, model: dict, out: Path) -> list:
    report = model["report"]
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


def _run_simulate(cfg: dict, model: dict, out: Path) -> list:
    config = model["config"]
    stride = cfg["monte_carlo", "record_stride"]
    chain = BatchChains(config, model["x0"].build(config.grid))
    steps, values = chain.run([cfg["monte_carlo", "path_id"]], config.n_steps, stride,
                              [ergodicity.OBSERVABLE_ROWS[name] for name in SIMULATE_OBSERVABLES])
    write_csv(out / "trajectory.csv", ["step", "time", *SIMULATE_OBSERVABLES],
              [[step, step * config.tau, *(float(v[0, i]) for v in values)]
               for i, step in enumerate(steps.tolist())])
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


def _run_lyapunov(cfg: dict, model: dict, out: Path) -> list:
    amps = cfg["lyapunov", "amplitudes"]
    probes = ergodicity.lyapunov_contraction_test(model["config"], model["anchors"],
                                                  cfg["lyapunov", "samples"], model["report"])
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


def _run_longrun(cfg: dict, model: dict, out: Path) -> list:
    config = model["config"]
    res = ergodicity.long_run_moment_test(config, model["x0"].build(config.grid),
                                          cfg["monte_carlo", "paths"], model["report"],
                                          cfg["monte_carlo", "record_stride"])
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


def _run_coupling(cfg: dict, model: dict, out: Path) -> list:
    config = model["config"]
    amp_a, amp_b = cfg["coupling", "amplitude_a"], cfg["coupling", "amplitude_b"]
    min_r2 = cfg["coupling", "min_r_squared"]
    res = ergodicity.coupling_decay_test(config, *model["anchors"], cfg["coupling", "steps"],
                                         cfg["monte_carlo", "paths"])
    write_csv(
        out / "coupling_distance.csv",
        ["experiment", "step", "time", "mean_l2_distance"],
        [("coupling", int(s), float(s * config.tau), d)
         for s, d in zip(res.steps, res.mean_distance)],
    )
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


def _run_ergodic(cfg: dict, model: dict, out: Path) -> list:
    config = model["config"]
    amps = cfg["ergodic", "amplitudes"]
    tol = cfg["ergodic", "tolerance"]
    burn = int(cfg["ergodic", "burn_in_fraction"] * config.n_steps)
    estimates = ergodicity.ergodic_limit_test(
        config, cfg["ergodic", "observables"], model["anchors"], burn, tolerance=tol,
        record_stride=cfg["monte_carlo", "record_stride"],
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


def _run_blowup(cfg: dict, model: dict, out: Path) -> list:
    min_freq = cfg["blowup", "min_untamed_frequency"]
    rows = ergodicity.em_blowup_probe(model["config"], cfg["blowup", "amplitudes"],
                                      cfg["monte_carlo", "paths"])
    write_csv(
        out / "blowup_frequencies.csv",
        ["experiment", "x0_amplitude", "tau", "untamed_blowup_frequency",
         "tamed_blowup_frequency", "n_paths"],
        [("blowup", r.amplitude, r.tau, r.untamed_frequency, r.tamed_frequency,
          r.n_paths) for r in rows],
    )
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


def _slope_checks(cfg: dict, fit, label: str) -> list:
    checks = []
    lo, hi, min_r2 = (cfg["ladder", key] for key in ("min_slope", "max_slope", "min_r_squared"))
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


def _write_plot_data(path: Path, xs, ys, fit) -> None:
    rows = [
        (x, y, float(np.exp(fit.intercept) * x**fit.slope)) for x, y in zip(xs, ys)
    ]
    write_csv(path, ["x_step_or_width", "measured_error", "fitted_power_law"], rows)


def _run_strong_rate(cfg: dict, model: dict, out: Path) -> list:
    table = convergence.strong_error_ladder(model["config"], model["x0"],
                                            cfg["monte_carlo", "paths"], **model["ladder"])
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
        [(table.axis, fit.slope, fit.intercept, fit.r_squared, fit.n_points, fit.n_excluded)],
    )
    return _slope_checks(cfg, fit, "strong-rate") or [
        CheckResult("strong-rate-computed", True,
                    f"slope {fit.slope:.4f}, R^2 {fit.r_squared:.4f}")
    ]


def _run_semigroup_rate(cfg: dict, model: dict, out: Path) -> list:
    cells, taus = model["ladder"]["n_cells_list"], model["ladder"]["taus"]
    t = cfg["ladder", "t"]
    xs, errors = convergence.semigroup_error_test(
        **model["ladder"], axis=cfg["ladder", "axis"], mode=cfg["ladder", "mode"], t=t)
    write_csv(
        out / "semigroup_error_table.csv",
        ["n_cells", "h", "tau", "l2_error_at_t", "time_t"],
        [(c, 1.0 / c, tau, e, t) for c, tau, e in zip(cells, taus, errors)],
    )
    try:
        fit = convergence.fit_rate_xy(xs, errors)
    except convergence.RateFitError as exc:  # the ladder ran; its errors are the finding
        return [CheckResult("semigroup-rate-fit", False, str(exc))]
    _write_plot_data(out / "semigroup_error_plot.csv", xs, errors, fit)
    return _slope_checks(cfg, fit, "semigroup-rate") or [
        CheckResult("semigroup-rate-computed", True,
                    f"slope {fit.slope:.4f}, R^2 {fit.r_squared:.4f}")
    ]


# One runner per experiment kind (``KIND_SECTIONS``); [experiment] kind picks it.
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


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _resolved_text(cfg: dict) -> str:
    """The parsed map as INI, keys whose value is None left out: every value
    a run used, defaults and the resolved truncation included."""
    lines = [f"# tamedspde {__version__}"]
    for (section, key), value in cfg.items():
        if value is not None:
            if f"[{section}]" not in lines:
                lines += ["", f"[{section}]"]
            items = value if isinstance(value, (list, tuple)) else [value]
            lines.append(f"{key} = {', '.join(map(format_value, items))}")
    return "\n".join(lines) + "\n"


def run_experiment(config_path: Path, output_override=None) -> int:
    try:
        cfg, model = read_config(config_path)
        out_dir = output_override or cfg["experiment", "output_dir"]
        if out_dir is None:
            raise ConfigError("missing required field [experiment] output_dir")
        out_dir = Path(out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "resolved_config.ini").write_text(_resolved_text(cfg), encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"output directory {out_dir} is not usable: {exc}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:  # any other exception is a program fault (``main``)
        checks = RUNNERS[cfg["experiment", "kind"]](cfg, model, out_dir)
    except KernelBuildError:  # the install's fault, not the run's: exit 4 (``main``)
        raise
    except RuntimeError as exc:  # every path blew up, or an LDL^T factor or solve failed
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    ok = write_verdicts(out_dir / "verdict.txt", checks)
    for line in (out_dir / "verdict.txt").read_text(encoding="utf-8").splitlines():
        print(line)
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def list_presets() -> str:
    lines = ["built-in coefficient presets:"]
    decay, scale = KEYS["noise"]["decay"].default, KEYS["noise"]["scale"].default
    for name, (factory, desc) in PRESETS.items():
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
    try:
        if args.command == "list-presets":
            print(list_presets())
            return EXIT_PASS
        return run_experiment(args.config, args.output)
    except Exception:  # not a config error, numerical failure or failed check
        traceback.print_exc()
        return EXIT_PROGRAM_FAULT


if __name__ == "__main__":
    sys.exit(main())
