import configparser
import os
import subprocess
import sys
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import tamedspde
from tamedspde import cli, convergence, engine, fem, noise
from tamedspde.cli import EXIT_NUMERICAL_FAILURE, EXIT_PROGRAM_FAULT, KINDS, main, read_config
from tamedspde.fem import dispersion_eigenvalue
from tamedspde.grid import Grid1D
from tamedspde.reporting import format_value


def test_format_value_handles_numpy_scalars():
    assert format_value(np.float64(0.25)) == "0.25"
    assert format_value(0.1) == "0.1"  # shortest round-trip
    assert format_value(np.bool_(True)) == "true"
    assert format_value(False) == "false"
    assert format_value(np.int64(7)) == "7"
    assert format_value(None) == "None"


CONFIGS = Path(__file__).parents[1] / "configs"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def read_outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


LIST_PRESETS = """\
built-in coefficient presets:
  allen-cahn: f(x) = eps^-2 (x - x^3), additive unit diffusion; the phase-field benchmark
      drift = (0.0, 1.0, 0.0, -1.0), diffusion = (1.0,), q = 2
      default noise: eigenvalue decay k^-3, scale 1, truncation tied to the mesh
  double-well: double-well drift x - x^3 with small quadratic-growth diffusion
      drift = (0.0, 1.0, 0.0, -1.0), diffusion = (0.1, 0.0, 0.05), q = 2
      default noise: eigenvalue decay k^-3, scale 1, truncation tied to the mesh
  cubic-with-quadratic-g: cubic drift (negative leading) with quadratic diffusion
      drift = (0.0, 1.0, 0.5, -2.0), diffusion = (0.1, 0.0, 0.1), q = 2
      default noise: eigenvalue decay k^-3, scale 1, truncation tied to the mesh
  linear-ou: linear drift -x with constant diffusion; exact stationary statistics
      drift = (0.0, -1.0), diffusion = (1.0,), q = 0
      default noise: eigenvalue decay k^-3, scale 1, truncation tied to the mesh
"""


def test_list_presets(capsys):
    # The whole text: the noise line is the [noise] defaults every run starts from.
    assert main(["list-presets"]) == 0
    assert capsys.readouterr().out == LIST_PRESETS


def test_malformed_config_names_field(tmp_path, capsys):
    cfg = write(tmp_path / "bad.ini", """
[experiment]
kind = simulate
seed = 1
output_dir = {out}

[grid]
n_cells = 32

[scheme]
kind = gtem
tau = -0.5
horizon = 1.0

[coefficients]
preset = allen-cahn
""".format(out=tmp_path / "out"))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "tau" in err and "[scheme]" in err


def test_unknown_kind_and_missing_field(tmp_path, capsys):
    cfg = write(tmp_path / "k.ini", "[experiment]\nkind = dance\nseed = 1\n")
    assert main(["run", str(cfg)]) == 2
    assert "kind" in capsys.readouterr().err
    cfg2 = write(tmp_path / "m.ini", "[experiment]\nkind = simulate\n")
    assert main(["run", str(cfg2)]) == 2
    assert "seed" in capsys.readouterr().err


def test_check_assumptions_feasible(tmp_path, capsys):
    out = tmp_path / "rep"
    cfg = write(tmp_path / "chk.ini", f"""
[experiment]
kind = check-assumptions
seed = 1
output_dir = {out}

[coefficients]
preset = allen-cahn
epsilon = 1.0
""")
    assert main(["run", str(cfg)]) == 0
    text = (out / "assumption_report.csv").read_text()
    for key in ("coercive_decay_L2", "tau_max_certified_step_ceiling", "lyapunov_contraction_K1"):
        assert key in text
    assert (out / "resolved_config.ini").exists()
    assert "PASS" in (out / "verdict.txt").read_text()


def test_check_assumptions_infeasible_exits_one(tmp_path, capsys):
    out = tmp_path / "rep2"
    cfg = write(tmp_path / "bad2.ini", f"""
[experiment]
kind = check-assumptions
seed = 1
output_dir = {out}

[coefficients]
drift = 0, 0, 0, 1
diffusion = 1
q = 2
""")
    assert main(["run", str(cfg)]) == 1
    verdict = (out / "verdict.txt").read_text()
    assert "FAIL" in verdict and "witness" not in verdict.lower() or "xi=" in verdict


def test_check_assumptions_on_a_spec_only_g_taming_schemes_refuse(tmp_path, capsys):
    # No [scheme]: the scan runs and fails on coercivity (exit 1), where a
    # positive leading drift with non-constant g once exited 2 unscanned.
    out = tmp_path / "rep3"
    cfg = write(tmp_path / "pos.ini", f"""
[experiment]
kind = check-assumptions
seed = 1
output_dir = {out}

[coefficients]
drift = 0, 1, 0, 1
diffusion = 0, 0, 1
q = 2
""")
    assert main(["run", str(cfg)]) == 1
    assert "FAIL assumptions-feasible: coe violated" in (out / "verdict.txt").read_text()


def test_simulate_smoke_matches_spectral_oracle(tmp_path):
    out = tmp_path / "sim"
    cfg = write(tmp_path / "sim.ini", f"""
[experiment]
kind = simulate
seed = 11
output_dir = {out}

[grid]
n_cells = 64

[scheme]
kind = drift_gtem
tau = 0.0625
horizon = 1.0

[initial]
kind = sine
amplitude = 1.4142135623730951

[coefficients]
drift = 0
diffusion = 0
q = 0

[noise]
decay = 3.0
scale = 1e-30
""")
    assert main(["run", str(cfg)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    header = rows[0].split(",")
    i_step = header.index("step")
    i_l2 = header.index("l2_sq")
    lam = dispersion_eigenvalue(Grid1D(64))
    for line in rows[1:]:
        cells = line.split(",")
        n = int(cells[i_step])
        # nodal interpolant of sqrt(2) sin(pi x) has mass norm (2+cos(pi h))/3
        start = (2.0 + np.cos(np.pi / 64.0)) / 3.0
        expected = start * (1.0 + 0.0625 * lam) ** (-2 * n)
        assert abs(float(cells[i_l2]) - expected) <= 1e-8


SOLVING_CONFIGS = {
    "simulate": """
[grid]
n_cells = 16

[scheme]
kind = gtem
tau = 0.125
horizon = 0.5

[coefficients]
preset = allen-cahn
""",
    "semigroup-rate": """
[ladder]
axis = h
n_cells = 8, 16, 32, 64
""",
}


@pytest.mark.parametrize("kind", sorted(SOLVING_CONFIGS))
def test_failed_banded_solve_exits_numerical_failure(tmp_path, capsys, monkeypatch, kind):
    """Every kind that solves goes through the stepping core's one banded solve."""
    def failing_dpbtrs(fac, load, **kwargs):
        return np.zeros_like(load), -1

    monkeypatch.setattr(engine, "_dpbtrs", failing_dpbtrs)
    out = tmp_path / "out"
    cfg = write(tmp_path / "solve.ini", f"""
[experiment]
kind = {kind}
seed = 1
output_dir = {out}
""" + SOLVING_CONFIGS[kind])
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL_FAILURE == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "info=-1" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (out / "verdict.txt").exists()


@pytest.mark.parametrize("kind", sorted(SOLVING_CONFIGS))
def test_failed_factorization_exits_numerical_failure(tmp_path, capsys, monkeypatch, kind):
    """A step size whose LDL^T factorization fails is a numerical failure too."""
    def failing_dpttrf(d, e, **kwargs):
        return d, e, 2

    monkeypatch.setattr(fem, "dpttrf", failing_dpttrf)
    out = tmp_path / "out"
    cfg = write(tmp_path / "solve.ini", f"""
[experiment]
kind = {kind}
seed = 1
output_dir = {out}
""" + SOLVING_CONFIGS[kind])
    assert main(["run", str(cfg)]) == EXIT_NUMERICAL_FAILURE == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "info=2" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (out / "verdict.txt").exists()


def fail_if_called(*args, **kwargs):
    raise AssertionError("computed before the config was rejected")


MODEL = """
[grid]
n_cells = 16

[scheme]
kind = {scheme}
tau = 0.015625
horizon = 1.0

[coefficients]
preset = allen-cahn

[monte_carlo]
paths = 10
"""
THRESHOLD_RUNS = {
    "coupling": MODEL.format(scheme="drift_gtem") + "\n[coupling]\nsteps = 80\n",
    "blowup": MODEL.format(scheme="untamed_em") + "\n[blowup]\namplitudes = 5\n",
    "strong-rate": MODEL.format(scheme="drift_gtem")
    + "\n[ladder]\naxis = tau\ntaus = 0.03125, 0.0625, 0.125, 0.25\n",
    "semigroup-rate": "\n[ladder]\naxis = h\nn_cells = 8, 16, 32, 64\n",
}


@pytest.mark.parametrize("kind, section, key", [
    ("coupling", "coupling", "min_r_squared"),
    ("blowup", "blowup", "min_untamed_frequency"),
    *[(kind, "ladder", key) for key in ("min_slope", "max_slope", "min_r_squared")
      for kind in ("strong-rate", "semigroup-rate")],
])
def test_a_malformed_check_threshold_is_rejected_before_compute(
    tmp_path, capsys, monkeypatch, kind, section, key
):
    monkeypatch.setattr(engine.BatchChains, "advance", fail_if_called)
    monkeypatch.setattr(convergence, "semigroup_error", fail_if_called)
    out = tmp_path / "out"
    # each run's text ends in the threshold's section
    cfg = write(tmp_path / "threshold.ini",
                f"[experiment]\nkind = {kind}\nseed = 5\noutput_dir = {out}\n"
                f"{THRESHOLD_RUNS[kind]}{key} = abc\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{section}] {key} = 'abc' is not a number"), err
    assert not out.exists()


# Every section a kind needs to get past its required keys; each kind reads
# only its own sections (cli.KIND_SECTIONS) and accepts the others.
REQUIRED_SECTIONS = {
    "grid": {"n_cells": "16"},
    "scheme": {"kind": "gtem", "tau": "0.015625", "horizon": "1.0"},
    "coefficients": {"preset": "allen-cahn"},
    "ladder": {"axis": "h", "n_cells": "8, 16, 32, 64"},
}


def render(kind, out, sections, override=(None, None, None)):
    """An INI text of ``sections`` with ``[section] key = value`` set by ``override``."""
    section, key, value = override
    blocks = {"experiment": {"kind": kind, "seed": "7", "output_dir": str(out)},
              **{name: dict(keys) for name, keys in sections.items()}}
    if section is not None:
        blocks.setdefault(section, {})[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in blocks.items())


def forbid_compute(monkeypatch):
    monkeypatch.setattr(cli, "check_assumptions", fail_if_called)
    monkeypatch.setattr(noise.PathSampler, "coeffs", fail_if_called)
    monkeypatch.setattr(engine.BatchChains, "advance", fail_if_called)
    monkeypatch.setattr(convergence, "semigroup_error", fail_if_called)


def numeric_keys():
    """(kind, section, key, expected message) for every numeric key each kind reads."""
    what = {int: "an integer", float: "a number"}
    for kind, sections in cli.KIND_SECTIONS.items():
        for section in ("experiment", *sections):
            for key, spec in cli.KEYS[section].items():
                (item,) = get_args(spec.type) or (spec.type,)
                if item in what:
                    yield kind, section, key, what[item] + " list" * (item is not spec.type)
        if "noise" in sections:  # an integer or "auto"
            yield kind, "noise", "truncation", "an integer"


@pytest.mark.parametrize("kind, section, key, what", list(numeric_keys()))
def test_every_malformed_number_is_rejected_before_the_output_directory(
    tmp_path, capsys, monkeypatch, kind, section, key, what
):
    forbid_compute(monkeypatch)
    out = tmp_path / "out"
    cfg = write(tmp_path / "abc.ini",
                render(kind, out, REQUIRED_SECTIONS, (section, key, "abc")))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"config error: [{section}] {key} = 'abc' is not {what}"
    assert not out.exists()


@pytest.mark.parametrize("kind, section, key, value, message", [
    ("longrun", "monte_carlo", "paths", "abc", "[monte_carlo] paths = 'abc' is not an integer"),
    ("longrun", "monte_carlo", "paths", "1", "[monte_carlo] paths = 1 must be >= 2"),
    ("lyapunov", "lyapunov", "samples", "abc", "[lyapunov] samples = 'abc' is not an integer"),
    ("lyapunov", "lyapunov", "amplitudes", "0, x", "[lyapunov] amplitudes = '0, x' is not"),
    ("longrun", "initial", "kind", "bogus", "[initial] kind = 'bogus' is not one of"),
])
def test_a_certified_probe_rejects_a_bad_value_before_its_assumption_scan(
    tmp_path, capsys, monkeypatch, kind, section, key, value, message
):
    """Each of these was once read after check_assumptions had run."""
    forbid_compute(monkeypatch)
    out = tmp_path / "out"
    sections = {**REQUIRED_SECTIONS, "initial": {"kind": "sine"},
                "monte_carlo": {"paths": "4"}, "lyapunov": {"samples": "1000"}}
    cfg = write(tmp_path / "probe.ini", render(kind, out, sections, (section, key, value)))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_an_h_ladder_with_fewer_taus_than_meshes_is_rejected_before_the_output_directory(
    tmp_path, capsys, monkeypatch
):
    forbid_compute(monkeypatch)
    out = tmp_path / "out"
    ladder = {"axis": "h", "n_cells": "8, 16, 32, 64", "taus": "0.01, 0.001, 0.0001"}
    cfg = write(tmp_path / "taus.ini", render("semigroup-rate", out, {"ladder": ladder}))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: [ladder] taus lists 3 values but [ladder] n_cells lists 4; "
        "an h ladder takes one tau per mesh"
    ]
    assert not out.exists()


SCHEME_16 = {"grid": {"n_cells": "16"}, "scheme": {"kind": "drift_gtem", "tau": "0.015625",
                                                 "horizon": "1.0"}}
ALLEN_CAHN_16 = {**SCHEME_16, "coefficients": {"preset": "allen-cahn"}}

# case -> (kind, sections, environment, first stderr line); the model's own
# checks, each of which once exited 2 after the output directory was made.
MODEL_ERRORS = {
    "ladder-grid-not-refined": (
        "strong-rate", {**ALLEN_CAHN_16, "ladder": {"axis": "h", "n_cells": "3, 4, 8, 16"}}, {},
        "reference grid (16 cells) does not refine the coarse grid (3 cells)"),
    "coarse-tau-not-a-multiple": (
        "strong-rate", {**ALLEN_CAHN_16, "ladder": {"axis": "tau",
                                                    "taus": "0.03, 0.0625, 0.125, 0.25"}}, {},
        "coarse tau 0.03 is not an integer multiple of tau 0.015625"),
    "semigroup-amplitude-floor": (
        "semigroup-rate", {"ladder": {"axis": "h", "n_cells": "8, 16, 32, 64", "t": "3.0"}}, {},
        "exact amplitude 1.96e-13 at mode 1, t = 3.0 is below 1e-08: "
        "the errors would be rounding error"),
    "semigroup-t-not-a-multiple": (
        "semigroup-rate", {"ladder": {"axis": "tau", "taus": "0.3, 0.1, 0.05, 0.025"}}, {},
        "t 1.0 is not an integer multiple of tau 0.3"),
    "uncertified-tau": (
        "lyapunov", {**ALLEN_CAHN_16, "scheme": {"tau": "0.5", "horizon": "1.0"},
                     "lyapunov": {"samples": "1000"}}, {},
        "tau = 0.5 exceeds the certified ceiling tau_max = 0.0215515 "
        "(L2 = 0.9375, L4 = 1.0625, beta = 0.46875)"),
    "degenerate-noise": (
        "ergodic", {**SCHEME_16, "coefficients": {"drift": "0, 1, 0, -1", "diffusion": "0, 1",
                                                  "q": "2"}}, {},
        "nondegeneracy precheck failed: g vanishes at (0.0,)"),
    "horizon-not-a-multiple": (
        "ergodic", {**ALLEN_CAHN_16, "scheme": {"tau": "0.015625", "horizon": "1.01"}}, {},
        "[scheme] horizon 1.01 is not an integer multiple of tau 0.015625"),
    "workers-not-an-integer": (
        "coupling", ALLEN_CAHN_16, {"TAMEDSPDE_WORKERS": "abc"},
        "TAMEDSPDE_WORKERS must be an integer >= 1, got 'abc'"),
}


@pytest.mark.parametrize("case", sorted(MODEL_ERRORS))
def test_a_model_error_is_rejected_before_the_output_directory(tmp_path, capsys, monkeypatch,
                                                                case):
    monkeypatch.setattr(noise.PathSampler, "coeffs", fail_if_called)
    monkeypatch.setattr(engine.BatchChains, "advance", fail_if_called)
    monkeypatch.setattr(convergence, "semigroup_error", fail_if_called)
    kind, sections, env, message = MODEL_ERRORS[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    cfg = write(tmp_path / "model.ini", render(kind, out, sections))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"config error: {message}"
    assert not out.exists()


BAND_ERRORS = [
    ("semigroup-rate", "ladder", {"min_slope": "2.5", "max_slope": "2.1"},
     "[ladder] min_slope = 2.5 must be <= max_slope = 2.1"),
    ("strong-rate", "ladder", {"min_slope": "1", "max_slope": "0.5"},
     "[ladder] min_slope = 1.0 must be <= max_slope = 0.5"),
    ("semigroup-rate", "ladder", {"min_r_squared": "1.5"},
     "[ladder] min_r_squared = 1.5 must be <= 1.0"),
    ("coupling", "coupling", {"min_r_squared": "1.01"},
     "[coupling] min_r_squared = 1.01 must be <= 1.0"),
    ("blowup", "blowup", {"min_untamed_frequency": "1.5"},
     "[blowup] min_untamed_frequency = 1.5 must be <= 1.0"),
    ("blowup", "blowup", {"min_untamed_frequency": "-0.1"},
     "[blowup] min_untamed_frequency = -0.1 must be >= 0.0"),
]


@pytest.mark.parametrize("kind, section, keys, message", BAND_ERRORS, ids=[
    "semigroup-slopes", "strong-slopes", "ladder-r2", "coupling-r2", "frequency-hi", "frequency-lo"])
def test_a_check_band_no_result_could_meet_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                            kind, section, keys, message):
    forbid_compute(monkeypatch)
    out = tmp_path / "out"
    sections = {**ALLEN_CAHN_16, "ladder": {"axis": "h", "n_cells": "2, 4, 8, 16"}}
    sections[section] = {**sections.get(section, {}), **keys}
    cfg = write(tmp_path / "band.ini", render(kind, out, sections))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()


def test_an_unfittable_semigroup_ladder_is_a_failed_check(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(convergence, "semigroup_error",
                        lambda n_cells, tau, mode, t: 0.0 if n_cells > 16 else 1.0 / n_cells**2)
    out = tmp_path / "out"
    cfg = write(tmp_path / "sg.ini", render(
        "semigroup-rate", out, {"ladder": {"axis": "h", "n_cells": "8, 16, 32, 64"}}))
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == ""
    assert (out / "verdict.txt").read_text().splitlines() == [
        "FAIL semigroup-rate-fit: need >= 4 positive points for a rate fit, got 2",
        "overall: FAIL",
    ]
    table = (out / "semigroup_error_table.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in table[1:]] == ["8", "16", "32", "64"]


def test_a_value_error_in_compute_is_a_program_fault_not_a_config_error(tmp_path, capsys,
                                                                         monkeypatch):
    def fault(*args, **kwargs):
        raise ValueError("a fault in the program")

    monkeypatch.setattr(engine.BatchChains, "advance", fault)
    out = tmp_path / "out"
    cfg = write(tmp_path / "sim.ini", render("simulate", out, ALLEN_CAHN_16))
    assert main(["run", str(cfg)]) == EXIT_PROGRAM_FAULT == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):"), err
    assert err.splitlines()[-1] == "ValueError: a fault in the program"
    assert (out / "resolved_config.ini").exists() and not (out / "verdict.txt").exists()


# case -> (kind, sections, first stderr line): a key the run would not read,
# given a value other than its default.
NOT_ALLEN_CAHN = "cannot be given unless preset = allen-cahn, the one that reads it"
UNREAD_KEYS = {
    "epsilon-with-double-well": (
        "simulate", {**SCHEME_16, "coefficients": {"preset": "double-well", "epsilon": "0.25"}},
        f"[coefficients] epsilon {NOT_ALLEN_CAHN}"),
    "g0-with-double-well": (
        "simulate", {**SCHEME_16, "coefficients": {"preset": "double-well", "g0": "0.5"}},
        f"[coefficients] g0 {NOT_ALLEN_CAHN}"),
    "epsilon-without-preset": (
        "simulate", {**SCHEME_16, "coefficients": {"drift": "0, -1", "diffusion": "1", "q": "0",
                                                   "epsilon": "0.5"}},
        f"[coefficients] epsilon {NOT_ALLEN_CAHN}"),
    "strong-tau-ladder-n_cells": (
        "strong-rate", {**ALLEN_CAHN_16, "ladder": {
            "axis": "tau", "taus": "0.03125, 0.0625, 0.125, 0.25", "n_cells": "2, 4, 8, 16"}},
        "[ladder] n_cells cannot be given on a tau ladder, whose mesh is [grid] n_cells"),
    "semigroup-tau-ladder-n_cells": (
        "semigroup-rate", {"ladder": {"axis": "tau", "taus": "0.1, 0.05, 0.025, 0.0125",
                                      "n_cells": "8, 16, 32, 64"}},
        "[ladder] n_cells cannot be given on a tau ladder, whose mesh is [ladder] fixed_n_cells"),
    "strong-h-ladder-taus": (
        "strong-rate", {**ALLEN_CAHN_16, "ladder": {
            "axis": "h", "n_cells": "2, 4, 8, 16", "taus": "0.03125, 0.0625, 0.125, 0.25"}},
        "[ladder] taus cannot be given on a strong-rate h ladder, whose tau is [scheme] tau"),
    **{f"strong-ladder-{key}": (
        "strong-rate", {**ALLEN_CAHN_16, "ladder": {"axis": "h", "n_cells": "2, 4, 8, 16",
                                                    key: value}},
        f"[ladder] {key} cannot be given on a strong-rate ladder; only semigroup-rate reads it")
       for key, value in (("t", "3.0"), ("mode", "7"), ("fixed_n_cells", "64"))},
    "semigroup-h-ladder-fixed_n_cells": (
        "semigroup-rate", {"ladder": {"axis": "h", "n_cells": "8, 16, 32, 64",
                                      "fixed_n_cells": "64"}},
        "[ladder] fixed_n_cells cannot be given on an h ladder, "
        "whose meshes are [ladder] n_cells"),
    "initial-width-on-a-sine-start": (
        "simulate", {**ALLEN_CAHN_16, "initial": {"kind": "sine", "width": "0.5"}},
        "[initial] width cannot be given with [initial] kind = sine"),
    "initial-center-on-a-sine-start": (
        "longrun", {**ALLEN_CAHN_16, "initial": {"kind": "sine", "width": "0.5",
                                                 "center": "0.3"}},
        "[initial] center cannot be given with [initial] kind = sine"),
    "initial-amplitude-on-a-zero-start": (
        "strong-rate", {**ALLEN_CAHN_16, "initial": {"amplitude": "2.0"},
                        "ladder": {"axis": "h", "n_cells": "2, 4, 8, 16"}},
        "[initial] amplitude cannot be given with [initial] kind = zero"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_KEYS))
def test_a_key_the_run_would_not_read_is_rejected_before_the_output_directory(
    tmp_path, capsys, monkeypatch, case
):
    forbid_compute(monkeypatch)
    kind, sections, message = UNREAD_KEYS[case]
    out = tmp_path / "out"
    cfg = write(tmp_path / "unread.ini", render(kind, out, sections))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"config error: {message}"
    assert not out.exists()


# kind -> the [monte_carlo] keys it reads; a value other than the default of
# any other one would be ignored, so it is rejected.
MONTE_CARLO_READS = {"simulate": ("record_stride", "path_id"),
                     "longrun": ("paths", "record_stride"), "ergodic": ("record_stride",),
                     "coupling": ("paths",), "blowup": ("paths",), "strong-rate": ("paths",)}
OFF_DEFAULT = {"paths": "7", "record_stride": "8", "path_id": "3"}


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, sections in cli.KIND_SECTIONS.items() if "monte_carlo" in sections
    for key in OFF_DEFAULT if key not in MONTE_CARLO_READS[kind]])
def test_a_monte_carlo_key_the_kind_does_not_read_is_rejected_before_the_output_directory(
    tmp_path, capsys, monkeypatch, kind, key
):
    forbid_compute(monkeypatch)
    out = tmp_path / "out"
    cfg = write(tmp_path / "mc.ini", render(kind, out, REQUIRED_SECTIONS,
                                            ("monte_carlo", key, OFF_DEFAULT[key])))
    assert main(["run", str(cfg)]) == 2
    reads = " and ".join(MONTE_CARLO_READS[kind])
    assert capsys.readouterr().err.splitlines() == [
        f"config error: [monte_carlo] {key} cannot be given on a {kind} run, "
        f"which reads only [monte_carlo] {reads}"]
    assert not out.exists()


def test_an_ergodic_run_with_one_amplitude_is_rejected_before_the_output_directory(
    tmp_path, capsys, monkeypatch
):
    """One start agrees with itself, so its agreement check could never fail."""
    forbid_compute(monkeypatch)
    out = tmp_path / "out"
    cfg = write(tmp_path / "erg.ini", render("ergodic", out, REQUIRED_SECTIONS,
                                             ("ergodic", "amplitudes", "5")))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: [ergodic] amplitudes lists 1 value; the agreement check needs >= 2"]
    assert not out.exists()


@pytest.mark.parametrize("variant", ["both_a", "both_b", "drift_only"])
def test_removed_variant_key_names_the_scheme_kind(tmp_path, capsys, monkeypatch, variant):
    """Rejected as an unknown key, not ignored: dropping it silently would
    change what an old config computes.  The scheme says what is tamed."""
    monkeypatch.setattr(engine.BatchChains, "advance", fail_if_called)
    out = tmp_path / "out"
    cfg = write(tmp_path / "old.ini", f"""
[experiment]
kind = simulate
seed = 1
output_dir = {out}

[grid]
n_cells = 16

[scheme]
kind = gtem
tau = 0.125
horizon = 0.5

[coefficients]
drift = 0, 1, 0, -1
diffusion = 1
q = 2
variant = {variant}
""")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: unknown key [coefficients] variant"]
    assert not out.exists()


SIMULATE_16 = """
[experiment]
kind = simulate
seed = 1
output_dir = {out}

[grid]
n_cells = 16

[{scheme_section}]
{scheme_kind} = untamed_em
tau = 0.125
horizon = 0.5

[coefficients]
preset = allen-cahn
"""


@pytest.mark.parametrize("scheme_section, scheme_kind, message", [
    ("scheme", "knd", "config error: unknown key [scheme] knd; did you mean 'kind'?"),
    ("sheme", "kind", "config error: unknown section [sheme]; did you mean 'scheme'?"),
    ("DEFAULT", "kind", "config error: unknown section [DEFAULT]"),
])
def test_an_unknown_key_or_section_is_rejected_before_anything_is_written(
    tmp_path, capsys, monkeypatch, scheme_section, scheme_kind, message
):
    """Ignored, a misspelled key would run its default: here gtem for untamed_em."""
    monkeypatch.setattr(engine.BatchChains, "advance", fail_if_called)
    out = tmp_path / "out"
    cfg = write(tmp_path / "typo.ini", SIMULATE_16.format(
        out=out, scheme_section=scheme_section, scheme_kind=scheme_kind))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [message]
    assert not out.exists()


def test_an_output_directory_below_a_regular_file_is_a_config_error(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(engine.BatchChains, "advance", fail_if_called)
    blocker = write(tmp_path / "a_file", "")
    cfg = write(tmp_path / "sim.ini", SIMULATE_16.format(
        out=blocker / "out", scheme_section="scheme", scheme_kind="kind"))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output directory") and "Not a directory" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_every_shipped_config_parses_and_every_kind_has_one():
    """The whole parse phase: every key each shipped config's kind reads,
    and the build step's model objects and checks."""
    kinds = set()
    for path in sorted(CONFIGS.glob("*.ini")):
        cfg, model = read_config(path)
        kind = cfg["experiment", "kind"]
        kinds.add(kind)
        assert ("config" in model) == ("scheme" in cli.KIND_SECTIONS[kind]), path
        assert ("report" in model) == ("assumptions" in cli.KIND_SECTIONS[kind]), path
        assert ("ladder" in model) == ("ladder" in cli.KIND_SECTIONS[kind]), path
    assert kinds == set(KINDS)


# The strong-rate configs take 3 and 15 s; the others about 1 s together.
QUICK_CONFIGS = [p for p in sorted(CONFIGS.glob("*.ini")) if "strong_rate" not in p.name]


@pytest.mark.parametrize("path", QUICK_CONFIGS, ids=lambda p: p.stem)
def test_a_resolved_config_reruns_to_the_same_outputs(tmp_path, capsys, path):
    """``resolved_config.ini`` is the parsed map: defaults, the resolved
    truncation and the package version included, and no key the run does
    not read."""
    first, second = tmp_path / "first", tmp_path / "second"
    code = main(["run", str(path), "--output", str(first)])
    resolved = first / "resolved_config.ini"
    text = resolved.read_text(encoding="utf-8")
    assert text.startswith(f"# tamedspde {tamedspde.__version__}\n")
    cfg, _ = read_config(path)
    parser = configparser.ConfigParser()
    parser.read_string(text)
    written = {(s, k) for s in parser.sections() for k in parser.options(s)}
    assert written == {key for key, value in cfg.items() if value is not None}
    kind = cfg["experiment", "kind"]
    assert not written & set(cli._unread(cfg, cli.KIND_SECTIONS[kind]))
    if kind == "simulate":
        assert not written & {("monte_carlo", "paths"), ("coefficients", "diffusion_kind"),
                              ("initial", "center"), ("initial", "width")}
    if "noise" in cli.KIND_SECTIONS[kind]:
        assert f"\ntruncation = {cfg['noise', 'truncation']}\n" in text
    assert read_config(resolved)[0] == cfg
    assert main(["run", str(resolved), "--output", str(second)]) == code
    a, b = read_outputs(first), read_outputs(second)
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name], name


def test_lyapunov_rejects_uncertified_tau_as_config_error(tmp_path, capsys, monkeypatch):
    """Both certified probes refuse an uncertified tau or infeasible coefficients
    with exit 2 before stepping; the check lives only in ``ergodicity``."""
    monkeypatch.setattr(engine.BatchChains, "advance", fail_if_called)
    refused = (
        ("preset = allen-cahn", 0.25, "tau_max"),
        ("drift = 0, 1, 0, 1\ndiffusion = 1\nq = 2", 0.015625,
         "assumption check failed"),
    )
    for kind in ("lyapunov", "longrun"):
        for i, (coefficients, tau, message) in enumerate(refused):
            out = tmp_path / f"{kind}{i}"
            cfg = write(tmp_path / f"{kind}{i}.ini", f"""
[experiment]
kind = {kind}
seed = 2
output_dir = {out}

[grid]
n_cells = 16

[scheme]
kind = gtem
tau = {tau}
horizon = {tau}

[coefficients]
{coefficients}

[lyapunov]
amplitudes = 0, 1
samples = 1000

[monte_carlo]
paths = 2
record_stride = 1
""")
            assert main(["run", str(cfg)]) == 2, (kind, message)
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err, err
            assert not out.exists()


@pytest.mark.parametrize(
    "kind, axis, key, values",
    [
        ("strong-rate", "tau", "taus", "0.03125, 0.015625"),
        ("strong-rate", "h", "n_cells", "8, 16, 32"),
        ("semigroup-rate", "h", "n_cells", "8, 16, 32"),
        ("semigroup-rate", "tau", "taus", "0.1, 0.05"),
    ],
)
def test_rate_ladder_too_short_to_fit_is_rejected_before_stepping(
    tmp_path, capsys, monkeypatch, kind, axis, key, values
):
    monkeypatch.setattr(engine.BatchChains, "advance", fail_if_called)
    monkeypatch.setattr(convergence, "semigroup_error", fail_if_called)
    out = tmp_path / "out"
    cfg = write(tmp_path / "short.ini", f"""
[experiment]
kind = {kind}
seed = 31
output_dir = {out}

[grid]
n_cells = 64

[scheme]
kind = drift_gtem
tau = 0.001953125
horizon = 0.0625

[coefficients]
preset = allen-cahn

[monte_carlo]
paths = 25

[ladder]
axis = {axis}
{key} = {values}
""")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [ladder]") and key in err, err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("drift", "1, 2"), ("diffusion", "1"), ("q", "2"),
                                        ("diffusion_kind", "sqrt_quadratic")])
def test_preset_with_its_own_coefficient_keys_is_rejected(tmp_path, capsys, monkeypatch,
                                                          key, value):
    # The preset would run and the key be ignored, so the config is refused
    # before the output directory is made.
    forbid_compute(monkeypatch)
    out = tmp_path / "out"
    cfg = write(tmp_path / "preset.ini",
                render("simulate", out, REQUIRED_SECTIONS, ("coefficients", key, value)))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        f"config error: [coefficients] {key} cannot be given with preset = allen-cahn")
    assert not out.exists()


def test_preset_with_the_default_diffusion_kind_runs(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path / "preset.ini", render(
        "simulate", out, REQUIRED_SECTIONS,
        ("coefficients", "diffusion_kind", "polynomial")))
    assert main(["run", str(cfg)]) == 0


ALLEN_CAHN = "[coefficients]\npreset = allen-cahn"

# case -> (kind, the sections holding the empty list and the coefficients)
EMPTY_LIST_CONFIGS = {
    "lyapunov-amplitudes": ("lyapunov", f"[lyapunov]\namplitudes =\n{ALLEN_CAHN}"),
    "blowup-amplitudes": ("blowup", f"[blowup]\namplitudes =\n{ALLEN_CAHN}"),
    "ergodic-observables": ("ergodic", f"[ergodic]\nobservables =\n{ALLEN_CAHN}"),
    "coefficients-drift": ("simulate", "[coefficients]\ndrift =\ndiffusion = 1\nq = 0"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_LIST_CONFIGS))
def test_empty_list_field_is_a_config_error(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(engine.BatchChains, "advance", fail_if_called)
    kind, sections = EMPTY_LIST_CONFIGS[case]
    out = tmp_path / "out"
    cfg = write(tmp_path / "empty.ini", f"""
[experiment]
kind = {kind}
seed = 3
output_dir = {out}

[grid]
n_cells = 16

[scheme]
kind = gtem
tau = 0.015625
horizon = 0.0625

[monte_carlo]
paths = 2

{sections}
""")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "is empty" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "cells, mode, message",
    [
        ("8, 16, 32, 64", 8, "[ladder] mode = 8 must be <= 7"),  # aliases on 8 cells
        ("1, 16, 32, 64", 1, "[ladder] n_cells = 1 must be >= 2"),
        pytest.param(  # sqrt(2) exp(-4 pi^2) at t = 1: the errors would be rounding
            "8, 16, 32, 64", 2, "exact amplitude 1.01e-17 at mode 2, t = 1.0 is below 1e-08",
            id="mode-2-decayed-to-rounding",
        ),
    ],
)
def test_semigroup_ladder_the_coarsest_mesh_cannot_carry_is_rejected(
    tmp_path, capsys, monkeypatch, cells, mode, message
):
    monkeypatch.setattr(convergence, "semigroup_error", fail_if_called)
    out = tmp_path / "out"
    cfg = write(tmp_path / "mode.ini", f"""
[experiment]
kind = semigroup-rate
seed = 1
output_dir = {out}

[ladder]
axis = h
n_cells = {cells}
mode = {mode}
""")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}"), err
    assert not out.exists()


def test_ladder_block_past_the_memory_cap_is_rejected_before_any_draw(
    tmp_path, capsys, monkeypatch
):
    # Coarse steps of 7, 9, 11 and 13 reference steps stream in blocks of
    # lcm = 9009 steps: about 460 MB per block array at 256 cells.
    monkeypatch.setattr(noise.PathSampler, "coeffs", fail_if_called)
    monkeypatch.setattr(engine.BatchChains, "advance", fail_if_called)
    out = tmp_path / "out"
    taus = ", ".join(repr(r / 9009) for r in (7, 9, 11, 13))
    cfg = write(tmp_path / "block.ini", f"""
[experiment]
kind = strong-rate
seed = 5
output_dir = {out}

[grid]
n_cells = 256

[scheme]
kind = drift_gtem
tau = {1 / 9009!r}
horizon = 1.0

[coefficients]
preset = allen-cahn

[monte_carlo]
paths = 25

[ladder]
axis = tau
taus = {taus}
""")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: a ladder block of 9009 reference steps"), err
    assert f"over the cap of {convergence.MAX_BLOCK_VALUES}" in err, err
    assert not out.exists()


def test_strong_rate_run_and_determinism(tmp_path, monkeypatch):
    base = """
[experiment]
kind = strong-rate
seed = 31
output_dir = {out}

[grid]
n_cells = 32

[scheme]
kind = drift_gtem
tau = 0.001953125
horizon = 0.5

[initial]
kind = sine
amplitude = 2.0

[coefficients]
preset = allen-cahn

[monte_carlo]
paths = 4

[ladder]
axis = tau
taus = 0.03125, 0.015625, 0.0078125, 0.00390625
"""
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    cfg1 = write(tmp_path / "c1.ini", base.format(out=out1))
    cfg2 = write(tmp_path / "c2.ini", base.format(out=out2))
    cfg3 = write(tmp_path / "c3.ini", base.format(out=out3))
    monkeypatch.setenv("TAMEDSPDE_WORKERS", "1")
    assert main(["run", str(cfg1)]) == 0
    assert main(["run", str(cfg2)]) == 0
    monkeypatch.setenv("TAMEDSPDE_WORKERS", "3")
    assert main(["run", str(cfg3)]) == 0
    a, b, c = read_outputs(out1), read_outputs(out2), read_outputs(out3)
    skip = {"resolved_config.ini"}  # echoes the differing output_dir line
    assert set(a) == set(b) == set(c)
    for name in a:
        if name in skip:
            continue
        assert a[name] == b[name], f"rerun changed {name}"
        assert a[name] == c[name], f"worker count changed {name}"
    assert "strong_error_table.csv" in a and "rate_fit.csv" in a


def test_strong_rate_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 256 cells: nodal synthesis by DST-I, whose rows, like the tridiagonal
    # solve's, do not depend on how many BLAS threads OpenBLAS runs.
    # Subprocesses, because OpenBLAS reads its thread count at import.
    cfg = write(tmp_path / "ladder.ini", """
[experiment]
kind = strong-rate
seed = 20250809
output_dir = unused

[grid]
n_cells = 256

[scheme]
kind = drift_gtem
tau = 0.0009765625
horizon = 0.03125

[initial]
kind = sine
amplitude = 2.0

[coefficients]
preset = allen-cahn

[monte_carlo]
paths = 25

[ladder]
axis = tau
taus = 0.015625, 0.0078125, 0.00390625, 0.001953125
""")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, TAMEDSPDE_WORKERS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "tamedspde.cli", "run", str(cfg), "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(read_outputs(out))
    one, two = outputs
    assert "strong_error_table.csv" in one and set(one) == set(two)
    for name in one:
        assert one[name] == two[name], f"OPENBLAS_NUM_THREADS changed {name}"


def test_strong_rate_slope_band_failure_exits_one(tmp_path):
    cfg = write(tmp_path / "band.ini", f"""
[experiment]
kind = strong-rate
seed = 31
output_dir = {tmp_path / 'band_out'}

[grid]
n_cells = 32

[scheme]
kind = drift_gtem
tau = 0.001953125
horizon = 0.5

[initial]
kind = sine
amplitude = 2.0

[coefficients]
preset = allen-cahn

[monte_carlo]
paths = 4

[ladder]
axis = tau
taus = 0.03125, 0.015625, 0.0078125, 0.00390625
min_slope = 3.5
max_slope = 4.0
""")
    assert main(["run", str(cfg)]) == 1


def test_strong_rate_with_no_positive_error_is_a_failed_check(tmp_path, capsys):
    # zero diffusion from zero initial data: every path stays at 0, every error is 0
    out = tmp_path / "zero_out"
    cfg = write(tmp_path / "zero.ini", f"""
[experiment]
kind = strong-rate
seed = 31
output_dir = {out}

[grid]
n_cells = 16

[scheme]
kind = drift_gtem
tau = 0.001953125
horizon = 0.0625

[initial]
kind = sine
amplitude = 0.0

[coefficients]
preset = allen-cahn
g0 = 0.0

[monte_carlo]
paths = 2

[ladder]
axis = tau
taus = 0.03125, 0.015625, 0.0078125, 0.00390625
min_slope = 0.8
""")
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == ""
    table = (out / "strong_error_table.csv").read_text().splitlines()
    assert len(table) == 5 and all(",0.0," in row for row in table[1:])
    verdict = (out / "verdict.txt").read_text().splitlines()
    assert verdict == [
        "FAIL strong-rate-fit: need >= 4 positive points for a rate fit, got 0",
        "overall: FAIL",
    ]


def test_coupling_ergodic_blowup_kinds(tmp_path):
    common = """
[grid]
n_cells = 16

[coefficients]
preset = allen-cahn

[noise]
decay = 3.0
scale = 1.0
"""
    out_c = tmp_path / "coup"
    cfg = write(tmp_path / "coup.ini", f"""
[experiment]
kind = coupling
seed = 5
output_dir = {out_c}

[scheme]
kind = drift_gtem
tau = 0.015625
horizon = 1.0

[coupling]
amplitude_a = 0
amplitude_b = 3
steps = 80

[monte_carlo]
paths = 10
{common}""")
    assert main(["run", str(cfg)]) == 0
    assert (out_c / "coupling_distance.csv").read_text().startswith("experiment,step,")

    out_e = tmp_path / "erg"
    cfg = write(tmp_path / "erg.ini", f"""
[experiment]
kind = ergodic
seed = 5
output_dir = {out_e}

[scheme]
kind = drift_gtem
tau = 0.015625
horizon = 512.0

[ergodic]
observables = l2_sq, one
amplitudes = 0, 2
tolerance = 0.2

[monte_carlo]
record_stride = 8
{common}""")
    assert main(["run", str(cfg)]) == 0
    assert "ergodic_averages.csv" in {p.name for p in out_e.iterdir()}

    out_b = tmp_path / "blow"
    cfg = write(tmp_path / "blow.ini", f"""
[experiment]
kind = blowup
seed = 5
output_dir = {out_b}

[scheme]
kind = untamed_em
tau = 0.5
horizon = 25.0

[coefficients]
preset = allen-cahn
epsilon = 0.5

[blowup]
amplitudes = 5
min_untamed_frequency = 0.5

[monte_carlo]
paths = 10

[grid]
n_cells = 16

[noise]
decay = 3.0
scale = 1.0
""")
    assert main(["run", str(cfg)]) == 0
    table = (out_b / "blowup_frequencies.csv").read_text()
    assert table.splitlines()[1].startswith("blowup,5.0,0.5,")


def test_semigroup_rate_kind(tmp_path):
    out = tmp_path / "sg"
    cfg = write(tmp_path / "sg.ini", f"""
[experiment]
kind = semigroup-rate
seed = 1
output_dir = {out}

[ladder]
axis = h
n_cells = 8, 16, 32, 64
min_slope = 1.9
max_slope = 2.1
""")
    assert main(["run", str(cfg)]) == 0
    assert (out / "semigroup_error_table.csv").exists()
    assert (out / "semigroup_error_plot.csv").exists()
