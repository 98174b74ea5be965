import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tamedspde import convergence, engine, fem, noise
from tamedspde.cli import EXIT_NUMERICAL_FAILURE, main
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


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def read_outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "allen-cahn" in out
    assert out.count("\n      drift") >= 4
    assert "variant" not in out  # the scheme, not the preset, says what is tamed


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

    engine._operators.cache_clear()  # no factor cached by an earlier test
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


@pytest.mark.parametrize("variant, kind", [("both_a", "gtem"), ("both_b", "gtem_b"),
                                           ("drift_only", "drift_gtem")])
def test_removed_variant_key_names_the_scheme_kind(tmp_path, capsys, monkeypatch,
                                                   variant, kind):
    """Rejected, not ignored: dropping it silently would change what an old
    config computes."""
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
    err = capsys.readouterr().err
    assert err.startswith("config error: [coefficients] variant")
    assert err.rstrip().endswith(f"[scheme] kind = {kind}"), err
    assert not (out / "verdict.txt").exists()


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
            assert not (out / "verdict.txt").exists()


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
    assert not (out / "verdict.txt").exists()


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
    assert not (out / "verdict.txt").exists()


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
    assert not (out / "verdict.txt").exists()


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
    assert not (out / "verdict.txt").exists()


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
