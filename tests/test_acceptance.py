"""Acceptance suite: one test per criterion, at the stated tolerances, and
one more on criterion 10's shared config file.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The whole suite targets desk-scale hardware; the heaviest
items are the three Monte Carlo rate ladders and the 10^5-step long-run
bound (a few minutes each).
"""

import configparser
import time

import numpy as np

import conftest

from tamedspde.coefficients import (
    allen_cahn,
    check_assumptions,
    cubic_with_quadratic_g,
    double_well,
    eval_f,
    eval_f_tau,
    eval_f_tau_prime,
    eval_g,
    eval_g_tau,
    linear_ou,
    lipschitz_sqrt_g,
)
from tamedspde.convergence import (
    fit_rate,
    fit_rate_xy,
    semigroup_error_test,
    strong_error_ladder,
)
from tamedspde.ergodicity import (
    coupling_decay_test,
    em_blowup_probe,
    ergodic_limit_test,
    long_run_moment_test,
    lyapunov_contraction_test,
)
from tamedspde.engine import resolvent_rows
from tamedspde.fem import assemble, dispersion_eigenvalue, eigen_smallest
from tamedspde.grid import Grid1D, l2_norm
from tamedspde.noise import QWienerSpec
from tamedspde.schemes import CoefficientSpec, InitialCondition, SchemeConfig

SEED = 20250809


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    conftest.record_acceptance(line)
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_additive_temporal_rate():
    t0 = time.perf_counter()
    ref = SchemeConfig(
        tau=2.0**-13, grid=Grid1D(256), horizon=1.0, scheme="drift_gtem",
        coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, 255), seed=SEED,
    )
    table = strong_error_ladder(
        ref, InitialCondition("sine", amplitude=2.0), n_paths=100,
        coarse_taus=[2.0**-j for j in range(5, 11)],
    )
    fit = fit_rate(table)
    elapsed = time.perf_counter() - t0
    ok = 0.8 <= fit.slope <= 1.2 and fit.r_squared >= 0.95
    report(
        "1 (additive temporal rate)", ok,
        f"slope {fit.slope:.3f} in [0.8, 1.2], R^2 {fit.r_squared:.4f} >= 0.95, "
        f"runtime {elapsed:.0f}s (< 600s target: {elapsed < 600})",
    )


def test_criterion_02_additive_spatial_rate():
    ref = SchemeConfig(
        tau=2.0**-12, grid=Grid1D(256), horizon=1.0, scheme="drift_gtem",
        coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, 255), seed=SEED,
    )
    table = strong_error_ladder(
        ref, InitialCondition("sine", amplitude=2.0), n_paths=100,
        coarse_n_cells=[4, 8, 16, 32, 64],
    )
    fit = fit_rate(table)
    ok = 1.6 <= fit.slope <= 2.2
    report(
        "2 (additive spatial rate)", ok,
        f"slope {fit.slope:.3f} in [1.6, 2.2], R^2 {fit.r_squared:.4f}",
    )


def test_criterion_03_multiplicative_temporal_rate():
    ref = SchemeConfig(
        tau=2.0**-13, grid=Grid1D(256), horizon=1.0, scheme="drift_gtem",
        coefficients=lipschitz_sqrt_g(0.2), noise=QWienerSpec(3.0, 64.0, 255),
        seed=SEED,
    )
    table = strong_error_ladder(
        ref, InitialCondition("sine", amplitude=2.0), n_paths=100,
        coarse_taus=[2.0**-j for j in range(5, 11)],
    )
    fit = fit_rate(table)
    ok = 0.35 <= fit.slope <= 0.65
    report(
        "3 (multiplicative temporal rate)", ok,
        f"slope {fit.slope:.3f} in [0.35, 0.65], R^2 {fit.r_squared:.4f}",
    )


def _certified_ac_config(n_cells=32, tau=2.0**-6, horizon=1.0, seed=SEED):
    noise = QWienerSpec(3.0, 1.0, n_cells - 1)
    config = SchemeConfig(
        tau=tau, grid=Grid1D(n_cells), horizon=horizon, scheme="gtem",
        coefficients=allen_cahn(1.0), noise=noise, seed=seed,
    )
    return config, check_assumptions(allen_cahn(1.0), noise)


def test_criterion_04_lyapunov_one_step_contraction():
    config, rep = _certified_ac_config()
    assert config.tau <= rep.tau_max
    amplitudes = np.linspace(0.0, 10.0, 10)
    anchors = [
        InitialCondition("sine", amplitude=float(a)).build(config.grid)
        for a in amplitudes
    ]
    probes = lyapunov_contraction_test(config, anchors, 10_000, rep)
    # the ||x||^2 bound implies the V(x) form, since V(x) >= ||x||^2
    violations = [
        (a, p) for a, p in zip(amplitudes, probes)
        if p.estimate > p.bound + 3.0 * p.std_error
    ]
    margins = [
        (p.bound + 3.0 * p.std_error - p.estimate) for p in probes
    ]
    report(
        "4 (Lyapunov one-step contraction)", not violations,
        f"{len(probes)} anchors, zero violations of "
        f"(1-K1 tau)||x||^2 + K2 tau + 3SE; min margin {min(margins):.3f} "
        f"(K1={rep.lyap_contraction:.4f}, K2={rep.lyap_source:.3f}, "
        f"tau_max={rep.tau_max:.4f})",
    )


def test_criterion_05_infinite_horizon_bound():
    n_steps = 100_000
    tau = 2.0**-6
    config, rep = _certified_ac_config(horizon=tau * n_steps)
    x0 = InitialCondition("sine", amplitude=10.0).build(config.grid)
    res = long_run_moment_test(config, x0, n_paths=100, report=rep, record_stride=1000)
    excess = res.mean_l2_sq - (res.envelope + 3.0 * res.std_error)
    ok = bool(np.all(excess <= 0.0)) and res.n_blowups == 0
    report(
        "5 (infinite-horizon moment bound)", ok,
        f"E||Z_n||^2 under K2/K1 + exp(-K1 tau n)||X0||^2 + 3SE at all "
        f"{len(res.steps)} recorded times over {n_steps} steps x 100 paths; "
        f"max excess {excess.max():.3e}; blow-ups {res.n_blowups}",
    )


def test_criterion_06_untamed_blowup_contrast():
    grid = Grid1D(64)
    config = SchemeConfig(
        tau=0.5, grid=grid, horizon=50.0, scheme="untamed_em",
        coefficients=allen_cahn(0.5), noise=QWienerSpec(3.0, 1.0, 63), seed=SEED,
    )
    rows = em_blowup_probe(config, amplitudes=(5.0,), n_paths=100)
    row = rows[0]
    ok = row.untamed_frequency >= 0.5 and row.tamed_frequency == 0.0
    report(
        "6 (untamed blow-up contrast)", ok,
        f"untamed frequency {row.untamed_frequency:.2f} >= 0.5; paired tamed "
        f"frequency {row.tamed_frequency:.2f} on identical noise",
    )


def test_criterion_07_geometric_ergodicity_proxies():
    grid = Grid1D(64)
    noise = QWienerSpec(3.0, 1.0, 63)
    tau = 2.0**-6
    # (a) synchronous-coupling decay on the additive Allen-Cahn preset
    cfg = SchemeConfig(tau=tau, grid=grid, horizon=1.0, scheme="drift_gtem",
                       coefficients=allen_cahn(1.0), noise=noise, seed=SEED)
    coup = coupling_decay_test(
        cfg,
        InitialCondition("sine", amplitude=0.0).build(grid),
        InitialCondition("sine", amplitude=5.0).build(grid),
        n_steps=150, n_paths=100,
    )
    ok_a = coup.slope is not None and coup.slope < 0 and coup.r_squared > 0.9

    # (b) ergodic-limit agreement of ||x||^2 from amplitudes {0, 5}
    n_steps = 200_000
    cfg_erg = SchemeConfig(tau=tau, grid=grid, horizon=tau * n_steps,
                           scheme="drift_gtem", coefficients=allen_cahn(1.0),
                           noise=noise, seed=SEED + 1)
    ests = ergodic_limit_test(
        cfg_erg, ("l2_sq",),
        [InitialCondition("sine", amplitude=0.0).build(grid),
         InitialCondition("sine", amplitude=5.0).build(grid)],
        burn_in_steps=n_steps // 5, tolerance=0.05, record_stride=8,
    )
    est = ests[0]
    ok_b = est.passed

    # (c) zero drift, constant g: exact resolvent contraction on mode 1
    lin = SchemeConfig(
        tau=tau, grid=grid, horizon=1.0, scheme="drift_gtem",
        coefficients=CoefficientSpec(drift=(0.0,), diffusion=(1.0,), q=0),
        noise=noise, seed=SEED,
    )
    lin_coup = coupling_decay_test(
        lin,
        InitialCondition("sine", amplitude=1.0).build(grid),
        InitialCondition("sine", amplitude=0.5).build(grid),
        n_steps=120, n_paths=2,
    )
    expected = -np.log(1.0 + tau * dispersion_eigenvalue(grid))
    ok_c = lin_coup.slope is not None and abs(lin_coup.slope - expected) <= 1e-3
    report(
        "7 (geometric ergodicity proxies)", ok_a and ok_b and ok_c,
        f"coupling slope {coup.slope:.4f} (<0) with R^2 {coup.r_squared:.3f} (>0.9); "
        f"ergodic ||x||^2 disagreement {est.max_rel_disagreement:.4f} (<=0.05); "
        f"linear-OU slope {lin_coup.slope:.6f} vs -ln(1+tau lam_h1) "
        f"= {expected:.6f} (|diff| <= 1e-3)",
    )


def test_criterion_08_operator_suite():
    # P1 dispersion at h = 1/4, reproduced to 1e-10
    grid4 = Grid1D(4)
    lam = eigen_smallest(assemble(grid4))
    closed = dispersion_eigenvalue(grid4)
    ok_disp = abs(lam - closed) <= 1e-10 and abs(closed - 10.386642005221232) < 1e-9

    # resolvent nonexpansiveness over 10^3 random (u, tau, k)
    rng = np.random.default_rng(SEED)
    grid = Grid1D(64)
    ops = assemble(grid)
    worst = -np.inf
    for _ in range(1000):
        u = rng.standard_normal(63) * rng.uniform(0.1, 10.0)
        tau = float(10.0 ** rng.uniform(-3.0, 0.0))
        k = int(rng.integers(1, 101))
        z = u
        for _ in range(k):
            z = resolvent_rows(ops, tau, z)
        worst = max(worst, l2_norm(z) - l2_norm(u))
    ok_nonexp = worst <= 1e-10

    # semigroup convergence orders
    cells = [8, 16, 32, 64, 128]
    fit_h = fit_rate_xy(*semigroup_error_test(cells, [1.0 / nc**2 for nc in cells], axis="h"))
    taus = [2.0**-k for k in range(8, 13)]
    fit_t = fit_rate_xy(*semigroup_error_test([256] * 5, taus, axis="tau"))
    ok_rates = abs(fit_h.slope - 2.0) <= 0.1 and abs(fit_t.slope - 1.0) <= 0.1

    report(
        "8 (operator suite)", ok_disp and ok_nonexp and ok_rates,
        f"dispersion |lam - closed| = {abs(lam - closed):.2e} (<=1e-10); "
        f"nonexpansiveness worst excess {worst:.2e} (<=1e-10) over 10^3 draws; "
        f"semigroup slopes h: {fit_h.slope:.3f} (2.0 +/- 0.1), "
        f"tau: {fit_t.slope:.3f} (1.0 +/- 0.1)",
    )


# Frozen constants certified once for the scan inequalities (see test_coefficients).
TAMING_SUITE = {
    "allen-cahn": (allen_cahn(1.0), 1.05, 1.64),
    "double-well": (double_well(), 1.05, 1.64),
    "cubic-with-quadratic-g": (cubic_with_quadratic_g(), 4.4, 3.4),
    "linear-ou": (linear_ou(), 0.55, 0.75),
    "lipschitz-sqrt-g": (lipschitz_sqrt_g(0.2), 1.05, 1.64),
}


def test_criterion_09_taming_function_suite():
    xi = np.linspace(-20.0, 20.0, 40001)
    taus = np.logspace(-6, 0, 13)
    rng = np.random.default_rng(SEED)
    failures = []
    worst_fd = 0.0
    for name, (spec, c_sq, c_deriv) in TAMING_SUITE.items():
        f = eval_f(spec, xi)
        q2 = 2 * spec.q
        for tau in taus:
            tau = float(tau)
            ft = eval_f_tau(spec, tau, xi)
            if not np.all(np.abs(ft) <= np.abs(f) + 1e-15):
                failures.append(f"{name}: |f_tau| > |f| at tau={tau:g}")
            if not np.all(tau * ft**2 <= c_sq * (1.0 + xi**2)):
                failures.append(f"{name}: tau |f_tau|^2 bound at tau={tau:g}")
            fpt = eval_f_tau_prime(spec, tau, xi)
            if not np.all(np.abs(fpt) <= c_deriv / np.sqrt(tau)):
                failures.append(f"{name}: |f_tau'| bound at tau={tau:g}")
            b1 = tau * np.abs(xi) ** q2 * np.abs(f) / 2.0
            b2 = np.sqrt(2.0) / 2.0 * np.sqrt(tau) * np.abs(xi) ** spec.q * np.abs(f)
            if not np.all(np.abs(f - ft) <= np.minimum(b1, b2) + 1e-12):
                failures.append(f"{name}: |f - f_tau| min-bound at tau={tau:g}")
            for power in (spec.q // 2, spec.q):  # gtem, gtem_b
                g_tau = eval_g_tau(spec, tau, xi, power)
                if not np.all(np.abs(g_tau) <= np.abs(eval_g(spec, xi)) + 1e-15):
                    failures.append(f"{name}: |g_tau| > |g| at tau={tau:g}, power {power}")
        # derivative vs centered finite differences on random (xi, tau)
        for _ in range(200):
            x = float(rng.uniform(-5.0, 5.0))
            tau = float(rng.uniform(0.01, 1.0))
            d = 1e-6 * max(1.0, abs(x))
            fd = (eval_f_tau(spec, tau, x + d) - eval_f_tau(spec, tau, x - d)) / (2 * d)
            cf = eval_f_tau_prime(spec, tau, x)
            if abs(fd) > 1e-8:
                worst_fd = max(worst_fd, abs(cf - fd) / abs(fd))
    ok = not failures and worst_fd <= 1e-5
    report(
        "9 (taming-function suite)", ok,
        f"4 scan inequalities hold at every point for {len(TAMING_SUITE)} presets "
        f"x {len(taus)} step sizes; derivative-vs-FD worst relative error "
        f"{worst_fd:.2e} (<= 1e-5)" + (f"; failures: {failures[:3]}" if failures else ""),
    )


# Criterion 10 feeds one file to two kinds; each reads only its own sections.
CRITERION_10_CONFIG = """
[experiment]
kind = {kind}
seed = 77
output_dir = {out}

[grid]
n_cells = 32

[scheme]
kind = gtem
tau = 0.015625
horizon = 4.0

[initial]
kind = sine
amplitude = 10.0

[coefficients]
preset = allen-cahn

[monte_carlo]
paths = 60
record_stride = 32

[lyapunov]
amplitudes = 0, 5, 10
samples = 2000
"""


def test_criterion_10_determinism_across_runs_and_workers(tmp_path, monkeypatch):
    from tamedspde.cli import main

    mismatches = []
    for kind in ("longrun", "lyapunov"):
        outputs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{kind}_{tag}"
            cfg = tmp_path / f"{kind}_{tag}.ini"
            cfg.write_text(CRITERION_10_CONFIG.format(kind=kind, out=out), encoding="utf-8")
            monkeypatch.setenv("TAMEDSPDE_WORKERS", workers)
            code = main(["run", str(cfg)])
            assert code == 0, f"{kind} run failed with exit {code}"
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                    if p.name != "resolved_config.ini"  # echoes the output path
                }
            )
        for name in outputs[0]:
            if not (outputs[0][name] == outputs[1][name] == outputs[2][name]):
                mismatches.append(f"{kind}/{name}")
    report(
        "10 (byte-identical determinism)", not mismatches,
        "longrun and lyapunov outputs byte-identical across reruns and worker "
        f"counts 1 vs 4" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_10_shared_file_runs_as_lyapunov_without_its_monte_carlo_section(tmp_path):
    """A section only another kind reads is accepted, and left out of the
    run's parsed map: ``resolved_config.ini`` lists what the run reads."""
    from tamedspde.cli import main

    out = tmp_path / "lyapunov"
    cfg = tmp_path / "shared.ini"
    cfg.write_text(CRITERION_10_CONFIG.format(kind="lyapunov", out=out), encoding="utf-8")
    assert main(["run", str(cfg)]) == 0
    parser = configparser.ConfigParser()
    parser.read_string((out / "resolved_config.ini").read_text(encoding="utf-8"))
    assert "lyapunov" in parser.sections()
    assert "monte_carlo" not in parser.sections() and "initial" not in parser.sections()
