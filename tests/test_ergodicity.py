import numpy as np
import pytest

from tamedspde.coefficients import (
    CoefficientSpec,
    allen_cahn,
    check_assumptions,
    double_well,
    linear_ou,
)
from tamedspde.ergodicity import (
    OBSERVABLE_ROWS,
    StepSizeNotCertified,
    coupling_decay_test,
    em_blowup_probe,
    ergodic_limit_test,
    linear_stationary_l2_sq,
    long_run_moment_test,
    lyapunov_contraction_test,
    nondegeneracy_precheck,
)
from tamedspde.fem import dispersion_eigenvalue
from tamedspde.grid import Grid1D, GridFunction, sine_transform, zeros
from tamedspde.noise import QWienerSpec
from tamedspde.schemes import InitialCondition, SchemeConfig

GRID = Grid1D(32)
NOISE = QWienerSpec(3.0, 1.0, 31)
AC = allen_cahn(1.0)
AC_REPORT = check_assumptions(AC, NOISE)


def ac_config(tau=2.0**-6, horizon=1.0, scheme="gtem", seed=17):
    return SchemeConfig(tau=tau, grid=GRID, horizon=horizon, scheme=scheme,
                        coefficients=AC, noise=NOISE, seed=seed)


def test_lyapunov_zero_anchor_and_ladder():
    cfg = ac_config()
    anchors = [InitialCondition("sine", amplitude=a).build(GRID) for a in (0.0, 4.0, 10.0)]
    probes = lyapunov_contraction_test(cfg, anchors, 2000, AC_REPORT)
    k2 = AC_REPORT.lyap_source
    # zero anchor: bound reduces to K2 tau
    assert probes[0].anchor_l2_sq == 0.0
    assert np.isclose(probes[0].bound, k2 * cfg.tau, rtol=1e-12)
    for p in probes:
        assert p.passed
    # contraction strictly visible from a large anchor
    assert probes[2].estimate < probes[2].anchor_V


def test_lyapunov_refuses_uncertified_tau():
    cfg = ac_config(tau=0.125, horizon=1.0)  # tau_max ~ 0.0216
    anchors = [zeros(GRID)]
    with pytest.raises(StepSizeNotCertified) as err:
        lyapunov_contraction_test(cfg, anchors, 2000, AC_REPORT)
    assert err.value.report.tau_max is not None


def test_long_run_moment_envelope():
    report = AC_REPORT
    cfg = ac_config(horizon=16.0)
    x0 = InitialCondition("sine", amplitude=10.0).build(GRID)
    res = long_run_moment_test(cfg, x0, n_paths=20, report=report, record_stride=64)
    assert res.passed and res.n_blowups == 0
    # the chain forgets amplitude-10 data: final mean well below the start
    assert res.mean_l2_sq[-1] < res.mean_l2_sq[0] / 2.0
    # zero start stays below the stationary part of the envelope
    res0 = long_run_moment_test(cfg, zeros(GRID), n_paths=20, report=report,
                                record_stride=64)
    k1, k2 = report.lyap_contraction, report.lyap_source
    assert np.all(res0.mean_l2_sq <= k2 / k1 + 3.0 * res0.std_error)


def test_long_run_seed_stability():
    report = AC_REPORT
    x0 = InitialCondition("sine", amplitude=3.0).build(GRID)
    a = long_run_moment_test(ac_config(horizon=8.0, seed=1), x0, 30, report, 64)
    b = long_run_moment_test(ac_config(horizon=8.0, seed=2), x0, 30, report, 64)
    gap = np.abs(a.mean_l2_sq - b.mean_l2_sq)
    assert np.all(gap <= 3.0 * (a.std_error + b.std_error) + 1e-12)


def test_coupling_identical_initial_data():
    cfg = ac_config()
    x0 = InitialCondition("sine", amplitude=2.0).build(GRID)
    res = coupling_decay_test(cfg, x0, x0, n_steps=20, n_paths=3)
    assert np.all(res.mean_distance == 0.0)
    assert res.slope is None


def test_coupling_linear_case_exact_slope():
    # f = 0, constant g: the distance contracts exactly by the resolvent
    spec = CoefficientSpec(drift=(0.0,), diffusion=(1.0,), q=0, variant="drift_only")
    tau = 2.0**-6
    cfg = SchemeConfig(tau=tau, grid=GRID, horizon=1.0, scheme="drift_gtem",
                       coefficients=spec, noise=NOISE, seed=5)
    x0a = InitialCondition("sine", amplitude=1.0).build(GRID)
    x0b = InitialCondition("sine", amplitude=0.25).build(GRID)
    res = coupling_decay_test(cfg, x0a, x0b, n_steps=120, n_paths=2)
    expected = -np.log(1.0 + tau * dispersion_eigenvalue(GRID))
    assert res.slope is not None
    assert abs(res.slope - expected) <= 1e-3
    assert res.r_squared > 0.999999


def test_coupling_allen_cahn_contracts():
    cfg = SchemeConfig(tau=2.0**-6, grid=GRID, horizon=1.0, scheme="drift_gtem",
                       coefficients=AC, noise=NOISE, seed=6)
    x0a = zeros(GRID)
    x0b = InitialCondition("sine", amplitude=5.0).build(GRID)
    res = coupling_decay_test(cfg, x0a, x0b, n_steps=150, n_paths=20)
    assert res.slope is not None and res.slope < 0
    assert res.r_squared > 0.9


def test_nondegeneracy_precheck():
    assert nondegeneracy_precheck(linear_ou()).passed  # g = 1
    vanishing = CoefficientSpec(drift=(0.0, -1.0), diffusion=(0.0, 1.0), q=0,
                                variant="drift_only")
    res = nondegeneracy_precheck(vanishing)  # g(x) = x vanishes at 0
    assert not res.passed
    assert any(abs(w) < 1e-9 for w in res.witnesses)
    assert nondegeneracy_precheck(double_well()).passed  # g = 0.1 + 0.05 x^2


def test_ergodic_limit_linear_oracle():
    tau = 2.0**-6
    cfg = SchemeConfig(tau=tau, grid=GRID, horizon=tau * 2**17, scheme="drift_gtem",
                       coefficients=linear_ou(), noise=NOISE, seed=23)
    x0s = [zeros(GRID), InitialCondition("sine", amplitude=3.0).build(GRID)]
    ests = ergodic_limit_test(cfg, ("l2_sq", "one"), x0s,
                              burn_in_steps=2**14, record_stride=4)
    by_name = {e.observable: e for e in ests}
    oracle = linear_stationary_l2_sq(cfg)
    for avg in by_name["l2_sq"].time_averages:
        assert abs(avg - oracle) / oracle <= 0.05
    assert by_name["l2_sq"].passed
    # constant observable averages to exactly one
    assert np.all(by_name["one"].time_averages == 1.0)


def test_ergodic_limit_invariant_to_seed_and_burn_in():
    tau = 2.0**-6
    x0s = [zeros(GRID), InitialCondition("sine", amplitude=2.0).build(GRID)]

    def run(seed, burn):
        cfg = SchemeConfig(tau=tau, grid=GRID, horizon=tau * 2**16,
                           scheme="drift_gtem", coefficients=linear_ou(),
                           noise=NOISE, seed=seed)
        return ergodic_limit_test(cfg, ("l2_sq",), x0s, burn_in_steps=burn,
                                  record_stride=4)[0]

    a = run(101, 2**13)
    b = run(202, 2**13)  # fresh master seed
    c = run(101, 2**14)  # doubled burn-in
    for other in (b, c):
        gap = abs(a.ensemble_average - other.ensemble_average)
        ci = 3.0 * (np.max(a.std_errors) + np.max(other.std_errors))
        assert gap <= ci


def test_ergodic_limit_short_horizon_widens_ci():
    cfg = SchemeConfig(tau=2.0**-6, grid=GRID, horizon=2.0, scheme="drift_gtem",
                       coefficients=linear_ou(), noise=NOISE, seed=24)
    ests = ergodic_limit_test(cfg, ("l2_sq",), [zeros(GRID)], burn_in_steps=16)
    assert ests[0].widened_ci  # horizon far too short for the 5% tolerance
    with pytest.raises(ValueError):
        ergodic_limit_test(cfg, ("l2_sq",), [zeros(GRID)],
                           burn_in_steps=cfg.n_steps + 1)


def test_ergodic_limit_rejects_degenerate_g():
    vanishing = CoefficientSpec(drift=(0.0, -1.0), diffusion=(0.0, 1.0), q=0,
                                variant="drift_only")
    cfg = SchemeConfig(tau=0.125, grid=GRID, horizon=8.0, scheme="drift_gtem",
                       coefficients=vanishing, noise=NOISE)
    with pytest.raises(ValueError, match="nondegeneracy"):
        ergodic_limit_test(cfg, ("l2_sq",), [zeros(GRID)], burn_in_steps=4)


def test_blowup_probe_contrast():
    cfg = SchemeConfig(tau=0.5, grid=GRID, horizon=50.0, scheme="untamed_em",
                       coefficients=allen_cahn(0.5), noise=NOISE, seed=8)
    rows = em_blowup_probe(cfg, amplitudes=(5.0,), n_paths=10)
    assert rows[0].untamed_frequency >= 0.5
    assert rows[0].tamed_frequency == 0.0


def test_blowup_probe_linear_never_blows():
    cfg = SchemeConfig(tau=1.0, grid=GRID, horizon=100.0, scheme="untamed_em",
                       coefficients=linear_ou(), noise=NOISE, seed=9)
    rows = em_blowup_probe(cfg, amplitudes=(1.0, 10.0), n_paths=5)
    assert all(r.untamed_frequency == 0.0 for r in rows)


def test_linear_stationary_oracle_requires_linear_spec():
    with pytest.raises(ValueError):
        linear_stationary_l2_sq(ac_config())


def test_mode1_observable_matches_sine_transform():
    rng = np.random.default_rng(12)
    for n_cells in (8, 32, 257):
        grid = Grid1D(n_cells)
        cfg = SchemeConfig(tau=2.0**-6, grid=grid, horizon=1.0, scheme="gtem",
                           coefficients=AC, noise=QWienerSpec(3.0, 1.0, n_cells - 1))
        rows = rng.standard_normal((5, grid.n_interior)) * rng.uniform(0.1, 10.0, (5, 1))
        got = OBSERVABLE_ROWS["mode1"](rows, cfg)
        expected = [sine_transform(GridFunction(grid, r))[0] for r in rows]
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)
