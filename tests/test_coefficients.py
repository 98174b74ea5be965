import numpy as np
import pytest

from tamedspde.coefficients import (
    CoefficientSpec,
    DiffusionKind,
    InfeasibleAssumptions,
    PRESETS,
    allen_cahn,
    check_assumptions,
    cubic_with_quadratic_g,
    default_alpha,
    double_well,
    eval_f,
    eval_f_prime,
    eval_f_second,
    eval_f_tau,
    eval_f_tau_prime,
    eval_g,
    eval_g_tau,
    linear_ou,
    lipschitz_sqrt_g,
)
from tamedspde.noise import QWienerSpec

NOISE = QWienerSpec(3.0, 1.0, 255)

# Frozen certified constants (fitted once on [-20, 20] x tau in (0, 1], padded):
#   tau |f_tau(x)|^2 <= C_SQ (1 + x^2)      and      |f_tau'(x)| <= C_DERIV / sqrt(tau)
FROZEN_TAMING = {
    "allen-cahn": (allen_cahn(1.0), 1.05, 1.64),
    "double-well": (double_well(), 1.05, 1.64),
    "cubic": (cubic_with_quadratic_g(), 4.4, 3.4),
    "linear-ou": (linear_ou(), 0.55, 0.75),
    "lipschitz-sqrt": (lipschitz_sqrt_g(0.2), 1.05, 1.64),
}

SCAN = np.linspace(-20.0, 20.0, 20001)
TAUS = np.logspace(-6, 0, 13)


def test_allen_cahn_point_values():
    ac = allen_cahn(1.0)
    assert eval_f(ac, 0.0) == 0.0
    assert eval_f(ac, 1.0) == 0.0
    assert eval_f(ac, 2.0) == -6.0  # 2 - 8
    assert eval_f_prime(ac, 0.0) == 1.0
    assert eval_f_second(ac, 1.0) == -6.0


def test_f_tau_values():
    ac = allen_cahn(1.0)
    assert eval_f_tau(ac, 0.3, 0.0) == eval_f(ac, 0.0)
    got = eval_f_tau(ac, 0.01, 2.0)
    assert np.isclose(got, -6.0 / np.sqrt(1.16), rtol=1e-14)
    with pytest.raises(ValueError):
        eval_f_tau(ac, 0.0, 1.0)
    with pytest.raises(ValueError):
        eval_f_tau(ac, 1.5, 1.0)


def test_f_tau_pointwise_limit_bound():
    # |f - f_tau| <= tau |x|^{2q} |f| / 2  (and the sqrt(tau) variant below)
    ac = allen_cahn(1.0)
    f = eval_f(ac, SCAN)
    for tau in TAUS:
        diff = np.abs(f - eval_f_tau(ac, float(tau), SCAN))
        b1 = tau * np.abs(SCAN) ** 4 * np.abs(f) / 2.0
        b2 = np.sqrt(2.0) / 2.0 * np.sqrt(tau) * SCAN**2 * np.abs(f)
        assert np.all(diff <= np.minimum(b1, b2) + 1e-12)


def test_g_tau_variants():
    spec = CoefficientSpec(drift=(0.0, 1.0, 0.0, -1.0), diffusion=(0.0, 0.0, 0.1), q=2)
    assert eval_g_tau(spec, 0.5, 0.0) == eval_g(spec, 0.0)
    got = eval_g_tau(spec, 0.04, 3.0)  # g(3) = 0.9, denom sqrt(1 + 0.2*9)
    assert np.isclose(got, 0.9 / np.sqrt(2.8), rtol=1e-14)
    spec_b = CoefficientSpec(
        drift=(0.0, 1.0, 0.0, -1.0), diffusion=(0.0, 0.0, 0.1), q=2, variant="both_b"
    )
    got_b = eval_g_tau(spec_b, 0.04, 3.0)
    assert np.isclose(got_b, 0.9 / np.sqrt(1.0 + 0.2 * 81.0), rtol=1e-14)
    drift_only = linear_ou()
    assert np.array_equal(eval_g_tau(drift_only, 0.3, SCAN), eval_g(drift_only, SCAN))


@pytest.mark.parametrize("name", sorted(FROZEN_TAMING))
def test_taming_never_amplifies(name):
    spec, _, _ = FROZEN_TAMING[name]
    for tau in TAUS:
        assert np.all(
            np.abs(eval_f_tau(spec, float(tau), SCAN)) <= np.abs(eval_f(spec, SCAN)) + 1e-15
        )
        assert np.all(
            np.abs(eval_g_tau(spec, float(tau), SCAN)) <= np.abs(eval_g(spec, SCAN)) + 1e-15
        )


@pytest.mark.parametrize("name", sorted(FROZEN_TAMING))
def test_frozen_taming_inequalities(name):
    spec, c_sq, c_deriv = FROZEN_TAMING[name]
    for tau in TAUS:
        ft = eval_f_tau(spec, float(tau), SCAN)
        assert np.all(tau * ft**2 <= c_sq * (1.0 + SCAN**2))
        fpt = eval_f_tau_prime(spec, float(tau), SCAN)
        assert np.all(np.abs(fpt) <= c_deriv / np.sqrt(tau))


def test_f_tau_prime_matches_finite_differences():
    ac = allen_cahn(1.0)
    xi, tau, d = 1.7, 0.05, 1e-6
    fd = (eval_f_tau(ac, tau, xi + d) - eval_f_tau(ac, tau, xi - d)) / (2.0 * d)
    assert np.isclose(eval_f_tau_prime(ac, tau, xi), fd, rtol=1e-6)
    assert eval_f_tau_prime(ac, 0.3, 0.0) == eval_f_prime(ac, 0.0)


@pytest.mark.parametrize("name", sorted(FROZEN_TAMING))
def test_f_tau_prime_derivative_consistency(name):
    # central differences as the independent oracle, random (xi, tau)
    spec, _, _ = FROZEN_TAMING[name]
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        xi = float(rng.uniform(-5.0, 5.0))
        tau = float(rng.uniform(0.01, 1.0))
        d = 1e-6 * max(1.0, abs(xi))
        fd = (eval_f_tau(spec, tau, xi + d) - eval_f_tau(spec, tau, xi - d)) / (2.0 * d)
        cf = eval_f_tau_prime(spec, tau, xi)
        if abs(fd) > 1e-8:
            worst = max(worst, abs(cf - fd) / abs(fd))
    assert worst <= 1e-5


def test_f_tau_prime_capped_by_report_constant():
    rep = check_assumptions(allen_cahn(1.0), NOISE)
    for tau in TAUS:
        sup = float(np.max(eval_f_tau_prime(allen_cahn(1.0), float(tau), SCAN)))
        assert sup <= rep.tamed_derivative_bound


def test_check_assumptions_allen_cahn():
    rep = check_assumptions(allen_cahn(1.0), NOISE)
    assert rep.feasible and not rep.q_flag
    # leading term -x^4: fitted decay constant lands near 1
    assert 0.85 <= rep.coercive_decay <= 1.0
    assert rep.tau_max == min(
        (rep.coercive_decay - rep.beta) ** 2 / (8.0 * rep.growth_scale**4), 1.0
    )
    # defaults: beta = L2/2 and alpha^q/sqrt(1+alpha^{2q}) = 1/2
    assert np.isclose(rep.beta, rep.coercive_decay / 2.0)
    a = rep.alpha
    assert np.isclose(a**2 / np.sqrt(1.0 + a**4), 0.5, rtol=1e-12)
    assert np.isclose(rep.lyap_contraction, 2.0 * rep.beta * 0.5, rtol=1e-12)
    assert np.isclose(
        rep.lyap_source, 2.0 * (rep.coercive_offset + 2.0 * rep.growth_offset**2)
    )
    # certified constants hold pointwise on an independent scan
    xi = np.linspace(-15.0, 15.0, 30001)
    f = eval_f(allen_cahn(1.0), xi)
    g_ = eval_g(allen_cahn(1.0), xi)
    assert np.all(
        xi * f + rep.c_q * g_**2
        <= rep.coercive_offset - rep.coercive_decay * np.abs(xi) ** 4 + 1e-9
    )
    assert np.all(np.abs(f) <= rep.growth_offset + rep.growth_scale * np.abs(xi) ** 3 + 1e-9)


def test_check_assumptions_rejects_positive_leading_cubic():
    bad = CoefficientSpec(drift=(0.0, 0.0, 0.0, 1.0), diffusion=(1.0,), q=2,
                          variant="drift_only")
    rep = check_assumptions(bad, NOISE)
    assert not rep.feasible
    names = {v.inequality for v in rep.violations}
    assert "f-mon" in names and "coe" in names
    witness = [v for v in rep.violations if v.inequality == "f-mon"][0].witness
    assert abs(witness) >= 0.95 * rep.scan_radius
    with pytest.raises(InfeasibleAssumptions):
        rep.require_feasible()


def test_check_assumptions_q_zero_flag():
    rep = check_assumptions(linear_ou(), NOISE)
    assert rep.feasible and rep.q_flag
    assert default_alpha(0) == 1.0


def test_presets_all_pass_with_default_noise():
    assert len(PRESETS) >= 4
    for name, (factory, _desc, (decay, scale)) in PRESETS.items():
        rep = check_assumptions(factory(), QWienerSpec(decay, scale, 255))
        assert rep.feasible, name


def test_scan_parameters_validated():
    with pytest.raises(ValueError):
        check_assumptions(allen_cahn(1.0), NOISE, scan_radius=5.0)
    with pytest.raises(ValueError):
        check_assumptions(allen_cahn(1.0), NOISE, scan_points=100)


def test_spec_validation():
    with pytest.raises(ValueError):
        CoefficientSpec(drift=(0.0, 1.0, 1.0), diffusion=(1.0,), q=1)  # odd q
    with pytest.raises(ValueError):
        # positive leading drift with tamed, nonconstant g
        CoefficientSpec(drift=(0.0, 0.0, 0.0, 1.0), diffusion=(0.0, 0.0, 0.1), q=2)
    with pytest.raises(ValueError):
        CoefficientSpec(drift=(0.0, 1.0, 0.0, -1.0, 0.0, 1.0), diffusion=(1.0,), q=2)
    spec = lipschitz_sqrt_g(0.2)
    assert spec.diffusion_kind is DiffusionKind.SQRT_QUADRATIC
    assert np.isclose(eval_g(spec, 3.0), 0.2 * np.sqrt(10.0), rtol=1e-14)
    assert spec.diffusion_leading == 0.0
