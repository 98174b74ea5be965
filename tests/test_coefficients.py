import dataclasses

import numpy as np
import pytest

from tamedspde import coefficients
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
from tamedspde.engine import drift_diffusion_rows, step_plan
from tamedspde.grid import Grid1D
from tamedspde.noise import QWienerSpec
from tamedspde.schemes import SchemeConfig

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
    # power q/2 is gtem's g taming, power q is gtem_b's
    spec = CoefficientSpec(drift=(0.0, 1.0, 0.0, -1.0), diffusion=(0.0, 0.0, 0.1), q=2)
    for power in (1, 2):
        assert eval_g_tau(spec, 0.5, 0.0, power) == eval_g(spec, 0.0)
    got = eval_g_tau(spec, 0.04, 3.0, 1)  # g(3) = 0.9, denom sqrt(1 + 0.2*9)
    assert np.isclose(got, 0.9 / np.sqrt(2.8), rtol=1e-14)
    got_b = eval_g_tau(spec, 0.04, 3.0, 2)  # denom sqrt(1 + 0.2*81)
    assert np.isclose(got_b, 0.9 / np.sqrt(1.0 + 0.2 * 81.0), rtol=1e-14)
    # at q = 0 both forms divide g by sqrt(1 + sqrt(tau)) at every x
    assert np.array_equal(eval_g_tau(linear_ou(), 0.25, SCAN, 0),
                          np.full_like(SCAN, 1.0 / np.sqrt(1.5)))


@pytest.mark.parametrize("name", sorted(FROZEN_TAMING))
def test_taming_never_amplifies(name):
    spec, _, _ = FROZEN_TAMING[name]
    for tau in TAUS:
        assert np.all(
            np.abs(eval_f_tau(spec, float(tau), SCAN)) <= np.abs(eval_f(spec, SCAN)) + 1e-15
        )
        for power in (spec.q // 2, spec.q):  # gtem, gtem_b
            assert np.all(
                np.abs(eval_g_tau(spec, float(tau), SCAN, power))
                <= np.abs(eval_g(spec, SCAN)) + 1e-15
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
    bad = CoefficientSpec(drift=(0.0, 0.0, 0.0, 1.0), diffusion=(1.0,), q=2)
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
    for name, (factory, _desc) in PRESETS.items():
        rep = check_assumptions(factory(), QWienerSpec(3.0, 1.0, 255))
        assert rep.feasible, name


SCAN_CASES = [
    *((name, factory(), QWienerSpec(3.0, 1.0, 255), 200_001)
      for name, (factory, _desc) in PRESETS.items()),
    ("lipschitz-sqrt", lipschitz_sqrt_g(), NOISE, 200_001),
    ("infeasible", CoefficientSpec(drift=(0.0, 0.0, 0.0, 1.0), diffusion=(1.0,), q=2), NOISE, 200_001),
    ("odd-scan", allen_cahn(0.5), NOISE, 123_457),
]


@pytest.mark.parametrize("name, spec, noise, points", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_tiled_scan_equals_a_whole_array_scan(monkeypatch, name, spec, noise, points):
    assert points % coefficients._SCAN_TILE != 0
    tiled = check_assumptions(spec, noise, scan_points=points)
    monkeypatch.setattr(coefficients, "_SCAN_TILE", points)  # one tile: the whole scan
    whole = check_assumptions(spec, noise, scan_points=points)
    assert tiled.feasible == (name != "infeasible")
    for field in dataclasses.fields(tiled):
        # repr round-trips every float, NaN included
        assert repr(getattr(tiled, field.name)) == repr(getattr(whole, field.name)), field.name


@pytest.mark.parametrize("name, spec, noise, points", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_scan_cap_is_the_public_tamed_derivative_formula(name, spec, noise, points):
    # the cap is the padded sup of eval_f_tau_prime, one scalar tau at a
    # time, over the whole scan grid
    rep = check_assumptions(spec, noise, scan_points=points)
    xi = np.linspace(-rep.scan_radius, rep.scan_radius, points)
    cap = max(float(np.max(eval_f_tau_prime(spec, float(tau), xi)))
              for tau in coefficients._SCAN_TAUS[:, 0])
    expected = (1.0 + coefficients._PAD) * max(cap, 1e-12)
    assert repr(rep.tamed_derivative_bound) == repr(expected)


def test_scan_parameters_validated():
    with pytest.raises(ValueError):
        check_assumptions(allen_cahn(1.0), NOISE, scan_radius=5.0)
    with pytest.raises(ValueError):
        check_assumptions(allen_cahn(1.0), NOISE, scan_points=100)


def test_spec_validation():
    with pytest.raises(ValueError):
        CoefficientSpec(drift=(0.0, 1.0, 1.0), diffusion=(1.0,), q=1)  # odd q
    # a positive leading drift with non-constant g is a valid spec: only the
    # schemes that tame g refuse it (test_schemes)
    CoefficientSpec(drift=(0.0, 0.0, 0.0, 1.0), diffusion=(0.0, 0.0, 0.1), q=2)
    with pytest.raises(ValueError):
        CoefficientSpec(drift=(0.0, 1.0, 0.0, -1.0, 0.0, 1.0), diffusion=(1.0,), q=2)
    for drift, diffusion in (((), (1.0,)), ((0.0, 1.0), ())):
        with pytest.raises(ValueError, match="at least one coefficient"):
            CoefficientSpec(drift=drift, diffusion=diffusion, q=0)
    spec = lipschitz_sqrt_g(0.2)
    assert spec.diffusion_kind is DiffusionKind.SQRT_QUADRATIC
    assert np.isclose(eval_g(spec, 3.0), 0.2 * np.sqrt(10.0), rtol=1e-14)
    assert spec.diffusion_leading == 0.0


ENGINE_SPECS = [
    CoefficientSpec(drift=drift, diffusion=diffusion, q=q, diffusion_kind=kind)
    for q, drift, poly_g in [
        (0, (0.5, -1.0), (0.3, 0.2)),
        (2, (0.0, 1.0, 0.0, -1.0), (0.1, 0.0, 0.05)),
        (4, (0.1, 1.0, 0.0, -0.5, 0.0, -1.0), (0.2, 0.1, 0.0, 0.05)),
    ]
    for kind, diffusion in [(DiffusionKind.POLYNOMIAL, poly_g),
                            (DiffusionKind.SQRT_QUADRATIC, (0.2,))]
] + [allen_cahn(1.0, 0.3)]  # constant g: an untamed g comes back as a float


# Each case names its taming by the scheme's old variant name: both_a is gtem
# (g tamed with exponent q/2), both_b is gtem_b (exponent q), drift_only is
# drift_gtem (g untamed). untamed_em is checked in every case.
TAMED_SCHEMES = {"both_a": "gtem", "both_b": "gtem_b", "drift_only": "drift_gtem"}


@pytest.mark.parametrize(
    "taming, spec", [(t, s) for s in ENGINE_SPECS for t in TAMED_SCHEMES],
    ids=[f"q{s.q}-{t}-{s.diffusion_kind.value}" + ("-constant-g" if s.g_is_constant else "")
         for s in ENGINE_SPECS for t in TAMED_SCHEMES],
)
def test_engine_coefficient_pass_matches_public_evaluators(taming, spec):
    # The step's shared-x**2 pass must give the public evaluators' exact bits.
    values = np.random.default_rng(spec.q).uniform(-30.0, 30.0, (3, 31))
    for tau in (2.0**-12, 2.0**-6, 0.5):
        expected = {
            "gtem": (eval_f_tau(spec, tau, values), eval_g_tau(spec, tau, values, spec.q // 2)),
            "gtem_b": (eval_f_tau(spec, tau, values), eval_g_tau(spec, tau, values, spec.q)),
            "drift_gtem": (eval_f_tau(spec, tau, values), eval_g(spec, values)),
            "untamed_em": (eval_f(spec, values), eval_g(spec, values)),
        }
        for scheme in (TAMED_SCHEMES[taming], "untamed_em"):
            f_want, g_want = expected[scheme]
            cfg = SchemeConfig(tau=tau, grid=Grid1D(32), horizon=1.0, scheme=scheme,
                               coefficients=spec, noise=QWienerSpec(3.0, 1.0, 31))
            f_got, g_got = drift_diffusion_rows(step_plan(cfg), values)
            assert np.array_equal(f_got, f_want), (scheme, tau)
            assert np.array_equal(np.broadcast_to(g_got, values.shape), g_want), (scheme, tau)


def full_like_horner(coeffs, x):
    """Horner from ``full_like(x, a_n)``; ``_polyval`` starts from x * a_n."""
    x = np.asarray(x, dtype=np.float64)
    y = np.full_like(x, coeffs[-1])
    for a in coeffs[-2::-1]:
        y *= x
        y += a
    return y[()]


@pytest.mark.parametrize("coeffs", [(0.7,), (0.5, -1.0), (0.0, 1.0, 0.0, -1.0),
                                    (0.1, 1.0, 0.0, -0.5, 0.0, -1.0), (-0.0, 0.0, 2.0)])
def test_polyval_matches_a_full_like_horner_start(coeffs):
    x = np.concatenate([np.random.default_rng(4).uniform(-40.0, 40.0, 64),
                        [0.0, -0.0, np.inf, -np.inf, np.nan]])
    # tobytes compares signed zeros and NaN bits too
    assert coefficients._polyval(coeffs, x).tobytes() == full_like_horner(coeffs, x).tobytes()
    for scalar in (2.5, -0.0, np.inf):
        got = coefficients._polyval(coeffs, scalar)
        assert type(got) is np.float64
        assert got.tobytes() == full_like_horner(coeffs, scalar).tobytes()


def plain_horner(coeffs, x):
    """Horner from the first product x * a_n with every add, zeros included."""
    if len(coeffs) == 1:
        return np.full_like(x, coeffs[0])
    y = x * coeffs[-1]
    y += coeffs[-2]
    for a in coeffs[-3::-1]:
        y *= x
        y += a
    return y


def preset_polynomials():
    """Every preset's drift and diffusion, each with its first two derivatives."""
    for name, (factory, _) in sorted(PRESETS.items()):
        spec = factory()
        for part, coeffs in (("drift", spec.drift), ("diffusion", spec.diffusion)):
            for order in range(3):
                yield f"{name}-{part}-{order}", coeffs
                coeffs = coefficients._polyder(coeffs)


@pytest.mark.parametrize("coeffs", [c for _, c in preset_polynomials()],
                         ids=[n for n, _ in preset_polynomials()])
def test_horner_skipping_zero_adds_gives_the_bits_of_every_add(coeffs):
    rng = np.random.default_rng(len(coeffs))
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e200, -1e200],
        rng.uniform(-40.0, 40.0, 64), rng.standard_normal(16) * 1e-160,
    ])
    terms = coefficients.horner_terms(coeffs)
    with np.errstate(all="ignore"):  # overflow and inf - inf are part of the test
        want = plain_horner(coeffs, x)
        assert coefficients.horner(terms, x).tobytes() == want.tobytes()
        assert coefficients._polyval(coeffs, x).tobytes() == want.tobytes()
    assert all(t is None or (t.shape == () and t.dtype == np.float64) for t in terms)
    # the last add stays, and a zero add is skipped only before a nonzero one
    skipped = [i for i, t in enumerate(terms) if t is None]
    assert len(coeffs) == 1 or terms[-1] is not None
    assert all(coeffs[-1 - i] == 0.0 and coeffs[-2 - i] != 0.0 for i in skipped)


def test_horner_skips_the_zero_adds_of_the_cubic_drift():
    # f = x - x^3: the x^2 add goes, the constant add stays (-0.0 -> +0.0)
    terms = coefficients.horner_terms(allen_cahn(1.0).drift)
    assert [None if t is None else float(t) for t in terms] == [-1.0, None, 1.0, 0.0]
    assert coefficients.horner(terms, np.array([-0.0])).tobytes() == np.array([0.0]).tobytes()


def test_evaluators_accept_scalars():
    ac = allen_cahn(1.0)
    assert eval_f(ac, 2.0) == -6.0
    assert eval_g(ac, 2.0) == 1.0  # constant g: one coefficient
    assert isinstance(eval_f(ac, 2.0), np.float64)
    assert isinstance(eval_g(ac, 2.0), np.float64)
    assert eval_f_tau(ac, 0.25, 2.0) == -6.0 / np.sqrt(1.0 + 0.25 * 16.0)
    assert eval_g_tau(ac, 0.25, 2.0, 1) == 1.0 / np.sqrt(1.0 + 0.5 * 4.0)
