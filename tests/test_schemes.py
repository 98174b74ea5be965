import numpy as np
import pytest

from tamedspde import engine
from tamedspde.coefficients import CoefficientSpec, allen_cahn, eval_g
from tamedspde.engine import BLOCK_STEPS, BatchChains, EnsembleNoise, step_plan, step_rows
from tamedspde.fem import dispersion_eigenvalue
from tamedspde.grid import (
    Grid1D,
    l2_norm,
    rows_l2_sq,
    rows_lyapunov,
    sine_mode,
)
from tamedspde.noise import QWienerSpec
from tamedspde.schemes import (
    OVERFLOW_GUARD,
    InitialCondition,
    Scheme,
    SchemeConfig,
    whole_steps,
)

ZERO_DRIFT = CoefficientSpec(drift=(0.0,), diffusion=(0.0,), q=0)


def heat_config(n_cells=64, tau=0.05, horizon=1.0):
    return SchemeConfig(
        tau=tau,
        grid=Grid1D(n_cells),
        horizon=horizon,
        scheme="gtem",
        coefficients=ZERO_DRIFT,
        noise=QWienerSpec(3.0, 1e-30, n_cells - 1),
        seed=0,
    )


def run_path(config, x0, path_id, record_stride=1):
    """One path as a 1-row ensemble: (recorded steps, recorded states, chains)."""
    chains = BatchChains(config, x0)
    steps, (states,) = chains.run([path_id], config.n_steps,
                                  record_stride, [lambda v, cfg: v[0]])
    return steps, states.T, chains


@pytest.mark.parametrize("t, tau, name", [
    (1.01, 2.0**-6, "horizon"),  # a config's horizon
    (1.0, 0.3, "t"),  # a semigroup ladder's t
    (0.03, 2.0**-6, "coarse tau"),  # a tau ladder's coarse step
    (0.001, 0.25, "t"),  # no whole step
])
def test_whole_steps_rejects_a_t_that_is_not_a_whole_number_of_steps(t, tau, name):
    with pytest.raises(ValueError, match=f"^{name} {t} is not an integer multiple of tau {tau}$"):
        whole_steps(t, tau, name)


def test_whole_steps_accepts_a_t_within_rounding_of_whole_steps():
    assert 0.1 * 3 != 0.3 and whole_steps(0.3, 0.1, "horizon") == 3
    assert whole_steps(1.0, 1.0 / 81, "t") == 81  # an h ladder's t / n^2 at 9 cells


def test_config_validation():
    g = Grid1D(16)
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.3, grid=g, horizon=1.0, scheme="gtem",
                     coefficients=ZERO_DRIFT, noise=QWienerSpec(3.0, 1.0, 15))
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.0, grid=g, horizon=1.0, scheme="gtem",
                     coefficients=ZERO_DRIFT, noise=QWienerSpec(3.0, 1.0, 15))
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.1, grid=g, horizon=1.0, scheme="gtem",
                     coefficients=ZERO_DRIFT, noise=QWienerSpec(3.0, 1.0, 31))
    cfg = SchemeConfig(tau=0.125, grid=g, horizon=2.0, scheme="drift_gtem",
                       coefficients=ZERO_DRIFT, noise=QWienerSpec(3.0, 1.0, 15))
    assert cfg.n_steps == 16


def test_heat_decay_matches_resolvent_powers():
    cfg = heat_config()
    x0 = sine_mode(cfg.grid, 1)
    steps, states, _ = run_path(cfg, x0, path_id=0)
    lam = dispersion_eigenvalue(cfg.grid)
    expected = (1.0 + cfg.tau * lam) ** (-steps) * l2_norm(x0)
    got = np.sqrt(rows_l2_sq(states, cfg.grid.h))
    assert np.max(np.abs(got - expected)) <= 1e-8


def test_zero_is_fixed_point_on_zero_noise_path():
    cfg = SchemeConfig(tau=0.1, grid=Grid1D(32), horizon=1.0, scheme="gtem",
                       coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, 31))
    chains = BatchChains(cfg, InitialCondition("zero").build(cfg.grid))
    for _ in range(10):
        chains.advance(np.zeros((1, cfg.grid.n_interior)))
        assert np.all(chains.states == 0.0)  # f(0) = 0, g dampened by zero noise


def test_simulate_deterministic():
    cfg = SchemeConfig(tau=0.05, grid=Grid1D(32), horizon=2.0, scheme="gtem",
                       coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, 31),
                       seed=99)
    x0 = InitialCondition("sine", amplitude=2.0).build(cfg.grid)
    _, s1, _ = run_path(cfg, x0, path_id=4)
    _, s2, _ = run_path(cfg, x0, path_id=4)
    assert np.array_equal(s1, s2)
    _, s3, _ = run_path(cfg, x0, path_id=5)
    assert not np.array_equal(rows_l2_sq(s1, cfg.grid.h), rows_l2_sq(s3, cfg.grid.h))


def test_step_depends_only_on_state_and_increment():
    cfg = SchemeConfig(tau=0.05, grid=Grid1D(32), horizon=1.0, scheme="gtem",
                       coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, 31),
                       seed=7)
    x0 = InitialCondition("sine", amplitude=1.0).build(cfg.grid)
    noise = EnsembleNoise(cfg, [0])
    chains = BatchChains(cfg, x0)
    for n in range(3):
        chains.advance(noise.value_rows(n, 1)[0])
    # a fresh copy of the same values must step identically
    clone = chains.states.copy()
    inc = noise.value_rows(3, 1)[0]
    out_a, blown_a = step_rows(step_plan(cfg), chains.states, inc)
    out_b, blown_b = step_rows(step_plan(cfg), clone, inc.copy())
    assert np.array_equal(out_a, out_b)
    assert blown_a is None and blown_b is None


def test_untamed_blows_up_tamed_does_not():
    grid = Grid1D(32)
    noise = QWienerSpec(3.0, 1.0, 31)
    x0 = InitialCondition("sine", amplitude=5.0).build(grid)
    blew_untamed = 0
    for pid in range(5):
        cfg_em = SchemeConfig(tau=0.5, grid=grid, horizon=50.0, scheme="untamed_em",
                              coefficients=allen_cahn(0.5), noise=noise, seed=3)
        cfg_tamed = SchemeConfig(tau=0.5, grid=grid, horizon=50.0, scheme="gtem",
                                 coefficients=allen_cahn(0.5), noise=noise, seed=3)
        _, _, em = run_path(cfg_em, x0, pid, record_stride=100)
        _, s_gt, gt = run_path(cfg_tamed, x0, pid, record_stride=100)
        blew_untamed += bool(em.blown[0])
        assert not gt.blown[0]
        assert np.all(np.isfinite(rows_l2_sq(s_gt, grid.h)))
    assert blew_untamed >= 3


def test_blowup_flag_is_sticky_and_state_frozen():
    grid = Grid1D(8)
    cfg = SchemeConfig(tau=0.5, grid=grid, horizon=5.0, scheme="untamed_em",
                       coefficients=allen_cahn(0.3), noise=QWienerSpec(3.0, 1e-30, 7))
    chains = BatchChains(cfg, InitialCondition("sine", amplitude=30.0).build(grid))
    zero = np.zeros((1, grid.n_interior))
    while not chains.blown[0]:
        chains.advance(zero)
        assert chains.step_index <= 50
    frozen = chains.states.copy()
    first_failure = chains.blowup_step[0]
    assert first_failure == chains.step_index
    for _ in range(3):
        chains.advance(zero)
        assert chains.blown[0] and chains.blowup_step[0] == first_failure
        assert np.array_equal(chains.states, frozen)
        assert np.all(np.isfinite(frozen))


def test_run_stops_stepping_once_every_row_is_frozen(monkeypatch):
    # criterion 6's setup: every untamed row blows up within a few steps
    grid = Grid1D(64)
    cfg = SchemeConfig(tau=0.5, grid=grid, horizon=50.0, scheme="untamed_em",
                       coefficients=allen_cahn(0.5), noise=QWienerSpec(3.0, 1.0, 63),
                       seed=20250809)
    x0 = np.tile(np.sin(np.pi * grid.nodes) * 5.0, (100, 1))
    oracle, noise = BatchChains(cfg, x0), EnsembleNoise(cfg, range(100))
    for n in range(cfg.n_steps):
        oracle.advance(noise.value_rows(n, 1)[0])
    assert oracle.blown.all()
    last = int(oracle.blowup_step.max())
    assert last < cfg.n_steps

    drawn = []
    value_rows = EnsembleNoise.value_rows

    def spy(self, step_index, n_steps):
        drawn.append((step_index, n_steps))
        return value_rows(self, step_index, n_steps)

    monkeypatch.setattr(EnsembleNoise, "value_rows", spy)
    chains = BatchChains(cfg, x0)
    steps, (states,) = chains.run(range(100), cfg.n_steps, 7,
                                  [lambda v, cfg: v])
    # step n draws step n - 1's noise, a block of BLOCK_STEPS at a time: the
    # blocks that start below the last blow-up step, and no block after it
    assert drawn == [(start, min(BLOCK_STEPS, cfg.n_steps - start))
                     for start in range(0, last, BLOCK_STEPS)]
    assert chains.step_index == oracle.step_index == cfg.n_steps
    assert np.array_equal(chains.blowup_step, oracle.blowup_step)
    assert np.array_equal(chains.states, oracle.states)
    assert steps.tolist() == list(range(0, cfg.n_steps, 7)) + [cfg.n_steps]
    for n, v in zip(steps, np.moveaxis(states, -1, 0)):
        if n >= last:
            assert np.array_equal(v, oracle.states)


def test_lyapunov_functional():
    g = Grid1D(256)
    assert rows_lyapunov(InitialCondition("zero").build(g), g.h, 0.1) == 0.0
    u = sine_mode(g, 1)
    assert abs(rows_lyapunov(u, g.h, 0.1) - (1.0 + 0.2 * np.pi**2)) <= 0.02
    rng = np.random.default_rng(8)
    v = rng.standard_normal((3, 255))
    c = 3.7
    assert np.allclose(rows_lyapunov(c * v, g.h, 0.1),
                       c**2 * rows_lyapunov(v, g.h, 0.1), rtol=1e-12)


def test_single_step_tau_continuity():
    # with the increment fixed, Z_1 -> Z_0 + g(Z_0) dW as tau -> 0, at rate tau
    grid = Grid1D(32)
    noise = QWienerSpec(3.0, 1.0, 31)
    x0 = InitialCondition("sine", amplitude=1.0).build(grid)
    base = SchemeConfig(tau=0.01, grid=grid, horizon=0.01, scheme="drift_gtem",
                        coefficients=allen_cahn(1.0), noise=noise, seed=5)
    inc_values = EnsembleNoise(base, [0]).value_rows(0, 1)[0]
    limit = x0 + eval_g(allen_cahn(1.0), x0) * inc_values[0]
    errs = []
    for tau in (0.02, 0.01, 0.005, 0.0025):
        cfg = SchemeConfig(tau=tau, grid=grid, horizon=tau, scheme="drift_gtem",
                           coefficients=allen_cahn(1.0), noise=noise)
        out, _ = step_rows(step_plan(cfg), x0[None, :], inc_values)
        errs.append(np.linalg.norm(out[0] - limit))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    for r in ratios:
        assert 1.6 <= r <= 2.4


# Only the schemes that tame g need a negative leading drift, and only for a
# non-constant g; the constant-g spec keeps the positive leading drift.
G_TAMING_SPECS = {
    "positive-leading-drift": dict(drift=(0.0, 1.0, 0.0, 1.0), diffusion=(0.0, 0.0, 1.0)),
    "negative-leading-drift": dict(drift=(0.0, 1.0, 0.0, -1.0), diffusion=(0.0, 0.0, 1.0)),
    "constant-g": dict(drift=(0.0, 1.0, 0.0, 1.0), diffusion=(0.7,)),
}


@pytest.mark.parametrize("name", sorted(G_TAMING_SPECS))
@pytest.mark.parametrize("scheme", [s.value for s in Scheme])
def test_only_the_g_taming_schemes_refuse_a_positive_leading_drift(scheme, name):
    spec = CoefficientSpec(q=2, **G_TAMING_SPECS[name])

    def config():
        return SchemeConfig(tau=0.125, grid=Grid1D(16), horizon=1.0, scheme=scheme,
                            coefficients=spec, noise=QWienerSpec(3.0, 1.0, 15))

    if scheme in ("gtem", "gtem_b") and name == "positive-leading-drift":
        with pytest.raises(ValueError, match=f"scheme {scheme} tames g, which requires "
                                             "a negative leading drift"):
            config()
    else:
        assert config().coefficients is spec


def test_record_stride_and_initial_conditions():
    cfg = heat_config(n_cells=16, tau=0.1, horizon=2.0)
    x0 = InitialCondition("bump", amplitude=1.0, center=0.4, width=0.05).build(cfg.grid)
    steps, _, _ = run_path(cfg, x0, 0, record_stride=7)
    assert steps[0] == 0 and steps[-1] == cfg.n_steps
    assert all(s % 7 == 0 for s in steps[1:-1])
    const = InitialCondition("const", amplitude=2.5).build(cfg.grid)
    assert np.all(const == 2.5)
    with pytest.raises(ValueError):
        InitialCondition("wavelet").build(cfg.grid)
    with pytest.raises(ValueError):
        run_path(cfg, x0, 0, record_stride=0)
    with pytest.raises(ValueError):
        BatchChains(cfg, np.zeros((2, cfg.grid.n_interior + 1)))


def test_nonfinite_rhs_row_freezes_alone():
    # An inf in one row's noise makes that row's right-hand side non-finite.
    # The banded solve keeps it to its own column, so only that row blows up,
    # at that step, and the other rows step exactly as they would without it.
    cfg = SchemeConfig(tau=0.125, grid=Grid1D(16), horizon=1.0, scheme="gtem",
                       coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, 15),
                       seed=2)
    x0 = np.stack([InitialCondition("sine", amplitude=a).build(cfg.grid)
                   for a in (0.5, 1.0, 2.0)])
    noise = EnsembleNoise(cfg, range(3)).value_rows  # step-n noise: noise(n - 1)
    chains = BatchChains(cfg, x0)
    pair = BatchChains(cfg, x0[[0, 2]])
    for n in range(1, 7):
        inc = noise(n - 1, 1)[0]
        if n == 2:
            inc[1, 5] = np.inf
        chains.advance(inc)
        pair.advance(inc[[0, 2]])
        if n == 1:
            step1 = chains.states[1].copy()
        if n >= 2:
            assert np.array_equal(chains.states[1], step1)
        assert np.array_equal(chains.states[[0, 2]], pair.states)
    assert chains.blowup_step.tolist() == [-1, 2, -1]
    assert not pair.blown.any()


def per_row_guard(z, h):
    """The per-row rule: the sup norm over the guard, then the mass norm."""
    blown = ~(np.abs(z).max(axis=-1) <= OVERFLOW_GUARD)
    blown[blown] = ~(rows_l2_sq(z[blown], h) <= OVERFLOW_GUARD**2)
    return blown


def test_block_guard_flags_what_the_per_row_rule_flags(monkeypatch):
    cfg = heat_config(n_cells=16)
    above = np.nextafter(OVERFLOW_GUARD, np.inf)
    rows = np.tile(np.linspace(-1.0, 1.0, 15), (9, 1))
    rows[1:8, 7] = [np.nan, np.inf, -np.inf, OVERFLOW_GUARD, -OVERFLOW_GUARD, above, -above]
    rows[8] = 2.0 * OVERFLOW_GUARD  # over the guard in the mass norm too
    with np.errstate(invalid="ignore"):  # an inf row's cross terms sum to NaN
        flagged = per_row_guard(rows, cfg.grid.h)
        assert flagged.tolist() == [False, True, True, True, False, False, False, False, True]
        picks = [[], [0], list(range(9))]
        picks += [[0, i] for i in range(1, 9)] + [[i] for i in range(1, 9)]
        # many rows at 0.9 G: the block's dot exceeds G^2/2 while every
        # |z| <= G, so the max and min test must still pass it
        rows = np.concatenate([rows, np.full((6, 15), 0.9 * OVERFLOW_GUARD)])
        flagged = np.concatenate([flagged, np.zeros(6, dtype=bool)])
        picks.append(list(range(9, 15)))
        assert np.dot(rows[9:].ravel(), rows[9:].ravel()) > OVERFLOW_GUARD**2 / 2
        for pick in picks:
            z = rows[pick]
            monkeypatch.setattr(engine, "_solve_rows", lambda ops, factor, v, z=z: z.copy())
            _, blown = step_rows(step_plan(cfg), np.zeros_like(z), np.zeros_like(z))
            # None means the whole block passed its max and min test
            passes = len(z) == 0 or (z.max() <= OVERFLOW_GUARD and z.min() >= -OVERFLOW_GUARD)
            assert (blown is None) == passes, pick
            blown = np.zeros(len(z), dtype=bool) if blown is None else blown
            assert blown.dtype == bool and np.array_equal(blown, flagged[pick]), pick
