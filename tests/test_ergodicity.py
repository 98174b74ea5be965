import functools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from tamedspde import parallel
from tamedspde.coefficients import (
    CoefficientSpec,
    allen_cahn,
    check_assumptions,
    double_well,
    linear_ou,
)
from tamedspde.engine import BatchChains, EnsembleNoise, drift_diffusion_rows, step_plan
from tamedspde.convergence import fit_line
from tamedspde.ergodicity import (
    COUPLING_FIT_FLOOR,
    OBSERVABLE_ROWS,
    SliceTask,
    StepSizeNotCertified,
    coupling_decay_test,
    em_blowup_probe,
    ergodic_limit_test,
    long_run_moment_test,
    lyapunov_contraction_test,
    require_nondegenerate,
    run_slice,
)
from tamedspde.fem import dispersion_eigenvalue
from tamedspde.grid import (
    Grid1D,
    mass_weights,
    rows_l2_sq,
    rows_lyapunov,
    sine_transform,
)
from tamedspde.noise import QWienerSpec
from tamedspde.schemes import InitialCondition, Scheme, SchemeConfig

GRID = Grid1D(32)
NOISE = QWienerSpec(3.0, 1.0, 31)
AC = allen_cahn(1.0)
AC_REPORT = check_assumptions(AC, NOISE)


ZERO = InitialCondition("zero").build(GRID)


def linear_stationary_l2_sq(config: SchemeConfig) -> float:
    """Closed-form stationary E||x||^2 for a linear drift and constant g at q = 0.

    For f(x) = a1 x the scheme diagonalizes in the sine basis: each mode is a
    scalar AR(1) recursion whose stationary variance follows from the
    resolvent factor, the (possibly tamed) drift multiplier and the (possibly
    tamed) g^2.
    """
    spec = config.coefficients
    if len(spec.drift) > 2 or spec.drift[0] != 0.0 or spec.q != 0:
        raise ValueError("closed form requires f(x) = a1 * x and q = 0")
    if not spec.g_is_constant:
        raise ValueError("closed form requires constant g")
    a1 = spec.drift[1] if len(spec.drift) == 2 else 0.0
    tau = config.tau
    g0_sq = spec.diffusion[0] ** 2
    if config.scheme is Scheme.UNTAMED_EM:
        a_eff = a1
    else:
        a_eff = a1 / math.sqrt(1.0 + tau)  # q = 0 taming divides by sqrt(1 + tau)
    if config.scheme in (Scheme.GTEM, Scheme.GTEM_B):
        g0_sq /= 1.0 + math.sqrt(tau)  # both g tamings divide g by sqrt(1 + sqrt(tau))
    n_modes = config.noise.truncation
    lam_q = config.noise.eigenvalues()
    mass_w = mass_weights(config.grid)[:n_modes]
    lam_h = dispersion_eigenvalue(config.grid, np.arange(1, n_modes + 1))
    gain = 1.0 + tau * lam_h
    drift_mult = 1.0 + tau * a_eff
    var = g0_sq * lam_q * tau / (gain**2 - drift_mult**2)
    if np.any(var <= 0):
        raise ValueError("mode recursion is not contractive; no stationary law")
    return float(np.sum(mass_w * var))


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
    anchors = [ZERO]
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
    res0 = long_run_moment_test(cfg, ZERO, n_paths=20, report=report,
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
    spec = CoefficientSpec(drift=(0.0,), diffusion=(1.0,), q=0)
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
    x0a = ZERO
    x0b = InitialCondition("sine", amplitude=5.0).build(GRID)
    res = coupling_decay_test(cfg, x0a, x0b, n_steps=150, n_paths=20)
    assert res.slope is not None and res.slope < 0
    assert res.r_squared > 0.9


def test_coupling_fit_leaves_out_distances_at_rounding_level():
    # gtem at tau = 1/8 contracts the coupled distance by about e^-0.7 a
    # step: under 1e-12 of the start from step 39 on, exactly 0 from step 58
    cfg = SchemeConfig(tau=0.125, grid=GRID, horizon=25.0, scheme="gtem",
                       coefficients=AC, noise=NOISE, seed=1)
    x0b = InitialCondition("sine", amplitude=5.0).build(GRID)
    res = coupling_decay_test(cfg, ZERO, x0b, n_steps=200, n_paths=4)
    mean = res.mean_distance
    kept = mean > COUPLING_FIT_FLOOR * mean[0]
    rounding = (mean > 0) & ~kept
    assert kept.sum() >= 10 and rounding.sum() >= 10
    slope, intercept, r2 = fit_line(res.steps[kept], np.log(mean[kept]))
    assert (res.slope, res.intercept, res.r_squared) == (slope, intercept, r2)
    assert res.r_squared > 0.999
    positive = mean > 0
    assert fit_line(res.steps[positive], np.log(mean[positive]))[0] != res.slope


def test_nondegeneracy_precheck():
    require_nondegenerate(linear_ou())  # g = 1
    vanishing = CoefficientSpec(drift=(0.0, -1.0), diffusion=(0.0, 1.0), q=0)
    with pytest.raises(ValueError, match=r"precheck failed: g vanishes at \(0\.0,\)$"):
        require_nondegenerate(vanishing)  # g(x) = x vanishes at 0
    require_nondegenerate(double_well())  # g = 0.1 + 0.05 x^2


def test_ergodic_limit_linear_oracle():
    tau = 2.0**-6
    cfg = SchemeConfig(tau=tau, grid=GRID, horizon=tau * 2**17, scheme="drift_gtem",
                       coefficients=linear_ou(), noise=NOISE, seed=23)
    x0s = [ZERO, InitialCondition("sine", amplitude=3.0).build(GRID)]
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
    x0s = [ZERO, InitialCondition("sine", amplitude=2.0).build(GRID)]

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
    x0s = [ZERO, InitialCondition("sine", amplitude=1.0).build(GRID)]
    ests = ergodic_limit_test(cfg, ("l2_sq", "l2_sq"), x0s, burn_in_steps=16)
    assert len(ests) == 1  # a repeated observable is reported once
    assert ests[0].widened_ci  # horizon far too short for the 5% tolerance
    with pytest.raises(ValueError):
        ergodic_limit_test(cfg, ("l2_sq",), x0s,
                           burn_in_steps=cfg.n_steps + 1)


def test_ergodic_limit_rejects_degenerate_g():
    vanishing = CoefficientSpec(drift=(0.0, -1.0), diffusion=(0.0, 1.0), q=0)
    cfg = SchemeConfig(tau=0.125, grid=GRID, horizon=8.0, scheme="drift_gtem",
                       coefficients=vanishing, noise=NOISE)
    with pytest.raises(ValueError, match="nondegeneracy"):
        ergodic_limit_test(cfg, ("l2_sq",), [ZERO, ZERO + 1.0], burn_in_steps=4)


def test_ergodic_limit_needs_two_starts_after_its_other_checks():
    # one start always agrees with itself, so it could never fail
    cfg = SchemeConfig(tau=0.125, grid=GRID, horizon=8.0, scheme="drift_gtem",
                       coefficients=linear_ou(), noise=NOISE)
    with pytest.raises(ValueError, match=r"^agreement needs >= 2 initial conditions, got 1$"):
        ergodic_limit_test(cfg, ("l2_sq",), [ZERO], burn_in_steps=4)
    with pytest.raises(ValueError, match="burn-in"):
        ergodic_limit_test(cfg, ("l2_sq",), [ZERO], burn_in_steps=cfg.n_steps)
    with pytest.raises(ValueError, match="nondegeneracy"):
        ergodic_limit_test(replace(cfg, coefficients=CoefficientSpec((0.0, -1.0), (0.0, 1.0), 0)),
                           ("l2_sq",), [ZERO], burn_in_steps=cfg.n_steps)


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


@pytest.mark.parametrize("scheme", ["gtem", "gtem_b"])
def test_linear_stationary_oracle_tames_g_like_the_step(scheme):
    # At q = 0 the step's g* is g0 / sqrt(1 + sqrt(tau)) at every state, so
    # the oracle equals drift_gtem's with g0 so scaled.
    tau = 2.0**-6
    cfg = SchemeConfig(tau=tau, grid=GRID, horizon=1.0, scheme=scheme,
                       coefficients=linear_ou(), noise=NOISE)
    g_star = 1.0 / math.sqrt(1.0 + math.sqrt(tau))
    values = np.linspace(-5.0, 5.0, 2 * GRID.n_interior).reshape(2, -1)
    _, g = drift_diffusion_rows(step_plan(cfg), values)
    assert np.allclose(g, g_star, rtol=1e-15, atol=0.0)
    scaled = replace(cfg, scheme=Scheme.DRIFT_GTEM,
                     coefficients=CoefficientSpec(drift=(0.0, -1.0), diffusion=(g_star,), q=0))
    assert math.isclose(linear_stationary_l2_sq(cfg), linear_stationary_l2_sq(scaled),
                        rel_tol=1e-14)
    assert linear_stationary_l2_sq(cfg) < linear_stationary_l2_sq(replace(cfg, scheme="drift_gtem"))


def test_mode1_observable_matches_sine_transform():
    rng = np.random.default_rng(12)
    for n_cells in (8, 32, 257):
        grid = Grid1D(n_cells)
        cfg = SchemeConfig(tau=2.0**-6, grid=grid, horizon=1.0, scheme="gtem",
                           coefficients=AC, noise=QWienerSpec(3.0, 1.0, n_cells - 1))
        rows = rng.standard_normal((5, grid.n_interior)) * rng.uniform(0.1, 10.0, (5, 1))
        got = OBSERVABLE_ROWS["mode1"](rows, cfg)
        expected = [sine_transform(r)[0] for r in rows]
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)


def test_time_averages_do_not_depend_on_the_ensemble_size():
    # a path's states do not depend on its ensemble's size; every observable
    # must keep that, mode1 included (as a BLAS product over the ensemble it
    # changed the 25th average here)
    cfg = ac_config(horizon=16 * 2.0**-6, seed=29)
    x0s = [InitialCondition("sine", amplitude=a / 10.0).build(GRID) for a in range(60)]
    names = tuple(OBSERVABLE_ROWS)
    big = ergodic_limit_test(cfg, names, x0s, burn_in_steps=0)
    small = ergodic_limit_test(cfg, names, x0s[:25], burn_in_steps=0)
    for b, s in zip(big, small):
        assert b.observable == s.observable
        assert np.array_equal(b.time_averages[:25], s.time_averages), b.observable
    rows = np.random.default_rng(5).standard_normal((20, 60, GRID.n_interior))
    for v in rows:
        for fn in OBSERVABLE_ROWS.values():
            assert np.array_equal(fn(v, cfg)[:25], fn(v[:25], cfg))


@pytest.mark.parametrize("stride, recorded", [(4, [0, 4, 8, 12]), (5, [0, 5, 10, 12])])
def test_run_returns_the_steps_it_records_and_the_values_there(stride, recorded):
    # 12 steps: a stride of 4 divides them, one of 5 does not
    cfg = ac_config(horizon=12 * 2.0**-6)
    x0 = InitialCondition("sine", amplitude=3.0).build(GRID)
    rows = np.stack([x0, ZERO, -x0])
    chains = BatchChains(cfg, rows)
    steps, (l2, states) = chains.run(range(3), cfg.n_steps, stride,
                                     [OBSERVABLE_ROWS["l2_sq"], lambda v, cfg: v])
    assert steps.tolist() == recorded
    assert l2.shape == (3, len(recorded))
    assert states.shape == (3, GRID.n_interior, len(recorded))
    assert np.array_equal(states[..., 0], rows) and np.array_equal(states[..., -1], chains.states)
    for i in range(len(recorded)):
        assert np.allclose(l2[:, i], rows_l2_sq(states[..., i], GRID.h), rtol=1e-14, atol=0.0)
    bare = BatchChains(cfg, rows)
    bare_steps, values = bare.run(range(3), cfg.n_steps, stride)
    assert values == [] and np.array_equal(bare_steps, steps)
    assert np.array_equal(bare.states, chains.states)
    res = long_run_moment_test(cfg, x0, 4, AC_REPORT, record_stride=stride)
    assert np.array_equal(res.steps, steps)
    every = BatchChains(cfg, x0).run([0], cfg.n_steps)[0]
    assert np.array_equal(coupling_decay_test(cfg, x0, ZERO, cfg.n_steps, 4).steps, every)


# ---------------------------------------------------------------------------
# Slices of one lockstep ensemble against 25-row chunks
# ---------------------------------------------------------------------------

ORACLE_CHUNK = 25  # the chunk every probe stepped and synthesized before


def chunked(n_paths, first_id=0):
    """The path ids of each 25-row chunk; each chunk gets its own sampler."""
    for a in range(0, n_paths, ORACLE_CHUNK):
        yield range(first_id + a, first_id + min(a + ORACLE_CHUNK, n_paths))


def chunk_chains(cfg, x0_values, ids):
    return BatchChains(cfg, np.tile(x0_values, (len(ids), 1))), EnsembleNoise(cfg, ids)


def oracle_long_run(cfg, x0, n_paths, stride):
    l2, n_blow = [], 0
    for ids in chunked(n_paths):
        chains, _ = chunk_chains(cfg, x0, ids)
        l2.append(chains.run(ids, cfg.n_steps, stride, [OBSERVABLE_ROWS["l2_sq"]])[1][0])
        n_blow += int(chains.blown.sum())
    l2 = np.vstack(l2)
    return l2.mean(axis=0), l2.std(axis=0, ddof=1) / math.sqrt(n_paths), n_blow


def oracle_coupling(cfg, x0_a, x0_b, n_steps, n_paths):
    dist = []
    for ids in chunked(n_paths):
        a, noise = chunk_chains(cfg, x0_a, ids)
        b, _ = chunk_chains(cfg, x0_b, ids)
        d = [rows_l2_sq(a.states - b.states, cfg.grid.h)]
        for n in range(n_steps):
            vals = noise.value_rows(n, 1)[0]
            a.advance(vals)
            b.advance(vals)
            d.append(rows_l2_sq(a.states - b.states, cfg.grid.h))
        dist.append(np.sqrt(np.maximum(np.column_stack(d), 0.0)))
    return np.vstack(dist).mean(axis=0)


def oracle_blowups(cfg, x0_values, n_paths):
    total = 0
    for ids in chunked(n_paths):
        chains, _ = chunk_chains(cfg, x0_values, ids)
        chains.run(ids, cfg.n_steps)
        total += int(chains.blown.sum())
    return total / n_paths


def oracle_lyapunov(cfg, anchor, a, n_samples):
    v1 = []
    for ids in chunked(n_samples, a * n_samples):
        chains, noise = chunk_chains(cfg, anchor, ids)
        chains.advance(noise.value_rows(0, 1)[0])
        v1.append(rows_lyapunov(chains.states, cfg.grid.h, cfg.tau))
    v1 = np.concatenate(v1)
    return float(np.mean(v1)), float(np.std(v1, ddof=1) / math.sqrt(n_samples))


@functools.lru_cache(maxsize=None)
def certified_setup(n_cells):
    grid = Grid1D(n_cells)
    noise = QWienerSpec(3.0, 1.0, grid.n_interior)
    return grid, noise, check_assumptions(AC, noise)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n_paths", [26, 60, 100])
@pytest.mark.parametrize("n_cells", [32, 256])
def test_probes_match_chunked_oracle(monkeypatch, n_cells, n_paths, workers):
    # Each probe steps a slice of its paths as one ensemble; every statistic
    # must equal, bit for bit, the same probe stepped in 25-row chunks with
    # a sampler per chunk; 26 paths end in a 1-row chunk.  Slices of two
    # chunks make the pool run.
    grid, noise, report = certified_setup(n_cells)
    monkeypatch.setenv("TAMEDSPDE_WORKERS", str(workers))
    cfg = SchemeConfig(tau=2.0**-6, grid=grid, horizon=8 * 2.0**-6, scheme="gtem",
                       coefficients=AC, noise=noise, seed=23)
    x0 = InitialCondition("sine", amplitude=10.0).build(grid)
    x0_b = InitialCondition("sine", amplitude=2.0).build(grid)
    blow_cfg = SchemeConfig(tau=0.5, grid=grid, horizon=3.0, scheme="untamed_em",
                            coefficients=allen_cahn(0.5), seed=8,
                            noise=QWienerSpec(3.0, 4.0, grid.n_interior))
    blow_x0 = np.sin(np.pi * grid.nodes) * 2.5
    anchors = [InitialCondition("sine", amplitude=a).build(grid) for a in (0.0, 6.0)]
    n_samples = 1000 + n_paths

    mean, se, n_blow = oracle_long_run(cfg, x0, n_paths, 3)
    dist = oracle_coupling(cfg, x0, x0_b, 6, n_paths)
    freqs = (oracle_blowups(blow_cfg, blow_x0, n_paths),
             oracle_blowups(replace(blow_cfg, scheme=Scheme.GTEM), blow_x0, n_paths))
    lyap = [oracle_lyapunov(cfg, anc, a, n_samples) for a, anc in enumerate(anchors)]
    assert 0.0 < freqs[0] < 1.0  # some untamed paths blow up, not all

    two_chunks = 2 * ORACLE_CHUNK * grid.n_interior
    for cap, n_slices in ((parallel.MAX_SLICE_VALUES, 1), (two_chunks, -(-n_paths // 50))):
        monkeypatch.setattr(parallel, "MAX_SLICE_VALUES", cap)
        assert len(parallel.path_slices(n_paths, grid.n_interior)) == n_slices
        res = long_run_moment_test(cfg, x0, n_paths, report, record_stride=3)
        assert np.array_equal(res.steps, [0, 3, 6, 8])
        assert np.array_equal(res.mean_l2_sq, mean)
        assert np.array_equal(res.std_error, se)
        assert res.n_blowups == n_blow
        coupled = coupling_decay_test(cfg, x0, x0_b, 6, n_paths)
        assert np.array_equal(coupled.mean_distance, dist)
        row = em_blowup_probe(blow_cfg, [2.5], n_paths)[0]
        assert (row.untamed_frequency, row.tamed_frequency) == freqs
        probes = lyapunov_contraction_test(cfg, anchors, n_samples, report)
        assert [(p.estimate, p.std_error) for p in probes] == lyap


@pytest.mark.parametrize("n_cells", [32, 256])
def test_ergodic_rows_match_chunked_oracle(monkeypatch, n_cells):
    # The ergodic test steps all its initial conditions as one ensemble; each
    # state must equal, bit for bit, its row stepped in 25-row chunks, so it
    # does not depend on how many initial conditions share the run.  A spy
    # observable sees the states: a last-bit change in a few nodes seldom
    # reaches a time average.
    seen = []
    monkeypatch.setitem(OBSERVABLE_ROWS, "spy",
                        lambda v, cfg: seen.append(v) or np.ones(len(v)))
    grid, noise, _ = certified_setup(n_cells)
    cfg = SchemeConfig(tau=2.0**-6, grid=grid, horizon=16 * 2.0**-6, scheme="gtem",
                       coefficients=AC, noise=noise, seed=29)
    x0s = np.stack([InitialCondition("sine", amplitude=a).build(grid)
                    for a in np.linspace(0.0, 6.0, 60)])
    ergodic_limit_test(cfg, ("spy",), list(x0s), burn_in_steps=4)
    chunk_states = []
    for ids in chunked(len(x0s)):
        chains = BatchChains(cfg, x0s[ids.start:ids.stop])
        _, (states,) = chains.run(ids, cfg.n_steps,
                                  observables=[lambda v, cfg: v])
        chunk_states.append(states)
    assert len(seen) == cfg.n_steps + 1
    for n, v in enumerate(seen):
        assert np.array_equal(v, np.vstack([states[..., n] for states in chunk_states]))


def test_slice_tasks_pickle_and_run_the_same_bits():
    # A work item is a module-level function bound to plain data, so a process
    # pool could ship it; unpickled, it must compute the same bits.
    cfg = ac_config(horizon=8 * 2.0**-6, seed=31)
    x0_a = InitialCondition("sine", amplitude=10.0).build(GRID)
    x0_b = InitialCondition("sine", amplitude=2.0).build(GRID)
    tasks = [SliceTask(cfg, x0_a[None], cfg.n_steps, 3, "l2_sq"),
             SliceTask(cfg, np.stack([x0_a, x0_b]), 6, 1, "distance")]
    paths = range(2 * parallel.PATH_CHUNK)  # a slice of two chunks
    for task in tasks:
        work = functools.partial(run_slice, task)
        copy = pickle.loads(pickle.dumps(work))
        (steps, cols, blowups), (steps_copy, cols_copy, blowups_copy) = work(paths), copy(paths)
        assert cols.shape == (len(paths), len(steps))
        assert np.array_equal(steps, steps_copy)
        assert np.array_equal(cols, cols_copy)
        assert np.array_equal(blowups, blowups_copy)
