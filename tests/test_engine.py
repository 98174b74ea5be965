"""The stepping core against a copy of the plan-free step it replaced.

``step_rows`` takes a ``StepPlan`` resolved once per ensemble.  The oracle
below is the step as it was before the plan: the scheme dispatched, the
operators assembled and factored on every call, g evaluated as
an array product, and an all-False ``blown`` array on a clean step.  The
plan must give the same bits, state by state.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrs

from tamedspde import fem
from tamedspde.coefficients import (
    CoefficientSpec,
    DiffusionKind,
    allen_cahn,
    check_assumptions,
    eval_f,
    eval_g,
)
from tamedspde.engine import BLOCK_STEPS, BatchChains, EnsembleNoise, step_rows
from tamedspde.ergodicity import lyapunov_contraction_test
from tamedspde.fem import mass_matvec_rows
from tamedspde.grid import Grid1D, rows_l2_sq
from tamedspde.noise import PathSampler, QWienerSpec, synthesize
from tamedspde.schemes import OVERFLOW_GUARD, Scheme, SchemeConfig

CUBIC = (0.0, 1.0, 0.0, -1.0)
SPECS = {
    "constant-g-1": CoefficientSpec(CUBIC, (1.0,), q=2),
    "constant-g-0.7": CoefficientSpec(CUBIC, (0.7,), q=2),
    "constant-g-with-a-zero-tail": CoefficientSpec(CUBIC, (0.5, 0.0), q=2),
    "polynomial-g": CoefficientSpec(CUBIC, (0.1, 0.0, 0.05), q=2),
    "sqrt-quadratic-g": CoefficientSpec(CUBIC, (0.2,), q=2,
                                        diffusion_kind=DiffusionKind.SQRT_QUADRATIC),
    "q4-polynomial-g": CoefficientSpec((0.1, 1.0, 0.0, -0.5, 0.0, -1.0), (0.2, 0.1, 0.0, 0.05),
                                       q=4),
    "q0-constant-g": CoefficientSpec((0.0, -1.0), (1.0,), q=0),
}


def parent_drift_diffusion_rows(config, values):
    spec, tau, scheme = config.coefficients, config.tau, config.scheme
    if scheme is Scheme.DRIFT_GTEM or scheme is Scheme.UNTAMED_EM:
        constant = spec.diffusion_kind is DiffusionKind.POLYNOMIAL and len(spec.diffusion) == 1
        g = spec.diffusion[0] if constant else eval_g(spec, values)
        if scheme is Scheme.UNTAMED_EM:
            return eval_f(spec, values), g
        return eval_f(spec, values) / np.sqrt(1.0 + tau * (values**2) ** spec.q), g
    x2 = values**2
    power = spec.q // 2 if scheme is Scheme.GTEM else spec.q
    return (eval_f(spec, values) / np.sqrt(1.0 + tau * x2**spec.q),
            eval_g(spec, values) / np.sqrt(1.0 + math.sqrt(tau) * x2**power))


def parent_step_rows(config, values, noise_values):
    tau = config.tau
    rhs, g = parent_drift_diffusion_rows(config, values)
    rhs *= tau
    rhs += values
    rhs += g * noise_values
    ops = fem.assemble(config.grid)
    z, info = dpttrs(*fem.ldlt(ops, tau), mass_matvec_rows(ops, rhs).T, overwrite_b=1)
    assert info == 0
    z = np.ascontiguousarray(z.T)
    if z.size == 0 or (z.max() <= OVERFLOW_GUARD and z.min() >= -OVERFLOW_GUARD):
        return z, np.zeros(len(z), dtype=bool)
    blown = ~(np.abs(z).max(axis=-1) <= OVERFLOW_GUARD)
    blown[blown] = ~(rows_l2_sq(z[blown], config.grid.h) <= OVERFLOW_GUARD**2)
    return z, blown


def start_and_noise(case, n_interior, n_steps):
    """(x0, noise per step) of a case.  "bad-states": moderate rows, a row
    the untamed step blows up later, a row over the guard and a NaN row.
    "bad-noise": moderate rows, one tripped by a noise spike at step 1 and
    one by NaN noise at step 2, so later blocks pass the guard while rows
    are frozen.  "no-rows": a 0-row block."""
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-1.0, 1.0, (6, n_interior))
    noise = 0.3 * rng.standard_normal((n_steps, 6, n_interior))
    if case == "bad-states":
        x0[3] *= 60.0
        x0[4] = 1e14
        x0[5] = np.nan
    elif case == "bad-noise":
        noise[0, 4] = 1e16
        noise[1, 5] = np.nan
    else:
        x0, noise = x0[:0], noise[:, :0]
    return x0, noise


@pytest.mark.parametrize("scheme", [s.value for s in Scheme])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("case", ["bad-states", "bad-noise", "no-rows"])
def test_plan_steps_give_the_bits_of_the_plan_free_step(scheme, spec_name, case):
    spec = SPECS[spec_name]
    cfg = SchemeConfig(tau=0.05, grid=Grid1D(16), horizon=1.0, scheme=scheme,
                       coefficients=spec, noise=QWienerSpec(3.0, 1.0, 15))
    x0, noises = start_and_noise(case, 15, 6)
    chains = BatchChains(cfg, x0)
    assert chains.plan.unit_g == (spec.diffusion == (1.0,) and scheme in ("drift_gtem",
                                                                        "untamed_em"))
    states, blowup = x0.copy(), np.full(len(x0), -1)
    clean_while_frozen = 0  # steps whose block passed the guard with rows frozen
    with np.errstate(all="ignore"):
        for n, noise in enumerate(noises, 1):
            z_want, blown_want = parent_step_rows(cfg, states, noise)
            z_got, blown_got = step_rows(chains.plan, states, noise)
            assert z_got.tobytes() == z_want.tobytes()
            if blown_got is None:
                assert not blown_want.any()
                clean_while_frozen += bool((blowup >= 0).any())
            else:
                assert np.array_equal(blown_got, blown_want)
            # the driver's freeze rule, as it was
            blowup[blown_want & (blowup < 0)] = n
            if (blowup >= 0).any():
                states = np.where((blowup >= 0)[:, None], states, z_want)
            else:
                states = z_want
            chains.advance(noise)
            assert chains.states.tobytes() == states.tobytes()
            assert np.array_equal(chains.blowup_step, blowup)
    if case == "bad-states":
        assert blowup[4] == 1 and blowup[5] == 1 and (blowup[:3] == -1).all()
    elif case == "bad-noise":
        assert blowup.tolist() == [-1, -1, -1, -1, 1, 2] and clean_while_frozen == 4


def test_the_plan_is_resolved_once(monkeypatch):
    """Each ensemble assembles and factors once, when it is built; nothing is
    kept between ensembles, and no step assembles or factors."""
    calls = Counter()
    assemble, ldlt = fem.assemble, fem.ldlt

    def counting_assemble(grid):
        calls["assemble"] += 1
        return assemble(grid)

    def counting_ldlt(ops, tau):
        calls["ldlt"] += 1
        return ldlt(ops, tau)

    monkeypatch.setattr(fem, "assemble", counting_assemble)
    monkeypatch.setattr(fem, "ldlt", counting_ldlt)
    cfg = SchemeConfig(tau=2.0**-6, grid=Grid1D(32), horizon=1.0, scheme="gtem",
                       coefficients=SPECS["polynomial-g"], noise=QWienerSpec(3.0, 1.0, 31))
    BatchChains(cfg, np.ones((2, 31)))
    assert calls == {"assemble": 1, "ldlt": 1}
    chains = BatchChains(cfg, np.ones((2, 31)))
    assert calls == {"assemble": 2, "ldlt": 2}
    calls.clear()
    noise = EnsembleNoise(cfg, [0, 1])
    for n in range(50):
        chains.advance(noise.value_rows(n, 1)[0])
    assert chains.step_index == 50 and not calls


@pytest.mark.parametrize("n_cells", [32, 64])
def test_a_path_gets_the_same_noise_bits_in_ensembles_of_26_and_50_paths(n_cells):
    cfg = SchemeConfig(tau=2.0**-6, grid=Grid1D(n_cells), horizon=1.0, scheme="gtem",
                       coefficients=SPECS["constant-g-1"],
                       noise=QWienerSpec(3.0, 1.0, n_cells - 1), seed=20250809)
    small, large = EnsembleNoise(cfg, range(26)), EnsembleNoise(cfg, range(50))
    for n in range(8):
        assert small.value_rows(n, 1)[0, 25].tobytes() == large.value_rows(n, 1)[0, 25].tobytes()


@pytest.mark.parametrize("n_cells", [32, 64])
def test_a_path_steps_to_the_states_of_its_one_row_run_in_any_ensemble(n_cells):
    cfg = SchemeConfig(tau=2.0**-6, grid=Grid1D(n_cells), horizon=1.0, scheme="gtem",
                       coefficients=SPECS["polynomial-g"],
                       noise=QWienerSpec(3.0, 1.0, n_cells - 1), seed=20250809)
    x0 = 2.0 * np.sin(np.pi * cfg.grid.nodes)

    def states_after_16_steps(path_ids):
        chains = BatchChains(cfg, np.broadcast_to(x0, (len(path_ids), len(x0))))
        chains.run(path_ids, 16)
        return chains.states

    for n_paths in (2, 25, 26, 50):
        ensemble = states_after_16_steps(range(n_paths))
        for p in (0, n_paths - 1):
            alone = states_after_16_steps([p])[0]
            assert ensemble[p].tobytes() == alone.tobytes(), (n_paths, p)


def test_run_refuses_rows_that_are_not_whole_copies_of_its_path_ids(monkeypatch):
    def no_noise(*args, **kwargs):
        raise AssertionError("noise was built before the rows were checked")

    monkeypatch.setattr(EnsembleNoise, "__init__", no_noise)
    cfg = SchemeConfig(tau=2.0**-6, grid=Grid1D(16), horizon=1.0, scheme="gtem",
                       coefficients=SPECS["constant-g-1"], noise=QWienerSpec(3.0, 1.0, 15))
    chains = BatchChains(cfg, np.zeros((3, 15)))
    for ids in ([], [0, 1]):
        with pytest.raises(ValueError, match=f"3 rows are not whole copies of {len(ids)} path"):
            chains.run(ids, 4)
    assert chains.step_index == 0


def test_a_two_copy_run_steps_on_the_noise_of_its_path_ids():
    """Rows [a; b] of two copies of paths 4 and 9 take each step's noise of
    those paths, twice over, from an ``EnsembleNoise`` of the plan's config."""
    cfg = SchemeConfig(tau=2.0**-6, grid=Grid1D(32), horizon=16 * 2.0**-6, scheme="gtem",
                       coefficients=SPECS["polynomial-g"], noise=QWienerSpec(3.0, 1.0, 31),
                       seed=20250809)
    ids = [4, 9]
    a, b = np.sin(np.pi * cfg.grid.nodes), np.full(31, 3.0)
    rows = np.stack([a, a, b, b])
    chains, oracle = BatchChains(cfg, rows), BatchChains(cfg, rows)
    chains.run(ids, cfg.n_steps)
    noise = EnsembleNoise(cfg, ids, 2)
    for n in range(cfg.n_steps):
        oracle.advance(noise.value_rows(n, 1)[0])
    assert chains.states.tobytes() == oracle.states.tobytes()


def fresh_philox_values(cfg, path_ids, step, copies):
    """One step's nodal increments of ``path_ids``, ``copies`` times over, each
    row from a freshly built Philox generator: key words (seed, path id) mod
    2^64, counter step * 2^128, as the noise module defines the stream."""
    mask, scale = (1 << 64) - 1, np.sqrt(cfg.noise.eigenvalues() * cfg.tau)
    rows = [scale * np.random.Generator(np.random.Philox(
        key=(cfg.seed & mask) | ((p & mask) << 64), counter=step << 128)
    ).standard_normal(cfg.noise.truncation) for p in path_ids]
    return np.tile(synthesize(np.stack(rows), cfg.grid.n_cells), (copies, 1))


def assert_run_matches_a_per_step_oracle(cfg, rows, path_ids, n_steps, stride=5):
    """``run`` against one ``advance`` per step on fresh-Philox noise: the
    recorded steps and values, the states and the blow-up steps, byte for byte."""
    observables = (lambda v, c: rows_l2_sq(v, c.grid.h), lambda v, c: v)
    chains, oracle = BatchChains(cfg, rows), BatchChains(cfg, rows)
    steps, values = chains.run(path_ids, n_steps, stride, observables)
    copies = len(rows) // len(path_ids)
    expected_steps, expected = [0], [[fn(oracle.states, cfg)] for fn in observables]
    for n in range(1, n_steps + 1):
        oracle.advance(fresh_philox_values(cfg, path_ids, n - 1, copies))
        if n % stride == 0 or n == n_steps:
            expected_steps.append(n)
            for fn, series in zip(observables, expected):
                series.append(fn(oracle.states, cfg))
    assert steps.tobytes() == np.asarray(expected_steps).tobytes()
    for got, series in zip(values, expected, strict=True):
        assert got.tobytes() == np.stack(series, axis=-1).tobytes()
    assert chains.states.tobytes() == oracle.states.tobytes()
    assert chains.blowup_step.tobytes() == oracle.blowup_step.tobytes()
    assert chains.step_index == oracle.step_index == n_steps
    return chains


@pytest.mark.parametrize("n_steps", [1, 7, 8, 9, 21])
@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("n_cells", [32, 128])  # dense and DST-I synthesis
def test_run_steps_on_each_steps_noise_across_block_boundaries(n_steps, copies, n_cells):
    cfg = SchemeConfig(tau=2.0**-6, grid=Grid1D(n_cells), horizon=1.0, scheme="gtem",
                       coefficients=SPECS["polynomial-g"],
                       noise=QWienerSpec(3.0, 1.0, n_cells - 1), seed=20250809)
    ids = [4, 9, 2]
    starts = [a * np.sin(np.pi * cfg.grid.nodes) for a in (1.0, 3.0)[:copies]]
    rows = np.repeat(np.stack(starts), len(ids), axis=0)
    assert_run_matches_a_per_step_oracle(cfg, rows, ids, n_steps)


@pytest.mark.parametrize("n_steps", [1, 7, 8, 9, 21])
@pytest.mark.parametrize("copies", [1, 2])
def test_run_freezes_rows_mid_block_as_a_per_step_run_does(n_steps, copies):
    # the untamed setup of criterion 6: a row started at amplitude 5 blows up
    # at step 4, one at 2.5 at steps 5 to 9, so rows freeze inside a block
    grid = Grid1D(64)
    cfg = SchemeConfig(tau=0.5, grid=grid, horizon=50.0, scheme="untamed_em",
                       coefficients=allen_cahn(0.5), noise=QWienerSpec(3.0, 1.0, 63),
                       seed=20250809)
    ids = range(6)
    amplitudes = [5.0, 2.5] * 3 if copies == 1 else [5.0] * 6 + [2.5] * 6
    rows = np.stack([a * np.sin(np.pi * grid.nodes) for a in amplitudes])
    chains = assert_run_matches_a_per_step_oracle(cfg, rows, ids, n_steps)
    blowups = chains.blowup_step[np.asarray(amplitudes) == 2.5]
    if n_steps >= 9:
        assert chains.blown.all() and set(chains.blowup_step) - set(blowups) == {4}
        assert (blowups % BLOCK_STEPS).all()  # each froze with steps of its block left
    if n_steps == 1:
        assert not chains.blown.any()


def test_a_one_step_lyapunov_probe_draws_one_step(monkeypatch):
    drawn = []
    coeffs = PathSampler.coeffs

    def spy(self, step_index, out=None):
        drawn.append((step_index, 1 if out is None or out.ndim == 2 else len(out)))
        return coeffs(self, step_index, out)

    monkeypatch.setattr(PathSampler, "coeffs", spy)
    grid = Grid1D(32)
    cfg = SchemeConfig(tau=2.0**-6, grid=grid, horizon=1.0, scheme="gtem",
                       coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, 31))
    report = check_assumptions(cfg.coefficients, cfg.noise)
    lyapunov_contraction_test(cfg, [np.zeros(grid.n_interior)], 1000, report)
    assert drawn and all(call == (0, 1) for call in drawn)


def test_a_stacked_plan_guards_each_grid_with_its_own_h():
    """On a 1024-cell grid stacked with a 4-cell one, a row is blown when
    either grid's slice is: over the sup guard and over that grid's own
    mass-norm bound, or not finite.  Each slice of a row that is not blown
    steps to the bits of its own grid's plan, and the row's verdict is the
    OR of the two verdicts."""
    tau, g = 1e-12, OVERFLOW_GUARD
    fine, coarse = Grid1D(1024), Grid1D(4)
    cfg = SchemeConfig(tau=tau, grid=fine, horizon=tau, scheme="drift_gtem",
                       coefficients=CoefficientSpec((0.0,), (0.0,), q=0),
                       noise=QWienerSpec(3.0, 1.0, 3))
    rng = np.random.default_rng(9)
    rows = rng.uniform(-1.0, 1.0, (7, 1023 + 3))
    rows[1, 500] = 3.0 * g  # over the sup guard, under the fine mass-norm bound
    rows[2, 1023 + 1] = 1.5 * g  # the same on the coarse grid
    rows[3, 1023:] = 2.0 * g  # over the coarse grid's mass-norm bound
    rows[4, 1023] = np.nan
    rows[5, 7] = np.nan
    rows[6, 100:] = 2.0 * g  # over the bound on both grids
    noise = np.zeros_like(rows)
    with np.errstate(all="ignore"):
        z, blown = step_rows(BatchChains(cfg, rows, (fine, coarse)).plan, rows, noise)
        verdicts = []
        for grid, cut in ((fine, slice(0, 1023)), (coarse, slice(1023, None))):
            one = BatchChains(replace(cfg, grid=grid), rows[:, cut]).plan
            z_one, blown_one = step_rows(one, rows[:, cut], noise[:, cut])
            # a NaN crosses a joint (0.0 * NaN), but only within a blown row
            assert z[:3, cut].tobytes() == z_one[:3].tobytes()
            verdicts.append(np.zeros(len(rows), bool) if blown_one is None else blown_one)
    assert blown.tolist() == [False, False, False, True, True, True, True]
    assert np.array_equal(blown, verdicts[0] | verdicts[1])
    assert abs(z[1, 500]) > g and abs(z[2, 1023 + 1]) > g  # the sup guard was passed
