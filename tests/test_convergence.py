import collections
import math
from dataclasses import replace

import numpy as np
import pytest

from tamedspde import convergence, engine, parallel
from tamedspde.coefficients import CoefficientSpec, allen_cahn
from tamedspde.convergence import (
    _check_block_memory,
    _ladder_chunk,
    _ladder_members,
    fit_rate,
    fit_rate_xy,
    semigroup_error,
    semigroup_error_test,
    strong_error_ladder,
)
from tamedspde.engine import BatchChains
from tamedspde.fem import dispersion_eigenvalue
from tamedspde.grid import Grid1D, rows_l2_sq
from tamedspde.noise import (
    PathSampler,
    QWienerSpec,
    pairwise_tree_sum_axis,
    synthesize,
)
from tamedspde.schemes import InitialCondition, SchemeConfig

ZERO = CoefficientSpec(drift=(0.0,), diffusion=(0.0,), q=0)


def heat_reference(n_cells=32, tau=2.0**-12, horizon=1.0, seed=3):
    return SchemeConfig(tau=tau, grid=Grid1D(n_cells), horizon=horizon,
                        scheme="drift_gtem", coefficients=ZERO,
                        noise=QWienerSpec(3.0, 1e-30, n_cells - 1), seed=seed)


def additive_reference(tau=2.0**-10, n_cells=64, seed=41):
    return SchemeConfig(tau=tau, grid=Grid1D(n_cells), horizon=1.0,
                        scheme="drift_gtem", coefficients=allen_cahn(1.0),
                        noise=QWienerSpec(3.0, 1.0, n_cells - 1), seed=seed)


def test_fit_rate_exact_power_laws():
    taus = [2.0**-k for k in range(3, 9)]
    fit = fit_rate_xy(taus, [3.0 * t**0.5 for t in taus])
    assert abs(fit.slope - 0.5) <= 1e-10
    assert abs(fit.r_squared - 1.0) <= 1e-12
    flat = fit_rate_xy(taus, [0.7] * len(taus))
    assert abs(flat.slope) <= 1e-10


def test_fit_rate_asymptotic_dominance():
    taus = [2.0**-k for k in range(8, 14)]
    fit = fit_rate_xy(taus, [t + 5.0 * t**2 for t in taus])
    assert 1.0 < fit.slope < 1.05


def test_fit_rate_excludes_zero_rows():
    taus = [2.0**-k for k in range(3, 9)]
    ys = [t for t in taus]
    ys[2] = 0.0
    fit = fit_rate_xy(taus, ys)
    assert fit.n_excluded == 1 and fit.n_points == 5
    with pytest.raises(ValueError):
        fit_rate_xy(taus[:4], [1.0, 1.0, 0.0, 0.0])


def test_ladder_self_comparison_is_exact_zero():
    ref = heat_reference(tau=2.0**-8)
    table = strong_error_ladder(ref, InitialCondition("sine"), n_paths=1,
                                coarse_taus=[2.0**-8])
    assert table.rows[0].rms_sup_error == 0.0


def test_ladder_deterministic_heat_first_order():
    ref = heat_reference()
    table = strong_error_ladder(ref, InitialCondition("sine"), n_paths=1,
                                coarse_taus=[2.0**-k for k in range(4, 9)])
    errs = [r.rms_sup_error for r in table.rows]
    for a, b in zip(errs, errs[1:]):
        assert 1.7 <= a / b <= 2.3  # one halving of tau halves the error
    fit = fit_rate(table)
    assert 0.9 <= fit.slope <= 1.1


def test_ladder_is_bitwise_reproducible():
    ref = additive_reference()
    ladder = dict(coarse_taus=[2.0**-7, 2.0**-8])
    a = strong_error_ladder(ref, InitialCondition("sine", amplitude=2.0), 4, **ladder)
    b = strong_error_ladder(ref, InitialCondition("sine", amplitude=2.0), 4, **ladder)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.rms_sup_error == rb.rms_sup_error  # bitwise, not approximate
        assert ra.std_error == rb.std_error


def test_ladder_validates_nesting(monkeypatch):
    def no_stepping(self, noise_values):
        raise AssertionError("the ladder stepped before rejecting its members")

    monkeypatch.setattr(BatchChains, "advance", no_stepping)
    ref = additive_reference()
    with pytest.raises(ValueError,
                       match=r"horizon 1\.0 is not an integer multiple of tau 0\.0029296875"):
        strong_error_ladder(ref, InitialCondition("sine"), 2,
                            coarse_taus=[2.0**-8, 3.0 * 2.0**-10])  # 1024 % 3 != 0
    with pytest.raises(ValueError):
        strong_error_ladder(ref, InitialCondition("sine"), 2,
                            coarse_taus=[1.5 * 2.0**-10])
    with pytest.raises(ValueError):
        strong_error_ladder(ref, InitialCondition("sine"), 2, coarse_taus=[])
    with pytest.raises(ValueError):
        strong_error_ladder(ref, InitialCondition("sine"), 2,
                            coarse_n_cells=[48])  # 64 % 48 != 0
    with pytest.raises(ValueError):
        strong_error_ladder(ref, InitialCondition("sine"), 2)
    with pytest.raises(ValueError):
        strong_error_ladder(ref, InitialCondition("sine"), 2,
                            coarse_taus=[2.0**-8], coarse_n_cells=[32])


def test_ladder_spatial_smoke():
    ref = additive_reference(tau=2.0**-8)
    table = strong_error_ladder(ref, InitialCondition("sine", amplitude=2.0),
                                n_paths=4, coarse_n_cells=[8, 16, 32])
    errs = [r.rms_sup_error for r in table.rows]
    assert errs[0] > errs[1] > errs[2] > 0
    assert table.axis == "h"
    assert {r.tau for r in table.rows} == {ref.tau}


def march_one_path(config, x0_vals, noise_values):
    """Every state of one path, stepped as a 1-row ensemble."""
    chain = BatchChains(config, x0_vals[None, :])
    states = [x0_vals]
    for v in noise_values:
        chain.advance(v[None, :])
        states.append(chain.states[0].copy())
    return np.stack(states), bool(chain.blown[0])


def whole_path_ladder(reference, x0, n_paths, rungs):
    """RMS sup errors from each path's whole fine path, one path at a time."""
    n_ref, k_ref = reference.n_steps, reference.noise.truncation
    errors = np.empty((n_paths, len(rungs)))
    for p in range(n_paths):
        sampler = PathSampler(reference.noise, reference.seed, [p], reference.tau)
        fine = np.stack([sampler.coeffs(i)[0] for i in range(n_ref)])
        ref_states, blown = march_one_path(
            reference, x0.build(reference.grid),
            synthesize(fine, reference.grid.n_cells),
        )
        assert not blown
        for j, (ratio, grid) in enumerate(rungs):
            k = min(k_ref, grid.n_interior)
            agg = pairwise_tree_sum_axis(fine[:, :k].reshape(n_ref // ratio, ratio, k))
            cfg = SchemeConfig(tau=ratio * reference.tau, grid=grid,
                               horizon=reference.horizon, scheme=reference.scheme,
                               coefficients=reference.coefficients,
                               noise=reference.noise.for_grid(grid), seed=reference.seed)
            states, blown = march_one_path(
                cfg, x0.build(grid), synthesize(agg, grid.n_cells)
            )
            assert not blown
            m = reference.grid.n_cells // grid.n_cells
            restricted = ref_states[::ratio][:, np.arange(1, grid.n_cells) * m - 1]
            errors[p, j] = np.sqrt(rows_l2_sq(states - restricted, grid.h).max())
    return np.sqrt(np.mean(errors**2, axis=0))


def test_streamed_ladder_matches_whole_path_oracle():
    x0 = InitialCondition("sine", amplitude=2.0)
    grid = Grid1D(512)
    # tau ladder: ratios 2, 3 and 8 stream in blocks of 24 steps; the
    # reference keeps 100 of the 511 modes
    tau_ref = SchemeConfig(tau=1.0 / 48, grid=grid, horizon=1.0, scheme="drift_gtem",
                           coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, 100),
                           seed=17)
    table = strong_error_ladder(tau_ref, x0, 3, coarse_taus=[2 / 48, 3 / 48, 8 / 48])
    oracle = whole_path_ladder(tau_ref, x0, 3, [(2, grid), (3, grid), (8, grid)])
    got = np.array([r.rms_sup_error for r in table.rows])
    assert np.all(np.abs(got - oracle) <= 1e-12 * oracle)
    # h ladder on the same 512-cell reference, every mode kept
    h_ref = additive_reference(tau=2.0**-6, n_cells=512, seed=23)
    h_ref = SchemeConfig(tau=h_ref.tau, grid=h_ref.grid, horizon=0.25, scheme=h_ref.scheme,
                         coefficients=h_ref.coefficients, noise=h_ref.noise, seed=23)
    cells = [8, 32, 128]
    table = strong_error_ladder(h_ref, x0, 3, coarse_n_cells=cells)
    oracle = whole_path_ladder(h_ref, x0, 3, [(1, Grid1D(c)) for c in cells])
    got = np.array([r.rms_sup_error for r in table.rows])
    assert np.all(np.abs(got - oracle) <= 1e-12 * oracle)


def per_step_ladder_chunk(reference, x0, members, path_ids):
    """The per-step bookkeeping: every member sums its increments from the
    fine draws, and compares against the reference after each of its steps."""
    tau, n_cells = reference.tau, reference.grid.n_cells
    block = math.lcm(*(m.ratio for m in members))
    sampler = PathSampler(reference.noise, reference.seed, path_ids, tau)
    n, k_ref = len(path_ids), reference.noise.truncation
    start_values = x0.build(reference.grid)
    ref = BatchChains(reference, np.broadcast_to(start_values, (n, len(start_values))))
    runs = [BatchChains(m.config, ref.states[:, m.restrict]) for m in members]
    worst = np.stack([rows_l2_sq(run.states - ref.states[:, m.restrict], m.config.grid.h)
                      for m, run in zip(members, runs)], axis=1)
    fine = np.empty((block, n, k_ref))
    kept = np.empty((block, n, reference.grid.n_interior))
    for start in range(0, reference.n_steps, block):
        for i in range(block):
            sampler.coeffs(start + i, out=fine[i])
        values = synthesize(fine.reshape(block * n, k_ref), n_cells).reshape(block, n, -1)
        for i in range(block):
            ref.advance(values[i])
            kept[i] = ref.states
        for j, (m, run) in enumerate(zip(members, runs)):
            coeffs = fine[..., : m.config.noise.truncation]  # the mode prefix
            k_c = coeffs.shape[-1]
            if m.ratio > 1:
                coeffs = pairwise_tree_sum_axis(
                    coeffs.reshape(block // m.ratio, m.ratio, n, k_c))
            member_values = synthesize(coeffs.reshape(-1, k_c), m.config.grid.n_cells)
            for s, step_values in enumerate(member_values.reshape(block // m.ratio, n, -1)):
                run.advance(step_values)
                at = kept[(s + 1) * m.ratio - 1][:, m.restrict]
                np.maximum(worst[:, j], rows_l2_sq(run.states - at, m.config.grid.h),
                           out=worst[:, j])
    blown = ref.blown.copy()
    for run in runs:
        blown |= run.blown
    return worst, blown


@pytest.mark.parametrize(
    "n_cells, ratios, steps, cells",
    [
        (256, (8, 16, 32, 64), 128, None),  # each member sums from the one before it
        (32, (4, 12), 24, None),  # 12 sums from the sums at ratio 4
        (32, (2, 3, 8), 48, None),  # 3 sums from the fine draws, 8 from those at 2
        (32, (3,), 30, None),  # lcm 3: blocks of 9 steps and a tail of 3
        (256, None, 24, (4, 8, 16, 32, 64)),  # h ladders: blocks of 8 steps
        (1024, None, 16, (8, 16, 32, 64, 128)),
        (128, None, 21, (4, 16, 64)),  # two blocks of 8 and a tail of 5
        (64, None, 16, (2, 4, 2, 16)),  # 1-node grids step alone, not stacked
    ],
    ids=["8-16-32-64", "4-12", "2-3-8", "3-tail", "h-256", "h-1024", "h-tail", "h-2"],
)
def test_ladder_block_bookkeeping_matches_the_per_step_loop(n_cells, ratios, steps, cells):
    tau_ref = 2.0**-10
    reference = SchemeConfig(tau=tau_ref, grid=Grid1D(n_cells), horizon=steps * tau_ref,
                             scheme="drift_gtem", coefficients=allen_cahn(1.0),
                             noise=QWienerSpec(3.0, 1.0, n_cells - 1), seed=13)
    assert reference.n_steps == steps
    taus = None if ratios is None else [r * tau_ref for r in ratios]
    _, members = _ladder_members(reference, taus, cells)
    x0 = InitialCondition("sine", amplitude=2.0)
    worst, blown = _ladder_chunk(reference, x0, members, range(5, 8))
    want_worst, want_blown = per_step_ladder_chunk(reference, x0, members, range(5, 8))
    assert np.array_equal(worst, want_worst) and np.array_equal(blown, want_blown)
    assert np.all(worst > 0) and not blown.any()


def test_a_blown_row_leaves_the_other_rows_of_an_h_ladder_as_they_were():
    # untamed EM from a large start: half the rows blow up, two of them in
    # the reference but never on the 4-cell mesh; the stacked chain freezes
    # a blown row on every grid, the per-step oracle only in the chain it blew
    tau_ref = 2.0**-3
    reference = SchemeConfig(tau=tau_ref, grid=Grid1D(32), horizon=16 * tau_ref,
                             scheme="untamed_em", coefficients=allen_cahn(1.0),
                             noise=QWienerSpec(3.0, 30.0, 31), seed=3)
    _, members = _ladder_members(reference, None, [4, 8, 16])
    x0 = InitialCondition("sine", amplitude=6.0)
    with np.errstate(all="ignore"):
        worst, blown = _ladder_chunk(reference, x0, members, range(12))
        want_worst, want_blown = per_step_ladder_chunk(reference, x0, members, range(12))
    assert np.array_equal(blown, want_blown) and 0 < blown.sum() < len(blown)
    assert worst[~blown].tobytes() == want_worst[~blown].tobytes()


def advance_stepping_frozen_rows(self, noise_values):
    """``BatchChains.advance`` as it was: every row stepped, blown rows frozen."""
    self.step_index += 1
    z, blown_now = engine.step_rows(self.plan, self.states, noise_values)
    if blown_now is not None:
        self.blowup_step[blown_now & (self.blowup_step < 0)] = self.step_index
        self._n_blown = int(self.blown.sum())
    self.states = z if self._n_blown == 0 else np.where(self.blown[:, None], self.states, z)


def test_only_live_rows_are_stepped_once_a_row_has_blown(monkeypatch):
    # the blow-up test's 12 rows at 4x its horizon: 64 steps of one stacked
    # chain.  Stepping the frozen rows again made nearly every step return a
    # blown array; stepping the live rows alone leaves their bits as they were
    tau_ref = 2.0**-3
    reference = SchemeConfig(tau=tau_ref, grid=Grid1D(32), horizon=64 * tau_ref,
                             scheme="untamed_em", coefficients=allen_cahn(1.0),
                             noise=QWienerSpec(3.0, 30.0, 31), seed=3)
    _, members = _ladder_members(reference, None, [4, 8, 16])
    x0 = InitialCondition("sine", amplitude=6.0)
    step_rows, calls = engine.step_rows, collections.Counter()

    def counting(plan, values, noise_values):
        z, blown = step_rows(plan, values, noise_values)
        calls["steps"] += 1
        calls["blown"] += blown is not None
        return z, blown

    monkeypatch.setattr(engine, "step_rows", counting)
    with np.errstate(all="ignore"):
        worst, blown = _ladder_chunk(reference, x0, members, range(12))
        live_calls = dict(calls)
        calls.clear()
        monkeypatch.setattr(BatchChains, "advance", advance_stepping_frozen_rows)
        want_worst, want_blown = _ladder_chunk(reference, x0, members, range(12))
    assert dict(calls) == {"steps": 64, "blown": 60}
    assert live_calls == {"steps": 64, "blown": 3}  # the steps at which rows blew
    assert np.array_equal(blown, want_blown) and blown.sum() == 6
    assert worst[~blown].tobytes() == want_worst[~blown].tobytes()


def test_a_ladder_chunk_row_does_not_depend_on_the_chunk():
    x0 = InitialCondition("sine", amplitude=2.0)
    tau_ref = 2.0**-8
    ladders = (
        (128, 16, None, [8, 16, 32, 64]),  # h ladder: two blocks of 8 steps
        (32, 48, [2 * tau_ref, 3 * tau_ref, 8 * tau_ref], None),  # blocks of 24
    )
    for n_cells, steps, taus, cells in ladders:
        reference = SchemeConfig(tau=tau_ref, grid=Grid1D(n_cells), horizon=steps * tau_ref,
                                 scheme="drift_gtem", coefficients=allen_cahn(1.0),
                                 noise=QWienerSpec(3.0, 1.0, n_cells - 1), seed=31)
        _, members = _ladder_members(reference, taus, cells)
        worst, blown = _ladder_chunk(reference, x0, members, range(25))
        assert np.all(worst > 0) and not blown.any()
        for p in (0, 12, 24):
            alone, alone_blown = _ladder_chunk(reference, x0, members, range(p, p + 1))
            assert alone.tobytes() == worst[p : p + 1].tobytes(), (n_cells, p)
            assert alone_blown.tolist() == [False]


def test_h_ladder_reduces_each_member_once_per_block_of_eight(monkeypatch):
    # 20 reference steps: blocks of 8, 8 and 4, after the step-0 comparison
    calls = collections.Counter()

    def counting(v, h):
        calls[v.shape[-1]] += 1
        return rows_l2_sq(v, h)

    monkeypatch.setattr(convergence, "rows_l2_sq", counting)
    reference = replace(additive_reference(tau=2.0**-6, n_cells=256), horizon=20 * 2.0**-6)
    cells = [8, 16, 32, 64]
    strong_error_ladder(reference, InitialCondition("sine", amplitude=2.0), 3,
                        coarse_n_cells=cells)
    assert calls == {c - 1: 1 + math.ceil(20 / 8) for c in cells}


def block_memory_message(reference, taus=None, cells=None, n_rows=25):
    """The error ``_check_block_memory`` raises, or None."""
    _, members = _ladder_members(reference, taus, cells)
    try:
        _check_block_memory(reference, members, n_rows)
    except ValueError as exc:
        return str(exc)
    return None


def test_block_memory_counts_the_blocks_that_are_streamed(monkeypatch):
    tau_ref = 2.0**-10
    reference = SchemeConfig(tau=tau_ref, grid=Grid1D(64), horizon=36 * tau_ref,
                             scheme="drift_gtem", coefficients=allen_cahn(1.0),
                             noise=QWienerSpec(3.0, 1.0, 63), seed=1)
    # h ladder {8, 32} cells: a block of 8 steps, one ratio group stacking
    # 63 + 7 + 31 nodes; fine draws 8 * 63, and the group's 8 steps' values
    # and 8 kept states
    h_per_row = 8 * 63 + 8 * (63 + 7 + 31) + 8 * (63 + 7 + 31)
    # tau ladder {3}: a block of 9 steps; the reference's group keeps states
    # every 3 steps, and the ratio-3 group holds 3 sums of 63 modes, 3 steps'
    # values and 3 states
    tau_per_row = 9 * 63 + 9 * 63 + 3 * 63 + 3 * (63 + 2 * 63)
    for per_row, taus, cells, block in ((h_per_row, None, [8, 32], 8),
                                        (tau_per_row, [3 * tau_ref], None, 9)):
        monkeypatch.setattr(convergence, "MAX_BLOCK_VALUES", per_row * 25)
        assert block_memory_message(reference, taus, cells) is None
        monkeypatch.setattr(convergence, "MAX_BLOCK_VALUES", per_row * 25 - 1)
        message = block_memory_message(reference, taus, cells)
        assert message.startswith(f"a ladder block of {block} reference steps needs "
                                  f"{per_row * 25} float64 values"), message
    monkeypatch.undo()
    # the ladder-h-fine shape stays far under the cap at a full 25-path chunk
    wide = SchemeConfig(tau=tau_ref, grid=Grid1D(4096), horizon=1.0, scheme="drift_gtem",
                        coefficients=allen_cahn(1.0), noise=QWienerSpec(3.0, 1.0, 4095),
                        seed=1)
    assert block_memory_message(wide, cells=[8, 16, 32, 64, 128]) is None


def test_rows_l2_sq_of_a_step_block_equals_each_step():
    v = np.random.default_rng(8).standard_normal((32, 3, 255))
    block = rows_l2_sq(v, 1.0 / 256)
    for s in range(len(v)):
        assert np.array_equal(block[s], rows_l2_sq(v[s], 1.0 / 256))


def test_ladder_tables_identical_across_worker_counts(monkeypatch):
    # A cap of one value per slice leaves one chunk per slice, so the 2-worker
    # run maps two slices, 25 paths and 5, on the pool.
    monkeypatch.setattr(parallel, "MAX_SLICE_VALUES", 1)
    mapped = []

    def spy_map(fn, items):
        mapped.append([len(paths) for paths in items])
        return parallel.parallel_map(fn, items)

    monkeypatch.setattr(convergence, "parallel_map", spy_map)
    ref = additive_reference(tau=2.0**-7, n_cells=32)
    for ladder in (dict(coarse_taus=[2.0**-5, 2.0**-4]), dict(coarse_n_cells=[4, 8, 16])):
        tables = []
        for workers in ("1", "2"):
            monkeypatch.setenv("TAMEDSPDE_WORKERS", workers)
            tables.append(strong_error_ladder(ref, InitialCondition("sine", amplitude=2.0),
                                              30, **ladder))
        assert repr(tables[0]) == repr(tables[1])
        assert tables[0].rows[0].n_paths == 30
    assert mapped == [[25, 5]] * 4


def test_semigroup_error_matches_mode_decay():
    # e_1 is a discrete eigenvector, so k resolvent steps scale its interpolant
    # by (1 + tau lam_h)^-k; the rest of the error is interpolation, O(h^2)
    lam = dispersion_eigenvalue(Grid1D(16))
    decay_gap = abs((1.0 + 0.25 * lam) ** -4 - math.exp(-math.pi**2))
    assert abs(semigroup_error(16, 0.25) / decay_gap - 1.0) <= 0.01
    with pytest.raises(ValueError):
        semigroup_error(16, 0.3, t=1.0)  # t not a multiple of tau
    with pytest.raises(ValueError):
        semigroup_error(16, 0.25, mode=16)  # no such mode on 15 interior nodes


def test_semigroup_rates():
    cells = [8, 16, 32, 64, 128]
    xs, errors = semigroup_error_test(cells, [1.0 / nc**2 for nc in cells], axis="h")
    assert xs == [1.0 / nc for nc in cells]
    fit_h = fit_rate_xy(xs, errors)
    assert abs(fit_h.slope - 2.0) <= 0.1
    taus = [2.0**-k for k in range(8, 13)]
    xs, errors = semigroup_error_test([256] * 5, taus, axis="tau")
    assert xs == taus
    fit_t = fit_rate_xy(xs, errors)
    assert abs(fit_t.slope - 1.0) <= 0.1
    with pytest.raises(ValueError):
        semigroup_error_test([8, 16], [0.1], axis="h")
    with pytest.raises(ValueError):
        semigroup_error_test([8], [0.1], axis="x")
