import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tamedspde import noise as noise_mod
from tamedspde.cli import main
from tamedspde.coefficients import allen_cahn
from tamedspde.convergence import strong_error_ladder
from tamedspde.engine import EnsembleNoise
from tamedspde.fem import assemble, mass_matvec_rows
from tamedspde.grid import Grid1D, sine_mode
from tamedspde.noise import (
    PathSampler,
    QWienerSpec,
    _synth_matrix,
    _synth_rows,
    c_q_constant,
    pairwise_tree_sum_axis,
    synthesize,
)
from tamedspde.schemes import InitialCondition, SchemeConfig

GRID = Grid1D(64)
SPEC = QWienerSpec(decay_exponent=3.0, scale=1.0, truncation=63)
MASK64 = (1 << 64) - 1


def noise_config(spec=SPEC, grid=GRID, tau=0.01, seed=0):
    return SchemeConfig(tau=tau, grid=grid, horizon=tau, scheme="gtem",
                        coefficients=allen_cahn(1.0), noise=spec, seed=seed)


def fresh_philox_coeffs(spec, tau, seed, path_id, step_index):
    """The stream as the noise module defines it, from a freshly built generator:
    key words (seed, path id) mod 2^64, counter step_index * 2^128."""
    key = (seed & MASK64) | ((path_id & MASK64) << 64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=step_index << 128))
    return np.sqrt(spec.eigenvalues() * tau) * gen.standard_normal(spec.truncation)


def test_spec_validation():
    with pytest.raises(ValueError):
        QWienerSpec(1.0, 1.0, 10)  # not trace class
    with pytest.raises(ValueError):
        QWienerSpec(2.0, 0.0, 10)
    with pytest.raises(ValueError):
        QWienerSpec(2.0, 1.0, 0)
    assert SPEC.for_grid(Grid1D(16)).truncation == 15


def test_determinism_and_scaling():
    a = PathSampler(SPEC, 42, [3], 0.01).coeffs(17)
    b = PathSampler(SPEC, 42, [3], 0.01).coeffs(17)
    assert np.array_equal(a, b)
    # with the normals fixed, coefficients and nodal values scale as sqrt(tau)
    c = PathSampler(SPEC, 42, [3], 0.0025).coeffs(17)
    assert np.allclose(c, a / 2.0, rtol=1e-12)
    assert np.allclose(
        synthesize(c, GRID.n_cells), synthesize(a, GRID.n_cells) / 2.0,
        rtol=1e-12, atol=1e-15,
    )


@pytest.mark.parametrize("tau", [0.0, -0.01, float("nan")])
def test_sampler_rejects_a_step_size_that_is_not_positive(tau):
    with pytest.raises(ValueError, match="tau must be positive"):
        PathSampler(SPEC, 42, [3], tau)


def test_sampler_matches_standalone_and_random_access():
    # re-seating one generator per step equals a fresh Philox at that counter
    ps = PathSampler(SPEC, 42, [3], 0.01)
    seq = [ps.coeffs(k) for k in range(5)]
    for k, w in enumerate(seq):
        assert np.array_equal(w[0], fresh_philox_coeffs(SPEC, 0.01, 42, 3, k))
    # revisiting an earlier step reproduces it exactly
    assert np.array_equal(ps.coeffs(2), seq[2])


def test_reseat_discards_words_buffered_by_an_odd_step():
    spec = QWienerSpec(3.0, 1.0, 31)  # an odd K leaves Philox words buffered
    ps = PathSampler(spec, 42, [3], 0.01)
    first = ps.coeffs(2)
    ps.coeffs(9)
    assert ps._bitgen.state["buffer_pos"] != 4
    again = ps.coeffs(2)
    assert np.array_equal(again, first)
    assert np.array_equal(again[0], fresh_philox_coeffs(spec, 0.01, 42, 3, 2))


def test_step_index_range():
    ps = PathSampler(SPEC, 42, [3], 0.01)
    last = (1 << 64) - 1
    assert np.array_equal(
        ps.coeffs(last)[0], fresh_philox_coeffs(SPEC, 0.01, 42, 3, last)
    )
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError, match="step_index"):
            ps.coeffs(bad)


def test_coeffs_fill_a_row_of_a_block_buffer():
    # the ladder's block buffer is (steps, paths, K); one call fills one step's
    # rows, here the one row of path 3
    ps = PathSampler(SPEC, 42, [3], 0.01)
    fine = np.zeros((4, 3, SPEC.truncation))
    row = fine[2, 1:2]
    assert ps.coeffs(7, out=row) is row
    assert np.array_equal(fine[2, 1], fresh_philox_coeffs(SPEC, 0.01, 42, 3, 7))
    fine[2, 1] = 0.0
    assert not fine.any()  # nothing else was written


@pytest.mark.parametrize("n_modes", [63, 1023, 2047])
def test_coeffs_fill_a_step_block_of_the_ladder_buffer(n_modes):
    # the ladder's fine[i]: one step's (paths, K) rows inside a (steps, paths, K)
    # block, at narrow and wide rows
    spec = QWienerSpec(3.0, 1.0, n_modes)
    ids = [4, 9, 2]
    ps = PathSampler(spec, 42, ids, 0.01)
    fine = np.zeros((3, len(ids), n_modes))
    assert ps.coeffs(5, out=fine[1]).base is fine
    for p, row in zip(ids, fine[1]):
        assert np.array_equal(row, fresh_philox_coeffs(spec, 0.01, 42, p, 5))
    assert not fine[0].any() and not fine[2].any()
    assert np.array_equal(ps.coeffs(5), fine[1])


@pytest.mark.parametrize("n_modes", [63, 1023, 2047])
def test_coeffs_fill_a_block_of_steps_in_one_call(n_modes):
    # the ladder's block buffer (steps, paths, K) from one call: the rows of
    # steps 5, 6, ... equal one call per step, at narrow and wide rows; an
    # odd K leaves Philox words buffered after each row
    spec = QWienerSpec(3.0, 1.0, n_modes)
    ids = [4, 9, 2]
    ps = PathSampler(spec, 42, ids, 0.01)
    buffer = np.zeros((6, len(ids), n_modes))
    block = buffer[1:5]
    assert ps.coeffs(5, out=block) is block
    for i, rows in enumerate(block):
        assert rows.tobytes() == ps.coeffs(5 + i).tobytes()
    assert not buffer[0].any() and not buffer[5].any()
    assert ps.coeffs(5, out=buffer[:0]).shape == (0, len(ids), n_modes)
    last = (1 << 64) - 2  # a block may end on the last step
    assert ps.coeffs(last, out=buffer[:2])[1].tobytes() == ps.coeffs(last + 1).tobytes()


@pytest.mark.parametrize("n_modes", [63, 1100])
def test_coeffs_rejects_a_block_of_the_wrong_shape_or_past_the_last_step(n_modes):
    ps = PathSampler(QWienerSpec(3.0, 1.0, n_modes), 42, [1, 2, 3], 0.01)
    for shape in ((4, 2, n_modes), (4, 3, n_modes + 1), (1, 4, 3, n_modes), (3 * n_modes,)):
        out = np.full(shape, 123.0)
        with pytest.raises(ValueError, match=rf"or \(steps, 3, {n_modes}\)"):
            ps.coeffs(3, out=out)
        assert np.all(out == 123.0)
    out = np.full((4, 3, n_modes), 123.0)
    for start in ((1 << 64) - 3, -1):  # a block of steps 2^64 - 3 .. 2^64
        with pytest.raises(ValueError, match="step_index out of range"):
            ps.coeffs(start, out=out)
    assert np.all(out == 123.0)


@pytest.mark.parametrize("n_modes", [63, 2047])
def test_coeffs_rejects_an_out_that_is_not_c_contiguous_float64(n_modes):
    ps = PathSampler(QWienerSpec(3.0, 1.0, n_modes), 42, [1, 2], 0.01)
    out = np.zeros((n_modes, 2)).T  # the right shape, F-ordered
    with pytest.raises(ValueError, match="C-contiguous"):
        ps.coeffs(3, out=out)
    assert not out.any()
    with pytest.raises(ValueError, match="C-contiguous"):
        ps.coeffs(3, out=np.zeros((2, 2 * n_modes))[:, ::2])
    with pytest.raises(ValueError, match="float64"):
        ps.coeffs(3, out=np.zeros((2, n_modes), dtype=np.float32))


@pytest.mark.parametrize("n_modes", [63, 1100])
@pytest.mark.parametrize("extra_rows, extra_modes", [(-1, 0), (1, 0), (0, 1)])
def test_coeffs_rejects_an_out_of_the_wrong_shape(n_modes, extra_rows, extra_modes):
    # the in-place draw zips the path ids with the rows, so a wrong row
    # count would drop paths or leave rows unfilled but scaled
    ps = PathSampler(QWienerSpec(3.0, 1.0, n_modes), 42, [1, 2, 3], 0.01)
    out = np.full((3 + extra_rows, n_modes + extra_modes), 123.0)
    with pytest.raises(ValueError, match=rf"of shape \(3, {n_modes}\)"):
        ps.coeffs(3, out=out)
    assert np.all(out == 123.0)


def test_multi_path_sampler_rows_equal_fresh_generators():
    # ids out of order, repeated, negative and >= 2^64 (keyed mod 2^64); an
    # odd K leaves Philox words buffered after every row, so each row after
    # the first follows a predecessor that left words behind
    spec = QWienerSpec(3.0, 1.0, 31)
    ids = [7, 2, 7, -1, 1 << 64, (1 << 64) + 5, 0, MASK64]
    ps = PathSampler(spec, 42, ids, 0.01)
    for step in (0, 11, (1 << 64) - 1):
        rows = ps.coeffs(step)
        assert rows.shape == (len(ids), spec.truncation)
        for p, row in zip(ids, rows):
            assert np.array_equal(row, fresh_philox_coeffs(spec, 0.01, 42, p, step))
    assert ps._bitgen.state["buffer_pos"] != 4
    rows = ps.coeffs(11)
    assert np.array_equal(rows[0], rows[2])  # a repeated id draws the same row
    assert np.array_equal(rows[3], rows[7])  # -1 and 2^64 - 1 share a key
    assert np.array_equal(rows[4], rows[6])  # 2^64 and 0 share a key
    assert np.array_equal(rows[5], fresh_philox_coeffs(spec, 0.01, 42, 5, 11))
    # out= is filled in place and returned
    block = np.zeros((3, len(ids), spec.truncation))
    view = block[1]
    assert ps.coeffs(11, out=view) is view
    assert np.array_equal(block[1], rows)
    assert not block[0].any() and not block[2].any()
    # the range check is that of a one-path sampler
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError, match="step_index out of range"):
            ps.coeffs(bad)
    assert PathSampler(spec, 42, [], 0.01).coeffs(3).shape == (0, spec.truncation)


def test_numpy_integer_seed_and_ids_key_mod_2_64_as_python_ints_do():
    # np.int64(-1) & (2^64 - 1) would overflow a C long: the sampler keys int(x)
    spec = QWienerSpec(3.0, 1.0, 31)
    ps = PathSampler(spec, np.int64(-1), np.arange(3), 0.01)
    python_ints = PathSampler(spec, -1, [0, 1, 2], 0.01)
    for step in (0, 11):
        assert ps.coeffs(step).tobytes() == python_ints.coeffs(step).tobytes()
    assert np.array_equal(ps.coeffs(11)[2], fresh_philox_coeffs(spec, 0.01, MASK64, 2, 11))


def test_ensemble_rows_equal_per_path_oracles():
    # the ids lyapunov_contraction_test draws for anchor a: a * n_samples + j
    n_samples, tau = 1000, 0.01
    ids = [a * n_samples + j for a in (0, 3) for j in (5, 6, 999)]
    noise = EnsembleNoise(noise_config(tau=tau, seed=17), ids)
    for step in (0, 4):
        oracle = np.stack([fresh_philox_coeffs(SPEC, tau, 17, p, step) for p in ids])
        assert np.array_equal(noise.coeff_rows(step, 1)[0], oracle)
    # a path's row does not depend on the ensemble it is drawn in
    one = EnsembleNoise(noise_config(tau=tau, seed=17), [7]).coeff_rows(3, 1)[0]
    many = EnsembleNoise(noise_config(tau=tau, seed=17), range(25)).coeff_rows(3, 1)[0]
    assert one.shape == (1, SPEC.truncation)
    assert np.array_equal(one[0], many[7])


def test_mode_variance_mc_oracle():
    # Var<dW, q_1> over many samples ~ lambda_1 * tau
    tau, n = 0.01, 10_000
    spec = QWienerSpec(3.0, 1.0, 63)
    values = EnsembleNoise(noise_config(spec, tau=tau, seed=7), range(n)).value_rows(0, 1)[0]
    m_e1 = mass_matvec_rows(assemble(GRID), sine_mode(GRID, 1))
    proj = values @ m_e1  # mass inner product with e_1
    var = proj.var(ddof=1)
    se = var * np.sqrt(2.0 / (n - 1))  # SE of a variance estimate
    assert abs(var - tau * 1.0) <= 3.0 * se
    assert abs(proj.mean()) <= 3.0 * proj.std(ddof=1) / np.sqrt(n)


def test_mode_independence_and_trace():
    tau, n = 0.04, 10_000
    coeffs = EnsembleNoise(noise_config(tau=tau, seed=11), range(n)).coeff_rows(0, 1)[0]
    # cross-covariance of distinct modes within 3 SE of zero
    for j, k in [(0, 1), (1, 4), (2, 7)]:
        c = np.cov(coeffs[:, j], coeffs[:, k], ddof=1)[0, 1]
        se = np.sqrt(coeffs[:, j].var(ddof=1) * coeffs[:, k].var(ddof=1) / (n - 1))
        assert abs(c) <= 3.0 * se
    # E ||dW||^2 ~ tau * trace (Parseval proxy: sum of modal coefficients squared)
    sq = (coeffs**2).sum(axis=1)
    expected = tau * SPEC.trace()
    se = sq.std(ddof=1) / np.sqrt(n)
    assert abs(sq.mean() - expected) <= 3.0 * se


def test_independence_across_steps():
    tau, n = 0.01, 4000
    noise = EnsembleNoise(noise_config(tau=tau, seed=13), range(n))
    a = noise.coeff_rows(0, 1)[0][:, :3]
    b = noise.coeff_rows(1, 1)[0][:, :3]
    for m in range(3):
        c = np.cov(a[:, m], b[:, m], ddof=1)[0, 1]
        se = np.sqrt(a[:, m].var(ddof=1) * b[:, m].var(ddof=1) / (n - 1))
        assert abs(c) <= 3.0 * se


def test_aggregation_identity_and_variance():
    one = PathSampler(SPEC, 5, [0], 0.01).coeffs(0)[0]
    assert np.array_equal(pairwise_tree_sum_axis(one[None, None, :]), one[None, :])

    # variance of a 4-step aggregate ~ 4 * lambda_k * tau_fine
    tau, n = 0.01, 10_000
    noise = EnsembleNoise(noise_config(tau=tau, seed=6), range(n))
    fine = np.stack([noise.coeff_rows(k, 1)[0] for k in range(4)], axis=1)  # (paths, 4, K)
    sums = pairwise_tree_sum_axis(fine)[:, 0]
    var = sums.var(ddof=1)
    se = var * np.sqrt(2.0 / (n - 1))
    assert abs(var - 4.0 * tau * 1.0) <= 3.0 * se


def test_aggregation_associativity_power_of_two():
    # the ladder aggregates a fine path by reshaping to (coarse steps, ratio, K)
    ps = PathSampler(SPEC, 9, [1], 0.005)
    fine = np.stack([ps.coeffs(k)[0] for k in range(8)])
    k = SPEC.truncation
    one_shot = pairwise_tree_sum_axis(fine.reshape(1, 8, k))
    halves = pairwise_tree_sum_axis(fine.reshape(2, 4, k))
    nested = pairwise_tree_sum_axis(halves.reshape(1, 2, k))
    pairs = pairwise_tree_sum_axis(fine.reshape(4, 2, k))
    from_pairs = pairwise_tree_sum_axis(pairs.reshape(1, 4, k))
    assert np.array_equal(one_shot, nested)
    assert np.array_equal(one_shot, from_pairs)
    assert np.array_equal(
        synthesize(one_shot, GRID.n_cells), synthesize(from_pairs, GRID.n_cells)
    )
    # an odd count carries its tail: the result is still the full sum
    odd = pairwise_tree_sum_axis(fine[:5][None])
    assert np.allclose(odd[0], fine[:5].sum(axis=0), rtol=1e-13, atol=1e-15)


def test_coarse_path_is_prefix_of_fine_path():
    # bit-level coupling: coarse-grid increments are a mode prefix of fine ones
    fine_spec = QWienerSpec(3.0, 1.0, 63)
    coarse_grid = Grid1D(16)
    coarse_spec = fine_spec.for_grid(coarse_grid)
    fine = PathSampler(fine_spec, 21, [4], 0.01).coeffs(8)[0]
    coarse = PathSampler(coarse_spec, 21, [4], 0.01).coeffs(8)[0]
    assert np.array_equal(fine[:15], coarse)
    # restricting the fine coefficients synthesizes the coarse path's values
    coarse_noise = EnsembleNoise(noise_config(coarse_spec, coarse_grid, seed=21), [4])
    restricted = synthesize(fine[None, :15], coarse_grid.n_cells)
    assert np.array_equal(restricted, coarse_noise.value_rows(8, 1)[0])
    with pytest.raises(ValueError):
        synthesize(fine, coarse_grid.n_cells)  # cannot carry more modes than nodes


def test_synth_matches_direct_sum():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(15)
    grid = Grid1D(16)
    vals = synthesize(w, grid.n_cells)
    direct = sum(
        w[k - 1] * np.sqrt(2.0) * np.sin(k * np.pi * grid.nodes) for k in range(1, 16)
    )
    assert np.allclose(vals, direct, atol=1e-12)
    with pytest.raises(ValueError):
        synthesize(rng.standard_normal(20), grid.n_cells)


@pytest.mark.parametrize("n_cells", [64, 256, 512, 4096])
def test_synthesize_matches_dense_product(n_cells):
    # DST-I above the dense crossover, the cached matrix below it; the oracle
    # is the dense product, built without entering the cache
    dense = _synth_matrix.__wrapped__(n_cells)
    rng = np.random.default_rng(n_cells)
    for k in (n_cells - 1, n_cells // 3, 1):
        coeffs = rng.standard_normal((3, k))
        oracle = coeffs @ dense[:k]
        got = synthesize(coeffs, n_cells)
        assert got.shape == (3, n_cells - 1)
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    with pytest.raises(ValueError, match="alias"):
        synthesize(np.zeros((2, n_cells)), n_cells)


def test_dst_rows_do_not_depend_on_the_row_count():
    rng = np.random.default_rng(8)
    for n_cells, k in ((512, 511), (4096, 1000)):
        assert n_cells > noise_mod._DENSE_MAX_CELLS
        coeffs = rng.standard_normal((25, k))
        rows = synthesize(coeffs, n_cells)
        for i in range(25):
            assert np.array_equal(synthesize(coeffs[i : i + 1], n_cells)[0], rows[i])


def test_dense_rows_do_not_depend_on_the_row_count():
    rng = np.random.default_rng(9)
    for n_cells, k in ((8, 7), (32, 31), (64, 63), (64, 20)):
        assert n_cells <= noise_mod._DENSE_MAX_CELLS
        coeffs = rng.standard_normal((400, k))
        for n_rows in (1, 2, 26, 100, 400):
            rows = synthesize(coeffs[:n_rows], n_cells)
            for i in range(n_rows):
                alone = synthesize(coeffs[i : i + 1], n_cells)[0]
                assert alone.tobytes() == rows[i].tobytes(), (n_cells, k, n_rows, i)


def test_dense_synthesis_shares_the_cache_and_wide_meshes_bypass_it(tmp_path):
    # up to the crossover (64 cells): a view of the cached matrix, the same
    # per-row products as with a transposed copy of its first k columns
    for n_cells, k in ((32, 31), (64, 63), (64, 20)):
        full = _synth_matrix(n_cells)
        assert np.array_equal(full, full.T)  # symmetric bit for bit
        view = _synth_rows(n_cells, k)
        assert np.shares_memory(view, full) and view.flags.c_contiguous
        grid = Grid1D(n_cells)
        noise = EnsembleNoise(noise_config(QWienerSpec(3.0, 1.0, k), grid, seed=3), range(5))
        transposed = np.ascontiguousarray(full[:, :k].T)
        per_row = np.matmul(noise.coeff_rows(2, 1)[0][:, None, :], transposed)[:, 0, :]
        assert np.array_equal(noise.value_rows(2, 1)[0], per_row)
    # above it: no entry for a wider mesh, whichever caller synthesizes
    wide = Grid1D(4096)
    _synth_matrix.cache_clear()
    for grid in (Grid1D(128), Grid1D(256), wide):
        noise = EnsembleNoise(noise_config(SPEC.for_grid(grid), grid, seed=3), range(2))
        noise.value_rows(0, 1)
    assert _synth_matrix.cache_info().currsize == 0
    out = tmp_path / "sim"
    cfg = tmp_path / "sim.ini"
    cfg.write_text(
        f"[experiment]\nkind = simulate\nseed = 1\noutput_dir = {out}\n\n"
        "[grid]\nn_cells = 4096\n\n[scheme]\nkind = gtem\ntau = 0.125\n"
        "horizon = 1.0\n\n[coefficients]\npreset = allen-cahn\n",
        encoding="utf-8",
    )
    assert main(["run", str(cfg)]) == 0
    assert _synth_matrix.cache_info().currsize == 0
    ref = SchemeConfig(tau=0.125, grid=wide, horizon=1.0, scheme="drift_gtem",
                       coefficients=allen_cahn(1.0), noise=SPEC.for_grid(wide), seed=5)
    strong_error_ladder(ref, InitialCondition("sine"), 1, coarse_n_cells=[16, 32])
    assert _synth_matrix.cache_info().currsize == 2  # the 16- and 32-cell members


NARROW_RUN_THEN_WIDE_SYNTHESIS = """
import sys
import numpy as np
from tamedspde import cli
from tamedspde.noise import synthesize

assert cli.main(["run", sys.argv[1], "--output", sys.argv[2]]) == 0
assert "scipy.fft" not in sys.modules, "a 32-cell run imported scipy.fft"
coeffs = np.random.default_rng(5).standard_normal((3, 127))
values = synthesize(coeffs, 128)
assert "scipy.fft" in sys.modules, "a 128-cell synthesis ran without scipy.fft"
dst = sys.modules["scipy.fft"].dst(coeffs, type=1, axis=-1)
assert np.array_equal(values, dst * (np.sqrt(2.0) / 2.0))
"""


def test_a_narrow_run_never_imports_scipy_fft(tmp_path):
    # a fresh interpreter: the one running the tests has loaded scipy.fft
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", TAMEDSPDE_WORKERS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", NARROW_RUN_THEN_WIDE_SYNTHESIS,
         str(root / "configs" / "lyapunov_allen_cahn.ini"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_c_q_constant():
    # partial-sum oracle: 2 * sum k^-2 over 1000 terms
    oracle = 2.0 * sum(k**-2.0 for k in range(1, 1001))
    spec = QWienerSpec(2.0, 1.0, 1000)
    assert np.isclose(c_q_constant(spec), oracle, rtol=1e-12)
    assert abs(oracle - np.pi**2 / 3.0) <= 2.0 / 1000.0  # tail bound
    assert np.isclose(c_q_constant(QWienerSpec(2.0, 0.7, 1)), 2.0 * 0.7, rtol=1e-14)
    values = [c_q_constant(QWienerSpec(2.0, 1.0, k)) for k in (1, 2, 5, 50)]
    assert all(a <= b for a, b in zip(values, values[1:]))
