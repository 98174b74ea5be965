import numpy as np
import pytest
import scipy.linalg

from tamedspde import engine, fem
from tamedspde.coefficients import CoefficientSpec
from tamedspde.engine import resolvent_rows, step_rows
from tamedspde.fem import (
    assemble,
    dispersion_eigenvalue,
    eigen_smallest,
    mass_matvec_rows,
)
from tamedspde.grid import Grid1D, GridFunction, l2_norm, rows_l2_sq, sine_mode
from tamedspde.noise import QWienerSpec
from tamedspde.schemes import SchemeConfig

ZERO_COEFFS = CoefficientSpec(drift=(0.0,), diffusion=(0.0,), q=0)


def mass_and_stiffness(ops):
    """Dense M and K, built from their main and first off-diagonals."""
    return tuple(
        np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        for diag, off in ((ops.mass_diag, ops.mass_off), (ops.stiff_diag, ops.stiff_off))
    )


def linear_config(n_cells, tau):
    """f = g = 0: one scheme step is exactly the resolvent (M + tau K)^{-1} M."""
    return SchemeConfig(tau=tau, grid=Grid1D(n_cells), horizon=tau, scheme="drift_gtem",
                        coefficients=ZERO_COEFFS,
                        noise=QWienerSpec(3.0, 1.0, n_cells - 1))


def test_assemble_single_interior_node():
    ops = assemble(Grid1D(2))
    M, K = mass_and_stiffness(ops)
    assert np.allclose(M, [[1.0 / 3.0]])
    assert np.allclose(K, [[4.0]])
    with pytest.raises(ValueError):
        Grid1D(1)


def test_assemble_structure():
    ops = assemble(Grid1D(16))
    M, K = mass_and_stiffness(ops)
    assert np.array_equal(M, M.T)
    assert np.array_equal(K, K.T)
    # interior rows of K annihilate constants
    assert np.allclose(K.sum(axis=1)[1:-1], 0.0, atol=1e-14)
    h = 1.0 / 16.0
    assert np.allclose(np.diag(M), 4.0 * h / 6.0)
    assert np.allclose(np.diag(K), 2.0 / h)


def five_call_tri_matvec(diag, off, v):
    """The product as written before the off-diagonal product was shared."""
    y = diag * v
    y[..., :-1] += off * v[..., 1:]
    y[..., 1:] += off * v[..., :-1]
    return y


@pytest.mark.parametrize("n_cells", [2, 3, 32, 4096])
def test_tri_matvec_matches_the_five_call_form_bit_for_bit(n_cells):
    ops = assemble(Grid1D(n_cells))
    n = ops.grid.n_interior
    rng = np.random.default_rng(n_cells)
    rows = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-300, 300, (6, n))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -5e-324])
    rows[1:] = np.where(rng.random((5, n)) < 0.3, rng.choice(specials, (5, n)), rows[1:])
    rows[2] = specials[np.arange(n) % len(specials)]
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the test
        for v in (rows, rows[0], rows[:, ::-1]):
            for diag, off in ((ops.mass_diag, ops.mass_off),
                              (ops.stiff_diag, ops.stiff_off)):
                want = five_call_tri_matvec(diag, off, v)
                assert fem._tri_matvec(diag, off, v).tobytes() == want.tobytes()
            want = five_call_tri_matvec(ops.mass_diag, ops.mass_off, v)
            assert mass_matvec_rows(ops, v).tobytes() == want.tobytes()


def test_solve_semi_implicit_scalar_case():
    # one interior node: (1/3 + 0.1 * 4) z = 1/3
    z, blown = step_rows(linear_config(2, 0.1), np.array([[1.0]]), np.zeros((1, 1)))
    assert np.isclose(z[0, 0], 5.0 / 11.0, rtol=1e-14)
    assert not blown[0]


def test_solve_tau_zero_identity():
    ops = assemble(Grid1D(32))
    rng = np.random.default_rng(0)
    u = rng.standard_normal((3, 31))
    z = resolvent_rows(ops, 0.0, u)
    assert np.max(np.abs(z - u)) <= 1e-12


def test_solve_residual_and_contraction():
    rng = np.random.default_rng(1)
    for n, tau in [(16, 0.3), (64, 1.0), (256, 0.01)]:
        ops = assemble(Grid1D(n))
        u = rng.standard_normal((4, n - 1))
        z = resolvent_rows(ops, tau, u)
        M, K = mass_and_stiffness(ops)
        A = M + tau * K
        load = u @ M
        resid = np.linalg.norm(z @ A - load, axis=1)
        assert np.all(resid <= 1e-12 * np.linalg.norm(load, axis=1))
        # (M + tau K) z = M u  implies  ||z||_M <= ||u||_M
        h = ops.grid.h
        assert np.all(rows_l2_sq(z, h) <= rows_l2_sq(u, h) * (1.0 + 1e-13) ** 2)


def test_banded_vs_dense_reference():
    rng = np.random.default_rng(2)
    for n_cells in (8, 64, 513):
        tau = float(rng.uniform(0.01, 1.0))
        cfg = linear_config(n_cells, tau)
        ops = assemble(cfg.grid)
        u = rng.standard_normal((3, n_cells - 1))
        z, blown = step_rows(cfg, u, np.zeros_like(u))
        M, K = mass_and_stiffness(ops)
        reference = np.linalg.solve(M + tau * K, M @ u.T).T
        assert np.max(np.abs(z - reference)) <= 1e-12
        assert not blown.any()


def test_failed_banded_solve_raises(monkeypatch):
    def failing_dpbtrs(fac, load, **kwargs):
        return np.zeros_like(load), -1

    monkeypatch.setattr(engine, "_dpbtrs", failing_dpbtrs)
    cfg = linear_config(16, 0.1)
    with pytest.raises(RuntimeError, match="info=-1"):
        step_rows(cfg, np.ones((2, 15)), np.zeros((2, 15)))


def dense_operator(ops, tau):
    """M + tau K as one dense array (M at tau = 0), built without the solve's
    factor; a 4095-node mesh needs one 134 MB array at a time."""
    n = ops.grid.n_interior
    a = np.zeros((n, n))
    i = np.arange(n)
    a[i, i] = ops.mass_diag + tau * ops.stiff_diag
    a[i[:-1], i[1:]] = a[i[1:], i[:-1]] = ops.mass_off + tau * ops.stiff_off
    return a


@pytest.mark.parametrize("n_cells", [2, 3, 32, 256, 4096])
def test_resolvent_rows_matches_a_dense_solve(n_cells):
    ops = assemble(Grid1D(n_cells))
    v = np.random.default_rng(n_cells).standard_normal((3, n_cells - 1))
    load = v @ dense_operator(ops, 0.0)
    for tau in (2.0**-13, 0.25, 1.0):
        # a dense Cholesky solve; the symmetric array's transpose is its
        # F-ordered view, so LAPACK factors it in place without a copy
        reference = scipy.linalg.solve(dense_operator(ops, tau).T, load.T, assume_a="pos",
                                       overwrite_a=True, check_finite=False).T
        z = resolvent_rows(ops, tau, v)
        assert np.max(np.abs(z - reference)) <= 1e-10 * np.max(np.abs(reference))


def test_resolvent_rows_do_not_depend_on_the_row_count():
    rng = np.random.default_rng(5)
    for n_cells in (2, 32, 256, 4096):
        ops = assemble(Grid1D(n_cells))
        v = rng.standard_normal((25, n_cells - 1))
        rows = resolvent_rows(ops, 0.25, v)
        for p in range(25):
            assert resolvent_rows(ops, 0.25, v[p : p + 1])[0].tobytes() == rows[p].tobytes()


def test_failed_factorization_raises_and_is_not_cached(monkeypatch):
    def failing_dpttrf(d, e, **kwargs):
        return d, e, 2

    ops = assemble(Grid1D(16))
    monkeypatch.setattr(fem, "dpttrf", failing_dpttrf)
    with pytest.raises(RuntimeError, match="factorization failed.*info=2"):
        resolvent_rows(ops, 0.1, np.ones((2, 15)))
    assert ops._factors == {}


def resolvent_power(ops, tau, v, k):
    for _ in range(k):
        v = resolvent_rows(ops, tau, v)
    return v


def test_resolvent_power_zero_and_nonexpansive():
    g = Grid1D(64)
    ops = assemble(g)
    assert np.all(resolvent_power(ops, 0.5, np.zeros(63), 10) == 0.0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(63)
    out = resolvent_power(ops, 0.5, u, 100)
    assert l2_norm(GridFunction(g, out)) <= l2_norm(GridFunction(g, u)) + 1e-10


def test_resolvent_power_sine_mode_decay():
    g = Grid1D(64)
    ops = assemble(g)
    u = sine_mode(g, 1).values
    lam = eigen_smallest(ops)
    tau, k = 0.25, 12
    out = resolvent_power(ops, tau, u, k)
    expected = (1.0 + tau * lam) ** (-k) * u
    assert np.max(np.abs(out - expected)) <= 1e-8


def test_projection_load_modes():
    # the step's load is the mass-consistent projection M w of the nodal values
    g = Grid1D(32)
    ops = assemble(g)
    assert np.all(mass_matvec_rows(ops, np.zeros((2, 31))) == 0.0)
    rng = np.random.default_rng(4)
    w = rng.standard_normal((3, 31))
    expected = w @ mass_and_stiffness(ops)[0]
    assert np.allclose(mass_matvec_rows(ops, w.copy()), expected, rtol=1e-14, atol=1e-15)
    for row, exp in zip(w, expected):
        assert np.allclose(mass_matvec_rows(ops, row), exp, rtol=1e-14, atol=1e-15)


def gauss_load(grid, f):
    """integral(f * phi_i) by 2-point Gauss quadrature on each element."""
    h = grid.h
    load = np.zeros(grid.n_interior)
    elem_left = np.arange(grid.n_cells) * h
    for g in (np.array([-1.0, 1.0]) / np.sqrt(3.0) + 1.0) / 2.0:
        fx = f(elem_left + g * h) * (h / 2.0)
        # phi_i is ascending (slope g) on element i-1, descending on element i.
        load += fx[:-1] * g + fx[1:] * (1.0 - g)
    return load


def test_projection_gauss_vs_nodal_second_order():
    # the quadrature load and the nodal load M f(x) differ by O(h^2) on smooth data
    f = lambda x: np.sin(np.pi * x)
    diffs = []
    for n in (16, 32, 64):
        ops = assemble(Grid1D(n))
        nodal = mass_matvec_rows(ops, f(ops.grid.nodes)[None, :])[0]
        d = gauss_load(ops.grid, f) - nodal
        diffs.append(np.max(np.abs(d)) / ops.grid.h)  # per-load-row scale ~ h
    ratios = [diffs[i] / diffs[i + 1] for i in range(len(diffs) - 1)]
    for r in ratios:
        assert 3.3 <= r <= 4.7


def test_eigen_smallest_dispersion():
    g = Grid1D(4)
    lam = eigen_smallest(assemble(g))
    h = 0.25
    closed = 6.0 / h**2 * (1.0 - np.cos(np.pi * h)) / (2.0 + np.cos(np.pi * h))
    assert abs(lam - closed) <= 1e-10
    assert abs(closed - dispersion_eigenvalue(g)) == 0.0


def test_eigen_smallest_converges_to_pi_squared():
    prev_ratio = None
    for n in (8, 16, 32, 64):
        lam = eigen_smallest(assemble(Grid1D(n)))
        assert lam > 0
        ratio = (lam - np.pi**2) / (1.0 / n) ** 2
        assert 0.0 < ratio < 12.0  # (lam_h - pi^2)/h^2 stays bounded
        if prev_ratio is not None:
            assert abs(ratio - prev_ratio) < 2.0
        prev_ratio = ratio
