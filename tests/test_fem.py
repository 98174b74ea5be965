import numpy as np
import pytest
import scipy.linalg

from tamedspde import engine, fem
from tamedspde.coefficients import CoefficientSpec
from tamedspde.engine import resolvent_rows, step_plan, step_rows
from tamedspde.fem import (
    assemble,
    dispersion_eigenvalue,
    eigen_smallest,
    mass_matvec_rows,
)
from tamedspde.grid import Grid1D, l2_norm, rows_l2_sq, sine_mode
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


@pytest.mark.parametrize("n_cells", [2, 3, 32, 4096])
def test_tri_matvec_matches_the_five_call_form_bit_for_bit(n_cells):
    # the five-call form is the stacks' edge-array product, off * v[1:] and
    # off * v[:-1]; on one grid it must give the one-product form's bits
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
                want = fem._edge_matvec(diag, off, v.copy())
                got = fem._tri_matvec(*fem._constant_diagonals(diag, off), v)
                assert got.tobytes() == want.tobytes()
            want = fem._edge_matvec(ops.mass_diag, ops.mass_off, v)
            assert mass_matvec_rows(ops, v).tobytes() == want.tobytes()


STACKS = [(8, 2, 128), (2, 4096), (3, 2), (64, 16, 2, 4096, 8), (4, 8, 16, 32, 64, 256)]


@pytest.mark.parametrize("cells", STACKS)
def test_a_stack_factors_as_its_grids_do(cells):
    grids = [Grid1D(c) for c in cells]
    stack = assemble(*grids)
    assert stack.grids == tuple(grids)
    for tau in (2.0**-10, 0.3):
        d, e = fem.ldlt(stack, tau)
        parts = [fem.ldlt(assemble(g), tau) for g in grids]
        want_e = np.concatenate([x for _, off in parts for x in (np.zeros(1), off)][1:])
        assert d.tobytes() == np.concatenate([d_g for d_g, _ in parts]).tobytes()
        assert e.tobytes() == want_e.tobytes()


@pytest.mark.parametrize("cells", STACKS)
def test_a_stack_steps_each_grid_with_its_own_bits(cells):
    grids = [Grid1D(c) for c in cells]
    stack = assemble(*grids)
    v = np.random.default_rng(len(cells)).standard_normal((3, stack.mass_diag.size))
    cuts = np.cumsum([g.n_interior for g in grids])[:-1]
    for tau in (2.0**-10, 0.3):
        products = (mass_matvec_rows(stack, v), resolvent_rows(stack, tau, v))
        for g, part, got_mass, got_solve in zip(grids, np.split(v, cuts, axis=1),
                                                *(np.split(p, cuts, axis=1) for p in products)):
            ops = assemble(g)
            assert got_mass.tobytes() == mass_matvec_rows(ops, part).tobytes()
            # LAPACK solves a 1-node system alone with a reciprocal product,
            # but that node with a division inside a stack
            same = got_solve.tobytes() == resolvent_rows(ops, tau, part).tobytes()
            assert same or g.n_interior == 1, g


def assert_lapack_bits(d, e, load):
    """Factor (d, e) and solve for the F-ordered load, on copies, with the
    package's ``fem.dpttrf`` and ``engine._dpbtrs`` and with scipy's
    ``dpttrf`` and ``dpttrs``: the same factor, info and solution, byte for
    byte, also after a failed factor.  Returns info."""
    d_k, e_k, info = fem.dpttrf(d.copy(), e.copy())
    got = (d_k, e_k, info, engine._dpbtrs((d_k, e_k), load)[0])
    d_l, e_l, info_l = scipy.linalg.lapack.dpttrf(d, e if len(e) else np.zeros(1))  # n = 1: [0.0]
    z, solve_info = scipy.linalg.lapack.dpttrs(d_l, e_l, np.array(load, order="F"))
    want = (d_l, e_l[: len(d) - 1], info_l, z)
    assert solve_info == 0
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return info


SPECIAL_ROWS = {"+0": 0.0, "-0": -0.0, "+inf": np.inf, "-inf": -np.inf, "nan": np.nan}


def loads(n, rng):
    """(nodes, rows) loads of 0, 1, 2, 25 and 100 rows, their scales spread
    over 10^-200 to 10^200, and one with a row for each special value, a
    +-0 row whole and the others in one entry."""
    for rows in (0, 1, 2, 25, 100):
        yield rng.standard_normal((n, rows)) * 10.0 ** rng.uniform(-200, 200, rows)
    special = rng.standard_normal((n, 2 * len(SPECIAL_ROWS) + 1))
    for j, value in enumerate(SPECIAL_ROWS.values()):
        if value == 0:
            special[:, 2 * j + 1] = value
        else:
            special[rng.integers(n), 2 * j + 1] = value
    yield special


@pytest.mark.parametrize("n_cells", [*range(2, 11), 256, 4096])
def test_the_factor_and_solve_have_the_bits_of_lapack(n_cells):
    """n = 1 to 9 interior nodes cover dpttrf's unrolled loop and its remainder."""
    rng = np.random.default_rng(n_cells)
    ops = assemble(Grid1D(n_cells))
    for tau in (0.0, 2.0**-13, 0.25, 1.0):
        d = ops.mass_diag + tau * ops.stiff_diag
        e = ops.mass_off + tau * ops.stiff_off
        # S A S with S = diag(sqrt(spread)): positive definite, entries over 400 decades
        spread = np.sqrt(10.0 ** rng.uniform(-200, 200, len(d)))
        for d_in, e_in in ((d, e), (d * spread**2, e * spread[:-1] * spread[1:])):
            for load in loads(len(d), rng):
                assert assert_lapack_bits(d_in, e_in, load) == 0
    # each special value stays in its own row: the others solve as they do alone
    factor, load = fem.ldlt(ops, 0.25), list(loads(len(d), rng))[-1]
    rows = engine._dpbtrs(factor, load)[0]
    alone = engine._dpbtrs(factor, load[:, ::2])[0]
    assert np.isfinite(alone).all() and rows[:, ::2].tobytes() == alone.tobytes()
    for j, value in enumerate(SPECIAL_ROWS.values()):
        row = rows[:, 2 * j + 1]
        assert not row.any() if value == 0 else not np.isfinite(row).all()


@pytest.mark.parametrize("cells", STACKS)
def test_a_stack_factors_and_solves_with_the_bits_of_lapack(cells):
    stack = assemble(*(Grid1D(c) for c in cells))
    rng = np.random.default_rng(len(cells))
    for tau in (2.0**-10, 0.3):
        d, e = stack.mass_diag + tau * stack.stiff_diag, stack.mass_off + tau * stack.stiff_off
        for load in loads(len(d), rng):
            assert assert_lapack_bits(d, e, load) == 0


@pytest.mark.parametrize("n", [1, 2, 5, 9, 255])
def test_a_failed_or_nan_pivot_gives_the_info_and_bits_of_lapack(n):
    rng = np.random.default_rng(n)
    d0, e0 = 2.0 + rng.random(n), rng.random(n - 1)
    load = rng.standard_normal((n, 3))
    for pivot in sorted({0, n // 2, n - 1}):
        for bad in (0.0, -0.0, -1.0, -np.inf, np.nan):
            d = d0.copy()
            d[pivot] = bad
            assert assert_lapack_bits(d, e0, load) == (0 if np.isnan(bad) else pivot + 1)


def test_solve_semi_implicit_scalar_case():
    # one interior node: (1/3 + 0.1 * 4) z = 1/3
    z, blown = step_rows(step_plan(linear_config(2, 0.1)), np.array([[1.0]]), np.zeros((1, 1)))
    assert np.isclose(z[0, 0], 5.0 / 11.0, rtol=1e-14)
    assert blown is None  # the block passed the guard


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
        z, blown = step_rows(step_plan(cfg), u, np.zeros_like(u))
        M, K = mass_and_stiffness(ops)
        reference = np.linalg.solve(M + tau * K, M @ u.T).T
        assert np.max(np.abs(z - reference)) <= 1e-12
        assert blown is None


def test_failed_banded_solve_raises(monkeypatch):
    def failing_dpbtrs(fac, load, **kwargs):
        return np.zeros_like(load), -1

    monkeypatch.setattr(engine, "_dpbtrs", failing_dpbtrs)
    plan = step_plan(linear_config(16, 0.1))
    with pytest.raises(RuntimeError, match="info=-1"):
        step_rows(plan, np.ones((2, 15)), np.zeros((2, 15)))


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
    monkeypatch.undo()  # the same operators factor with the real dpttrf
    assert np.isfinite(resolvent_rows(ops, 0.1, np.ones((2, 15)))).all()


@pytest.mark.parametrize("n_cells", [16, 256])
@pytest.mark.parametrize("n_rows", [1, 3])
@pytest.mark.parametrize("steps", [1, 7])
def test_resolvent_steps_equal_as_many_one_step_calls(n_cells, n_rows, steps):
    ops = assemble(Grid1D(n_cells))
    v = np.random.default_rng(n_cells + n_rows).standard_normal((n_rows, n_cells - 1))
    one_by_one = v
    for _ in range(steps):
        one_by_one = resolvent_rows(ops, 2.0**-6, one_by_one)
    assert resolvent_rows(ops, 2.0**-6, v, steps=steps).tobytes() == one_by_one.tobytes()


def resolvent_power(ops, tau, v, k):
    return resolvent_rows(ops, tau, v, steps=k)


def test_resolvent_power_zero_and_nonexpansive():
    g = Grid1D(64)
    ops = assemble(g)
    assert np.all(resolvent_power(ops, 0.5, np.zeros(63), 10) == 0.0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(63)
    out = resolvent_power(ops, 0.5, u, 100)
    assert l2_norm(out) <= l2_norm(u) + 1e-10


def test_resolvent_power_sine_mode_decay():
    g = Grid1D(64)
    ops = assemble(g)
    u = sine_mode(g, 1)
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
