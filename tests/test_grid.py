import numpy as np
import pytest

from tamedspde.grid import (
    Grid1D,
    l2_norm,
    mass_weights,
    rows_h1_sq,
    rows_lp,
    sine_mode,
    sine_transform,
)
from tamedspde.noise import synthesize
from tamedspde.schemes import InitialCondition


def h1_seminorm(u):
    """The exact L2 norm of the interpolant's gradient, from ``rows_h1_sq``."""
    return float(np.sqrt(rows_h1_sq(u, 1.0 / (len(u) + 1))))


def random_function(grid, rng, scale=1.0):
    return scale * rng.standard_normal(grid.n_interior)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1)
    g = Grid1D(8)
    assert g.h * g.n_cells == 1.0
    assert len(g.nodes) == 7


def test_l2_norm_zero_and_homogeneity():
    g = Grid1D(32)
    assert l2_norm(InitialCondition("zero").build(g)) == 0.0
    rng = np.random.default_rng(1)
    u = random_function(g, rng)
    assert np.isclose(l2_norm(-3.0 * u), 3.0 * l2_norm(u), rtol=1e-13)


def test_l2_norm_sine_mode_quadrature_oracle():
    # composite-trapezoid oracle of integral(2 sin^2(pi x)) = 1 on a fine grid
    xs = np.linspace(0.0, 1.0, 100001)
    oracle = np.sqrt(np.trapezoid(2.0 * np.sin(np.pi * xs) ** 2, xs))
    u = sine_mode(Grid1D(256), 1)
    assert abs(l2_norm(u) - oracle) <= 1e-3
    assert abs(oracle - 1.0) <= 1e-9


def test_h1_seminorm_sine_and_hat():
    u = sine_mode(Grid1D(256), 1)
    assert abs(h1_seminorm(u) - np.pi) <= 0.01  # integral(2 pi^2 cos^2) = pi^2
    g = Grid1D(4)
    hat = np.array([0.0, 1.0, 0.0])
    # piecewise-linear gradient integral: two elements of slope +-1/h
    assert np.isclose(h1_seminorm(hat), np.sqrt(2.0 / g.h), rtol=1e-14)
    assert h1_seminorm(InitialCondition("zero").build(g)) == 0.0


def test_lp_norms():
    g = Grid1D(256)
    assert rows_lp(InitialCondition("zero").build(g), g.h, 3.0) == 0.0
    assert rows_lp(np.ones(g.n_interior), g.h, np.inf) == 1.0
    u = np.sin(np.pi * g.nodes)
    assert abs(rows_lp(u, g.h, 4.0) - (3.0 / 8.0) ** 0.25) <= 1e-3  # integral(sin^4) = 3/8


def test_sine_transform_orthogonality_and_roundtrip():
    g = Grid1D(128)
    assert np.all(sine_transform(InitialCondition("zero").build(g)) == 0.0)
    c = sine_transform(sine_mode(g, 3))
    others = np.delete(np.abs(c), 2)
    assert np.all(others <= 1e-8 * abs(c[2]))
    rng = np.random.default_rng(3)
    # Production synthesis inverts the transform: the dense branch at 128
    # cells, DST-I at 512.
    for n in (128, 512):
        g = Grid1D(n)
        u = random_function(g, rng)
        back = synthesize(sine_transform(u) / np.sqrt(mass_weights(g)), n)
        assert np.max(np.abs(back - u)) <= 1e-10


def test_parseval():
    rng = np.random.default_rng(4)
    for n in (16, 100, 256):
        u = random_function(Grid1D(n), rng)
        total = float(np.sum(sine_transform(u) ** 2))
        assert np.isclose(total, l2_norm(u) ** 2, rtol=1e-8)


@pytest.mark.parametrize(
    "norm",
    [
        l2_norm,
        h1_seminorm,
        lambda u: rows_lp(u, 1.0 / (len(u) + 1), 3.0),
        lambda u: rows_lp(u, 1.0 / (len(u) + 1), np.inf),
    ],
)
def test_norm_homogeneity_and_triangle(norm):
    rng = np.random.default_rng(5)
    g = Grid1D(64)
    for _ in range(25):
        u, v = random_function(g, rng), random_function(g, rng)
        c = float(rng.standard_normal())
        assert np.isclose(norm(c * u), abs(c) * norm(u), rtol=1e-10, atol=1e-14)
        assert norm(u + v) <= norm(u) + norm(v) + 1e-12

