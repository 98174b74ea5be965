"""Uniform 1D Dirichlet mesh, nodal functions, and the norms used throughout.

The domain is the unit interval (0, 1) with homogeneous Dirichlet boundary
conditions.  A ``GridFunction`` stores the interior nodal values of a
continuous piecewise-linear function; boundary values are identically zero.
Norms provided (the L2, H1 and L^p norms and the Lyapunov functional are
defined once, as ``rows_*`` over (paths, nodes) matrices; the scalar forms
are 1-row views on a ``GridFunction``):

- ``l2_norm``:       L2 norm of the interpolant, via the P1 mass matrix.
- ``h1_seminorm``:   exact L2 norm of the interpolant's gradient (stiffness).
- ``lp_norm``:       L^p norm by composite trapezoid quadrature at the nodes.
- ``rows_lyapunov``: the Lyapunov functional ||Z||^2 + 2 tau ||grad Z||^2.
- ``fractional_norm``: Sobolev-scale norm with mode weights (k*pi)^(2*theta)
  on the sine expansion.

The spectral decomposition uses the continuum Dirichlet eigenbasis
e_k(x) = sqrt(2) sin(k pi x) sampled at the nodes.  Coefficients carry the
P1 mass weight sqrt((2 + cos(k pi h))/3), which makes Parseval exact:
the sum of squared coefficients equals l2_norm(u)**2 to rounding, so
fractional_norm(u, 0) coincides with l2_norm(u).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh of the unit interval with n_cells elements.

    Interior nodes are xi_i = i*h for i = 1..n_cells-1 with h = 1/n_cells.
    """

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_interior(self) -> int:
        return self.n_cells - 1

    @property
    def nodes(self) -> np.ndarray:
        """Interior nodes xi_i = i*h, i = 1..n_cells-1."""
        return np.arange(1, self.n_cells) * self.h

    def refines(self, coarse: "Grid1D") -> bool:
        """True if this grid contains every node of ``coarse`` (node injection)."""
        return self.n_cells % coarse.n_cells == 0


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Interior nodal values of a piecewise-linear function vanishing at 0 and 1."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_interior,):
            raise ValueError(
                f"expected {self.grid.n_interior} interior values, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __rmul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, float(c) * self.values)


@dataclass(frozen=True, eq=False)
class SpectralCoeffs:
    """Sine-basis coefficients of a grid function.

    ``coeffs[k-1]`` multiplies e_k(x) = sqrt(2) sin(k pi x), k = 1..n_cells-1,
    scaled so that sum(coeffs**2) equals the squared L2 (mass-matrix) norm of
    the represented function.
    """

    grid: Grid1D
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _readonly(np.asarray(self.coeffs)))


def _check_same_grid(u: GridFunction, v: GridFunction) -> None:
    if u.grid != v.grid:
        raise ValueError(f"grid mismatch: {u.grid} vs {v.grid}")


def zeros(grid: Grid1D) -> GridFunction:
    return GridFunction(grid, np.zeros(grid.n_interior))


def interpolate(grid: Grid1D, f) -> GridFunction:
    """Nodal interpolant of a callable f(x) (vectorized over x)."""
    return GridFunction(grid, np.asarray(f(grid.nodes), dtype=np.float64))


def sine_mode(grid: Grid1D, k: int, amplitude: float = 1.0) -> GridFunction:
    """Interpolant of amplitude * sqrt(2) sin(k pi x)."""
    if not 1 <= k <= grid.n_interior:
        raise ValueError(f"mode k must be in [1, {grid.n_interior}], got {k}")
    return GridFunction(grid, amplitude * np.sqrt(2.0) * np.sin(k * np.pi * grid.nodes))


def mass_weights(grid: Grid1D) -> np.ndarray:
    """Per-mode weights w_k = (2 + cos(k pi h))/3: the P1 mass eigenvalues over h."""
    k = np.arange(1, grid.n_cells)
    return (2.0 + np.cos(k * np.pi * grid.h)) / 3.0


# --- norms over (paths, nodes) matrices; the scalar norms are 1-row views ---


def rows_l2_sq(v: np.ndarray, h: float) -> np.ndarray:
    """v^T M v per row, with the P1 mass matrix: the squared L2 norm of each interpolant."""
    cross = np.sum(v[..., :-1] * v[..., 1:], axis=-1)
    return h / 6.0 * (4.0 * np.sum(v * v, axis=-1) + 2.0 * cross)


def rows_h1_sq(v: np.ndarray, h: float) -> np.ndarray:
    """v^T K v per row, with the P1 stiffness matrix: the squared gradient norm."""
    cross = np.sum(v[..., :-1] * v[..., 1:], axis=-1)
    return (2.0 * np.sum(v * v, axis=-1) - 2.0 * cross) / h


def rows_lp(v: np.ndarray, h: float, p: float) -> np.ndarray:
    """L^p norm per row by composite trapezoid quadrature; p = inf gives max|.|."""
    if np.isinf(p):
        return np.abs(v).max(axis=-1)
    # Boundary values vanish, so trapezoid weights reduce to h at the interior.
    return (h * np.sum(np.abs(v) ** p, axis=-1)) ** (1.0 / p)


def rows_lyapunov(v: np.ndarray, h: float, tau: float) -> np.ndarray:
    """V(Z) = ||Z||^2 + 2 tau ||grad Z||^2 per row, the functional the tamed schemes contract."""
    return rows_l2_sq(v, h) + 2.0 * tau * rows_h1_sq(v, h)


def l2_norm(u: GridFunction) -> float:
    """(u^T M u)^(1/2): the exact L2 norm of the piecewise-linear interpolant."""
    return float(np.sqrt(max(rows_l2_sq(u.values, u.grid.h), 0.0)))


def h1_seminorm(u: GridFunction) -> float:
    """(u^T K u)^(1/2): the exact L2 norm of the interpolant's gradient."""
    return float(np.sqrt(max(rows_h1_sq(u.values, u.grid.h), 0.0)))


def lp_norm(u: GridFunction, p: float) -> float:
    """L^p norm by composite trapezoid quadrature at the nodes; p = inf gives max|.|.

    Exact for p = 1 on piecewise-linear |u| away from sign changes; O(h^2)
    quadrature error otherwise.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float(rows_lp(u.values, u.grid.h, p))


def sine_transform(u: GridFunction) -> SpectralCoeffs:
    """Expand u in the nodal sine basis; see SpectralCoeffs for the scaling."""
    # DST-I: y[k] = 2 sum_i v_i sin(pi (k+1)(i+1)/n); nodal expansion
    # coefficient of sqrt(2) sin(k pi x) is dst(v)[k] / (n sqrt(2)).
    n = u.grid.n_cells
    c = scipy.fft.dst(u.values, type=1) / (n * np.sqrt(2.0))
    return SpectralCoeffs(u.grid, c * np.sqrt(mass_weights(u.grid)))


def inverse_sine_transform(coeffs: SpectralCoeffs) -> GridFunction:
    """Synthesize the grid function represented by the coefficients."""
    c = coeffs.coeffs / np.sqrt(mass_weights(coeffs.grid))
    v = scipy.fft.dst(c, type=1) * (np.sqrt(2.0) / 2.0)
    return GridFunction(coeffs.grid, v)


def fractional_norm(u: GridFunction, theta: float) -> float:
    """Sobolev-scale norm (sum_k (k pi)^(2 theta) u_hat_k^2)^(1/2).

    Defined through the continuum sine eigenbasis sampled at the nodes,
    truncated at K = n_cells - 1 modes; theta = 0 reproduces l2_norm.
    """
    if not -1.0 <= theta <= 2.0:
        raise ValueError(f"theta must be in [-1, 2], got {theta}")
    c = sine_transform(u).coeffs
    k = np.arange(1, u.grid.n_cells)
    return float(np.sqrt(np.sum((k * np.pi) ** (2.0 * theta) * c**2)))
