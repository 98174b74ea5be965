"""Uniform 1D Dirichlet mesh, nodal functions, and the norms used throughout.

The domain is the unit interval (0, 1) with homogeneous Dirichlet boundary
conditions.  A nodal function is the float64 array of the interior values of
a continuous piecewise-linear function; boundary values are identically
zero, so an array of n - 1 values lives on the mesh of n cells.
Norms provided, each defined once over the rows of a (paths, nodes) matrix:

- ``rows_l2_sq``:    squared L2 norm of the interpolant, via the P1 mass matrix.
- ``rows_h1_sq``:    squared L2 norm of the interpolant's gradient (stiffness).
- ``rows_lp``:       L^p norm by composite trapezoid quadrature at the nodes.
- ``rows_lyapunov``: the Lyapunov functional ||Z||^2 + 2 tau ||grad Z||^2.

``l2_norm`` is the scalar L2 norm of one nodal array, a 1-row view.

The spectral decomposition (``sine_transform``) uses the continuum Dirichlet
eigenbasis e_k(x) = sqrt(2) sin(k pi x) sampled at the nodes.  Coefficients
carry the P1 mass weight sqrt((2 + cos(k pi h))/3), which makes Parseval
exact: the sum of squared coefficients equals l2_norm(u)**2 to rounding.
It imports ``scipy.fft`` when first called, not with this module, so that a
run that never transforms does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def sine_mode(grid: Grid1D, k: int) -> np.ndarray:
    """Interpolant of the eigenfunction e_k(x) = sqrt(2) sin(k pi x)."""
    if not 1 <= k <= grid.n_interior:
        raise ValueError(f"mode k must be in [1, {grid.n_interior}], got {k}")
    return np.sqrt(2.0) * np.sin(k * np.pi * grid.nodes)


def mass_weights(grid: Grid1D) -> np.ndarray:
    """Per-mode weights w_k = (2 + cos(k pi h))/3: the P1 mass eigenvalues over h."""
    k = np.arange(1, grid.n_cells)
    return (2.0 + np.cos(k * np.pi * grid.h)) / 3.0


# --- norms over (paths, nodes) matrices; l2_norm is a 1-row view ---


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


def l2_norm(u: np.ndarray) -> float:
    """(u^T M u)^(1/2): the exact L2 norm of the piecewise-linear interpolant
    of the interior values ``u``, on the mesh of len(u) + 1 cells."""
    return float(np.sqrt(max(rows_l2_sq(u, Grid1D(len(u) + 1).h), 0.0)))


def sine_transform(u: np.ndarray) -> np.ndarray:
    """Sine-basis coefficients of u: ``c[k-1]`` multiplies e_k(x) = sqrt(2) sin(k pi x).

    The coefficients carry the mass weights, so sum(c**2) equals the
    squared L2 (mass-matrix) norm of u, k = 1..n_cells-1.
    """
    import scipy.fft  # deferred, as in noise.synthesize

    # DST-I: y[k] = 2 sum_i v_i sin(pi (k+1)(i+1)/n); nodal expansion
    # coefficient of sqrt(2) sin(k pi x) is dst(v)[k] / (n sqrt(2)).
    grid = Grid1D(len(u) + 1)
    c = scipy.fft.dst(u, type=1) / (grid.n_cells * np.sqrt(2.0))
    return c * np.sqrt(mass_weights(grid))
