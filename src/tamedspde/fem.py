"""P1 finite-element operators on the unit interval.

Assembles the tridiagonal mass matrix M (rows h/6 * [1, 4, 1]) and stiffness
matrix K (rows 1/h * [-1, 2, -1]) for the interior nodes of a ``Grid1D``,
with the banded Cholesky factor of (M + tau*K) cached per step size.  The
resolvent S = (M + tau*K)^{-1} M is nonexpansive in the mass norm, which is
what makes the schemes unconditionally stable in the linear part; the
stepping core applies it row-wise in ``tamedspde.engine.resolvent_rows``.
``apply_resolvent_power`` and ``eigen_smallest`` are the reference
operators the operator suite checks against closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrs as _dpbtrs

from .grid import Grid1D, GridFunction


@dataclass(frozen=True, eq=False)
class FemOperators:
    """Tridiagonal P1 mass and stiffness matrices for a grid.

    ``mass_diag``/``mass_off`` and ``stiff_diag``/``stiff_off`` hold the main
    and first off-diagonal entries (both symmetric).  Factorizations of
    (M + tau*K) are cached per step size.
    """

    grid: Grid1D
    mass_diag: np.ndarray = field(repr=False)
    mass_off: np.ndarray = field(repr=False)
    stiff_diag: np.ndarray = field(repr=False)
    stiff_off: np.ndarray = field(repr=False)
    _factors: dict = field(default_factory=dict, repr=False, compare=False)

    def mass_matvec(self, v: np.ndarray) -> np.ndarray:
        return _tri_matvec(self.mass_diag, self.mass_off, v)

    def stiff_matvec(self, v: np.ndarray) -> np.ndarray:
        return _tri_matvec(self.stiff_diag, self.stiff_off, v)

    def mass_dense(self) -> np.ndarray:
        return _tri_dense(self.mass_diag, self.mass_off)

    def stiff_dense(self) -> np.ndarray:
        return _tri_dense(self.stiff_diag, self.stiff_off)

    def _cholesky(self, tau: float):
        """Banded Cholesky factor of (M + tau*K), cached per tau."""
        fac = self._factors.get(tau)
        if fac is None:
            n = self.grid.n_interior
            ab = np.zeros((2, n))
            ab[1] = self.mass_diag + tau * self.stiff_diag
            ab[0, 1:] = self.mass_off + tau * self.stiff_off
            fac = scipy.linalg.cholesky_banded(ab, check_finite=False)
            self._factors[tau] = fac
        return fac


def _tri_matvec(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    y = diag * v
    y[:-1] += off * v[1:]
    y[1:] += off * v[:-1]
    return y


def _tri_dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def assemble(grid: Grid1D) -> FemOperators:
    """Assemble the exact P1 mass and stiffness matrices on a uniform grid."""
    n = grid.n_interior
    h = grid.h
    return FemOperators(
        grid=grid,
        mass_diag=np.full(n, 4.0 * h / 6.0),
        mass_off=np.full(n - 1, h / 6.0),
        stiff_diag=np.full(n, 2.0 / h),
        stiff_off=np.full(n - 1, -1.0 / h),
    )


def apply_resolvent_power(
    ops: FemOperators, tau: float, u: GridFunction, k: int
) -> GridFunction:
    """k repeated resolvent steps; nonexpansive in the mass norm."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    z = u.values.copy()
    fac = ops._cholesky(tau)
    for _ in range(k):
        z, info = _dpbtrs(fac, ops.mass_matvec(z))
        if info != 0:
            raise RuntimeError(f"banded triangular solve failed (info={info})")
    return GridFunction(ops.grid, z)


def eigen_smallest(ops: FemOperators, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Smallest generalized eigenvalue of K v = lambda M v, by inverse iteration.

    On the uniform grid this equals (6/h^2)(1 - cos(pi h))/(2 + cos(pi h)),
    the P1 dispersion approximation of pi^2.
    """
    n = ops.grid.n_interior
    # Start from the slowest sine mode to avoid an unlucky orthogonal start.
    v = np.sin(np.pi * ops.grid.nodes)
    v /= np.sqrt(v @ ops.mass_matvec(v.copy()))
    ab = np.zeros((2, n))
    ab[1] = ops.stiff_diag
    ab[0, 1:] = ops.stiff_off
    fac = scipy.linalg.cholesky_banded(ab, check_finite=False)
    lam_prev = np.inf
    for _ in range(max_iter):
        v = scipy.linalg.cho_solve_banded(
            (fac, False), ops.mass_matvec(v.copy()), check_finite=False
        )
        v /= np.sqrt(v @ ops.mass_matvec(v.copy()))
        lam = float(v @ ops.stiff_matvec(v.copy()))
        if abs(lam - lam_prev) <= tol * abs(lam):
            return lam
        lam_prev = lam
    return lam_prev


def dispersion_eigenvalue(grid: Grid1D, k: int | np.ndarray = 1):
    """Closed-form generalized eigenvalue of mode k on the uniform grid; k may be an array."""
    h = grid.h
    c = np.cos(k * np.pi * h)
    return 6.0 / h**2 * (1.0 - c) / (2.0 + c)
