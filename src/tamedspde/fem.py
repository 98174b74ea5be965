"""P1 finite-element operators on the unit interval.

Assembles the tridiagonal mass matrix M (rows h/6 * [1, 4, 1]) and stiffness
matrix K (rows 1/h * [-1, 2, -1]) for the interior nodes of a ``Grid1D``,
with the tridiagonal LDL^T factor of (M + tau*K) (LAPACK ``dpttrf``) cached
per step size.  The resolvent S = (M + tau*K)^{-1} M is nonexpansive in the
mass norm, which is what makes the schemes unconditionally stable in the
linear part.  ``mass_matvec_rows`` is the one P1 mass product.  The one
tridiagonal solve is ``tamedspde.engine.resolvent_rows``, which every driver
steps with and the semigroup ladder iterates.  ``eigen_smallest`` (inverse
iteration, with its own banded Cholesky factor of K, so it shares no code
with the solve it checks) and ``dispersion_eigenvalue`` (closed form) are
the reference eigenvalues that the operator suite compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpttrf

from .grid import Grid1D


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

    def _ldlt(self, tau: float):
        """(d, e) of the LDL^T factor of (M + tau*K), cached per tau.  scipy's
        ``dpttrf``/``dpttrs`` reject an empty e, so one interior node gets [0.0]."""
        fac = self._factors.get(tau)
        if fac is None:
            off = self.mass_off + tau * self.stiff_off
            d, e, info = dpttrf(self.mass_diag + tau * self.stiff_diag,
                                off if len(off) else np.zeros(1))
            if info != 0:
                raise RuntimeError(f"tridiagonal LDL^T factorization failed (info={info})")
            fac = self._factors[tau] = (d, e)
        return fac


def _tri_matvec(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """diag v + off v[i+1] + off v[i-1] per row, in that order; the P1 diagonals
    are constant (``assemble``), so one product off * v serves both neighbours."""
    y = diag[0] * v
    if len(off):
        w = off[0] * v
        y[..., :-1] += w[..., 1:]
        y[..., 1:] += w[..., :-1]
    return y


def mass_matvec_rows(ops: FemOperators, v: np.ndarray) -> np.ndarray:
    """M v for each row of v, or for the vector v."""
    return _tri_matvec(ops.mass_diag, ops.mass_off, v)


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


def eigen_smallest(ops: FemOperators, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Smallest generalized eigenvalue of K v = lambda M v, by inverse iteration.

    On the uniform grid this equals (6/h^2)(1 - cos(pi h))/(2 + cos(pi h)),
    the P1 dispersion approximation of pi^2.
    """
    n = ops.grid.n_interior
    # Start from the slowest sine mode to avoid an unlucky orthogonal start.
    v = np.sin(np.pi * ops.grid.nodes)
    v /= np.sqrt(v @ mass_matvec_rows(ops, v))
    ab = np.zeros((2, n))
    ab[1] = ops.stiff_diag
    ab[0, 1:] = ops.stiff_off
    fac = scipy.linalg.cholesky_banded(ab, check_finite=False)
    lam_prev = np.inf
    for _ in range(max_iter):
        v = scipy.linalg.cho_solve_banded(
            (fac, False), mass_matvec_rows(ops, v), check_finite=False
        )
        v /= np.sqrt(v @ mass_matvec_rows(ops, v))
        lam = float(v @ _tri_matvec(ops.stiff_diag, ops.stiff_off, v))
        if abs(lam - lam_prev) <= tol * abs(lam):
            return lam
        lam_prev = lam
    return lam_prev


def dispersion_eigenvalue(grid: Grid1D, k: int | np.ndarray = 1):
    """Closed-form generalized eigenvalue of mode k on the uniform grid; k may be an array."""
    h = grid.h
    c = np.cos(k * np.pi * h)
    return 6.0 / h**2 * (1.0 - c) / (2.0 + c)
