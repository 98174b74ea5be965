"""P1 finite-element operators on the unit interval.

Assembles the tridiagonal mass matrix M (rows h/6 * [1, 4, 1]) and stiffness
matrix K (rows 1/h * [-1, 2, -1]) for the interior nodes of a ``Grid1D``, or
block-diagonally for a stack of grids whose nodes lie back to back.
``ldlt`` factors (M + tau*K) as tridiagonal LDL^T (LAPACK ``dpttrf``), and
its caller keeps the factor for as long as it steps with that tau.  The
off-diagonal is 0.0 at each joint of a stack, so ``dpttrf`` and ``dpttrs``
compute d - 0*0 and b - b'*0 there, and every block factors and solves with
the bits of its own grid's operators; only a grid with one interior node
differs, which LAPACK solves alone with a reciprocal product, in a stack
with a division.  The resolvent S = (M + tau*K)^{-1} M is nonexpansive in
the mass norm, which is what makes the schemes unconditionally stable in
the linear part.
``mass_matvec_rows`` is the one P1 mass product.  The one tridiagonal solve
is in ``tamedspde.engine``: every driver steps with it, and the semigroup
ladder iterates it as ``resolvent_rows``.
``eigen_smallest`` (inverse iteration, with its own banded Cholesky factor
of K, so it shares no code with the solve it checks) and
``dispersion_eigenvalue`` (closed form) are the reference eigenvalues that
the operator suite compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpttrf

from .grid import Grid1D


@dataclass(frozen=True, eq=False)
class FemOperators:
    """Tridiagonal P1 mass and stiffness matrices for a grid or a stack of grids.

    ``mass_diag``/``mass_off`` and ``stiff_diag``/``stiff_off`` hold the main
    and first off-diagonal entries (both symmetric).  ``grids`` holds one
    grid, or the grids of a stack in the order of their nodes.
    ``mass_scalars``: on one grid, its constant mass diagonals as 0-d float64
    arrays (diag, off), off None for one interior node; None on a stack.
    """

    grids: tuple
    mass_diag: np.ndarray = field(repr=False)
    mass_off: np.ndarray = field(repr=False)
    stiff_diag: np.ndarray = field(repr=False)
    stiff_off: np.ndarray = field(repr=False)
    mass_scalars: Optional[tuple] = field(repr=False)

    @property
    def grid(self) -> Grid1D:
        """The one grid of unstacked operators."""
        (grid,) = self.grids
        return grid


def ldlt(ops: FemOperators, tau: float) -> tuple:
    """(d, e) of the LDL^T factor of (M + tau*K).  scipy's ``dpttrf``/``dpttrs``
    reject an empty e, so one interior node gets [0.0]."""
    off = ops.mass_off + tau * ops.stiff_off
    d, e, info = dpttrf(ops.mass_diag + tau * ops.stiff_diag, off if len(off) else np.zeros(1))
    if info != 0:
        raise RuntimeError(f"tridiagonal LDL^T factorization failed (info={info})")
    return d, e


def _tri_matvec(diag: np.ndarray, off: Optional[np.ndarray], v: np.ndarray) -> np.ndarray:
    """diag v + off v[i+1] + off v[i-1] per row, in that order, with the
    constant diagonals of one grid (``FemOperators.mass_scalars``): one
    product off * v serves both neighbours."""
    y = diag * v
    if off is not None:
        w = off * v
        y[..., :-1] += w[..., 1:]
        y[..., 1:] += w[..., :-1]
    return y


def _constant_diagonals(diag: np.ndarray, off: np.ndarray) -> tuple:
    """The constant diagonals of one grid's operator as ``_tri_matvec`` takes them."""
    return np.asarray(diag[0]), np.asarray(off[0]) if len(off) else None


def _edge_matvec(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``_tri_matvec`` with the diagonals as arrays, for a stack or the
    stiffness: a product with each neighbour, so the 0.0 at a joint keeps the
    blocks apart; on one grid, the bits of ``_tri_matvec``."""
    y = diag * v
    y[..., :-1] += off * v[..., 1:]
    y[..., 1:] += off * v[..., :-1]
    return y


def mass_matvec_rows(ops: FemOperators, v: np.ndarray) -> np.ndarray:
    """M v for each row of v, or for the vector v."""
    if ops.mass_scalars is not None:
        return _tri_matvec(*ops.mass_scalars, v)
    return _edge_matvec(ops.mass_diag, ops.mass_off, v)


def assemble(*grids: Grid1D) -> FemOperators:
    """Assemble the exact P1 mass and stiffness matrices on a uniform grid, or
    block-diagonally on a stack of grids, one block per grid in the given order."""

    def diagonal(entry):
        return np.concatenate([np.full(g.n_interior, entry(g.h)) for g in grids])

    def off_diagonal(entry):  # 0.0 at each joint between two grids
        parts = [np.full(g.n_interior - 1, entry(g.h)) for g in grids]
        return np.concatenate([x for part in parts for x in (np.zeros(1), part)][1:])

    mass_diag, mass_off = diagonal(lambda h: 4.0 * h / 6.0), off_diagonal(lambda h: h / 6.0)
    return FemOperators(
        grids=tuple(grids),
        mass_diag=mass_diag,
        mass_off=mass_off,
        stiff_diag=diagonal(lambda h: 2.0 / h),
        stiff_off=off_diagonal(lambda h: -1.0 / h),
        mass_scalars=_constant_diagonals(mass_diag, mass_off) if len(grids) == 1 else None,
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
        lam = float(v @ _edge_matvec(ops.stiff_diag, ops.stiff_off, v))
        if abs(lam - lam_prev) <= tol * abs(lam):
            return lam
        lam_prev = lam
    return lam_prev


def dispersion_eigenvalue(grid: Grid1D, k: int | np.ndarray = 1):
    """Closed-form generalized eigenvalue of mode k on the uniform grid; k may be an array."""
    h = grid.h
    c = np.cos(k * np.pi * h)
    return 6.0 / h**2 * (1.0 - c) / (2.0 + c)
