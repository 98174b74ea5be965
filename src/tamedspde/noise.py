"""Trace-class Q-Wiener increments in the sine eigenbasis.

The driving noise is W(t) = sum_k sqrt(lambda_k) q_k beta_k(t) with
q_k(x) = sqrt(2) sin(k pi x) and eigenvalues lambda_k = scale * k^(-s),
s > 1 (trace class), truncated at K modes.  The noise space is fixed to the
solution space with its Dirichlet sine basis (a diagonal covariance); more
general separable spaces are out of scope.  An increment over one step is

    dW(x_i) = sum_{k<=K} sqrt(lambda_k tau) zeta_k q_k(x_i),

with zeta_k independent standard normals drawn from a counter-based Philox
stream: the 128-bit key has the words (master seed, path id), each taken
mod 2^64, the 256-bit counter starts at step_index * 2^128, and zeta_k is
the k-th normal drawn.  Every zeta is therefore a pure function of (seed,
path, step, mode): resampling is bit-identical, paths can be generated
concurrently, truncating to fewer modes gives a prefix of the same draws,
and summing increments over coarser steps reproduces exactly the same
Brownian path — the properties the coupled convergence ladders rely on.
One call of the package's C kernel (``_kernel.c``, ``tamedspde.kernel``)
fills one step's rows or a whole block of steps, such as a ladder's
(steps, paths, K) buffer: it keys each row's Philox state on its own and
fills the row with numpy's own ziggurat, so every row holds the bits of
numpy's ``Generator(Philox(key, counter))`` (see ``PathSampler``).  The
first draw or factor of a process builds and loads the kernel (see
``tamedspde.kernel``); importing this module builds and loads nothing.
Per row, in a block of 8 steps (numpy 2.4.6, 1 BLAS thread, 2-vCPU x86
host): 0.56-0.59 us at 100 rows of K = 31, 1.0-1.1 us at 2 rows of K = 63,
4.3-4.8 us at 25 rows of K = 255 and 70-73 us at 2 rows of K = 4095, where
the normals themselves, about 17 ns each, set the time.

``synthesize`` turns rows of coefficients into nodal values: on meshes of up
to 64 cells by one 1-row product per row with the cached dense sine matrix,
on wider ones by a DST-I, which needs no O(n^2) matrix.  At every mesh a
row's values depend on neither how many rows share the call nor the BLAS
thread count, so a path's noise is the same in any ensemble.  ``scipy.fft``
is imported by the first DST, not with this module: a run whose meshes are
all of up to 64 cells never loads it (nor the ``scipy.special`` it pulls in).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel
from .grid import Grid1D

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class QWienerSpec:
    """Eigenvalue decay and truncation of the noise covariance.

    lambda_k = scale * k^(-decay_exponent); decay_exponent > 1 keeps the
    covariance trace class.  ``truncation`` must not exceed the number of
    interior nodes of the grid the increments are sampled on.
    """

    decay_exponent: float
    scale: float = 1.0
    truncation: int = 255

    def __post_init__(self):
        if self.decay_exponent <= 1.0:
            raise ValueError(
                f"decay_exponent must be > 1 (trace class), got {self.decay_exponent}"
            )
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")

    def eigenvalues(self) -> np.ndarray:
        k = np.arange(1, self.truncation + 1, dtype=np.float64)
        return self.scale * k**-self.decay_exponent

    def trace(self) -> float:
        return float(np.sum(self.eigenvalues()))

    def for_grid(self, grid: Grid1D) -> "QWienerSpec":
        """Tie the truncation to the mesh resolution (K = n_cells - 1)."""
        return QWienerSpec(self.decay_exponent, self.scale, grid.n_interior)


def c_q_constant(spec: QWienerSpec) -> float:
    """sum_k lambda_k ||q_k||_inf^2 = 2 sum_k lambda_k (sup_x sqrt(2)|sin| = sqrt(2))."""
    return 2.0 * spec.trace()


# Widest mesh synthesized by the cached dense matrix.  Wider meshes use DST-I,
# which costs O(n log n) per row and caches nothing of size n^2.  The dense
# product's bits were seen to change with the BLAS thread count from 128
# cells up; at 32-64 cells DST-I's fixed cost of about 10 us a call would
# dominate the narrow probes.
_DENSE_MAX_CELLS = 64


@functools.lru_cache(maxsize=32)
def _synth_matrix(n_cells: int) -> np.ndarray:
    i = np.arange(1, n_cells)[:, None]
    k = np.arange(1, n_cells)[None, :]
    return np.sqrt(2.0) * np.sin(i * k * np.pi / n_cells)


def _synth_rows(n_cells: int, n_modes: int) -> np.ndarray:
    """(n_modes, n_cells - 1) synthesis matrix S: (coeffs @ S)[i] = sum_k coeffs[k-1] e_k(x_i).

    ``_synth_matrix`` is symmetric bit for bit (sin(i k pi / n) is computed
    from the integer product i k), so its first rows are its first columns
    transposed: a C-contiguous view of the cached matrix, not a copy.
    """
    return _synth_matrix(n_cells)[:n_modes]


def synthesize(coeffs: np.ndarray, n_cells: int, out: np.ndarray | None = None) -> np.ndarray:
    """Nodal values sum_k coeffs[..., k-1] sqrt(2) sin(k pi x_i) at the interior nodes.

    ``coeffs`` holds K <= n_cells - 1 sine coefficients per row.  Meshes of
    up to ``_DENSE_MAX_CELLS`` cells take one 1-row product per row with the
    cached dense matrix: a product of several rows lets BLAS pick its kernel,
    and so a row's bits, by the row count.  Wider meshes zero-pad the rows to
    n_cells - 1 modes and apply DST-I, which treats every row on its own;
    the first such call imports ``scipy.fft``.  ``out``, if given, receives
    the values (it may be a strided view, such as one grid's slice of a
    stacked block) and is returned.
    """
    n_modes = coeffs.shape[-1]
    if n_modes > n_cells - 1:
        raise ValueError(
            f"{n_modes} modes alias on a grid with {n_cells - 1} interior nodes"
        )
    if n_cells <= _DENSE_MAX_CELLS:
        # a strided ``out`` would take numpy's non-BLAS product: copy instead
        values = np.matmul(coeffs[..., None, :], _synth_rows(n_cells, n_modes))[..., 0, :]
        if out is None:
            return values
        out[...] = values
        return out
    import scipy.fft  # deferred: narrow runs never load it

    # DST-I: y[i] = 2 sum_k c[k] sin(pi (i+1)(k+1) / n_cells)
    return np.multiply(
        scipy.fft.dst(coeffs, type=1, n=n_cells - 1, axis=-1), np.sqrt(2.0) / 2.0, out=out
    )


class PathSampler:
    """Sampler for a list of paths: each row drawn by the Philox kernel.

    Built for one step size tau > 0, whose scale sqrt(lambda_k tau) it keeps,
    and for the key words (seed, path id), each taken mod 2^64.  One
    ``coeffs`` call fills one step's rows, or the rows of a block of
    consecutive steps: the ladders and ``engine.BatchChains.run`` draw each
    of their blocks in one call.  The call is one ``_kernel.c`` call, which
    for each (step, path) keys a Philox4x64-10 state of its own, on the C
    stack, as numpy's ``Philox`` would be at counter step_index * 2^128, and
    fills the row with numpy's own ``random_standard_normal_fill``: the
    bits of a fresh ``Generator(Philox(key, counter)).standard_normal(K)``.
    The call releases the GIL; its cost per row is in the module docstring.
    """

    def __init__(self, spec: QWienerSpec, seed: int, path_ids: Sequence[int], tau: float):
        if not tau > 0:  # NaN included
            raise ValueError(f"tau must be positive, got {tau}")
        self.spec = spec
        self._seed = int(seed) & _MASK64  # numpy ints too
        self._ids = np.array([int(pid) & _MASK64 for pid in path_ids], dtype=np.uint64)
        self._scale = np.sqrt(spec.eigenvalues() * tau)

    def coeffs(self, step_index: int, out: np.ndarray | None = None) -> np.ndarray:
        """sqrt(lambda_k tau) zeta_k for one step, one row per path id.

        ``out``, if given, is a writable C-contiguous float64 array of shape
        (len(path_ids), truncation), filled with that step's rows, or of
        shape (steps, len(path_ids), truncation), such as a block buffer,
        filled with the rows of steps ``step_index``, ``step_index + 1``, ...
        in one call; it is filled in place and returned.
        """
        n_modes, n_paths = self.spec.truncation, len(self._ids)
        if out is None:
            out = np.empty((n_paths, n_modes))
        elif not (out.shape[-2:] == (n_paths, n_modes) and out.ndim in (2, 3)
                  and out.flags.c_contiguous and out.flags.writeable
                  and out.dtype == np.float64):
            # the kernel writes the rows one after another into out's buffer
            raise ValueError(
                f"out must be a writable C-contiguous float64 array of shape "
                f"{(n_paths, n_modes)} or (steps, {n_paths}, {n_modes})"
            )
        n_steps = len(out) if out.ndim == 3 else 1
        last = step_index + max(n_steps, 1) - 1
        if not 0 <= step_index <= last < 1 << 64:
            raise ValueError(f"step_index out of range: {step_index}, last step {last}")
        kernel.load().philox_normals(self._seed, self._ids, step_index, out)
        out *= self._scale
        return out


def pairwise_tree_sum_axis(a: np.ndarray, axis: int = 1) -> np.ndarray:
    """Sum over one axis with a fixed balanced pairwise tree (adjacent pairs, odd tail carried).

    For power-of-two counts, two-stage aggregation composes bit-identically
    with one-shot aggregation, which is what the nested step ladders need.
    """
    a = np.moveaxis(a, axis, 0)
    while a.shape[0] > 1:
        m = a.shape[0]
        even = a[0 : m - 1 : 2] + a[1:m:2]
        a = even if m % 2 == 0 else np.concatenate([even, a[-1:]], axis=0)
    return a[0]
