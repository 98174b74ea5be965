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
Brownian path — the properties the coupled convergence ladders rely on.  An ensemble keeps one generator and
re-keys it for each of its paths at each step by assigning a prebuilt state,
never reading it, and writes the ensemble's block with one concatenate
(see ``PathSampler``): on numpy 2.4.6 and a 2-vCPU x86 host, a 100-row block
of 31-mode draws costs about 1.2 us a row, against 1.6 us with each row
drawn in place.

``synthesize`` turns rows of coefficients into nodal values: on meshes of up
to 64 cells by a product with the cached dense sine matrix, on wider ones
by a DST-I, which needs no O(n^2) matrix and whose rows do not depend on the
BLAS thread count or on how many rows share the call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.fft

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
# which costs O(n log n) per row, caches nothing of size n^2 and gives each
# row the same bits at any BLAS thread count and row count.  The dense
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


def synthesize(coeffs: np.ndarray, n_cells: int) -> np.ndarray:
    """Nodal values sum_k coeffs[..., k-1] sqrt(2) sin(k pi x_i) at the interior nodes.

    ``coeffs`` holds K <= n_cells - 1 sine coefficients per row.  Meshes of
    up to ``_DENSE_MAX_CELLS`` cells use the cached dense matrix; wider ones
    zero-pad the rows to n_cells - 1 modes and apply DST-I, which treats
    every row on its own.
    """
    n_modes = coeffs.shape[-1]
    if n_modes > n_cells - 1:
        raise ValueError(
            f"{n_modes} modes alias on a grid with {n_cells - 1} interior nodes"
        )
    if n_cells <= _DENSE_MAX_CELLS:
        return coeffs @ _synth_rows(n_cells, n_modes)
    # DST-I: y[i] = 2 sum_k c[k] sin(pi (i+1)(k+1) / n_cells)
    return scipy.fft.dst(coeffs, type=1, n=n_cells - 1, axis=-1) * (np.sqrt(2.0) / 2.0)


# Widest rows that ``PathSampler`` draws into fresh arrays and concatenates:
# near 1024 modes the copy costs about what numpy's out= path does.
_CONCAT_MAX_MODES = 1023


class PathSampler:
    """Sampler for a list of paths: one Philox generator, re-keyed per row.

    The generator's state is assigned, never read: one state dict of plain
    ints (key words (seed, path id), counter, an empty output buffer) is
    built here.  For each step the counter's word 2 is set to the step index;
    for each row the key's word 1 is set to that row's path id and the dict
    is assigned.  That is bit-identical to constructing a fresh generator
    with key (seed, path id) at counter step_index * 2^128, words buffered
    by the previous row included: the assignment empties the buffer.
    Measured on numpy 2.4.6 (2-vCPU x86 host), the assignment costs 0.33 us;
    reading the state alone costs 1.2 us (a fresh dict of arrays), and
    reading, editing and writing it back 2.1 us.  Building a sampler costs
    about 20 us.

    Rows of up to ``_CONCAT_MAX_MODES`` modes are drawn into fresh arrays
    and one ``np.concatenate`` writes the block, since numpy's ``out=`` path
    costs more per call than the allocating one; wider rows are drawn in
    place, where the copy costs more than the out= path.  Per ``coeffs`` call (1 BLAS
    thread, same host), 100 rows at K = 31 took 122 us concatenated against
    156 us in place, and 2 rows at K = 255 6.6 us either way; 2 rows at
    K = 4095 took 81 against 79 us, and concatenating them slowed the
    4096-cell ladder benchmark by about 2%.
    """

    def __init__(self, spec: QWienerSpec, seed: int, path_ids: Sequence[int]):
        self.spec = spec
        self._key_words = [pid & _MASK64 for pid in path_ids]
        self._eigs = spec.eigenvalues()
        self._scale_cache: tuple = (None, None)  # (tau, sqrt(lambda_k tau))
        self._bitgen = np.random.Philox(0)  # a placeholder: each row assigns its state
        self._gen = np.random.Generator(self._bitgen)
        self._counter = [0, 0, 0, 0]  # counter = step_index << 128: word 2 only
        self._key = [seed & _MASK64, 0]  # word 1: the path id of the row drawn
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # empty: no words buffered from an earlier draw
            "has_uint32": 0,
            "uinteger": 0,
        }

    def coeffs(
        self, step_index: int, tau: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """sqrt(lambda_k tau) zeta_k for one step, one row per path id.

        ``out``, if given, must be a C-contiguous float64 array of shape
        (len(path_ids), truncation), such as one step's rows of a larger
        block; it is filled in place and returned.
        """
        if not 0 <= step_index < 1 << 64:
            raise ValueError(f"step_index out of range: {step_index}")
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if self._scale_cache[0] != tau:
            self._scale_cache = (tau, np.sqrt(self._eigs * tau))
        n_modes = self.spec.truncation
        if out is None:
            out = np.empty((len(self._key_words), n_modes))
        elif not (out.flags.c_contiguous and out.dtype == np.float64):
            # reshape(-1) must be a view, and concatenate must not cast
            raise ValueError("out must be a C-contiguous float64 array")
        self._counter[2] = step_index
        key, state, bitgen = self._key, self._state, self._bitgen
        normal = self._gen.standard_normal
        if n_modes > _CONCAT_MAX_MODES:
            for word, row in zip(self._key_words, out):
                key[1] = word
                bitgen.state = state
                normal(n_modes, out=row)
        else:
            rows = []
            for word in self._key_words:
                key[1] = word
                bitgen.state = state
                rows.append(normal(n_modes))
            if rows:
                np.concatenate(rows, out=out.reshape(-1))
        out *= self._scale_cache[1]
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
