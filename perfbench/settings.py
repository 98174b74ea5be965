"""Fixed inputs of the three benchmark workloads.

This module is pure data so that the parent process (``run.py``) can read the
worker and BLAS settings without importing numpy or the package under test.
Everything a workload computes is fixed here except the noise seeds, which
``workloads.round_seed`` derives from the ``--seed`` argument.
"""

DEFAULT_SEED = 20250809  # the master seed of the acceptance suite

# Set-up samples of an untraced run: SETUP_SAMPLES - 1 processes that only
# set up, plus the measuring process; setup_s is their median.
SETUP_SAMPLES = 5

# Rounds a run makes however short --seconds is; the ladder checks pool them.
MIN_ROUNDS = 2

WORKLOADS = {
    # Criterion 1 (additive temporal rate) at a reduced path count.
    "ladder-tau": {
        "kind": "ladder",
        "axis": "tau",
        "ref_tau": 2.0**-13,
        "ref_cells": 256,
        "coarse": tuple(2.0**-j for j in range(5, 11)),
        "slope_band": (0.8, 1.2),
        "min_r_squared": 0.95,
        "paths_per_round": 2,
        "workers": 1,
        "blas_threads": 1,
    },
    # Criterion 2 (additive spatial rate) on a 16x finer reference mesh.
    "ladder-h-fine": {
        "kind": "ladder",
        "axis": "h",
        "ref_tau": 2.0**-10,
        "ref_cells": 4096,
        "coarse": (8, 16, 32, 64, 128),
        "slope_band": (1.6, 2.2),
        "min_r_squared": None,
        "paths_per_round": 2,
        "workers": 1,
        "blas_threads": 1,
    },
    # Criterion 5 (infinite-horizon moment bound) at a reduced step count.
    "longrun-ensemble": {
        "kind": "longrun",
        "tau": 2.0**-6,
        "n_cells": 32,
        "n_steps": 2000,
        "record_stride": 100,
        "amplitude": 10.0,
        "paths_per_round": 100,
        "workers": 1,
        "blas_threads": 1,
    },
}

# Shared by every workload: Allen-Cahn drift eps^-2 (x - x^3) with eps = 1,
# additive unit diffusion, Q-Wiener eigenvalues k^-3 truncated at the mesh.
NOISE_DECAY = 3.0
NOISE_SCALE = 1.0
LADDER_SCHEME = "drift_gtem"
LADDER_AMPLITUDE = 2.0  # sine initial datum of the ladders
LONGRUN_SCHEME = "gtem"
