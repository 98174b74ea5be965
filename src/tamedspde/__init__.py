"""Tamed semi-implicit Euler-Maruyama solvers for super-linear stochastic
PDEs on the unit interval, with experiment harnesses for long-time stability,
ergodicity diagnostics, and strong convergence rates."""

from .coefficients import (
    AssumptionReport,
    CoefficientSpec,
    DiffusionKind,
    InfeasibleAssumptions,
    PRESETS,
    TamingVariant,
    allen_cahn,
    check_assumptions,
    cubic_with_quadratic_g,
    double_well,
    eval_f,
    eval_f_prime,
    eval_f_second,
    eval_f_tau,
    eval_f_tau_prime,
    eval_g,
    eval_g_tau,
    linear_ou,
    lipschitz_sqrt_g,
)
from .convergence import (
    ErrorRow,
    ErrorTable,
    RateFit,
    fit_rate,
    fit_rate_xy,
    semigroup_error,
    semigroup_error_test,
    strong_error_ladder,
)
from .ergodicity import (
    CouplingResult,
    ErgodicEstimate,
    LongRunResult,
    LyapunovProbe,
    StepSizeNotCertified,
    coupling_decay_test,
    em_blowup_probe,
    ergodic_limit_test,
    linear_stationary_l2_sq,
    long_run_moment_test,
    lyapunov_contraction_test,
    nondegeneracy_precheck,
)
from .fem import (
    FemOperators,
    apply_resolvent_power,
    assemble,
    dispersion_eigenvalue,
    eigen_smallest,
)
from .grid import (
    Grid1D,
    GridFunction,
    h1_seminorm,
    l2_norm,
    lp_norm,
    sine_mode,
    sine_transform,
    zeros,
)
from .noise import PathSampler, QWienerSpec, c_q_constant
from .schemes import InitialCondition, OVERFLOW_GUARD, Scheme, SchemeConfig

__version__ = "0.1.0"
