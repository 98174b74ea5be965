"""Polynomial drift/diffusion coefficients, taming transforms, and checks.

The drift f and diffusion g are polynomials

    f(x) = a_0 + a_1 x + ... + a_{2k+1} x^{2k+1},
    g(x) = c_0 + c_1 x + ... + c_{k+1} x^{k+1},

with degree parameter q = 2k.  Explicit schemes for such super-linear
coefficients blow up; the taming transforms divide f (and optionally g) by a
step-size-dependent factor so that one explicit evaluation per step stays
stable:

    f_tau(x) = f(x) / (1 + tau |x|^{2q})^{1/2}
    g_tau(x) = g(x) / (1 + sqrt(tau) |x|^{q})^{1/2}     (variant BOTH_A)
             = g(x) / (1 + sqrt(tau) |x|^{2q})^{1/2}    (variant BOTH_B)
             = g(x)                                     (variant DRIFT_ONLY)

``check_assumptions`` certifies, on a dense scan, the structural inequalities
the stability theory needs (coercivity, polynomial growth, one-sided
Lipschitz, derivative growth, tamed-derivative cap) and derives from the
fitted constants the certified step-size ceiling tau_max and the one-step
Lyapunov constants.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class TamingVariant(str, enum.Enum):
    DRIFT_ONLY = "drift_only"
    BOTH_A = "both_a"
    BOTH_B = "both_b"


class DiffusionKind(str, enum.Enum):
    POLYNOMIAL = "polynomial"
    SQRT_QUADRATIC = "sqrt_quadratic"  # g(x) = c0 * sqrt(1 + x^2): Lipschitz, nonvanishing


@dataclass(frozen=True)
class CoefficientSpec:
    """Drift/diffusion pair with a taming variant.

    The drift f is a polynomial with ascending coefficient tuple ``drift``;
    ``q`` is the (even) degree parameter, deg f <= q + 1.  The diffusion is
    either a polynomial of degree <= q/2 + 1 (``diffusion`` ascending), or the
    Lipschitz linear-growth family g(x) = c0 sqrt(1 + x^2) used in the
    multiplicative-noise rate experiments (``diffusion_kind = SQRT_QUADRATIC``,
    c0 = diffusion[0]).
    """

    drift: tuple
    diffusion: tuple
    q: int
    variant: TamingVariant = TamingVariant.BOTH_A
    diffusion_kind: DiffusionKind = DiffusionKind.POLYNOMIAL

    def __post_init__(self):
        object.__setattr__(self, "drift", tuple(float(a) for a in self.drift))
        object.__setattr__(self, "diffusion", tuple(float(c) for c in self.diffusion))
        object.__setattr__(self, "variant", TamingVariant(self.variant))
        object.__setattr__(self, "diffusion_kind", DiffusionKind(self.diffusion_kind))
        if self.q < 0 or self.q % 2 != 0:
            raise ValueError(f"q must be a nonnegative even integer, got {self.q}")
        if len(self.drift) > self.q + 2:
            raise ValueError(
                f"drift degree {len(self.drift) - 1} exceeds q + 1 = {self.q + 1}"
            )
        if self.diffusion_kind is DiffusionKind.SQRT_QUADRATIC:
            if len(self.diffusion) != 1:
                raise ValueError("sqrt_quadratic diffusion takes a single scale c0")
        elif len(self.diffusion) > self.q // 2 + 2:
            raise ValueError(
                f"diffusion degree {len(self.diffusion) - 1} exceeds q/2 + 1 = {self.q // 2 + 1}"
            )
        if self.variant is not TamingVariant.DRIFT_ONLY and not self.g_is_constant:
            lead = self.drift[self.q + 1] if len(self.drift) == self.q + 2 else 0.0
            if lead >= 0:
                raise ValueError(
                    "taming g requires a negative leading drift coefficient "
                    f"(got a_{self.q + 1} = {lead})"
                )

    @property
    def g_is_constant(self) -> bool:
        return self.diffusion_kind is DiffusionKind.POLYNOMIAL and all(
            c == 0.0 for c in self.diffusion[1:]
        )

    @property
    def drift_leading(self) -> float:
        return self.drift[self.q + 1] if len(self.drift) == self.q + 2 else 0.0

    @property
    def diffusion_leading(self) -> float:
        """Coefficient of |x|^{q/2+1} growth in g; zero for sub-leading families."""
        if self.diffusion_kind is DiffusionKind.SQRT_QUADRATIC:
            return 0.0
        top = self.q // 2 + 1
        return self.diffusion[top] if len(self.diffusion) == top + 1 else 0.0


def allen_cahn(eps: float = 1.0, g0: float = 1.0) -> CoefficientSpec:
    """f(x) = eps^{-2} (x - x^3) with constant diffusion g0, q = 2."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    s = eps**-2
    return CoefficientSpec(
        drift=(0.0, s, 0.0, -s),
        diffusion=(g0,),
        q=2,
        variant=TamingVariant.BOTH_A,
    )


def double_well(g0: float = 0.1, g2: float = 0.05) -> CoefficientSpec:
    """f(x) = x - x^3 with quadratic-growth diffusion g(x) = g0 + g2 x^2."""
    return CoefficientSpec(
        drift=(0.0, 1.0, 0.0, -1.0),
        diffusion=(g0, 0.0, g2),
        q=2,
        variant=TamingVariant.BOTH_A,
    )


def cubic_with_quadratic_g() -> CoefficientSpec:
    """A generic cubic drift with negative leading term and quadratic g."""
    return CoefficientSpec(
        drift=(0.0, 1.0, 0.5, -2.0),
        diffusion=(0.1, 0.0, 0.1),
        q=2,
        variant=TamingVariant.BOTH_A,
    )


def linear_ou() -> CoefficientSpec:
    """f(x) = -x with constant g: the linear baseline (q = 0, drift-only taming)."""
    return CoefficientSpec(
        drift=(0.0, -1.0),
        diffusion=(1.0,),
        q=0,
        variant=TamingVariant.DRIFT_ONLY,
    )


def lipschitz_sqrt_g(scale: float = 0.2, eps: float = 1.0) -> CoefficientSpec:
    """Allen-Cahn drift with the Lipschitz diffusion g(x) = scale * sqrt(1 + x^2)."""
    s = eps**-2
    return CoefficientSpec(
        drift=(0.0, s, 0.0, -s),
        diffusion=(scale,),
        q=2,
        variant=TamingVariant.DRIFT_ONLY,
        diffusion_kind=DiffusionKind.SQRT_QUADRATIC,
    )


#: Built-in presets: name -> (factory, description, default noise (decay, scale)).
PRESETS = {
    "allen-cahn": (
        allen_cahn,
        "f(x) = eps^-2 (x - x^3), additive unit diffusion; the phase-field benchmark",
        (3.0, 1.0),
    ),
    "double-well": (
        double_well,
        "double-well drift x - x^3 with small quadratic-growth diffusion",
        (3.0, 1.0),
    ),
    "cubic-with-quadratic-g": (
        cubic_with_quadratic_g,
        "cubic drift (negative leading) with quadratic diffusion",
        (3.0, 1.0),
    ),
    "linear-ou": (
        linear_ou,
        "linear drift -x with constant diffusion; exact stationary statistics",
        (3.0, 1.0),
    ),
}


def _polyval(coeffs: tuple, x):
    """Horner evaluation of an ascending-coefficient polynomial."""
    y = np.zeros_like(np.asarray(x, dtype=np.float64))
    for a in reversed(coeffs):
        y = y * x + a
    return y


def _polyder(coeffs: tuple) -> tuple:
    return tuple(i * a for i, a in enumerate(coeffs))[1:] or (0.0,)


def eval_f(spec: CoefficientSpec, xi):
    return _polyval(spec.drift, xi)


def eval_g(spec: CoefficientSpec, xi):
    if spec.diffusion_kind is DiffusionKind.SQRT_QUADRATIC:
        x = np.asarray(xi, dtype=np.float64)
        return spec.diffusion[0] * np.sqrt(1.0 + x * x)
    return _polyval(spec.diffusion, xi)


def eval_f_prime(spec: CoefficientSpec, xi):
    return _polyval(_polyder(spec.drift), xi)


def eval_f_second(spec: CoefficientSpec, xi):
    return _polyval(_polyder(_polyder(spec.drift)), xi)


def _abs_pow(x, m: int):
    """|x|**m for a nonnegative integer m (0**0 = 1), without np.power."""
    if m == 0:
        return np.ones_like(np.asarray(x, dtype=np.float64))
    x2 = np.asarray(x, dtype=np.float64) ** 2
    if m % 2 == 0:
        return x2 ** (m // 2)
    return x2 ** (m // 2) * np.abs(x)


def _check_tau(tau: float) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")


def eval_f_tau(spec: CoefficientSpec, tau: float, xi):
    """Tamed drift f(x) / (1 + tau |x|^{2q})^{1/2}."""
    _check_tau(tau)
    return eval_f(spec, xi) / np.sqrt(1.0 + tau * _abs_pow(xi, 2 * spec.q))


def eval_g_tau(spec: CoefficientSpec, tau: float, xi):
    """Tamed diffusion for the configured taming variant; DRIFT_ONLY leaves g untouched."""
    _check_tau(tau)
    if spec.variant is TamingVariant.DRIFT_ONLY:
        return eval_g(spec, xi)
    if spec.variant is TamingVariant.BOTH_A:
        denom = 1.0 + math.sqrt(tau) * _abs_pow(xi, spec.q)
    elif spec.variant is TamingVariant.BOTH_B:
        denom = 1.0 + math.sqrt(tau) * _abs_pow(xi, 2 * spec.q)
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {spec.variant}")
    return eval_g(spec, xi) / np.sqrt(denom)


def eval_f_tau_prime(spec: CoefficientSpec, tau: float, xi):
    """Derivative of the tamed drift, in closed form.

    d/dx [f (1 + tau |x|^{2q})^{-1/2}]
        = ((1 + tau |x|^{2q}) f'(x) - q tau |x|^{2(q-1)} x f(x))
          / (1 + tau |x|^{2q})^{3/2}
    """
    _check_tau(tau)
    q = spec.q
    p = _abs_pow(xi, 2 * q)
    numer = (1.0 + tau * p) * eval_f_prime(spec, xi)
    if q > 0:
        numer = numer - q * tau * _abs_pow(xi, 2 * (q - 1)) * np.asarray(xi) * eval_f(
            spec, xi
        )
    return numer / (1.0 + tau * p) ** 1.5


# ---------------------------------------------------------------------------
# Assumption certification
# ---------------------------------------------------------------------------

_PAD = 1.0 / 16.0  # relative padding applied to every scan-fitted constant


@dataclass(frozen=True)
class Violation:
    inequality: str
    witness: float
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    """Scan-certified structural constants for a coefficient/noise pair.

    Every non-None constant certifies its inequality at every scanned point
    (with 1/16 relative padding).  ``lyap_contraction``/``lyap_source`` are
    the one-step Lyapunov constants 2 beta alpha^q / sqrt(1 + alpha^{2q}) and
    2 (L1 + 2 L3^2) |domain|; ``tau_max`` is the certified step-size ceiling
    min((L2 - beta)^2 / (8 L4^4), 1), with beta = L2/2 and alpha =
    ``default_alpha(q)``.
    """

    feasible: bool
    violations: tuple
    q_flag: bool  # q = 0 lies outside the supported q > 0 range
    c_q: float
    coercive_offset: Optional[float]  # L1:  x f + C_Q g^2 <= L1 - L2 |x|^{q+2}
    coercive_decay: Optional[float]  # L2
    growth_offset: Optional[float]  # L3:  |f| <= L3 + L4 |x|^{q+1}
    growth_scale: Optional[float]  # L4
    one_sided_lipschitz: Optional[float]  # f' <= K
    derivative_growth: Optional[float]  # |f'| <= K (1 + |x|^q)
    tamed_derivative_bound: Optional[float]  # sup over tau, x of f_tau'
    second_derivative_offset: Optional[float]  # |f''| <= a + b |x|^{q-1}, q >= 1
    second_derivative_scale: Optional[float]
    beta: float
    alpha: float
    lyap_contraction: Optional[float]
    lyap_source: Optional[float]
    tau_max: Optional[float]
    scan_radius: float

    def require_feasible(self) -> "AssumptionReport":
        if not self.feasible:
            lines = "; ".join(
                f"{v.inequality} at xi={v.witness:g} ({v.detail})" for v in self.violations
            )
            raise InfeasibleAssumptions(f"assumption check failed: {lines}", self)
        return self


class InfeasibleAssumptions(ValueError):
    def __init__(self, msg: str, report: AssumptionReport):
        super().__init__(msg)
        self.report = report


def _edge_trend_ok(margin: np.ndarray, xi: np.ndarray) -> bool:
    """True if the certifying margin is not deteriorating at the scan edges."""
    tail = max(8, len(xi) // 100)
    left = margin[:tail]
    right = margin[-tail:]
    return bool(left[0] >= left[-1] - 1e-12 and right[-1] >= right[0] - 1e-12)


def default_alpha(q: int) -> float:
    """alpha with alpha^q / sqrt(1 + alpha^{2q}) = 1/2 (q > 0); 1.0 at q = 0."""
    if q == 0:
        return 1.0
    return 3.0 ** (-1.0 / (2.0 * q))


def check_assumptions(
    spec: CoefficientSpec,
    noise_spec,
    scan_radius: float = 20.0,
    scan_points: int = 200_001,
) -> AssumptionReport:
    """Certify the structural inequalities on a dense symmetric scan.

    The scan must cover at least [-10, 10] with at least 10^4 points.  Fitted
    constants are padded by 1/16; an inequality whose certifying margin
    degrades at the scan boundary is reported infeasible with the boundary
    point as witness.
    """
    from .noise import c_q_constant

    if scan_radius < 10.0:
        raise ValueError(f"scan_radius must be >= 10, got {scan_radius}")
    if scan_points < 10_000:
        raise ValueError(f"scan_points must be >= 10^4, got {scan_points}")
    if scan_points % 2 == 0:
        scan_points += 1  # keep 0 on the grid

    xi = np.linspace(-scan_radius, scan_radius, scan_points)
    q = spec.q
    c_q = c_q_constant(noise_spec)
    fv = eval_f(spec, xi)
    gv = eval_g(spec, xi)
    fpv = eval_f_prime(spec, xi)
    violations = []

    # --- growth: |f| <= L3 + L4 |x|^{q+1}
    pow_q1 = _abs_pow(xi, q + 1)
    outer = np.abs(xi) >= 1.0
    ratio_sup = float(np.max(np.abs(fv[outer]) / pow_q1[outer]))
    growth_scale = (1.0 + _PAD) * max(ratio_sup, abs(spec.drift_leading), 1e-12)
    resid = np.abs(fv) - growth_scale * pow_q1
    growth_offset = (1.0 + _PAD) * max(float(np.max(resid)), 1e-12)
    margin = growth_offset + growth_scale * pow_q1 - np.abs(fv)
    if not _edge_trend_ok(margin, xi):
        w = xi[0] if margin[0] < margin[-1] else xi[-1]
        violations.append(
            Violation("f-grow", float(w), "growth bound margin degrades at scan edge")
        )
        growth_offset = growth_scale = None

    # --- coercivity: x f + C_Q g^2 <= L1 - L2 |x|^{q+2}
    lead_combo = spec.drift_leading + spec.diffusion_leading**2 * c_q
    coercive_offset = coercive_decay = None
    lhs0 = xi * fv + c_q * gv**2
    if lead_combo >= 0:
        w = xi[int(np.argmax(lhs0))]
        violations.append(
            Violation(
                "coe",
                float(w),
                f"leading coefficient a_{q+1} + c_{q//2+1}^2 C_Q = {lead_combo:g} >= 0",
            )
        )
    else:
        coercive_decay = (1.0 - _PAD) * abs(lead_combo)
        phi = lhs0 + coercive_decay * _abs_pow(xi, q + 2)
        coercive_offset = (1.0 + _PAD) * max(float(np.max(phi)), 1e-12)
        margin = coercive_offset - phi
        imax = int(np.argmax(phi))
        if abs(xi[imax]) > 0.95 * scan_radius or not _edge_trend_ok(margin, xi):
            violations.append(
                Violation("coe", float(xi[imax]), "coercivity margin degrades at scan edge")
            )
            coercive_offset = coercive_decay = None

    # --- one-sided Lipschitz: f' <= K
    one_sided = (1.0 + _PAD) * max(float(np.max(fpv)), 1e-12)
    imax = int(np.argmax(fpv))
    if abs(xi[imax]) > 0.95 * scan_radius and not _edge_trend_ok(one_sided - fpv, xi):
        violations.append(
            Violation(
                "f-mon",
                float(xi[imax]),
                f"f' = {fpv[imax]:g} still increasing at the scan edge",
            )
        )
        one_sided = None

    # --- derivative growth: |f'| <= K (1 + |x|^q); ratio is bounded for
    # polynomial data, padding covers the tail.
    deriv_growth = (1.0 + _PAD) * max(
        float(np.max(np.abs(fpv) / (1.0 + _abs_pow(xi, q)))), 1e-12
    )

    # --- second derivative: |f''| <= a + b |x|^{q-1} (needs q >= 1)
    if q >= 1:
        fsv = eval_f_second(spec, xi)
        pow_qm1 = _abs_pow(xi, q - 1)
        sd_ratio = float(np.max(np.abs(fsv[outer]) / pow_qm1[outer]))
        second_scale = (1.0 + _PAD) * max(sd_ratio, 1e-12)
        second_offset = (1.0 + _PAD) * max(
            float(np.max(np.abs(fsv) - second_scale * pow_qm1)), 1e-12
        )
    else:
        second_offset = second_scale = None

    # --- tamed derivative cap: sup over tau in (0, 1], x of f_tau'
    tau_grid = np.concatenate([np.logspace(-4, 0, 17), [1e-6]])
    cap = -np.inf
    for tau in tau_grid:
        cap = max(cap, float(np.max(eval_f_tau_prime(spec, float(tau), xi))))
    tamed_cap = (1.0 + _PAD) * max(cap, 1e-12)

    # --- Lyapunov constants and the certified step ceiling, with beta = L2/2
    q_flag = q == 0
    beta = coercive_decay / 2.0 if coercive_decay is not None else float("nan")
    alpha = default_alpha(q)

    if coercive_decay is not None and growth_scale is not None:
        factor = alpha**q / math.sqrt(1.0 + alpha ** (2 * q))
        lyap_contraction = 2.0 * beta * factor
        lyap_source = 2.0 * (coercive_offset + 2.0 * growth_offset**2)  # |domain| = 1
        tau_max = min((coercive_decay - beta) ** 2 / (8.0 * growth_scale**4), 1.0)
    else:
        lyap_contraction = lyap_source = tau_max = None

    return AssumptionReport(
        feasible=not violations,
        violations=tuple(violations),
        q_flag=q_flag,
        c_q=c_q,
        coercive_offset=coercive_offset,
        coercive_decay=coercive_decay,
        growth_offset=growth_offset,
        growth_scale=growth_scale,
        one_sided_lipschitz=one_sided,
        derivative_growth=deriv_growth,
        tamed_derivative_bound=tamed_cap,
        second_derivative_offset=second_offset,
        second_derivative_scale=second_scale,
        beta=beta,
        alpha=alpha,
        lyap_contraction=lyap_contraction,
        lyap_source=lyap_source,
        tau_max=tau_max,
        scan_radius=scan_radius,
    )
