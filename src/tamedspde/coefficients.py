"""Polynomial drift/diffusion coefficients, taming transforms, and checks.

The drift f and diffusion g are polynomials

    f(x) = a_0 + a_1 x + ... + a_{2k+1} x^{2k+1},
    g(x) = c_0 + c_1 x + ... + c_{k+1} x^{k+1},

with degree parameter q = 2k.  Explicit schemes for such super-linear
coefficients blow up; a tamed scheme divides f, and possibly g, by a
step-size-dependent factor so that one explicit evaluation per step stays
stable.  Which coefficients are tamed is a property of the scheme
(``schemes.Scheme``), not of the coefficients:

    scheme       f*(x)                            g*(x)
    gtem         f(x) / (1 + tau |x|^{2q})^{1/2}  g(x) / (1 + sqrt(tau) |x|^{q})^{1/2}
    gtem_b       f(x) / (1 + tau |x|^{2q})^{1/2}  g(x) / (1 + sqrt(tau) |x|^{2q})^{1/2}
    drift_gtem   f(x) / (1 + tau |x|^{2q})^{1/2}  g(x)
    untamed_em   f(x)                             g(x)

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


class DiffusionKind(str, enum.Enum):
    POLYNOMIAL = "polynomial"
    SQRT_QUADRATIC = "sqrt_quadratic"  # g(x) = c0 * sqrt(1 + x^2): Lipschitz, nonvanishing


@dataclass(frozen=True)
class CoefficientSpec:
    """A drift/diffusion pair; the scheme decides which of the two is tamed.

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
    diffusion_kind: DiffusionKind = DiffusionKind.POLYNOMIAL

    def __post_init__(self):
        object.__setattr__(self, "drift", tuple(float(a) for a in self.drift))
        object.__setattr__(self, "diffusion", tuple(float(c) for c in self.diffusion))
        object.__setattr__(self, "diffusion_kind", DiffusionKind(self.diffusion_kind))
        if not self.drift or not self.diffusion:
            raise ValueError("drift and diffusion each need at least one coefficient")
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
    )


def double_well(g0: float = 0.1, g2: float = 0.05) -> CoefficientSpec:
    """f(x) = x - x^3 with quadratic-growth diffusion g(x) = g0 + g2 x^2."""
    return CoefficientSpec(
        drift=(0.0, 1.0, 0.0, -1.0),
        diffusion=(g0, 0.0, g2),
        q=2,
    )


def cubic_with_quadratic_g() -> CoefficientSpec:
    """A generic cubic drift with negative leading term and quadratic g."""
    return CoefficientSpec(
        drift=(0.0, 1.0, 0.5, -2.0),
        diffusion=(0.1, 0.0, 0.1),
        q=2,
    )


def linear_ou() -> CoefficientSpec:
    """f(x) = -x with constant g: the linear baseline (q = 0)."""
    return CoefficientSpec(
        drift=(0.0, -1.0),
        diffusion=(1.0,),
        q=0,
    )


def lipschitz_sqrt_g(scale: float = 0.2, eps: float = 1.0) -> CoefficientSpec:
    """Allen-Cahn drift with the Lipschitz diffusion g(x) = scale * sqrt(1 + x^2)."""
    s = eps**-2
    return CoefficientSpec(
        drift=(0.0, s, 0.0, -s),
        diffusion=(scale,),
        q=2,
        diffusion_kind=DiffusionKind.SQRT_QUADRATIC,
    )


#: Built-in presets: name -> (factory, description).
PRESETS = {
    "allen-cahn": (
        allen_cahn,
        "f(x) = eps^-2 (x - x^3), additive unit diffusion; the phase-field benchmark",
    ),
    "double-well": (
        double_well,
        "double-well drift x - x^3 with small quadratic-growth diffusion",
    ),
    "cubic-with-quadratic-g": (
        cubic_with_quadratic_g,
        "cubic drift (negative leading) with quadratic diffusion",
    ),
    "linear-ou": (
        linear_ou,
        "linear drift -x with constant diffusion; exact stationary statistics",
    ),
}


def horner_terms(coeffs: tuple) -> tuple:
    """The operands of ``horner`` for an ascending coefficient tuple: the
    leading coefficient, then the coefficient each later step adds, as 0-d
    float64 arrays (no ufunc converts a Python float).

    The add of a zero coefficient is None, skipped, when the next coefficient
    added is nonzero.  Adding 0.0 changes only -0.0, to +0.0; the product by x
    that follows keeps that difference to the sign of a zero (0 * inf and a
    NaN x give the same NaN either way), and adding a nonzero coefficient
    then gives the same bits from either zero.  The last add has no such
    successor and stays: it turns -0.0 into +0.0.
    """
    terms = [np.asarray(float(a)) for a in coeffs[::-1]]
    for i in range(1, len(terms) - 1):
        if coeffs[-1 - i] == 0.0 and coeffs[-2 - i] != 0.0:
            terms[i] = None
    return tuple(terms)


def horner(terms: tuple, x: np.ndarray):
    """In-place Horner over ``horner_terms`` in a fresh array, from the first
    product x * a_n (for finite x, the same bits as a start from zero)."""
    if len(terms) == 1:
        return np.full_like(x, terms[0])
    y = x * terms[0]
    if terms[1] is not None:
        y += terms[1]
    for a in terms[2:]:
        y *= x
        if a is not None:
            y += a
    return y


def _polyval(coeffs: tuple, x):
    """``horner`` of an ascending coefficient tuple; a numpy scalar for scalar x."""
    return horner(horner_terms(coeffs), np.asarray(x, dtype=np.float64))[()]


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
    """|x|**m for a nonnegative integer m (0**0 = 1), by powers of x**2."""
    x2 = np.asarray(x, dtype=np.float64) ** 2
    if m % 2 == 0:
        return x2 ** (m // 2)
    return x2 ** (m // 2) * np.abs(x)


def _check_tau(tau) -> None:
    t = np.asarray(tau)
    if not np.all((0.0 < t) & (t <= 1.0)):  # NaN fails too
        raise ValueError(f"tau must be in (0, 1], got {tau}")


def eval_f_tau(spec: CoefficientSpec, tau: float, xi):
    """Tamed drift f(x) / (1 + tau |x|^{2q})^{1/2}."""
    _check_tau(tau)
    x2 = np.asarray(xi, dtype=np.float64) ** 2
    return eval_f(spec, xi) / np.sqrt(1.0 + tau * x2**spec.q)


def eval_g_tau(spec: CoefficientSpec, tau: float, xi, power: int):
    """g(x) / (1 + sqrt(tau) |x|^{2 power})^{1/2}: power q/2 for gtem, q for gtem_b."""
    _check_tau(tau)
    x2 = np.asarray(xi, dtype=np.float64) ** 2
    return eval_g(spec, xi) / np.sqrt(1.0 + math.sqrt(tau) * x2**power)


def eval_f_tau_prime(spec: CoefficientSpec, tau, xi):
    """Derivative of the tamed drift, in closed form.

    d/dx [f (1 + tau |x|^{2q})^{-1/2}]
        = ((1 + tau |x|^{2q}) f'(x) - q tau |x|^{2(q-1)} x f(x))
          / (1 + tau |x|^{2q})^{3/2}

    ``tau`` may be a column of step sizes (shape (m, 1)): each row of the
    result is then the derivative at one of them, bit for bit, while the
    tau-free factors f', f and the powers of |x| are computed once.  The
    in-place operations keep the order of the formula's products.
    """
    _check_tau(tau)
    q = spec.q
    x = np.asarray(xi, dtype=np.float64)
    damp = 1.0 + tau * _abs_pow(x, 2 * q)
    numer = damp * eval_f_prime(spec, x)
    if q > 0:
        drift_term = q * tau * _abs_pow(x, 2 * (q - 1))
        drift_term *= x
        drift_term *= eval_f(spec, x)
        numer -= drift_term
    damp **= 1.5
    numer /= damp
    return numer


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


def _edge_trend_ok(margin_of, xi: np.ndarray):
    """(ok, left, right): ``ok`` is True if the certifying margin is not
    deteriorating at the scan edges; ``left``/``right`` are the margins on the
    first and last ``tail`` points of the scan."""
    tail = max(8, len(xi) // 100)
    left = margin_of(xi[:tail])
    right = margin_of(xi[-tail:])
    return bool(left[0] >= left[-1] - 1e-12 and right[-1] >= right[0] - 1e-12), left, right


# Points per tile of the assumption scan: every array the scan builds, but
# the scan grid itself, holds one tile, not the whole scan.
_SCAN_TILE = 1 << 14

# The step sizes at which the scan takes the sup of f_tau', as a column: the
# tamed derivative is evaluated at all of them at once, on sub-tiles of
# _SCAN_TILE // len(_SCAN_TAUS) points, so that it too holds one tile.
_SCAN_TAUS = np.concatenate([np.logspace(-4, 0, 17), [1e-6]])[:, None]


class _ScanMax:
    """np.max, and the first-occurrence np.argmax, of a scan fed tile by tile."""

    def __init__(self):
        self._maxima, self._args = [], []

    def add(self, values: np.ndarray, start: int = 0) -> None:
        """Take one tile's values; ``start`` is the scan index of its first
        point (the argmax is a scan index only for unmasked values).  A tile
        masked down to nothing is skipped."""
        if values.size:
            self._maxima.append(np.max(values))
            self._args.append(start + int(np.argmax(values)))

    def max(self) -> float:
        return float(np.max(self._maxima))

    def argmax(self) -> int:
        return self._args[int(np.argmax(self._maxima))]


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
    tiles = [(a, xi[a:a + _SCAN_TILE]) for a in range(0, len(xi), _SCAN_TILE)]
    q = spec.q
    c_q = c_q_constant(noise_spec)
    lead_combo = spec.drift_leading + spec.diffusion_leading**2 * c_q
    coercive_decay = (1.0 - _PAD) * abs(lead_combo) if lead_combo < 0 else None
    sub_tile = _SCAN_TILE // len(_SCAN_TAUS)
    violations = []

    # First pass: every maximum that needs no scan-fitted constant.
    ratio, lhs0, phi, fp, deriv, sd_ratio = (_ScanMax() for _ in range(6))
    tamed = []  # per sub-tile, the max of f_tau' at each scanned tau
    for a, x in tiles:
        fv = eval_f(spec, x)
        fpv = eval_f_prime(spec, x)
        outer = np.abs(x) >= 1.0
        ratio.add(np.abs(fv[outer]) / _abs_pow(x, q + 1)[outer])
        lhs = x * fv + c_q * eval_g(spec, x) ** 2
        if coercive_decay is None:
            lhs0.add(lhs, a)
        else:
            phi.add(lhs + coercive_decay * _abs_pow(x, q + 2), a)
        fp.add(fpv, a)
        deriv.add(np.abs(fpv) / (1.0 + _abs_pow(x, q)))
        if q >= 1:
            sd_ratio.add(np.abs(eval_f_second(spec, x)[outer]) / _abs_pow(x, q - 1)[outer])
        for b in range(0, len(x), sub_tile):
            tamed.append(np.max(eval_f_tau_prime(spec, _SCAN_TAUS, x[b:b + sub_tile]), axis=1))

    # Second pass: the offsets fitted after their scales.
    growth_scale = (1.0 + _PAD) * max(ratio.max(), abs(spec.drift_leading), 1e-12)
    second_scale = (1.0 + _PAD) * max(sd_ratio.max(), 1e-12) if q >= 1 else None
    resid, second_resid = _ScanMax(), _ScanMax()
    for a, x in tiles:
        resid.add(np.abs(eval_f(spec, x)) - growth_scale * _abs_pow(x, q + 1))
        if q >= 1:
            second_resid.add(
                np.abs(eval_f_second(spec, x)) - second_scale * _abs_pow(x, q - 1)
            )

    # --- growth: |f| <= L3 + L4 |x|^{q+1}
    growth_offset = (1.0 + _PAD) * max(resid.max(), 1e-12)
    ok, left, right = _edge_trend_ok(
        lambda x: growth_offset + growth_scale * _abs_pow(x, q + 1) - np.abs(eval_f(spec, x)),
        xi,
    )
    if not ok:
        w = xi[0] if left[0] < right[-1] else xi[-1]
        violations.append(
            Violation("f-grow", float(w), "growth bound margin degrades at scan edge")
        )
        growth_offset = growth_scale = None

    # --- coercivity: x f + C_Q g^2 <= L1 - L2 |x|^{q+2}
    coercive_offset = None
    if coercive_decay is None:
        violations.append(
            Violation(
                "coe",
                float(xi[lhs0.argmax()]),
                f"leading coefficient a_{q+1} + c_{q//2+1}^2 C_Q = {lead_combo:g} >= 0",
            )
        )
    else:
        coercive_offset = (1.0 + _PAD) * max(phi.max(), 1e-12)
        imax = phi.argmax()

        def coercive_margin(x):
            lhs = x * eval_f(spec, x) + c_q * eval_g(spec, x) ** 2
            return coercive_offset - (lhs + coercive_decay * _abs_pow(x, q + 2))

        if abs(xi[imax]) > 0.95 * scan_radius or not _edge_trend_ok(coercive_margin, xi)[0]:
            violations.append(
                Violation("coe", float(xi[imax]), "coercivity margin degrades at scan edge")
            )
            coercive_offset = coercive_decay = None

    # --- one-sided Lipschitz: f' <= K
    one_sided = (1.0 + _PAD) * max(fp.max(), 1e-12)
    imax = fp.argmax()
    if abs(xi[imax]) > 0.95 * scan_radius and not _edge_trend_ok(
        lambda x: one_sided - eval_f_prime(spec, x), xi
    )[0]:
        violations.append(
            Violation(
                "f-mon",
                float(xi[imax]),
                f"f' = {fp.max():g} still increasing at the scan edge",
            )
        )
        one_sided = None

    # --- derivative growth: |f'| <= K (1 + |x|^q); ratio is bounded for
    # polynomial data, padding covers the tail.
    deriv_growth = (1.0 + _PAD) * max(deriv.max(), 1e-12)

    # --- second derivative: |f''| <= a + b |x|^{q-1} (needs q >= 1)
    second_offset = (1.0 + _PAD) * max(second_resid.max(), 1e-12) if q >= 1 else None

    # --- tamed derivative cap: sup over tau in (0, 1], x of f_tau'
    cap = -np.inf
    for sup in np.max(tamed, axis=0):  # in _SCAN_TAUS order: max() skips a NaN sup
        cap = max(cap, float(sup))
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
