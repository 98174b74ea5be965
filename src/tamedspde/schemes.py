"""Scheme definitions: tamed, drift-tamed, and the untamed baseline.

One step from Z_{n-1} to Z_n solves the linear system

    (M + tau K) Z_n = M [ Z_{n-1} + tau f*(Z_{n-1}) + g*(Z_{n-1}) . dW ]

where '.' is the pointwise nodal product with the noise increment and the
scheme alone decides which coefficients are tamed (f_tau as in
``tamedspde.coefficients``):

    GTEM:        f* = f_tau,  g* = g / (1 + sqrt(tau) |x|^q)^{1/2}
    GTEM_B:      f* = f_tau,  g* = g / (1 + sqrt(tau) |x|^{2q})^{1/2}
    DRIFT_GTEM:  f* = f_tau,  g* = g     (for linear-growth or additive g)
    UNTAMED_EM:  f* = f,      g* = g     (baseline; blows up for cubic f)

The linear part is treated implicitly (nonexpansive resolvent), the
coefficients explicitly; taming keeps the explicit part stable uniformly in
the horizon.  This module holds what one chain is (``SchemeConfig``, its
initial data, the overflow guard and the step-count rule ``whole_steps``);
the step itself is implemented once, for (paths, nodes) matrices, in
``tamedspde.engine``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSpec
from .grid import Grid1D
from .noise import QWienerSpec

OVERFLOW_GUARD = 1e12


def whole_steps(t: float, tau: float, name: str) -> int:
    """The n steps of ``tau`` that make ``name`` t: n = round(t / tau) >= 1
    with |n tau - t| <= 1e-9 t, else a ``ValueError`` that names both."""
    n = round(t / tau)
    if n < 1 or abs(n * tau - t) > 1e-9 * t:
        raise ValueError(f"{name} {t} is not an integer multiple of tau {tau}")
    return n


class Scheme(str, enum.Enum):
    GTEM = "gtem"
    GTEM_B = "gtem_b"
    DRIFT_GTEM = "drift_gtem"
    UNTAMED_EM = "untamed_em"


# The fields of ``InitialCondition`` each kind reads.
INITIAL_FIELDS = {"zero": (), "sine": ("amplitude", "mode"), "const": ("amplitude",),
                  "bump": ("amplitude", "center", "width")}


@dataclass(frozen=True)
class InitialCondition:
    """Closed-form initial data interpolated to the interior nodes.

    kinds: "zero"; "sine" (amplitude * sin(mode pi x)); "const" (amplitude on
    the interior); "bump" (amplitude * exp(-((x - center)/width)^2 / 2)).
    """

    kind: str = "zero"
    amplitude: float = 1.0
    mode: int = 1
    center: float = 0.5
    width: float = 0.1

    def build(self, grid: Grid1D) -> np.ndarray:
        x = grid.nodes
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "sine":
            return self.amplitude * np.sin(self.mode * np.pi * x)
        if self.kind == "const":
            return np.full_like(x, self.amplitude)
        if self.kind == "bump":
            return self.amplitude * np.exp(-(((x - self.center) / self.width) ** 2) / 2.0)
        raise ValueError(f"unknown initial-condition kind {self.kind!r}")


@dataclass(frozen=True)
class SchemeConfig:
    """Everything one chain needs: step size, mesh, horizon, scheme, data, seed."""

    tau: float
    grid: Grid1D
    horizon: float
    scheme: Scheme
    coefficients: CoefficientSpec
    noise: QWienerSpec
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        whole_steps(self.horizon, self.tau, "horizon")
        if self.noise.truncation > self.grid.n_interior:
            raise ValueError(
                f"noise truncation {self.noise.truncation} exceeds the "
                f"{self.grid.n_interior} interior nodes; use QWienerSpec.for_grid"
            )
        spec = self.coefficients
        tames_g = self.scheme in (Scheme.GTEM, Scheme.GTEM_B)
        if tames_g and not spec.g_is_constant and spec.drift_leading >= 0:
            raise ValueError(
                f"scheme {self.scheme.value} tames g, which requires a negative "
                f"leading drift coefficient (got a_{spec.q + 1} = {spec.drift_leading})"
            )

    @property
    def n_steps(self) -> int:
        return whole_steps(self.horizon, self.tau, "horizon")
