"""Tamed semi-implicit Euler-Maruyama solvers for super-linear stochastic
PDEs on the unit interval, with experiment harnesses for long-time stability,
ergodicity diagnostics, and strong convergence rates."""

__version__ = "0.1.0"
