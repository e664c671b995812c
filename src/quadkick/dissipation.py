"""Markovian thermal channel acting on Gaussian states between pulses."""

from __future__ import annotations

import math

from .errors import ParameterError
from .state import GaussianState


def _check(gamma: float, tau: float, n_env: float):
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ParameterError(f"gamma must be non-negative, got {gamma!r}")
    if tau < 0.0 or not math.isfinite(tau):
        raise ParameterError(f"tau must be non-negative, got {tau!r}")
    if n_env < 0.0 or not math.isfinite(n_env):
        raise ParameterError(f"environment occupancy must be non-negative, got {n_env!r}")


def dissipate(state: GaussianState, gamma: float, tau: float, n_env: float) -> GaussianState:
    """Thermal contact of strength gamma for time tau with a bath at n_env.

    cov -> e^{-γτ}·cov + (1 - e^{-γτ})·(n_env + 1/2)·I, means decay at
    e^{-γτ/2}.  The channel's fixed point is the bath thermal state.
    """
    _check(gamma, tau, n_env)
    decay = math.exp(-gamma * tau)
    add = -math.expm1(-gamma * tau) * (n_env + 0.5)
    shrink = math.exp(-0.5 * gamma * tau)
    p, x = state.mean
    return GaussianState(
        mean=(shrink * p, shrink * x),
        var_p=decay * state.var_p + add,
        var_x=decay * state.var_x + add,
        cross=decay * state.cross,
    )


def decoherence_term(gamma: float, tau: float, n_env: float) -> float:
    """The additive variance (1 - e^{-γτ})·(n_env + 1/2) injected by the bath."""
    _check(gamma, tau, n_env)
    return -math.expm1(-gamma * tau) * (n_env + 0.5)
