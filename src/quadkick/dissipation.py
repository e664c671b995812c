"""Markovian thermal channel acting on Gaussian states between pulses."""

from __future__ import annotations

import math

from .errors import ParameterError
from .state import GaussianState


def dissipate(state: GaussianState, gamma: float, tau: float, n_env: float) -> GaussianState:
    """Thermal contact of strength gamma for time tau with a bath at n_env.

    cov -> e^{-γτ}·cov + (1 - e^{-γτ})·(n_env + 1/2)·I, means decay at
    e^{-γτ/2}.  The channel's fixed point is the bath thermal state.
    """
    p, x = state.mean
    p, x, var_p, var_x, cross = _dissipated(
        p, x, state.var_p, state.var_x, state.cross, gamma, tau, n_env
    )
    return GaussianState((p, x), var_p, var_x, cross)


def _dissipated(
    p: float, x: float, vp: float, vx: float, cx: float, gamma: float, tau: float, n_env: float
) -> tuple[float, float, float, float, float]:
    """The moments (p, x, var_p, var_x, cross) after ``dissipate``'s channel, unchecked."""
    add = decoherence_term(gamma, tau, n_env)
    decay = math.exp(-gamma * tau)
    shrink = math.exp(-0.5 * gamma * tau)
    return shrink * p, shrink * x, decay * vp + add, decay * vx + add, decay * cx


def decoherence_term(gamma: float, tau: float, n_env: float) -> float:
    """The additive variance (1 - e^{-γτ})·(n_env + 1/2) injected by the bath."""
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ParameterError(f"gamma must be non-negative, got {gamma!r}")
    if tau < 0.0 or not math.isfinite(tau):
        raise ParameterError(f"tau must be non-negative, got {tau!r}")
    if n_env < 0.0 or not math.isfinite(n_env):
        raise ParameterError(f"environment occupancy must be non-negative, got {n_env!r}")
    return -math.expm1(-gamma * tau) * (n_env + 0.5)
