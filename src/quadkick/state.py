"""Gaussian states of a single mechanical mode and the channels acting on them.

Quadratures are dimensionless and ordered (p, x) in every vector and matrix;
the vacuum has variance 1/2 in each quadrature.  States are immutable: every
operation returns a new ``GaussianState``.  Symplectic maps and the thermal
contact between pulses are channels cov -> X·cov·Xᵀ + Y.  Free evolution is
kept in closed form as well: ``free_x2_harmonics`` gives ⟨x²(t)⟩ as the three
coefficients of one 2ω_m harmonic, which the readout probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ParameterError

if TYPE_CHECKING:
    import numpy as np

# CODATA values, fixed so every derived number is reproducible bit-for-bit.
HBAR = 1.054571817e-34        # J s
K_BOLTZMANN = 1.380649e-23    # J / K
SPEED_OF_LIGHT = 2.99792458e8  # m / s

VACUUM_VARIANCE = 0.5
HEISENBERG_TOL = 1e-9   # absolute slack on det(cov) >= 1/4
UNIT_DET_TOL = 1e-12    # |det - 1| allowed for symplectic maps


@dataclass(frozen=True)
class SymplecticMap:
    """A 2x2 real matrix ((a, b), (c, d)) with unit determinant acting on (p, x) columns."""

    m: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        try:
            (a, b), (c, d) = self.m
            m = ((float(a), float(b)), (float(c), float(d)))
        except (TypeError, ValueError):
            raise ParameterError(f"symplectic map must be 2x2, got {self.m!r}")
        self._check(*m[0], *m[1])
        object.__setattr__(self, "m", m)

    @staticmethod
    def _check(a: float, b: float, c: float, d: float) -> None:
        """Raise ``ParameterError`` unless the entries are finite with unit determinant."""
        isfinite = math.isfinite
        if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
            raise ParameterError("symplectic map entries must be finite")
        det = a * d - b * c
        if abs(det - 1.0) > UNIT_DET_TOL:
            raise ParameterError(f"symplectic map must have unit determinant, got det = {det!r}")

    @property
    def det(self) -> float:
        (a, b), (c, d) = self.m
        return a * d - b * c


@dataclass(frozen=True)
class GaussianState:
    """Zero- and second-moment description of the oscillator.

    ``mean`` holds (p̄, x̄); the covariance matrix is stored as its three
    independent entries so it is exactly symmetric by construction.
    """

    mean: tuple[float, float] = (0.0, 0.0)
    var_p: float = VACUUM_VARIANCE
    var_x: float = VACUUM_VARIANCE
    cross: float = 0.0

    def __post_init__(self):
        try:
            p, x = self.mean
        except (TypeError, ValueError):
            raise ParameterError(f"mean must be a (p, x) pair, got {self.mean!r}")
        vals = (float(p), float(x), float(self.var_p), float(self.var_x), float(self.cross))
        self._check(*vals)
        object.__setattr__(self, "mean", vals[:2])
        object.__setattr__(self, "var_p", vals[2])
        object.__setattr__(self, "var_x", vals[3])
        object.__setattr__(self, "cross", vals[4])

    @staticmethod
    def _check(p: float, x: float, var_p: float, var_x: float, cross: float) -> float:
        """Return det(cov); raise ``ParameterError`` unless the moments are finite,
        the variances positive and det(cov) >= 1/4 within ``HEISENBERG_TOL``."""
        isfinite = math.isfinite
        if not (isfinite(p) and isfinite(x) and isfinite(var_p) and isfinite(var_x)
                and isfinite(cross)):
            raise ParameterError("state moments must be finite")
        if var_p <= 0.0 or var_x <= 0.0:
            raise ParameterError(f"variances must be positive, got var_p={var_p!r}, var_x={var_x!r}")
        # the expression of det_cov
        det = var_p * var_x - cross * cross
        if not isfinite(det):
            raise ParameterError(f"covariance determinant must be finite, got {det!r}")
        if det < 0.25 - HEISENBERG_TOL:
            raise ParameterError(f"covariance violates the Heisenberg bound: det = {det!r} < 1/4")
        return det

    @property
    def cov(self) -> np.ndarray:
        """Covariance matrix in (p, x) ordering."""
        import numpy as np

        return np.array([[self.var_p, self.cross], [self.cross, self.var_x]])

    @property
    def det_cov(self) -> float:
        return self.var_p * self.var_x - self.cross * self.cross


def thermal_occupancy(T: float, omega_m: float) -> float:
    """Mean phonon number of an oscillator at temperature ``T`` (kelvin).

    Evaluates the Bose factor 1/(e^{ħω/k_BT} - 1); T = 0, or a T so small
    that k_B·T underflows to 0, returns the analytic limit 0 without
    touching the exponential.
    """
    if omega_m <= 0.0 or not math.isfinite(omega_m):
        raise ParameterError(f"omega_m must be positive, got {omega_m!r}")
    if T < 0.0 or not math.isfinite(T):
        raise ParameterError(f"temperature must be non-negative, got {T!r}")
    kt = K_BOLTZMANN * T
    if kt == 0.0:
        return 0.0
    x = HBAR * omega_m / kt
    # e^{-x}/(1 - e^{-x}) == 1/(e^x - 1), stable for both tiny and huge x
    n_bar = math.exp(-x) / -math.expm1(-x) if x > 0.0 else math.inf
    if n_bar == math.inf:
        raise ParameterError(f"thermal occupancy overflows: hbar*omega_m/(k_B*T) = {x!r}")
    return n_bar


def thermal_state(n_bar: float) -> GaussianState:
    """Zero-mean thermal state with isotropic variance n̄ + 1/2."""
    if n_bar < 0.0 or not math.isfinite(n_bar):
        raise ParameterError(f"occupancy must be non-negative, got {n_bar!r}")
    v = n_bar + VACUUM_VARIANCE
    return GaussianState(var_p=v, var_x=v)


def propagate(state: GaussianState, smap: SymplecticMap) -> GaussianState:
    """Apply a symplectic map: mean -> M·mean, cov -> M·cov·Mᵀ."""
    (a, b), (c, d) = smap.m
    p, x = state.mean
    p, x, var_p, var_x, cross = _propagated(a, b, c, d, p, x, state.var_p, state.var_x, state.cross)
    return GaussianState((p, x), var_p, var_x, cross)


def _propagated(
    a: float, b: float, c: float, d: float, p: float, x: float, vp: float, vx: float, cx: float
) -> tuple[float, float, float, float, float]:
    """The moments (p, x, var_p, var_x, cross) after the map ((a, b), (c, d)), unchecked."""
    # rows of M·cov, then their products with the rows of M
    rp, rpx = a * vp + b * cx, a * cx + b * vx
    rxp, rx = c * vp + d * cx, c * cx + d * vx
    return (
        a * p + b * x,
        c * p + d * x,
        rp * a + rpx * b,
        rxp * c + rx * d,
        0.5 * (rp * c + rpx * d + (rxp * a + rx * b)),
    )


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


def free_x2_harmonics(state: GaussianState) -> tuple[float, float, float]:
    """(dc, a, b) of ⟨x²(t)⟩ = dc + a·cos 2ω_m·t + b·sin 2ω_m·t under free evolution.

    Under the free rotation the position picks up the momentum moments, so
    ⟨x²⟩ is a constant plus one oscillation at twice the mechanical
    frequency, whatever that frequency is.  Equivalent to propagating with
    the free-evolution map for time t and reading off var_x + x̄².
    """
    p0, x0 = state.mean
    return (
        0.5 * (state.var_p + state.var_x + p0 * p0 + x0 * x0),
        0.5 * (state.var_x - state.var_p + x0 * x0 - p0 * p0),
        state.cross + p0 * x0,
    )
