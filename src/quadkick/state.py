"""Gaussian states of a single mechanical mode and the linear maps acting on them.

Quadratures are dimensionless and ordered (p, x) in every vector and matrix;
the vacuum has variance 1/2 in each quadrature.  States are immutable: every
operation returns a new ``GaussianState``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

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
        if not all(map(math.isfinite, m[0] + m[1])):
            raise ParameterError("symplectic map entries must be finite")
        object.__setattr__(self, "m", m)
        det = self.det
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
        if not all(map(math.isfinite, vals)):
            raise ParameterError("state moments must be finite")
        object.__setattr__(self, "mean", vals[:2])
        object.__setattr__(self, "var_p", vals[2])
        object.__setattr__(self, "var_x", vals[3])
        object.__setattr__(self, "cross", vals[4])
        if self.var_p <= 0.0 or self.var_x <= 0.0:
            raise ParameterError(
                f"variances must be positive, got var_p={self.var_p!r}, var_x={self.var_x!r}"
            )
        if self.det_cov < 0.25 - HEISENBERG_TOL:
            raise ParameterError(
                f"covariance violates the Heisenberg bound: det = {self.det_cov!r} < 1/4"
            )

    @property
    def cov(self) -> np.ndarray:
        """Covariance matrix in (p, x) ordering."""
        return np.array([[self.var_p, self.cross], [self.cross, self.var_x]])

    @property
    def det_cov(self) -> float:
        return self.var_p * self.var_x - self.cross * self.cross

    @classmethod
    def vacuum(cls) -> "GaussianState":
        return cls()


def thermal_occupancy(T: float, omega_m: float) -> float:
    """Mean phonon number of an oscillator at temperature ``T`` (kelvin).

    Evaluates the Bose factor 1/(e^{ħω/k_BT} - 1); T = 0 returns the
    analytic limit 0 without touching the exponential.
    """
    if omega_m <= 0.0 or not math.isfinite(omega_m):
        raise ParameterError(f"omega_m must be positive, got {omega_m!r}")
    if T < 0.0 or not math.isfinite(T):
        raise ParameterError(f"temperature must be non-negative, got {T!r}")
    if T == 0.0:
        return 0.0
    x = HBAR * omega_m / (K_BOLTZMANN * T)
    # e^{-x}/(1 - e^{-x}) == 1/(e^x - 1), stable for both tiny and huge x
    return math.exp(-x) / -math.expm1(-x)


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
    vp, vx, cx = state.var_p, state.var_x, state.cross
    # rows of M·cov, then their products with the rows of M
    rp, rpx = a * vp + b * cx, a * cx + b * vx
    rxp, rx = c * vp + d * cx, c * cx + d * vx
    return GaussianState(
        mean=(a * p + b * x, c * p + d * x),
        var_p=rp * a + rpx * b,
        var_x=rxp * c + rx * d,
        cross=0.5 * (rp * c + rpx * d + (rxp * a + rx * b)),
    )


def is_squeezed(state: GaussianState, threshold: float = VACUUM_VARIANCE) -> tuple[bool, bool]:
    """Return (x_squeezed, p_squeezed): variance strictly below ``threshold``."""
    if threshold <= 0.0:
        raise ParameterError(f"threshold must be positive, got {threshold!r}")
    return state.var_x < threshold, state.var_p < threshold


def free_x2_expectation(state: GaussianState, omega_m: float, t: float) -> float:
    """⟨x²⟩ of ``state`` after free harmonic evolution for time ``t``.

    Under the free rotation the position picks up the momentum moments:
    the result is a constant plus an oscillation at twice the mechanical
    frequency.  Equivalent to propagating with the free-evolution map and
    reading off var_x + x̄², written in closed form so it is cheap to call
    inside time-stepped integrations.
    """
    if omega_m <= 0.0:
        raise ParameterError(f"omega_m must be positive, got {omega_m!r}")
    p0, x0 = state.mean
    dc = 0.5 * (state.var_p + state.var_x + p0 * p0 + x0 * x0)
    amp_cos = 0.5 * (state.var_x - state.var_p + x0 * x0 - p0 * p0)
    amp_sin = state.cross + p0 * x0
    phase = 2.0 * omega_m * t
    return dc + amp_cos * math.cos(phase) + amp_sin * math.sin(phase)
