"""Pulse-kick and free-evolution maps, physical parameters, and schedules.

A "kick" is a short interval during which an intense intracavity pulse
stiffens the oscillator's spring constant from omega_m to
g_tilde = 2 g n_p + omega_m.  Kicks and free segments are symplectic maps;
dissipation segments are Gaussian thermal channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .dissipation import dissipate
from .errors import InvariantViolation, ParameterError, QuadkickError
from .state import (
    HBAR,
    SPEED_OF_LIGHT,
    GaussianState,
    SymplecticMap,
    propagate,
    thermal_occupancy,
)


@dataclass(frozen=True)
class PhysicalParams:
    """All dimensional inputs of the setup.

    g: quadratic coupling rate, s^-1
    omega_m: mechanical angular frequency, rad/s
    n_p: mean pulse photon number
    kappa: cavity amplitude decay rate, s^-1
    gamma: mechanical energy dissipation rate, s^-1
    T: bath temperature, K
    mass: oscillator mass, kg
    L: cavity length, m
    wavelength: optical wavelength, m (config key "lambda")
    R: membrane reflectivity, in [0, 1)
    """

    g: float = 1e-4
    omega_m: float = 1e6
    n_p: float = 1e11
    kappa: float = 1e7
    gamma: float = 0.1
    T: float = 1e-4
    mass: float = 1e-12
    L: float = 0.067
    wavelength: float = 532e-9
    R: float = 0.4

    def __post_init__(self):
        checks = [
            ("g", self.g >= 0.0),
            ("omega_m", self.omega_m > 0.0),
            ("n_p", self.n_p >= 0.0),
            ("kappa", self.kappa > 0.0),
            ("gamma", self.gamma >= 0.0),
            ("T", self.T >= 0.0),
            ("mass", self.mass > 0.0),
            ("L", self.L > 0.0),
            ("wavelength", self.wavelength > 0.0),
            ("R", 0.0 <= self.R < 1.0),
        ]
        for name, ok in checks:
            value = getattr(self, name)
            if not ok or not math.isfinite(value):
                raise ParameterError(f"field {name}: value {value!r} is out of range")

    def occupancy(self) -> float:
        """Thermal occupancy of the bath at (T, omega_m)."""
        return thermal_occupancy(self.T, self.omega_m)


def effective_stiffness(g: float, n_p: float, omega_m: float) -> float:
    """Stiffened spring constant 2·g·n_p + omega_m during a pulse."""
    if g < 0.0 or n_p < 0.0 or omega_m <= 0.0:
        raise ParameterError("effective stiffness needs g >= 0, n_p >= 0, omega_m > 0")
    return 2.0 * g * n_p + omega_m


def coupling_from_physical(params: PhysicalParams) -> float:
    """Quadratic coupling rate from cavity geometry and membrane reflectivity.

    g = 2ħω²/(m·omega_m·L·c) · sqrt(R/(1-R)) with ω = 2πc/wavelength.
    """
    omega_opt = 2.0 * math.pi * SPEED_OF_LIGHT / params.wavelength
    prefactor = 2.0 * HBAR * omega_opt**2 / (params.mass * params.omega_m * params.L * SPEED_OF_LIGHT)
    return prefactor * math.sqrt(params.R / (1.0 - params.R))


def kick_matrix(g_tilde: float, omega_m: float, t: float) -> SymplecticMap:
    """Phase-space map of a pulse of duration ``t`` at stiffness ``g_tilde``.

    An elliptical rotation: at sqrt(g_tilde·omega_m)·t = π/2 the diagonal
    vanishes and the quadratures swap with reciprocal scale factors.
    """
    if g_tilde <= 0.0 or omega_m <= 0.0:
        raise ParameterError("kick matrix needs g_tilde > 0 and omega_m > 0")
    if t < 0.0:
        raise ParameterError(f"kick duration must be non-negative, got {t!r}")
    theta = _finite_angle("kick", math.sqrt(g_tilde * omega_m) * t)
    c, s = math.cos(theta), math.sin(theta)
    up = math.sqrt(g_tilde / omega_m)
    return SymplecticMap(((c, -up * s), (s / up, c)))


def free_matrix(omega_m: float, tau: float) -> SymplecticMap:
    """Free harmonic evolution: rotation by omega_m·tau in (p, x)."""
    if omega_m <= 0.0:
        raise ParameterError(f"omega_m must be positive, got {omega_m!r}")
    if tau < 0.0:
        raise ParameterError(f"duration must be non-negative, got {tau!r}")
    theta = _finite_angle("free", omega_m * tau)
    c, s = math.cos(theta), math.sin(theta)
    return SymplecticMap(((c, -s), (s, c)))


def _finite_angle(kind: str, theta: float) -> float:
    if not math.isfinite(theta):
        raise ParameterError(f"{kind} rotation angle must be finite, got {theta!r}")
    return theta


def optimal_kick_duration(g_tilde: float, omega_m: float) -> float:
    """Pulse duration putting the kick at its antidiagonal point, π/(2√(g̃ω))."""
    if g_tilde <= 0.0 or omega_m <= 0.0:
        raise ParameterError("optimal duration needs g_tilde > 0 and omega_m > 0")
    return math.pi / (2.0 * math.sqrt(g_tilde * omega_m))


def quarter_period(omega_m: float) -> float:
    """A quarter of the mechanical period, π/(2·omega_m)."""
    if omega_m <= 0.0:
        raise ParameterError(f"omega_m must be positive, got {omega_m!r}")
    return math.pi / (2.0 * omega_m)


@dataclass(frozen=True)
class Kick:
    """Pulse segment; ``n_p`` = None means use the schedule-wide photon number."""

    duration: float
    n_p: float | None = None

    def __post_init__(self):
        _check_duration(self.duration)
        if self.n_p is not None and (self.n_p < 0.0 or not math.isfinite(self.n_p)):
            raise ParameterError(f"kick photon number must be non-negative, got {self.n_p!r}")

    kind = "kick"


@dataclass(frozen=True)
class Free:
    duration: float

    def __post_init__(self):
        _check_duration(self.duration)

    kind = "free"


@dataclass(frozen=True)
class Dissipate:
    duration: float

    def __post_init__(self):
        _check_duration(self.duration)

    kind = "dissipate"


Segment = Kick | Free | Dissipate


def _check_duration(d: float):
    if d < 0.0 or not math.isfinite(d):
        raise ParameterError(f"segment duration must be non-negative and finite, got {d!r}")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered protocol of kick / free / dissipate segments."""

    segments: tuple[Segment, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        for seg in self.segments:
            if not isinstance(seg, (Kick, Free, Dissipate)):
                raise ParameterError(f"unknown segment type {type(seg).__name__}")


def fold(
    state: GaussianState, segments: Iterable[Segment], params: PhysicalParams, n_env: float
) -> Iterator[GaussianState]:
    """Yield the state after each segment, folding ``state`` through ``segments``.

    Dissipate segments couple to a bath at occupancy ``n_env``.  The fold is
    lazy: a consumer may stop early and later segments are never evaluated.

    Raises
    ------
    InvariantViolation
        if a segment produces an invalid state; ``segment_index`` is the
        zero-based index of the failing segment.
    """
    for i, seg in enumerate(segments):
        try:
            if isinstance(seg, Kick):
                n_p = params.n_p if seg.n_p is None else seg.n_p
                g_tilde = effective_stiffness(params.g, n_p, params.omega_m)
                state = propagate(state, kick_matrix(g_tilde, params.omega_m, seg.duration))
            elif isinstance(seg, Free):
                state = propagate(state, free_matrix(params.omega_m, seg.duration))
            else:
                state = dissipate(state, params.gamma, seg.duration, n_env)
        except QuadkickError as exc:
            raise InvariantViolation(
                f"segment {i} ({seg.kind}) produced an invalid state: {exc}",
                segment_index=i,
            ) from exc
        yield state


def apply_schedule(
    state: GaussianState, schedule: PulseSchedule, params: PhysicalParams
) -> list[tuple[int, GaussianState]]:
    """Fold ``state`` through the schedule, returning the state after every segment.

    The result always starts with (0, input state); entry (i, s) for i >= 1
    is the state after ``schedule.segments[i - 1]``.  An empty schedule
    returns the input state alone.  Dissipate segments couple to the bath
    at the params' temperature.  Raises ``InvariantViolation`` as ``fold``.
    """
    return list(enumerate([state, *fold(state, schedule.segments, params, params.occupancy())]))


def two_pulse_variance(
    tau: float, g_tilde: float, omega_m: float, n_bar: float
) -> tuple[float, float]:
    """Closed-form quadrature variances after kick / free(tau) / kick.

    Both kicks are at their antidiagonal point; the oscillator starts in a
    thermal state with occupancy ``n_bar``.  Returns (var_p, var_x):

        var_p = (cos²ωτ + (g̃/ω)²·sin²ωτ)·(n̄ + 1/2)
        var_x = (cos²ωτ + (ω/g̃)²·sin²ωτ)·(n̄ + 1/2)
    """
    if g_tilde <= 0.0 or omega_m <= 0.0:
        raise ParameterError("two-pulse variance needs g_tilde > 0 and omega_m > 0")
    if n_bar < 0.0:
        raise ParameterError(f"occupancy must be non-negative, got {n_bar!r}")
    v0 = n_bar + 0.5
    theta = _finite_angle("free", omega_m * tau)
    c, s = math.cos(theta), math.sin(theta)
    ratio = g_tilde / omega_m
    var_p = (c * c + ratio * ratio * (s * s)) * v0
    var_x = (c * c + s * s / (ratio * ratio)) * v0
    if not (math.isfinite(var_p) and math.isfinite(var_x)):
        raise ParameterError(
            f"two-pulse variances are not finite: var_p = {var_p!r} and var_x = {var_x!r}"
        )
    return var_p, var_x
