"""Pulse-kick and free-evolution maps, physical parameters, and schedules.

A "kick" is a short interval during which an intense intracavity pulse
stiffens the oscillator's spring constant from omega_m to
g_tilde = 2 g n_p + omega_m.  Kicks and free segments are symplectic maps;
dissipation segments are Gaussian thermal channels.  ``parse_schedule`` is
the schedule grammar; its defaults, an optimal kick and a quarter-period
wait, are the canonical protocol that the CLI and the planner both build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantViolation, ParameterError, QuadkickError
from .state import (
    HBAR,
    SPEED_OF_LIGHT,
    GaussianState,
    SymplecticMap,
    _dissipated,
    _propagated,
    thermal_occupancy,
)


# The range of each PhysicalParams field, in field order.  Every range is
# finite, and nan fails every comparison.
_FIELD_RANGES = {
    "g": lambda v: 0.0 <= v < math.inf,
    "omega_m": lambda v: 0.0 < v < math.inf,
    "n_p": lambda v: 0.0 <= v < math.inf,
    "kappa": lambda v: 0.0 < v < math.inf,
    "gamma": lambda v: 0.0 <= v < math.inf,
    "T": lambda v: 0.0 <= v < math.inf,
    "mass": lambda v: 0.0 < v < math.inf,
    "L": lambda v: 0.0 < v < math.inf,
    "wavelength": lambda v: 0.0 < v < math.inf,
    "R": lambda v: 0.0 <= v < 1.0,
}


def check_field(name: str, value: float) -> str | None:
    """The error text if ``value`` is out of the range of the field ``name``, else None."""
    return None if _FIELD_RANGES[name](value) else f"field {name}: value {value!r} is out of range"


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
        # the first failing field in field order is the one reported
        for name in _FIELD_RANGES:
            if error := check_field(name, getattr(self, name)):
                raise ParameterError(error)

    def occupancy(self) -> float:
        """Thermal occupancy of the bath at (T, omega_m)."""
        return thermal_occupancy(self.T, self.omega_m)


def effective_stiffness(g: float, n_p: float, omega_m: float) -> float:
    """Stiffened spring constant 2·g·n_p + omega_m during a pulse."""
    if not (g >= 0.0 and n_p >= 0.0 and omega_m > 0.0):
        raise ParameterError("effective stiffness needs g >= 0, n_p >= 0, omega_m > 0")
    g_tilde = 2.0 * g * n_p + omega_m
    if not math.isfinite(g_tilde):
        raise ParameterError(f"effective stiffness 2*g*n_p + omega_m overflows: {g_tilde!r}")
    return g_tilde


def coupling_from_physical(params: PhysicalParams) -> float:
    """Quadratic coupling rate from cavity geometry and membrane reflectivity.

    g = 2ħω²/(m·omega_m·L·c) · sqrt(R/(1-R)) with ω = 2πc/wavelength.
    """
    omega_opt = 2.0 * math.pi * SPEED_OF_LIGHT / params.wavelength
    denominator = params.mass * params.omega_m * params.L * SPEED_OF_LIGHT
    try:
        g = 2.0 * HBAR * omega_opt**2 / denominator * math.sqrt(params.R / (1.0 - params.R))
    except (OverflowError, ZeroDivisionError):
        g = math.inf
    if not math.isfinite(g):
        raise ParameterError(f"coupling from physical parameters is not finite: g = {g!r}")
    return g


def kick_matrix(g_tilde: float, omega_m: float, t: float) -> SymplecticMap:
    """Phase-space map of a pulse of duration ``t`` at stiffness ``g_tilde``.

    An elliptical rotation: at sqrt(g_tilde·omega_m)·t = π/2 the diagonal
    vanishes and the quadratures swap with reciprocal scale factors.
    """
    a, b, c, d = _kick_entries(g_tilde, omega_m, t)
    return SymplecticMap(((a, b), (c, d)))


def _kick_entries(g_tilde: float, omega_m: float, t: float) -> tuple[float, float, float, float]:
    """``kick_matrix``'s entries (a, b, c, d), not yet checked for a unit determinant."""
    if g_tilde <= 0.0 or omega_m <= 0.0:
        raise ParameterError("kick matrix needs g_tilde > 0 and omega_m > 0")
    if t < 0.0:
        raise ParameterError(f"kick duration must be non-negative, got {t!r}")
    theta = _finite_angle("kick", math.sqrt(g_tilde * omega_m) * t)
    c, s = math.cos(theta), math.sin(theta)
    ratio = g_tilde / omega_m
    if ratio == 0.0:
        raise ParameterError(f"kick matrix: g_tilde/omega_m = {g_tilde!r}/{omega_m!r} underflows")
    up = math.sqrt(ratio)
    return c, -up * s, s / up, c


def free_matrix(omega_m: float, tau: float) -> SymplecticMap:
    """Free harmonic evolution: rotation by omega_m·tau in (p, x)."""
    a, b, c, d = _free_entries(omega_m, tau)
    return SymplecticMap(((a, b), (c, d)))


def _free_entries(omega_m: float, tau: float) -> tuple[float, float, float, float]:
    """``free_matrix``'s entries (a, b, c, d), not yet checked for a unit determinant."""
    if omega_m <= 0.0:
        raise ParameterError(f"omega_m must be positive, got {omega_m!r}")
    if tau < 0.0:
        raise ParameterError(f"duration must be non-negative, got {tau!r}")
    theta = _finite_angle("free", omega_m * tau)
    c, s = math.cos(theta), math.sin(theta)
    return c, -s, s, c


def _finite_angle(kind: str, theta: float) -> float:
    if not math.isfinite(theta):
        raise ParameterError(f"{kind} rotation angle must be finite, got {theta!r}")
    return theta


def optimal_kick_duration(g_tilde: float, omega_m: float) -> float:
    """Pulse duration putting the kick at its antidiagonal point, π/(2√(g̃ω))."""
    if g_tilde <= 0.0 or omega_m <= 0.0:
        raise ParameterError("optimal duration needs g_tilde > 0 and omega_m > 0")
    root = math.sqrt(g_tilde * omega_m)
    if not 0.0 < root < math.inf:
        raise ParameterError(f"optimal duration: g_tilde*omega_m = {g_tilde * omega_m!r} out of range")
    return math.pi / (2.0 * root)


def quarter_period(omega_m: float) -> float:
    """A quarter of the mechanical period, π/(2·omega_m)."""
    if not omega_m > 0.0:
        raise ParameterError(f"omega_m must be positive, got {omega_m!r}")
    # 0.5·π is exact, so this is π/(2·omega_m) without 2·omega_m overflowing
    tau = 0.5 * math.pi / omega_m
    if tau == math.inf:
        raise ParameterError(f"quarter period overflows at omega_m = {omega_m!r}")
    return tau


@dataclass(frozen=True)
class _Timed:
    """A schedule segment's duration, non-negative and finite."""

    duration: float

    def __post_init__(self):
        if self.duration < 0.0 or not math.isfinite(self.duration):
            raise ParameterError(
                f"segment duration must be non-negative and finite, got {self.duration!r}"
            )


@dataclass(frozen=True)
class Kick(_Timed):
    """Pulse segment; ``n_p`` = None means use the schedule-wide photon number."""

    n_p: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.n_p is not None and (error := check_field("n_p", self.n_p)):
            raise ParameterError(error)

    kind = "kick"


@dataclass(frozen=True)
class Free(_Timed):
    kind = "free"


@dataclass(frozen=True)
class Dissipate(_Timed):
    kind = "dissipate"


Segment = Kick | Free | Dissipate


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered protocol of kick / free / dissipate segments."""

    segments: tuple[Segment, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        for seg in self.segments:
            if not isinstance(seg, (Kick, Free, Dissipate)):
                raise ParameterError(f"unknown segment type {type(seg).__name__}")


def parse_schedule(spec: str, params: PhysicalParams, with_dissipation: bool = False) -> PulseSchedule:
    """Build a schedule from the mini-grammar ``kick[:photons];free[:s];diss[:s]``.

    Omitted values fall back to the optimal kick duration and the quarter
    mechanical period.  ``with_dissipation`` inserts a thermal-contact
    segment of matching length after every free segment.
    """
    segments: list = []
    tau_default = quarter_period(params.omega_m)
    for pos, token in enumerate(t.strip() for t in spec.split(";")):
        if not token:
            continue
        kind, _, arg = token.partition(":")
        kind = kind.strip().lower()
        try:
            if kind == "kick":
                n_p = float(arg) if arg else None
                if n_p is not None and (error := check_field("n_p", n_p)):
                    raise ParameterError(error)
                g_tilde = effective_stiffness(
                    params.g, params.n_p if n_p is None else n_p, params.omega_m
                )
                segments.append(Kick(optimal_kick_duration(g_tilde, params.omega_m), n_p))
            elif kind == "free":
                duration = float(arg) if arg else tau_default
                segments.append(Free(duration))
                if with_dissipation:
                    segments.append(Dissipate(duration))
            elif kind == "diss":
                segments.append(Dissipate(float(arg) if arg else tau_default))
            else:
                raise ParameterError(f"unknown kind {kind!r}")
        except ValueError as exc:
            raise ParameterError(f"schedule segment {pos}: {exc}")
    return PulseSchedule(tuple(segments))


def apply_schedule(
    state: GaussianState, schedule: PulseSchedule, params: PhysicalParams
) -> list[tuple[int, GaussianState]]:
    """Fold ``state`` through the schedule, returning the state after every segment.

    The result always starts with (0, input state), the input object itself;
    entry (i, s) for i >= 1 is the state after ``schedule.segments[i - 1]``.
    An empty schedule returns the input state alone.  Dissipate segments
    couple to the bath at the params' temperature.  Each later state is built
    by the public ``GaussianState`` constructor from its row of ``_fold_rows``.

    The fold carries the moments as floats: each kick or free segment's map
    entries pass ``SymplecticMap``'s check and each result ``GaussianState``'s,
    with the IEEE operations of ``propagate`` and ``dissipate``.

    Raises
    ------
    InvariantViolation
        if a segment produces an invalid state; the message names the
        zero-based index and kind of the failing segment.
    """
    rows = _fold_rows(state, schedule, params)
    return [(0, state)] + [
        (i, GaussianState((p, x), var_p, var_x, cross))
        for i, (p, x, var_p, var_x, cross, _) in enumerate(rows[1:], 1)
    ]


def _fold_rows(
    state: GaussianState, schedule: PulseSchedule, params: PhysicalParams
) -> list[tuple[float, ...]]:
    """``apply_schedule``'s states as the rows (p, x, var_p, var_x, cross, det_cov) ``simulate`` writes."""
    omega_m, gamma = params.omega_m, params.gamma
    n_env = params.occupancy()
    check_map, check_state = SymplecticMap._check, GaussianState._check
    p, x = state.mean
    moments = (p, x, state.var_p, state.var_x, state.cross)
    rows = [(*moments, state.det_cov)]
    for i, seg in enumerate(schedule.segments):
        try:
            if isinstance(seg, Dissipate):
                moments = _dissipated(*moments, gamma, seg.duration, n_env)
            else:
                if isinstance(seg, Kick):
                    n_p = params.n_p if seg.n_p is None else seg.n_p
                    g_tilde = effective_stiffness(params.g, n_p, omega_m)
                    entries = _kick_entries(g_tilde, omega_m, seg.duration)
                else:
                    entries = _free_entries(omega_m, seg.duration)
                check_map(*entries)
                moments = _propagated(*entries, *moments)
            rows.append((*moments, check_state(*moments)))
        except QuadkickError as exc:
            raise InvariantViolation(
                f"segment {i} ({seg.kind}) produced an invalid state: {exc}"
            ) from exc
    return rows


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
    if tau < 0.0:
        raise ParameterError(f"duration must be non-negative, got {tau!r}")
    v0 = n_bar + 0.5
    theta = _finite_angle("free", omega_m * tau)
    c, s = math.cos(theta), math.sin(theta)
    ratio = g_tilde / omega_m
    if ratio * ratio == 0.0:
        raise ParameterError(f"two-pulse variance: (g_tilde/omega_m)^2 = {ratio!r}^2 underflows")
    var_p = (c * c + ratio * ratio * (s * s)) * v0
    var_x = (c * c + s * s / (ratio * ratio)) * v0
    if not (math.isfinite(var_p) and math.isfinite(var_x)):
        raise ParameterError(
            f"two-pulse variances are not finite: var_p = {var_p!r} and var_x = {var_x!r}"
        )
    return var_p, var_x
