"""Weak-probe readout of the oscillator's position variance.

The cavity amplitude obeys dc/dt = -(kappa + i·detuning + g·x²(t))·c + drive.
In the large-kappa regime the output intensity tracks x²(t) instantaneously
and the mean intensity shift is (2g/kappa)·⟨x²⟩ of the baseline; the module
provides both that closed form and a brute-force fixed-step integration of
the amplitude equation that validates it and quantifies the residual ripple
at twice the mechanical frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError
from .state import GaussianState, free_x2_expectation


@dataclass(frozen=True)
class ReadoutConfig:
    """Probe drive, cavity, and integration-grid settings.

    ``context_frequency`` is the fastest angular frequency present in the
    x²(t) signal being probed (2·omega_m for a freely evolving state, 0 for
    a constant signal); the step size must resolve both it and the cavity
    relaxation with at least 20 points per characteristic time.
    """

    drive_amplitude: float   # s^-1
    detuning: float          # omega_c - omega_p, rad/s
    kappa: float             # s^-1
    coupling: float          # quadratic coupling g, s^-1
    t_start: float
    t_end: float
    dt: float
    context_frequency: float = 0.0

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise ParameterError(f"kappa must be positive, got {self.kappa!r}")
        if self.coupling < 0.0:
            raise ParameterError(f"coupling must be non-negative, got {self.coupling!r}")
        if self.dt <= 0.0:
            raise ParameterError(f"dt must be positive, got {self.dt!r}")
        if not self.t_end > self.t_start:
            raise ParameterError("t_end must exceed t_start")
        limit = 1.0 / (20.0 * max(self.kappa, self.context_frequency))
        if self.dt > limit * (1.0 + 1e-12):
            raise ParameterError(
                f"dt = {self.dt!r} too coarse: must be <= {limit!r} "
                "(20 points per fastest timescale)"
            )


class ReadoutTrace(NamedTuple):
    """Time series of cavity intensity with the inferred position variance."""

    times: np.ndarray
    intensity: np.ndarray
    baseline: float
    inferred_x2: np.ndarray


class RippleReport(NamedTuple):
    """Steady-trace summary.

    dc_shift: the d.c. intensity shift expressed through the readout
        calibration, i.e. the inferred mean ⟨x²⟩ over the analysis window.
    ripple_amplitude: amplitude of the intensity oscillation at twice the
        mechanical frequency, as a fraction of the baseline intensity.
    kappa_over_2omega: validity figure of the instantaneous-response regime.
    """

    dc_shift: float
    ripple_amplitude: float
    kappa_over_2omega: float


def steady_field(config: ReadoutConfig) -> complex:
    """Long-time limit of the zeroth-order cavity amplitude."""
    return config.drive_amplitude / complex(config.kappa, config.detuning)


def baseline_intensity(config: ReadoutConfig) -> float:
    """Reference intensity |steady zeroth-order field|²."""
    return abs(steady_field(config)) ** 2


def adiabatic_intensity(x2: float, config: ReadoutConfig) -> float:
    """Steady output intensity to first order: I0·(1 + (2g/kappa)·x²)."""
    return baseline_intensity(config) * (1.0 + 2.0 * config.coupling / config.kappa * x2)


def infer_x2(intensity: float, baseline: float, g: float, kappa: float) -> float:
    """Invert the first-order intensity shift back to ⟨x²⟩.

    Uses the magnitude of the fractional shift so the answer is independent
    of the sign convention of the first-order correction.
    """
    if baseline <= 0.0:
        raise ParameterError(f"baseline must be positive, got {baseline!r}")
    if g <= 0.0:
        raise ParameterError(f"coupling must be positive, got {g!r}")
    if kappa <= 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa!r}")
    return abs(intensity / baseline - 1.0) * kappa / (2.0 * g)


def integrate_langevin(
    config: ReadoutConfig, x2_of_t: Callable[[float], float]
) -> ReadoutTrace:
    """Integrate the cavity amplitude equation with a fixed-step RK4 scheme.

    dc/dt = -(kappa + i·detuning + g·x²(t))·c + drive, starting from an
    empty cavity at t_start.  The trace's ``inferred_x2`` column applies the
    literal steady-state expansion (baseline - I)·kappa/(2g·baseline); it is
    all zeros when the coupling is zero.  Deterministic given the config.
    """
    span = config.t_end - config.t_start
    n_steps = max(1, math.ceil(span / config.dt - 1e-9))
    h = span / n_steps
    drive = complex(config.drive_amplitude)
    pole = complex(config.kappa, config.detuning)
    g = config.coupling

    def deriv(t: float, c: complex) -> complex:
        return -(pole + g * x2_of_t(t)) * c + drive

    times = np.empty(n_steps + 1)
    intensity = np.empty(n_steps + 1)
    c = 0.0 + 0.0j
    times[0] = config.t_start
    intensity[0] = 0.0
    for k in range(n_steps):
        t = config.t_start + k * h
        k1 = deriv(t, c)
        k2 = deriv(t + 0.5 * h, c + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, c + 0.5 * h * k2)
        k4 = deriv(t + h, c + h * k3)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times[k + 1] = config.t_start + (k + 1) * h
        intensity[k + 1] = abs(c) ** 2

    i0 = baseline_intensity(config)
    if g > 0.0:
        inferred = (i0 - intensity) * (config.kappa / (2.0 * g * i0))
    else:
        inferred = np.zeros_like(intensity)
    return ReadoutTrace(times=times, intensity=intensity, baseline=i0, inferred_x2=inferred)


def analyze_trace(
    trace: ReadoutTrace, config: ReadoutConfig, omega_m: float, settle_factor: float = 40.0
) -> RippleReport:
    """Fit dc + 2·omega_m quadratures to the steady part of an intensity trace.

    The analysis window is the largest whole number of π/omega_m periods
    that fits after the cavity transient (settle_factor/kappa) has decayed.
    """
    if omega_m <= 0.0:
        raise ParameterError(f"omega_m must be positive, got {omega_m!r}")
    if config.coupling <= 0.0:
        raise ParameterError("trace analysis needs a positive coupling")
    period = math.pi / omega_m
    settle = config.t_start + settle_factor / config.kappa
    n_periods = math.floor((config.t_end - settle) / period + 1e-9)
    if n_periods < 1:
        raise ParameterError(
            "trace too short: no full modulation period after the transient; "
            f"need t_end >= {settle + period!r}"
        )
    window_start = config.t_end - n_periods * period
    sel = trace.times >= window_start - 1e-15
    t = trace.times[sel]
    rel = trace.intensity[sel] / trace.baseline

    phase = 2.0 * omega_m * (t - t[0])
    design = np.column_stack([np.ones_like(t), np.cos(phase), np.sin(phase)])
    coef, *_ = np.linalg.lstsq(design, rel, rcond=None)
    dc, b, c = coef
    dc_shift = abs(dc - 1.0) * config.kappa / (2.0 * config.coupling)
    ripple = math.hypot(b, c)
    return RippleReport(
        dc_shift=dc_shift,
        ripple_amplitude=ripple,
        kappa_over_2omega=config.kappa / (2.0 * omega_m),
    )


def ripple_report(config: ReadoutConfig, state: GaussianState, omega_m: float) -> RippleReport:
    """Probe a freely evolving state and summarize its intensity trace.

    Runs the amplitude integration with x²(t) following the state's free
    evolution from the probe switch-on, then extracts the mean shift (as
    inferred ⟨x²⟩) and the relative 2·omega_m ripple of the steady trace.
    """
    trace = integrate_langevin(
        config, lambda t: free_x2_expectation(state, omega_m, t - config.t_start)
    )
    return analyze_trace(trace, config, omega_m)


def default_readout_config(
    kappa: float,
    coupling: float,
    omega_m: float | None = None,
    drive_amplitude: float = 1e5,
    detuning: float = 0.0,
    settle_factor: float = 40.0,
    n_periods: int = 16,
) -> ReadoutConfig:
    """Deterministic probe settings resolving both the cavity and the signal.

    With ``omega_m`` given, the window covers ``n_periods`` modulation
    periods after the transient; otherwise it spans a further
    ``settle_factor``/kappa of relaxation.
    """
    if kappa <= 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa!r}")
    context = 0.0 if omega_m is None else 2.0 * omega_m
    dt = 1.0 / (20.0 * max(kappa, context))
    settle = settle_factor / kappa
    if omega_m is None:
        t_end = 2.0 * settle
    else:
        t_end = settle + n_periods * math.pi / omega_m
    return ReadoutConfig(
        drive_amplitude=drive_amplitude,
        detuning=detuning,
        kappa=kappa,
        coupling=coupling,
        t_start=0.0,
        t_end=t_end,
        dt=dt,
        context_frequency=context,
    )
