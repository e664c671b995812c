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
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError
from .state import GaussianState, free_x2_expectation

# Upper bound on the RK4 step count of one trace, checked before anything
# is allocated.
MAX_STEPS = 10**7
# Steps whose stage rates are held as Python complex numbers at one time.
CHUNK_STEPS = 8192
# The fixed probe of ``default_readout_config``: a resonant drive, a settle of
# SETTLE_FACTOR/kappa, then N_PERIODS modulation periods π/omega_m.
DRIVE_AMPLITUDE = 1e5   # s^-1
SETTLE_FACTOR = 40.0
N_PERIODS = 16


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
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ParameterError(f"{field.name} must be finite, got {value!r}")
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
        steps = (self.t_end - self.t_start) / self.dt
        if not steps <= MAX_STEPS:
            need = math.ceil(steps - 1e-9) if math.isfinite(steps) else steps
            raise ParameterError(
                f"time grid needs {need} RK4 steps, more than the limit of {MAX_STEPS}"
            )

    @property
    def n_steps(self) -> int:
        """Number of RK4 steps covering [t_start, t_end] at no more than ``dt`` each."""
        return max(1, math.ceil((self.t_end - self.t_start) / self.dt - 1e-9))


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


def baseline_intensity(config: ReadoutConfig) -> float:
    """Reference intensity |drive/(kappa + i·detuning)|² of the steady uncoupled field."""
    return abs(config.drive_amplitude / complex(config.kappa, config.detuning)) ** 2


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
    config: ReadoutConfig, x2_of_t: Callable[[np.ndarray], np.ndarray | float]
) -> ReadoutTrace:
    """Integrate the cavity amplitude equation with a fixed-step RK4 scheme.

    dc/dt = -(kappa + i·detuning + g·x²(t))·c + drive, starting from an
    empty cavity at t_start.  ``x2_of_t`` is called once for each of the
    three RK4 stage grids, with the numpy array of times t_k, t_k + h/2 and
    t_k + h (k = 0 … n_steps - 1); it returns x² there as an array or as a
    scalar that holds for every time.  The trace's ``inferred_x2`` column
    applies the literal steady-state expansion (baseline - I)·kappa/(2g·baseline);
    it is all zeros when the coupling is zero.  Deterministic given the config.

    Raises ``ParameterError`` when the step does not resolve the coupling
    rate g·x² with 20 points, i.e. h·g·max|x²| > 1/20: RK4 diverges there.
    """
    n_steps = config.n_steps
    h = (config.t_end - config.t_start) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    drive = complex(config.drive_amplitude)
    pole = complex(config.kappa, config.detuning)
    g = config.coupling

    times = config.t_start + np.arange(n_steps + 1) * h
    t_k = times[:-1]
    x2_grids = [
        np.broadcast_to(np.asarray(x2_of_t(t), dtype=float), t.shape)
        for t in (t_k, t_k + half, t_k + h)
    ]
    rate = h * g * max(float(np.max(np.abs(x2))) for x2 in x2_grids)
    if not rate <= 0.05:
        raise ParameterError(f"step too coarse for the coupling: h*g*max(x^2) = {rate!r} > 1/20")

    intensity = np.empty(n_steps + 1)
    intensity[0] = 0.0
    c = 0.0 + 0.0j
    for start in range(0, n_steps, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, n_steps)
        # -(pole + g·x²) at the three stages of each step, as Python complex
        r1s, r2s, r4s = ((-(pole + g * x2[start:stop])).tolist() for x2 in x2_grids)
        block = []
        for r1, r2, r4 in zip(r1s, r2s, r4s):
            k1 = r1 * c + drive
            k2 = r2 * (c + half * k1) + drive
            k3 = r2 * (c + half * k2) + drive
            k4 = r4 * (c + h * k3) + drive
            c = c + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            block.append(abs(c) ** 2)
        intensity[start + 1 : stop + 1] = block

    i0 = baseline_intensity(config)
    if g > 0.0:
        inferred = (i0 - intensity) * (config.kappa / (2.0 * g * i0))
    else:
        inferred = np.zeros_like(intensity)
    return ReadoutTrace(times=times, intensity=intensity, baseline=i0, inferred_x2=inferred)


def analyze_trace(trace: ReadoutTrace, config: ReadoutConfig, omega_m: float) -> RippleReport:
    """Fit dc + 2·omega_m quadratures to the steady part of an intensity trace.

    The analysis window is the largest whole number of π/omega_m periods
    that fits after the cavity transient (SETTLE_FACTOR/kappa) has decayed.
    The d.c. shift goes through ``infer_x2``, which needs a positive coupling.
    """
    if omega_m <= 0.0:
        raise ParameterError(f"omega_m must be positive, got {omega_m!r}")
    period = math.pi / omega_m
    settle = config.t_start + SETTLE_FACTOR / config.kappa
    periods = math.floor((config.t_end - settle) / period + 1e-9)
    if periods < 1:
        raise ParameterError(
            "trace too short: no full modulation period after the transient; "
            f"need t_end >= {settle + period!r}"
        )
    window_start = config.t_end - periods * period
    sel = trace.times >= window_start - 1e-15
    t = trace.times[sel]
    rel = trace.intensity[sel] / trace.baseline

    phase = 2.0 * omega_m * (t - t[0])
    design = np.column_stack([np.ones_like(t), np.cos(phase), np.sin(phase)])
    coef, *_ = np.linalg.lstsq(design, rel, rcond=None)
    dc, b, c = coef
    return RippleReport(
        dc_shift=infer_x2(dc, 1.0, config.coupling, config.kappa),
        ripple_amplitude=math.hypot(b, c),
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


def default_readout_config(kappa: float, coupling: float, omega_m: float) -> ReadoutConfig:
    """The fixed probe, on a grid resolving both the cavity and the signal.

    A resonant drive of DRIVE_AMPLITUDE runs SETTLE_FACTOR/kappa for the
    transient, then N_PERIODS modulation periods π/omega_m.  A coupling
    g <= 0 is rejected, since ``analyze_trace`` could not calibrate its trace.
    """
    if kappa <= 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa!r}")
    context = 2.0 * omega_m
    config = ReadoutConfig(
        drive_amplitude=DRIVE_AMPLITUDE,
        detuning=0.0,
        kappa=kappa,
        coupling=coupling,
        t_start=0.0,
        t_end=SETTLE_FACTOR / kappa + N_PERIODS * math.pi / omega_m,
        dt=1.0 / (20.0 * max(kappa, context)),
        context_frequency=context,
    )
    # after the grid's own checks, so a bad grid is still reported first
    if config.coupling <= 0.0:
        raise ParameterError("trace analysis needs a positive coupling")
    return config
