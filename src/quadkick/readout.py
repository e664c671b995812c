"""Weak-probe readout of the oscillator's position variance.

The probe is resonant: the cavity amplitude obeys
dc/dt = -(kappa + g·x²(t))·c + drive, switched on at t = 0.  In the
large-kappa regime the output intensity tracks x²(t) instantaneously and the
mean intensity falls by (2g/kappa)·⟨x²⟩ of the baseline; the module provides
both that closed form and a brute-force fixed-step RK4 integration of the
amplitude equation that validates it and quantifies the residual ripple at
twice the mechanical frequency.

The integration runs in the real deviation u = c/c0 - 1 from the uncoupled
steady field c0 = drive/kappa, so the tiny shift is carried by u itself
rather than left as the difference of two nearly equal intensities.  Each
RK4 step of du/dt = -(kappa + g·x²)·u - g·x² is exactly u' = a·u + b; the a
and b of all steps are built with numpy and the recurrence is solved as a
blocked prefix scan (G. Blelloch, "Prefix sums and their applications",
CMU-CS-90-190, 1990).
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
# Steps whose step coefficients are held as numpy arrays at one time, which
# keeps the temporaries of a long trace small.
CHUNK_STEPS = 8192
# Steps of one run of the scan: the running product of the step factors a,
# each about e^(-h·kappa) >= e^(-1/10), stays far from underflow over a run.
RUN_STEPS = 64
# The fixed probe: a resonant drive of DRIVE_AMPLITUDE switched on at t = 0, a
# settle of SETTLE_FACTOR/kappa, then (``default_readout_config``) N_PERIODS
# modulation periods π/omega_m.
DRIVE_AMPLITUDE = 1e5   # s^-1
SETTLE_FACTOR = 40.0
N_PERIODS = 16


@dataclass(frozen=True)
class ReadoutConfig:
    """Cavity and integration-grid settings of the resonant probe, run from 0 to ``t_end``.

    ``context_frequency`` is the fastest angular frequency present in the
    x²(t) signal being probed (2·omega_m for a freely evolving state, 0 for
    a constant signal); the step size must resolve both it and the cavity
    relaxation with at least 20 points per characteristic time.  The
    coupling must be positive with a finite calibration kappa/(2g): the
    intensity shift that carries ⟨x²⟩ exists only through it.
    """

    kappa: float             # s^-1
    coupling: float          # quadratic coupling g, s^-1
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
        if self.dt <= 0.0:
            raise ParameterError(f"dt must be positive, got {self.dt!r}")
        if not self.t_end > 0.0:
            raise ParameterError(f"t_end must be positive, got {self.t_end!r}")
        limit = 1.0 / (20.0 * max(self.kappa, self.context_frequency))
        if self.dt > limit * (1.0 + 1e-12):
            raise ParameterError(
                f"dt = {self.dt!r} too coarse: must be <= {limit!r} "
                "(20 points per fastest timescale)"
            )
        steps = self.t_end / self.dt
        if not steps <= MAX_STEPS:
            need = math.ceil(steps - 1e-9) if math.isfinite(steps) else steps
            raise ParameterError(
                f"time grid needs {need} RK4 steps, more than the limit of {MAX_STEPS}"
            )
        # after the grid's own checks, so a bad grid is still reported first
        if self.coupling <= 0.0:
            raise ParameterError("trace analysis needs a positive coupling")
        calibration = self.kappa / (2.0 * self.coupling)
        if not math.isfinite(calibration):
            raise ParameterError(
                f"coupling g = {self.coupling!r} too small: calibration kappa/(2g) = "
                f"{calibration!r}"
            )

    @property
    def n_steps(self) -> int:
        """Number of RK4 steps covering [0, t_end] at no more than ``dt`` each."""
        return max(1, math.ceil(self.t_end / self.dt - 1e-9))


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
    """Reference intensity (drive/kappa)² of the steady uncoupled field."""
    return (DRIVE_AMPLITUDE / config.kappa) ** 2


def adiabatic_intensity(x2: float, config: ReadoutConfig) -> float:
    """Steady output intensity to first order: I0·(1 - (2g/kappa)·x²).

    The coupling g·x² adds to the cavity damping of the resonant probe, so
    the steady intensity I0·kappa²/(kappa + g·x²)² lies below I0.
    """
    return baseline_intensity(config) * (1.0 - 2.0 * config.coupling / config.kappa * x2)


def infer_x2(intensity: float, baseline: float, g: float, kappa: float) -> float:
    """Invert the first-order intensity shift back to ⟨x²⟩: (1 - I/I0)·kappa/(2g)."""
    if baseline <= 0.0:
        raise ParameterError(f"baseline must be positive, got {baseline!r}")
    if g <= 0.0:
        raise ParameterError(f"coupling must be positive, got {g!r}")
    if kappa <= 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa!r}")
    return (1.0 - intensity / baseline) * kappa / (2.0 * g)


def _step_coefficients(
    s1: np.ndarray, s2: np.ndarray, s4: np.ndarray, kappa: float, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """a and b of each RK4 step u' = a·u + b of du/dt = (s - kappa)·u + s.

    ``s1``, ``s2`` and ``s4`` hold s = -g·x² at the start, the middle and
    the end of each step.  The RK4 stages are linear in u: the stages of
    u = 1 without the source give a, those of u = 0 give b.
    """
    half = 0.5 * h
    r1, r2, r4 = s1 - kappa, s2 - kappa, s4 - kappa
    a2 = r2 * (1.0 + half * r1)
    a3 = r2 * (1.0 + half * a2)
    a4 = r4 * (1.0 + h * a3)
    b2 = r2 * (half * s1) + s2
    b3 = r2 * (half * b2) + s2
    b4 = r4 * (h * b3) + s4
    sixth = h / 6.0
    return 1.0 + sixth * (r1 + 2.0 * a2 + 2.0 * a3 + a4), sixth * (s1 + 2.0 * b2 + 2.0 * b3 + b4)


def _scan(a: np.ndarray, b: np.ndarray, u0: float) -> np.ndarray:
    """u_1 … u_n of the recurrence u_{k+1} = a_k·u_k + b_k from u_0 = ``u0``.

    Inside each run of RUN_STEPS steps, u_{k+1} = P_k·(u_start + Σ_{j<=k} b_j/P_j)
    with P_k the running product of a over the run; one sequential pass
    carries u from the end of each run to the start of the next.
    """
    n = len(a)
    pad = -n % RUN_STEPS
    if pad:
        a = np.concatenate((a, np.ones(pad)))
        b = np.concatenate((b, np.zeros(pad)))
    prod = np.cumprod(a.reshape(-1, RUN_STEPS), axis=1)
    # b·(1/P), not b/P: the two round differently, and the trace goldens hold b·(1/P)
    acc = np.cumsum(b.reshape(-1, RUN_STEPS) * (1.0 / prod), axis=1)
    starts = []
    u = u0
    for p, s in zip(prod[:, -1].tolist(), acc[:, -1].tolist()):
        starts.append(u)
        u = p * (u + s)
    return (prod * (np.array(starts)[:, None] + acc)).ravel()[:n]


def integrate_langevin(
    config: ReadoutConfig, x2_of_t: Callable[[np.ndarray], np.ndarray | float]
) -> ReadoutTrace:
    """Integrate the cavity amplitude equation with a fixed-step RK4 scheme.

    dc/dt = -(kappa + g·x²(t))·c + drive, starting from an empty cavity at
    t = 0, integrated as the real deviation u = c/c0 - 1 from the uncoupled
    steady field c0 = drive/kappa (u = -1 at t = 0).  ``x2_of_t`` is called
    once for each of the three RK4 stage grids, with the numpy array of
    times t_k, t_k + h/2 and t_k + h (k = 0 … n_steps - 1); it returns x²
    there as an array or as a scalar that holds for every time.  The trace's
    ``inferred_x2`` column is the literal steady-state expansion
    (1 - I/I0)·kappa/(2g), taken from I/I0 - 1 = 2·u + u² without
    cancellation.  Deterministic given the config.

    Raises ``ParameterError`` when the step does not resolve the coupling
    rate g·x² with 20 points, i.e. h·g·max|x²| > 1/20: RK4 diverges there;
    and when any trace value is not finite.
    """
    n_steps = config.n_steps
    h = config.t_end / n_steps
    g = config.coupling
    times = np.arange(n_steps + 1) * h
    t_k = times[:-1]
    x2_grids = [
        np.broadcast_to(np.asarray(x2_of_t(t), dtype=float), t.shape)
        for t in (t_k, t_k + 0.5 * h, t_k + h)
    ]
    rate = h * g * max(float(np.max(np.abs(x2))) for x2 in x2_grids)
    if not rate <= 0.05:
        raise ParameterError(f"step too coarse for the coupling: h*g*max(x^2) = {rate!r} > 1/20")

    # I/I0 = (1 + u)², and I/I0 - 1 = 2·u + u² keeps the digits of a small u
    intensity = np.empty(n_steps + 1)
    shift = np.empty(n_steps + 1)
    intensity[0], shift[0] = 0.0, -1.0
    u = -1.0
    for start in range(0, n_steps, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, n_steps)
        a, b = _step_coefficients(*(-g * x2[start:stop] for x2 in x2_grids), config.kappa, h)
        block = _scan(a, b, u)
        u = float(block[-1])
        intensity[start + 1 : stop + 1] = (1.0 + block) ** 2
        shift[start + 1 : stop + 1] = 2.0 * block + block * block

    i0 = baseline_intensity(config)
    intensity *= i0
    inferred = shift * -(config.kappa / (2.0 * g))
    if not (np.isfinite(intensity).all() and np.isfinite(inferred).all()):
        raise ParameterError("readout trace is not finite")
    return ReadoutTrace(times=times, intensity=intensity, baseline=i0, inferred_x2=inferred)


def analyze_trace(trace: ReadoutTrace, config: ReadoutConfig, omega_m: float) -> RippleReport:
    """Fit dc + 2·omega_m quadratures to the steady part of a trace.

    The analysis window is the largest whole number of π/omega_m periods
    that fits after the cavity transient (SETTLE_FACTOR/kappa) has decayed.
    The fit runs on the ``inferred_x2`` column, so its d.c. term is the
    inferred ⟨x²⟩ and its ripple, scaled back by 2g/kappa, the relative
    intensity ripple.  Raises ``ParameterError`` when the relative shift
    2g·|dc|/kappa is not above the transient e^(-SETTLE_FACTOR) left in the
    window, which the calibration would pass off as ⟨x²⟩.
    """
    if not 0.0 < omega_m < math.inf:
        raise ParameterError(f"omega_m must be positive and finite, got {omega_m!r}")
    period = math.pi / omega_m
    settle = SETTLE_FACTOR / config.kappa
    periods = math.floor((config.t_end - settle) / period + 1e-9)
    if periods < 1:
        raise ParameterError(
            "trace too short: no full modulation period after the transient; "
            f"need t_end >= {settle + period!r}"
        )
    window_start = config.t_end - periods * period
    sel = trace.times >= window_start - 1e-15
    t = trace.times[sel]

    phase = 2.0 * omega_m * (t - t[0])
    design = np.column_stack([np.ones_like(t), np.cos(phase), np.sin(phase)])
    coef, *_ = np.linalg.lstsq(design, trace.inferred_x2[sel], rcond=None)
    dc, b, c = coef.tolist()
    shift = 2.0 * config.coupling * abs(dc) / config.kappa
    if not shift > math.exp(-SETTLE_FACTOR):
        raise ParameterError(
            f"coupling g = {config.coupling!r} too small: relative shift 2g*|dc|/kappa = "
            f"{shift!r} is not above the residual transient exp(-{SETTLE_FACTOR:g})"
        )
    return RippleReport(
        dc_shift=dc,
        ripple_amplitude=math.hypot(b, c) * (2.0 * config.coupling / config.kappa),
        kappa_over_2omega=config.kappa / (2.0 * omega_m),
    )


def ripple_report(config: ReadoutConfig, state: GaussianState, omega_m: float) -> RippleReport:
    """Probe a freely evolving state and summarize its intensity trace.

    Runs the amplitude integration with x²(t) following the state's free
    evolution from the probe switch-on, then extracts the mean shift (as
    inferred ⟨x²⟩) and the relative 2·omega_m ripple of the steady trace.
    """
    trace = integrate_langevin(config, lambda t: free_x2_expectation(state, omega_m, t))
    return analyze_trace(trace, config, omega_m)


def default_readout_config(kappa: float, coupling: float, omega_m: float) -> ReadoutConfig:
    """The fixed probe, on a grid resolving both the cavity and the signal.

    A resonant drive of DRIVE_AMPLITUDE runs SETTLE_FACTOR/kappa for the
    transient, then N_PERIODS modulation periods π/omega_m.
    """
    if not 0.0 < kappa < math.inf:
        raise ParameterError(f"kappa must be positive and finite, got {kappa!r}")
    if not 0.0 < omega_m < math.inf:
        raise ParameterError(f"omega_m must be positive and finite, got {omega_m!r}")
    t_end = SETTLE_FACTOR / kappa + N_PERIODS * math.pi / omega_m
    if t_end == math.inf:
        raise ParameterError(
            f"probe window {SETTLE_FACTOR:g}/kappa + {N_PERIODS}*pi/omega_m overflows "
            f"at kappa = {kappa!r}, omega_m = {omega_m!r}"
        )
    context = 2.0 * omega_m
    return ReadoutConfig(
        kappa=kappa,
        coupling=coupling,
        t_end=t_end,
        dt=1.0 / (20.0 * max(kappa, context)),
        context_frequency=context,
    )
