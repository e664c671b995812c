"""Weak-probe readout of the oscillator's position variance.

The probe is resonant and fixed: the cavity amplitude obeys
dc/dt = -(kappa + g·x²(t))·c + drive, switched on at t = 0, and
``ReadoutConfig(kappa, coupling, omega_m)`` derives the window and the step of
its grid from kappa and omega_m.  In the large-kappa regime the output
intensity tracks x²(t) instantaneously and the mean intensity falls by
(2g/kappa)·⟨x²⟩ of the baseline; the module provides both that closed form
and a brute-force fixed-step RK4 integration of the amplitude equation that
validates it and quantifies the residual ripple at twice the mechanical
frequency.

The probed signal is one harmonic, x²(t) = dc + a·cos 2ω_m·t + b·sin 2ω_m·t,
passed as the triple (dc, a, b): a snapshot is (var_x, 0, 0), a freely
evolving state gives ``state.free_x2_harmonics``.  Its cos/sin on an evenly
spaced grid come from angle addition over two short tables, one of coarse
and one of fine angles, each evaluated once by numpy, not from a numpy call
per sample.

The integration runs in the real deviation u = c/c0 - 1 from the uncoupled
steady field c0 = drive/kappa, so the tiny shift is carried by u itself
rather than left as the difference of two nearly equal intensities.  Each
RK4 step of du/dt = -(kappa + g·x²)·u - g·x² is exactly u' = a·u + b; the a
and b of all steps are built with numpy from x² on the half-step grid
j·h/2, and the recurrence is solved as a blocked prefix scan (G. Blelloch,
"Prefix sums and their applications", CMU-CS-90-190, 1990).  A trace carries
the probe it was integrated on, and the fit of its steady part reads its
window from there: it solves the 3×3 normal equations of dc and the two
quadratures, with the phase taken from the probe switch-on t = 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple

from .errors import ParameterError

if TYPE_CHECKING:
    import numpy as np

# Upper bound on the RK4 step count of one trace, checked before anything
# is allocated.
MAX_STEPS = 10**7
# Steps whose step coefficients are held as numpy arrays at one time, which
# keeps the temporaries of a long trace small.
CHUNK_STEPS = 8192
# Fine angles of the angle-addition tables: a power of 2 that divides
# 2·CHUNK_STEPS, so every half-step index j = q·FINE_ANGLES + i splits into the
# same coarse q and fine i whichever block it falls in.
FINE_ANGLES = 128
# Steps of one run of the scan: the running product of the step factors a,
# each about e^(-h·kappa) >= e^(-1/10), stays far from underflow over a run.
RUN_STEPS = 64
# The fixed probe: a resonant drive of DRIVE_AMPLITUDE switched on at t = 0, a
# settle of SETTLE_FACTOR/kappa, then N_PERIODS modulation periods π/omega_m.
DRIVE_AMPLITUDE = 1e5   # s^-1
SETTLE_FACTOR = 40.0
N_PERIODS = 16


@dataclass(frozen=True)
class ReadoutConfig:
    """The fixed resonant probe of an oscillator at ``omega_m``.

    Every readout function reads kappa, g and omega_m from here, where they
    are checked once.  The grid follows from kappa and omega_m: the probe runs
    from 0 to ``t_end``, a settle of SETTLE_FACTOR/kappa for the cavity
    transient, then N_PERIODS modulation periods π/omega_m, in steps of at
    most ``dt``, 20 points per the faster of 1/kappa and 1/(2·omega_m).
    The coupling must be positive with a finite calibration kappa/(2g): the
    intensity shift that carries ⟨x²⟩ exists only through it.  The baseline
    (drive/kappa)² must be a normal double, which rejects kappa below ~7.46e-150
    and above ~6.7e158.
    """

    kappa: float             # s^-1
    coupling: float          # quadratic coupling g, s^-1
    omega_m: float           # mechanical frequency, rad/s

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ParameterError(f"{field.name} must be finite, got {value!r}")
        if self.kappa <= 0.0:
            raise ParameterError(f"kappa must be positive, got {self.kappa!r}")
        if self.omega_m <= 0.0:
            raise ParameterError(f"omega_m must be positive, got {self.omega_m!r}")
        if self.t_end == math.inf:
            raise ParameterError(
                f"probe window {SETTLE_FACTOR:g}/kappa + {N_PERIODS}*pi/omega_m overflows "
                f"at kappa = {self.kappa!r}, omega_m = {self.omega_m!r}"
            )
        # 1/(20·max(…)) is 0.0 exactly where 20·max(…) overflows to inf
        if self.dt == 0.0:
            raise ParameterError(
                f"step 1/(20*max(kappa, 2*omega_m)) underflows to 0 "
                f"at kappa = {self.kappa!r}, omega_m = {self.omega_m!r}"
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
        # last, so every earlier check keeps its message; ** raises OverflowError
        # where the square overflows, and returns inf where drive/kappa already is
        try:
            baseline = baseline_intensity(self)
        except OverflowError:
            baseline = math.inf
        if not math.isfinite(baseline):
            raise ParameterError(
                f"kappa = {self.kappa!r} too small: baseline intensity (drive/kappa)^2 = "
                f"{baseline!r} is not finite"
            )
        if baseline < sys.float_info.min:
            raise ParameterError(
                f"kappa = {self.kappa!r} too large: baseline intensity (drive/kappa)^2 = "
                f"{baseline!r} is below the smallest normal double"
            )

    @property
    def t_end(self) -> float:
        """End of the probe window: the settle, then N_PERIODS periods π/omega_m."""
        return SETTLE_FACTOR / self.kappa + N_PERIODS * math.pi / self.omega_m

    @property
    def dt(self) -> float:
        """Largest step: 20 points per 1/kappa and per 1/(2·omega_m)."""
        return 1.0 / (20.0 * max(self.kappa, 2.0 * self.omega_m))

    @property
    def n_steps(self) -> int:
        """Number of RK4 steps covering [0, t_end] at no more than ``dt`` each."""
        return max(1, math.ceil(self.t_end / self.dt - 1e-9))

    @property
    def step(self) -> float:
        """The grid's actual step: ``t_end`` in ``n_steps`` equal steps."""
        return self.t_end / self.n_steps


class ReadoutTrace(NamedTuple):
    """Time series of cavity intensity with the inferred position variance, on
    the grid of the probe ``config``, at baseline ``baseline_intensity(config)``."""

    times: np.ndarray
    intensity: np.ndarray
    inferred_x2: np.ndarray
    config: ReadoutConfig


class RippleReport(NamedTuple):
    """Steady-trace summary.

    dc_shift: the d.c. intensity shift expressed through the readout
        calibration, i.e. the inferred mean ⟨x²⟩ over the analysis window.
    ripple_amplitude: amplitude of the intensity oscillation at twice the
        mechanical frequency, as a fraction of the baseline intensity.
    """

    dc_shift: float
    ripple_amplitude: float


def baseline_intensity(config: ReadoutConfig) -> float:
    """Reference intensity (drive/kappa)² of the steady uncoupled field."""
    return (DRIVE_AMPLITUDE / config.kappa) ** 2


def adiabatic_intensity(x2: float, config: ReadoutConfig) -> float:
    """Steady output intensity to first order: I0·(1 - (2g/kappa)·x²).

    The coupling g·x² adds to the cavity damping of the resonant probe, so
    the steady intensity I0·kappa²/(kappa + g·x²)² lies below I0.
    """
    return baseline_intensity(config) * (1.0 - 2.0 * config.coupling / config.kappa * x2)


def infer_x2(intensity: float, config: ReadoutConfig) -> float:
    """Invert the first-order intensity shift back to ⟨x²⟩: (1 - I/I0)·kappa/(2g)."""
    return (1.0 - intensity / baseline_intensity(config)) * config.kappa / (2.0 * config.coupling)


def _step_coefficients(
    s1: np.ndarray, s2: np.ndarray, s4: np.ndarray, kappa: float, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """a and b of each RK4 step u' = a·u + b of du/dt = (s - kappa)·u + s.

    ``s1``, ``s2`` and ``s4`` are arrays of s = -g·x² at the start, the
    middle and the end of each step.  The RK4 stages are linear in u: the
    stages of u = 1 without the source give a, those of u = 0 give b.
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


def _scan(a: np.ndarray, b: np.ndarray, u0: float, runs: int) -> np.ndarray:
    """u_1 … u_n of the recurrence u_{k+1} = a_k·u_k + b_k from u_0 = ``u0``.

    ``a`` and ``b`` hold ``runs`` whole runs of RUN_STEPS steps, or one run
    that stands for every run, as each run of a constant x² does.  Inside each
    run, u_{k+1} = P_k·(u_start + Σ_{j<=k} b_j/P_j) with P_k the running
    product of a over the run; one sequential pass carries u from the end of
    each run to the start of the next.  Both are prefix operations, so steps
    padded past the trace's end leave its values as they are.
    """
    import numpy as np

    prod = np.cumprod(a.reshape(-1, RUN_STEPS), axis=1)
    # b·(1/P), not b/P: the two round differently, and the trace goldens hold b·(1/P)
    acc = np.cumsum(b.reshape(-1, RUN_STEPS) * (1.0 / prod), axis=1)
    repeat = runs // len(prod)
    starts = []
    u = u0
    for p, s in zip(prod[:, -1].tolist() * repeat, acc[:, -1].tolist() * repeat):
        starts.append(u)
        u = p * (u + s)
    return (prod * (np.array(starts)[:, None] + acc)).ravel()


def _phasors(start: int, count: int, step: float) -> np.ndarray:
    """e^(i·j·``step``) = cos + i·sin of j·step, j = ``start`` … ``start + count - 1``.

    Each j = q·FINE_ANGLES + i is split into a coarse angle (q·FINE_ANGLES)·step
    and a fine angle i·step, and the two are joined by angle addition, one
    complex product: numpy evaluates cos and sin only on the coarse and fine
    tables, about count/FINE_ANGLES + FINE_ANGLES angles, not on every j.  The
    value at j depends on j and ``step`` alone, not on ``start`` or ``count``.
    """
    import numpy as np

    first, offset = divmod(start, FINE_ANGLES)
    rows = (offset + count + FINE_ANGLES - 1) // FINE_ANGLES
    fine = np.exp(1j * (np.arange(FINE_ANGLES) * step))
    coarse = np.exp(1j * (np.arange(first, first + rows) * FINE_ANGLES * step))
    return np.multiply.outer(coarse, fine).ravel()[offset : offset + count]


def integrate_langevin(config: ReadoutConfig, signal: tuple[float, float, float]) -> ReadoutTrace:
    """Integrate the cavity amplitude equation with a fixed-step RK4 scheme.

    dc/dt = -(kappa + g·x²(t))·c + drive, starting from an empty cavity at
    t = 0, integrated as the real deviation u = c/c0 - 1 from the uncoupled
    steady field c0 = drive/kappa (u = -1 at t = 0).  ``signal`` is the
    triple (dc, a, b) of x²(t) = dc + a·cos 2·omega_m·t + b·sin 2·omega_m·t
    at the config's omega_m.
    x² is taken once per block of CHUNK_STEPS steps, padded to whole runs of
    RUN_STEPS, on the half-step grid j·h/2, whose even, odd and next even
    points are the three RK4 stage times of each step; a constant signal
    (a = b = 0) takes no cos or sin, and one run's steps stand for all.
    The trace's ``inferred_x2`` column is the literal steady-state expansion
    (1 - I/I0)·kappa/(2g), taken from I/I0 - 1 = 2·u + u² without
    cancellation.  Deterministic given the config.

    Raises ``ParameterError`` when the step does not resolve the coupling
    rate with 20 points, h·g·(|dc| + hypot(a, b)) > 1/20, the bound of
    h·g·|x²| (RK4 diverges there), and when any trace value is not finite.
    """
    import numpy as np

    dc, amp_cos, amp_sin = (float(v) for v in signal)
    n_steps, h, g = config.n_steps, config.step, config.coupling
    times = np.arange(n_steps + 1) * h
    rate = h * g * (abs(dc) + math.hypot(amp_cos, amp_sin))
    if not rate <= 0.05:
        raise ParameterError(f"step too coarse for the coupling: h*g*max(x^2) = {rate!r} > 1/20")

    # I/I0 = (1 + u)², and I/I0 - 1 = 2·u + u² keeps the digits of a small u
    intensity = np.empty(n_steps + 1)
    shift = np.empty(n_steps + 1)
    intensity[0], shift[0] = 0.0, -1.0
    u = -1.0
    for start in range(0, n_steps, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, n_steps)
        runs = -(-(stop - start) // RUN_STEPS)
        if amp_cos == 0.0 and amp_sin == 0.0:
            # every run of a constant x² has the same steps: one run's half steps
            s = -g * np.full(2 * RUN_STEPS + 1, dc)
        else:
            # x² on the half steps from 2·start over whole runs, 2·omega_m·(h/2)
            # apart: the real part of (a - i·b)·e^(i·phase) is a·cos + b·sin
            phasors = _phasors(2 * start, 2 * RUN_STEPS * runs + 1, config.omega_m * h)
            s = -g * (((amp_cos - 1j * amp_sin) * phasors).real + dc)
        a, b = _step_coefficients(s[:-1:2], s[1::2], s[2::2], config.kappa, h)
        block = _scan(a, b, u, runs)[: stop - start]
        u = float(block[-1])
        intensity[start + 1 : stop + 1] = (1.0 + block) ** 2
        shift[start + 1 : stop + 1] = 2.0 * block + block * block

    intensity *= baseline_intensity(config)
    shift *= -(config.kappa / (2.0 * g))  # now the inferred x²
    if not (np.isfinite(intensity).all() and np.isfinite(shift).all()):
        raise ParameterError("readout trace is not finite")
    return ReadoutTrace(times=times, intensity=intensity, inferred_x2=shift, config=config)


def analyze_trace(trace: ReadoutTrace) -> RippleReport:
    """Fit dc + 2·omega_m quadratures to the steady part of a trace.

    The analysis window is the last N_PERIODS periods π/omega_m of the
    trace's own probe, which start once the cavity transient
    (SETTLE_FACTOR/kappa) has decayed.
    The fit runs on the ``inferred_x2`` column, so its d.c. term is the
    inferred ⟨x²⟩ and its ripple, scaled back by 2g/kappa, the relative
    intensity ripple.  It solves the 3×3 normal equations of dc and the
    cos/sin quadratures, whose phase is 2·omega_m·t from the probe
    switch-on t = 0; over whole periods of at least 40π steps each the
    normal matrix is close to diag(N, N/2, N/2).  Raises ``ParameterError``
    when the relative shift 2g·|dc|/kappa is not above 1e3 times the
    transient e^(-SETTLE_FACTOR) left in the window, which the calibration
    would pass off as ⟨x²⟩.
    """
    import numpy as np

    config = trace.config
    window_start = config.t_end - N_PERIODS * (math.pi / config.omega_m)
    # the times ascend, so the window is a view from its first step on; a time
    # within round-off of the start, a tolerance relative to the step, is in it
    h = config.step
    start = int(np.searchsorted(trace.times, window_start - 1e-9 * h))
    y = trace.inferred_x2[start:]
    phasors = _phasors(start, len(y), 2.0 * config.omega_m * h)
    cos, sin = phasors.real, phasors.imag
    sum_cos, sum_sin, cos_sin = cos.sum(), sin.sum(), cos @ sin
    normal = [
        [len(y), sum_cos, sum_sin], [sum_cos, cos @ cos, cos_sin], [sum_sin, cos_sin, sin @ sin]
    ]
    dc, b, c = np.linalg.solve(normal, [y.sum(), y @ cos, y @ sin]).tolist()
    shift = 2.0 * config.coupling * abs(dc) / config.kappa
    # the transient left in the window stays below 1e-3 of the shift it rides on
    if not shift > 1e3 * math.exp(-SETTLE_FACTOR):
        raise ParameterError(
            f"coupling g = {config.coupling!r} too small: relative shift 2g*|dc|/kappa = "
            f"{shift!r} is not above the residual transient exp(-{SETTLE_FACTOR:g}) "
            "by a factor of 1e3"
        )
    return RippleReport(
        dc_shift=dc,
        ripple_amplitude=math.hypot(b, c) * (2.0 * config.coupling / config.kappa),
    )
