import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadkick import (
    GaussianState,
    ParameterError,
    ReadoutConfig,
    adiabatic_intensity,
    analyze_trace,
    baseline_intensity,
    free_x2_harmonics,
    infer_x2,
    integrate_langevin,
    thermal_state,
)
from quadkick import readout
from quadkick.readout import (
    CHUNK_STEPS,
    DRIVE_AMPLITUDE,
    FINE_ANGLES,
    MAX_STEPS,
    N_PERIODS,
    RUN_STEPS,
    SETTLE_FACTOR,
    _phasors,
    _step_coefficients,
)

OMEGA_M = 1e6


def reference_config(**overrides):
    """The κ = 1e7 probe: 10,854 steps of 5e-9 s, two blocks of CHUNK_STEPS."""
    return ReadoutConfig(**{"kappa": 1e7, "coupling": 1e-4, "omega_m": OMEGA_M, **overrides})


class TestReadoutConfig:
    def test_default_step_resolves_the_signal(self):
        # 2·omega_m = 2e6 is faster than kappa = 1e5: the signal sets the step
        cfg = ReadoutConfig(kappa=1e5, coupling=1e-4, omega_m=1e6)
        assert cfg.dt == 1.0 / (20.0 * 2e6)

    def test_positive_rates(self):
        with pytest.raises(ParameterError):
            reference_config(kappa=0.0)
        with pytest.raises(ParameterError):
            reference_config(coupling=-1e-4)

    @pytest.mark.parametrize("field, value", [("kappa", math.nan), ("coupling", math.inf)])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            reference_config(**{field: value})

    @pytest.mark.parametrize("omega_m, message", [
        pytest.param(0.0, "omega_m must be positive, got 0.0", id="0.0"),
        pytest.param(-1e6, "omega_m must be positive, got -1000000.0", id="-1000000.0"),
        pytest.param(math.nan, "omega_m must be finite, got nan", id="nan"),
        pytest.param(math.inf, "omega_m must be finite, got inf", id="inf"),
    ])
    def test_omega_m_must_be_positive_and_finite(self, omega_m, message):
        # checked here once, so the integration, the fit and the readout's
        # summary never see a bad omega_m: the whole text is pinned
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            reference_config(omega_m=omega_m)

    def test_step_count_bound(self):
        # 16 periods π/omega_m at omega_m = 1e3 are 0.0503 s: 10,053,897 steps of 5e-9 s
        with pytest.raises(ParameterError, match=f"^time grid needs 10053897 RK4 steps.*{MAX_STEPS}$"):
            reference_config(omega_m=1e3)
        with pytest.raises(ParameterError, match="RK4 steps"):
            reference_config(kappa=1e-30)

    def test_default_needs_positive_coupling(self):
        with pytest.raises(ParameterError, match="trace analysis needs a positive coupling"):
            reference_config(coupling=0.0)

    @pytest.mark.parametrize(
        "kappa, omega_m, message",
        [
            (math.nan, OMEGA_M, "kappa must be finite, got nan"),
            (1e7, 1e-320, "overflows at kappa = 10000000.0, omega_m = 1e-320"),
            (1e-320, OMEGA_M, "overflows at kappa = 1e-320, omega_m = 1000000.0"),
        ],
    )
    def test_default_names_the_bad_input(self, kappa, omega_m, message):
        # the probe window SETTLE_FACTOR/kappa + N_PERIODS*pi/omega_m is derived:
        # an error about it names the inputs, not the property t_end
        with pytest.raises(ParameterError, match=message):
            reference_config(kappa=kappa, omega_m=omega_m)

    def test_tiny_coupling_calibration_rejected(self):
        with pytest.raises(ParameterError, match=r"calibration kappa/\(2g\) = inf"):
            reference_config(coupling=1e-320)

    @pytest.mark.parametrize("kappa", [1e-160, 1e-305])
    def test_overflowing_baseline_rejected(self, kappa):
        # (drive/kappa)² overflows below about 7.46e-150; at 1e-305 drive/kappa is inf
        # already, and the window 40/kappa is still finite. omega_m = kappa/2 keeps
        # the grid near 2,800 steps
        message = rf"^kappa = {kappa!r} too small: baseline intensity \(drive/kappa\)\^2 = inf"
        with pytest.raises(ParameterError, match=message):
            reference_config(kappa=kappa, omega_m=kappa / 2)

    def test_smallest_kappa_with_finite_baseline(self):
        edge = 7.458340731200208e-150
        cfg = reference_config(kappa=edge, omega_m=edge / 2)
        assert baseline_intensity(cfg) == 1.7976931348623155e308
        with pytest.raises(ParameterError, match="baseline intensity"):
            reference_config(kappa=math.nextafter(edge, 0.0), omega_m=edge / 2)

    def test_largest_default_grid_accepted(self):
        cfg = reference_config(kappa=1e8)
        assert cfg.n_steps == 101331

    def test_default_is_the_fixed_probe(self):
        cfg = reference_config()
        assert [f.name for f in fields(cfg)] == ["kappa", "coupling", "omega_m"]
        assert cfg.omega_m == OMEGA_M
        assert baseline_intensity(cfg) == (DRIVE_AMPLITUDE / 1e7) ** 2
        assert cfg.t_end == SETTLE_FACTOR / 1e7 + N_PERIODS * math.pi / OMEGA_M
        assert cfg.dt == 1.0 / (20.0 * 1e7)


class TestAdiabaticIntensity:
    def test_zero_x2_gives_baseline(self):
        cfg = reference_config()
        assert adiabatic_intensity(0.0, cfg) == baseline_intensity(cfg)

    def test_fractional_shift_value(self):
        cfg = reference_config()
        shift = adiabatic_intensity(13.5, cfg) / baseline_intensity(cfg) - 1.0
        assert shift == pytest.approx(-2.7e-10, rel=1e-6)

    def test_squeezing_visible_in_shift_ratio(self):
        cfg = reference_config()
        i0 = baseline_intensity(cfg)
        before = adiabatic_intensity(138.5, cfg) / i0 - 1.0
        after = adiabatic_intensity(0.314, cfg) / i0 - 1.0
        assert after / before == pytest.approx(0.314 / 138.5, rel=1e-4)

    @pytest.mark.parametrize("coupling", [1e-4, 1e4])
    @pytest.mark.parametrize("x2", [0.5, 138.5])
    def test_integrator_agrees_in_sign_and_first_order(self, coupling, x2):
        # the integrator settles at I/I0 - 1 = (1 + eps)^-2 - 1 = -2·eps + 3·eps² - …,
        # eps = g·x²/kappa; the closed form's I/I0 - 1 is itself rounded to about 1e-16
        cfg = reference_config(coupling=coupling)
        trace = integrate_langevin(cfg, (x2, 0.0, 0.0))
        integrated = -trace.inferred_x2[-1] * 2.0 * coupling / cfg.kappa
        closed_form = adiabatic_intensity(x2, cfg) / baseline_intensity(cfg) - 1.0
        eps = coupling * x2 / cfg.kappa
        assert integrated < 0.0 and closed_form < 0.0
        assert abs(integrated - closed_form) <= 3.0 * eps**2 + 2.0 * np.finfo(float).eps


class TestInferX2:
    def test_identity_shift(self):
        cfg = reference_config()
        assert infer_x2(baseline_intensity(cfg), cfg) == 0.0

    def test_inverts_reference_shift(self):
        cfg = reference_config()
        intensity = baseline_intensity(cfg) * (1 - 2.7e-10)
        assert infer_x2(intensity, cfg) == pytest.approx(13.5, rel=1e-5)

    def test_round_trip_with_order_one_shift(self):
        # relative accuracy of the round trip scales as eps/(2 g x2 / kappa),
        # so the tight tolerance needs an order-one fractional shift
        cfg = reference_config(coupling=1e6)  # 2g/kappa = 0.2
        for x2 in (0.1, 1.0, 100.0, 1e3):
            intensity = adiabatic_intensity(x2, cfg)
            back = infer_x2(intensity, cfg)
            assert back == pytest.approx(x2, rel=1e-12)

    def test_round_trip_at_reference_coupling(self):
        cfg = reference_config()
        for x2 in (0.1, 1.0, 100.0):
            intensity = adiabatic_intensity(x2, cfg)
            back = infer_x2(intensity, cfg)
            assert back == pytest.approx(x2, rel=1e-4)


class TestIntegrateLangevin:
    def test_trace_shapes_and_positivity(self):
        cfg = reference_config()
        trace = integrate_langevin(cfg, (13.5, 0.0, 0.0))
        assert len(trace.times) == len(trace.intensity) == len(trace.inferred_x2)
        assert np.all(trace.intensity >= 0.0)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(cfg.t_end, rel=1e-12)
        assert trace.config is cfg

    @pytest.mark.parametrize("x2", [0.5, 13.5, 138.5])
    def test_constant_x2_steady_state(self, x2):
        cfg = reference_config()
        trace = integrate_langevin(cfg, (x2, 0.0, 0.0))
        closed_form = (DRIVE_AMPLITUDE / (cfg.kappa + cfg.coupling * x2)) ** 2
        assert trace.intensity[-1] == pytest.approx(closed_form, rel=1e-10)
        shift = abs(trace.intensity[-1] / baseline_intensity(cfg) - 1.0)
        assert shift == pytest.approx(2 * cfg.coupling * x2 / cfg.kappa, rel=1e-2)

    @pytest.mark.parametrize("coupling", [1.1e7, 1e300])
    def test_step_must_resolve_coupling_rate(self, coupling):
        # h = 5e-9 and x² = 1: h·g·x² > 1/20 diverges under RK4
        with pytest.raises(ParameterError, match=r"h\*g\*max\(x\^2\)"):
            integrate_langevin(reference_config(coupling=coupling), (1.0, 0.0, 0.0))

    def test_step_resolving_coupling_rate_accepted(self):
        trace = integrate_langevin(reference_config(coupling=9e6), (1.0, 0.0, 0.0))
        assert np.all(np.isfinite(trace.intensity))

    def test_non_finite_x2_rejected(self):
        with pytest.raises(ParameterError, match="coupling"):
            integrate_langevin(reference_config(), (math.nan, 0.0, 0.0))

    def test_diverging_trace_rejected(self):
        # x² < 0 turns the damping kappa + g·x² negative: the resolved trace, at
        # h·g·|x²| = 0.0475, grows as e^(1.8e7·t) and overflows by t_end = 4.5e-5
        cfg = ReadoutConfig(kappa=1e6, coupling=1e-4, omega_m=1e7)
        with np.errstate(all="ignore"), pytest.raises(ParameterError, match="^readout trace is not finite$"):
            integrate_langevin(cfg, (-1.9e11, 0.0, 0.0))

    def test_inferred_x2_settles_to_input(self):
        cfg = reference_config()
        trace = integrate_langevin(cfg, (13.5, 0.0, 0.0))
        assert trace.inferred_x2[-1] == pytest.approx(13.5, rel=1e-2)

    def test_halving_dt_converged(self):
        # the per-step loop at half the probe's step
        cfg = reference_config()
        for signal in ((138.5, 0.0, 0.0), (137.9, 137.2, 0.0)):
            coarse = integrate_langevin(cfg, signal)
            _, u = deviation_loop(cfg, signal, 2 * cfg.n_steps)
            fine = baseline_intensity(cfg) * (1.0 + u[-1]) ** 2
            assert fine == pytest.approx(coarse.intensity[-1], rel=1e-8)

    def test_ripple_transfer_function(self):
        # modulated x2 produces a 2*omega_m intensity ripple suppressed by
        # kappa / sqrt(kappa^2 + 4 omega_m^2) relative to the d.c. scale 2gB/kappa
        a, b = 137.862, 137.238
        ripples = {}
        for kappa in (1e7, 1e8):
            cfg = reference_config(kappa=kappa)
            trace = integrate_langevin(cfg, (a, b, 0.0))
            report = analyze_trace(trace)
            expected = 2 * cfg.coupling * b / math.sqrt(kappa**2 + 4 * OMEGA_M**2)
            assert report.ripple_amplitude == pytest.approx(expected, rel=1e-3)
            assert expected == pytest.approx(
                (kappa / math.sqrt(kappa**2 + 4 * OMEGA_M**2)) * 2 * cfg.coupling * b / kappa
            )
            ripples[kappa] = report.ripple_amplitude
        assert ripples[1e8] < ripples[1e7]


def per_step_rk4(config, x2_half, rate, y0):
    """The per-step RK4 loop of dy/dt = rate(y, g·x²) from y0 over [0, t_end],
    reading x² at every stage of every step from ``x2_half``, x² at the half
    steps j·h/2 of its n steps; returns the times and y after each step."""
    n_steps = (len(x2_half) - 1) // 2
    h = config.t_end / n_steps

    def deriv(j, y):
        return rate(y, config.coupling * float(x2_half[j]))

    y, ys = y0, [y0]
    for k in range(n_steps):
        k1 = deriv(2 * k, y)
        k2 = deriv(2 * k + 1, y + 0.5 * h * k1)
        k3 = deriv(2 * k + 1, y + 0.5 * h * k2)
        k4 = deriv(2 * k + 2, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    return np.array([k * h for k in range(n_steps + 1)]), np.array(ys)


def half_step_x2(config, signal, n_steps):
    """x² = dc + a·cos + b·sin at the half steps j·h/2, j = 0 … 2·n_steps, of
    n_steps over [0, t_end]; at the probe's own n_steps, as the integrator
    takes it: one call over the whole grid gives the values of its per-block
    calls, since a phasor depends on its index alone."""
    dc, a, b = signal
    if a == b == 0.0:
        return np.full(2 * n_steps + 1, dc)
    h = config.t_end / n_steps
    return ((a - 1j * b) * _phasors(0, 2 * n_steps + 1, config.omega_m * h)).real + dc


def deviation_loop(config, signal, n_steps=None):
    """Sequential RK4 of du/dt = -(kappa + g·x²)·u - g·x² from u = -1, in
    ``n_steps`` steps, by default the probe's."""
    rate = lambda u, gx2: -(config.kappa + gx2) * u - gx2
    x2_half = half_step_x2(config, signal, n_steps or config.n_steps)
    return per_step_rk4(config, x2_half, rate, -1.0)


def amplitude_loop(config, signal):
    """Sequential RK4 of the amplitude itself, dc/dt = -(kappa + g·x²)·c + drive, from c = 0."""
    rate = lambda c, gx2: -(config.kappa + gx2) * c + DRIVE_AMPLITUDE
    return per_step_rk4(config, half_step_x2(config, signal, config.n_steps), rate, 0.0)


SQUEEZED = GaussianState(mean=(0.3, -1.2), var_p=275.1, var_x=0.624, cross=3.1)


# a snapshot's constant x² and a free evolution's, each on the κ = 1e7 probe's
# 10,854 steps: more than one chunk
ORACLE_CASES = pytest.mark.parametrize("free", [False, True], ids=["constant", "multi_chunk"])


def oracle_config():
    return reference_config(coupling=1e4)


def oracle_signal(free):
    return free_x2_harmonics(SQUEEZED) if free else (13.5, 0.0, 0.0)


class TestIntegratorOracle:
    @ORACLE_CASES
    def test_matches_per_step_loop(self, free):
        # the scan reorders the arithmetic of the sequential deviation loop:
        # equal to a few units of 1e-16, relative to each value
        cfg = oracle_config()
        times, u = deviation_loop(cfg, oracle_signal(free))
        trace = integrate_langevin(cfg, oracle_signal(free))
        assert np.array_equal(trace.times, times)
        intensity = baseline_intensity(cfg) * (1.0 + u) ** 2
        assert np.allclose(trace.intensity, intensity, rtol=1e-14, atol=0.0)
        inferred = -(2.0 * u + u * u) * cfg.kappa / (2.0 * cfg.coupling)
        assert np.allclose(trace.inferred_x2, inferred, rtol=1e-14, atol=0.0)

    @ORACLE_CASES
    def test_amplitude_loop_agrees_within_its_cancellation(self, free):
        # the amplitude loop, the integrator before the change to u, carries
        # I/I0 - 1 only to a few units of eps absolute (its inferred x² to
        # eps·kappa/(2g)): the two intensities agree to that, not better
        cfg = oracle_config()
        _, c = amplitude_loop(cfg, oracle_signal(free))
        trace = integrate_langevin(cfg, oracle_signal(free))
        tolerance = 64 * np.finfo(float).eps * baseline_intensity(cfg)
        assert np.max(np.abs(c**2 - trace.intensity)) <= tolerance

    def test_multi_chunk_case_spans_chunks(self):
        assert CHUNK_STEPS < oracle_config().n_steps < 2 * CHUNK_STEPS

    def test_constant_signal_calls_no_trig(self, monkeypatch):
        # a snapshot's x² is one number: no cos, sin or phasor is taken, and
        # the trace is the per-step loop's
        def no_trig(*args, **kwargs):
            raise AssertionError("trig called")

        for name in ("cos", "sin", "exp"):
            monkeypatch.setattr(np, name, no_trig)
        monkeypatch.setattr(readout, "_phasors", no_trig)
        cfg = oracle_config()
        trace = integrate_langevin(cfg, (13.5, 0.0, 0.0))
        monkeypatch.undo()
        _, u = deviation_loop(cfg, (13.5, 0.0, 0.0))
        assert np.allclose(trace.intensity, baseline_intensity(cfg) * (1.0 + u) ** 2, rtol=1e-14, atol=0.0)


def full_length_scan(a, b, u0):
    """The scan over every step of a block, its last run padded with a = 1 and
    b = 0: the reference implementation the whole-run scan is checked against."""
    n = len(a)
    pad = -n % RUN_STEPS
    if pad:
        a = np.concatenate((a, np.ones(pad)))
        b = np.concatenate((b, np.zeros(pad)))
    prod = np.cumprod(a.reshape(-1, RUN_STEPS), axis=1)
    acc = np.cumsum(b.reshape(-1, RUN_STEPS) * (1.0 / prod), axis=1)
    starts = []
    u = u0
    for p, s in zip(prod[:, -1].tolist(), acc[:, -1].tolist()):
        starts.append(u)
        u = p * (u + s)
    return (prod * (np.array(starts)[:, None] + acc)).ravel()[:n]


def full_length_trace(config, signal):
    """(times, intensity, inferred_x2) from step coefficients built for every
    step of each block of CHUNK_STEPS, a constant signal's too, scanned by
    full_length_scan."""
    dc, amp_cos, amp_sin = signal
    n_steps, h, g = config.n_steps, config.step, config.coupling
    u = np.empty(n_steps + 1)
    u[0] = -1.0
    for start in range(0, n_steps, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, n_steps)
        if amp_cos == amp_sin == 0.0:
            x2 = np.full(2 * (stop - start) + 1, dc)
        else:
            phasors = _phasors(2 * start, 2 * (stop - start) + 1, config.omega_m * h)
            x2 = ((amp_cos - 1j * amp_sin) * phasors).real + dc
        s = -g * x2
        a, b = _step_coefficients(s[:-1:2], s[1::2], s[2::2], config.kappa, h)
        u[start + 1 : stop + 1] = full_length_scan(a, b, float(u[start]))
    intensity = (1.0 + u) ** 2 * baseline_intensity(config)
    inferred = (2.0 * u + u * u) * -(config.kappa / (2.0 * g))
    return np.arange(n_steps + 1) * h, intensity, inferred


# (kappa, n_steps) at omega_m = 1e6: a whole number of runs; one chunk; two
# chunks with a 38-step last run; 13 chunks with a 3,027-step last chunk
SCAN_GRIDS = [(1.0026e7, 10880), (3e6, 3816), (1e7, 10854), (1e8, 101331)]


class TestWholeRunScan:
    """Each block is scanned as whole runs, a snapshot's as one run repeated."""

    def test_snapshot_steps_are_one_run(self, monkeypatch):
        shapes = []

        def recording(s1, s2, s4, kappa, h):
            shapes.append([np.shape(s) for s in (s1, s2, s4)])
            return _step_coefficients(s1, s2, s4, kappa, h)

        monkeypatch.setattr(readout, "_step_coefficients", recording)
        cfg = reference_config(kappa=1e8)
        integrate_langevin(cfg, (13.5, 0.0, 0.0))
        assert shapes == [[(RUN_STEPS,)] * 3] * math.ceil(cfg.n_steps / CHUNK_STEPS)

    @pytest.mark.parametrize("kappa,n_steps", SCAN_GRIDS)
    @ORACLE_CASES
    def test_matches_full_length_scan(self, kappa, n_steps, free):
        cfg = reference_config(kappa=kappa, coupling=1e4)
        assert cfg.n_steps == n_steps
        trace = integrate_langevin(cfg, oracle_signal(free))
        times, intensity, inferred = full_length_trace(cfg, oracle_signal(free))
        assert np.array_equal(trace.times, times)
        assert np.array_equal(trace.intensity, intensity)
        assert np.array_equal(trace.inferred_x2, inferred)


def window_lstsq(trace):
    """(dc, a, b) of analyze_trace's window, the last N_PERIODS periods of the
    trace's probe, by numpy's least squares on the n×3 design
    [1, cos 2·omega_m·t, sin 2·omega_m·t], with np.cos/np.sin."""
    config = trace.config
    omega_m = config.omega_m
    h = config.step
    start = np.searchsorted(trace.times, config.t_end - N_PERIODS * (math.pi / omega_m) - 1e-9 * h)
    phase = 2.0 * omega_m * trace.times[start:]
    design = np.column_stack([np.ones_like(phase), np.cos(phase), np.sin(phase)])
    return np.linalg.lstsq(design, trace.inferred_x2[start:], rcond=None)[0]


@st.composite
def squeezed_states(draw):
    """A zero-mean rotated squeezed thermal state: det(cov) = v² >= 1/4."""
    v = draw(st.floats(0.5, 20.0))
    r = draw(st.floats(0.0, 2.0))
    theta = draw(st.floats(0.0, math.pi))
    c, s = math.cos(theta), math.sin(theta)
    big, small = v * math.exp(2.0 * r), v * math.exp(-2.0 * r)
    return GaussianState(
        var_p=big * c * c + small * s * s, var_x=big * s * s + small * c * c, cross=(big - small) * c * s
    )


# |phasor - (cos, sin)| <= PHASOR_C·eps·(|j·step| + 1); measured up to 0.95 over
# 3,000 drawn (start, count, step) with total angles from 1e-3 to 1e4 rad
PHASOR_C = 2.0
# analyze_trace's (dc, ripple) against window_lstsq, relative to the larger of
# |dc| and the fitted amplitude; measured up to 1.2e-14 on 60 drawn traces
FIT_RTOL = 1e-13


class TestReadoutKernels:
    """The angle-addition phasors and the normal-equation fit against numpy."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        count=st.sampled_from((1, 2, 127, 128, 129, 1000, 16385, 40000))
        | st.integers(1, 3 * 2 * CHUNK_STEPS),
        start=st.sampled_from((0, 1, FINE_ANGLES - 1, 2 * CHUNK_STEPS)) | st.integers(0, 10**5),
        total=st.floats(1e-3, 1e4),
    )
    def test_phasors_match_numpy_trig(self, count, start, total):
        step = total / (start + count)
        angles = (start + np.arange(count)) * step
        phasors = _phasors(start, count, step)
        bound = PHASOR_C * np.finfo(float).eps * (np.abs(angles) + 1.0)
        assert phasors.shape == (count,)
        assert np.all(np.abs(phasors.real - np.cos(angles)) <= bound)
        assert np.all(np.abs(phasors.imag - np.sin(angles)) <= bound)

    def test_phasors_from_zero_match_numpy_trig(self):
        # the form the integrator and the fit take: cos/sin(arange(count)·step)
        for count, step in ((1, 0.3), (3 * 2 * CHUNK_STEPS + 5, 1e4 / (6 * CHUNK_STEPS)), (999, 1e-3)):
            angles = np.arange(count) * step
            phasors = _phasors(0, count, step)
            bound = PHASOR_C * np.finfo(float).eps * (angles + 1.0)
            assert np.all(np.abs(phasors.real - np.cos(angles)) <= bound)
            assert np.all(np.abs(phasors.imag - np.sin(angles)) <= bound)

    def test_phasor_depends_on_its_index_alone(self):
        # the integrator takes one block at a time: any slice of the grid is
        # the same bits as the whole grid taken at once
        whole = _phasors(0, 5 * 2 * CHUNK_STEPS + 1, 0.0123)
        for start, count in ((0, 1), (2 * CHUNK_STEPS, 2 * CHUNK_STEPS + 1), (77, 1000), (40000, 3)):
            assert np.array_equal(_phasors(start, count, 0.0123), whole[start : start + count])

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(state=squeezed_states(), kappa=st.floats(3e6, 1e8), free=st.booleans())
    def test_fit_matches_lstsq(self, state, kappa, free):
        cfg = reference_config(kappa=kappa)
        signal = free_x2_harmonics(state) if free else (state.var_x, 0.0, 0.0)
        trace = integrate_langevin(cfg, signal)
        report = analyze_trace(trace)
        dc, a, b = window_lstsq(trace)
        ripple = math.hypot(a, b)
        scale = max(abs(dc), ripple)
        assert abs(report.dc_shift - dc) <= FIT_RTOL * scale
        calibration = 2.0 * cfg.coupling / cfg.kappa
        assert abs(report.ripple_amplitude / calibration - ripple) <= FIT_RTOL * scale


class TestRippleReport:
    def test_isotropic_state_has_no_ripple(self):
        cfg = reference_config()
        report = analyze_trace(integrate_langevin(cfg, free_x2_harmonics(thermal_state(13.0))))
        assert report.dc_shift == pytest.approx(13.5, rel=1e-2)
        assert report.ripple_amplitude <= 1e-12 * report.dc_shift

    def test_anisotropic_state_dc_is_time_average(self):
        state = GaussianState(var_p=275.1, var_x=0.624)
        cfg = reference_config()
        report = analyze_trace(integrate_langevin(cfg, free_x2_harmonics(state)))
        assert report.ripple_amplitude > 0.0
        assert report.dc_shift == pytest.approx((275.1 + 0.624) / 2, rel=5e-2)

    def test_larger_kappa_shrinks_ripple(self):
        state = GaussianState(var_p=275.1, var_x=0.624)
        amplitudes = []
        for kappa in (1e7, 1e8):
            cfg = reference_config(kappa=kappa)
            report = analyze_trace(integrate_langevin(cfg, free_x2_harmonics(state)))
            amplitudes.append(report.ripple_amplitude)
        assert amplitudes[1] < amplitudes[0]

    @pytest.mark.parametrize("kappa", [5e6, 1e7, 1e8])
    def test_dc_shift_is_mean_x2(self, kappa):
        cfg = reference_config(kappa=kappa)
        state = GaussianState(var_p=3.0, var_x=0.2, cross=0.1)
        free = analyze_trace(integrate_langevin(cfg, free_x2_harmonics(state)))
        assert free.dc_shift == pytest.approx(1.6, rel=1e-7)
        snapshot = integrate_langevin(cfg, (0.314, 0.0, 0.0))
        assert analyze_trace(snapshot).dc_shift == pytest.approx(0.314, rel=1e-7)

    @pytest.mark.parametrize("kappa, coupling", [(1e7, 1e-300), (1e7, 1e-12), (1e8, 1e-20)])
    def test_shift_below_transient_rejected(self, kappa, coupling):
        # 2g·x²/kappa <= 2e-19 sits below the transient e^-40 left in the window,
        # which the calibration kappa/(2g) would report as ⟨x²⟩
        cfg = reference_config(kappa=kappa, coupling=coupling)
        trace = integrate_langevin(cfg, (1.0, 0.0, 0.0))
        with pytest.raises(ParameterError, match="not above the residual transient"):
            analyze_trace(trace)

    def test_needs_positive_coupling(self):
        with pytest.raises(ParameterError, match="trace analysis needs a positive coupling"):
            reference_config(coupling=0.0)
