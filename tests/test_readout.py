import math
from dataclasses import fields

import numpy as np
import pytest

from quadkick import (
    GaussianState,
    ParameterError,
    ReadoutConfig,
    adiabatic_intensity,
    analyze_trace,
    baseline_intensity,
    default_readout_config,
    free_x2_expectation,
    infer_x2,
    integrate_langevin,
    ripple_report,
    thermal_state,
)
from quadkick.readout import CHUNK_STEPS, DRIVE_AMPLITUDE, MAX_STEPS, N_PERIODS, SETTLE_FACTOR

OMEGA_M = 1e6


def reference_config(**overrides):
    settings = dict(
        kappa=1e7,
        coupling=1e-4,
        t_end=5e-6,   # 50 cavity lifetimes
        dt=5e-9,
    )
    settings.update(overrides)
    return ReadoutConfig(**settings)


class TestReadoutConfig:
    def test_step_size_bound(self):
        with pytest.raises(ParameterError):
            reference_config(dt=1e-7)  # only 1 point per cavity lifetime

    def test_default_step_resolves_the_signal(self):
        # 2·omega_m = 2e6 is faster than kappa = 1e5: the signal sets the step
        cfg = default_readout_config(kappa=1e5, coupling=1e-4, omega_m=1e6)
        assert cfg.dt == 1.0 / (20.0 * 2e6)

    def test_time_window(self):
        for t_end in (0.0, -5e-6):
            with pytest.raises(ParameterError, match="t_end must be positive"):
                reference_config(t_end=t_end)

    def test_positive_rates(self):
        with pytest.raises(ParameterError):
            reference_config(kappa=0.0)
        with pytest.raises(ParameterError):
            reference_config(coupling=-1e-4)
        with pytest.raises(ParameterError, match="^dt must be positive, got 0.0$"):
            ReadoutConfig(kappa=1e7, coupling=1e-4, t_end=1e-6, dt=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kappa", math.nan),
            ("coupling", math.inf),
            ("dt", math.nan),
            ("t_end", math.inf),
        ],
    )
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            reference_config(**{field: value})

    def test_step_count_bound(self):
        with pytest.raises(ParameterError, match=f"needs 20000000 RK4 steps.*{MAX_STEPS}"):
            reference_config(t_end=0.1)  # 2e7 steps of 5e-9 s
        with pytest.raises(ParameterError, match="RK4 steps"):
            default_readout_config(kappa=1e-30, coupling=1e-4, omega_m=OMEGA_M)

    def test_default_needs_positive_coupling(self):
        with pytest.raises(ParameterError, match="trace analysis needs a positive coupling"):
            default_readout_config(kappa=1e7, coupling=0.0, omega_m=OMEGA_M)

    @pytest.mark.parametrize("omega_m", [0.0, -1e6, math.nan])
    def test_default_needs_positive_omega_m(self, omega_m):
        with pytest.raises(ParameterError, match="omega_m must be positive"):
            default_readout_config(kappa=1e7, coupling=1e-4, omega_m=omega_m)

    @pytest.mark.parametrize(
        "kappa, omega_m, message",
        [
            (math.nan, OMEGA_M, "kappa must be positive and finite, got nan"),
            (1e7, 1e-320, "overflows at kappa = 10000000.0, omega_m = 1e-320"),
            (1e-320, OMEGA_M, "overflows at kappa = 1e-320, omega_m = 1000000.0"),
        ],
    )
    def test_default_names_the_bad_input(self, kappa, omega_m, message):
        # the probe window SETTLE_FACTOR/kappa + N_PERIODS*pi/omega_m is derived:
        # an error about it names the inputs, not the field t_end
        with pytest.raises(ParameterError, match=message):
            default_readout_config(kappa=kappa, coupling=1e-4, omega_m=omega_m)

    def test_tiny_coupling_calibration_rejected(self):
        with pytest.raises(ParameterError, match=r"calibration kappa/\(2g\) = inf"):
            reference_config(coupling=1e-320)

    @pytest.mark.parametrize("kappa", [1e-160, 5e-324])
    def test_overflowing_baseline_rejected(self, kappa):
        # (drive/kappa)² overflows below about 7.46e-150; at 5e-324 drive/kappa is inf already
        message = rf"^kappa = {kappa!r} too small: baseline intensity \(drive/kappa\)\^2 = inf"
        with pytest.raises(ParameterError, match=message):
            ReadoutConfig(kappa=kappa, coupling=1e-4, t_end=1.0, dt=1.0)

    def test_smallest_kappa_with_finite_baseline(self):
        edge = 7.458340731200208e-150
        cfg = ReadoutConfig(kappa=edge, coupling=1e-4, t_end=1.0, dt=1.0)
        assert baseline_intensity(cfg) == 1.7976931348623155e308
        with pytest.raises(ParameterError, match="baseline intensity"):
            ReadoutConfig(kappa=math.nextafter(edge, 0.0), coupling=1e-4, t_end=1.0, dt=1.0)

    def test_largest_default_grid_accepted(self):
        cfg = default_readout_config(kappa=1e8, coupling=1e-4, omega_m=OMEGA_M)
        assert cfg.n_steps == 101331

    def test_default_is_the_fixed_probe(self):
        cfg = default_readout_config(kappa=1e7, coupling=1e-4, omega_m=OMEGA_M)
        assert [f.name for f in fields(cfg)] == ["kappa", "coupling", "t_end", "dt"]
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
        cfg = reference_config(coupling=coupling, t_end=1e-5)  # 100 lifetimes
        trace = integrate_langevin(cfg, lambda t: x2)
        integrated = -trace.inferred_x2[-1] * 2.0 * coupling / cfg.kappa
        closed_form = adiabatic_intensity(x2, cfg) / baseline_intensity(cfg) - 1.0
        eps = coupling * x2 / cfg.kappa
        assert integrated < 0.0 and closed_form < 0.0
        assert abs(integrated - closed_form) <= 3.0 * eps**2 + 2.0 * np.finfo(float).eps


class TestInferX2:
    def test_identity_shift(self):
        assert infer_x2(1e-4, 1e-4, 1e-4, 1e7) == 0.0

    def test_inverts_reference_shift(self):
        assert infer_x2(1e-4 * (1 - 2.7e-10), 1e-4, 1e-4, 1e7) == pytest.approx(13.5, rel=1e-5)

    def test_round_trip_with_order_one_shift(self):
        # relative accuracy of the round trip scales as eps/(2 g x2 / kappa),
        # so the tight tolerance needs an order-one fractional shift
        cfg = reference_config(coupling=1e6)  # 2g/kappa = 0.2
        for x2 in (0.1, 1.0, 100.0, 1e3):
            intensity = adiabatic_intensity(x2, cfg)
            back = infer_x2(intensity, baseline_intensity(cfg), cfg.coupling, cfg.kappa)
            assert back == pytest.approx(x2, rel=1e-12)

    def test_round_trip_at_reference_coupling(self):
        cfg = reference_config()
        for x2 in (0.1, 1.0, 100.0):
            intensity = adiabatic_intensity(x2, cfg)
            back = infer_x2(intensity, baseline_intensity(cfg), cfg.coupling, cfg.kappa)
            assert back == pytest.approx(x2, rel=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            infer_x2(1e-4, 0.0, 1e-4, 1e7)
        with pytest.raises(ParameterError):
            infer_x2(1e-4, 1e-4, 0.0, 1e7)
        with pytest.raises(ParameterError, match="^kappa must be positive, got 0.0$"):
            infer_x2(1.0, 1.0, 1.0, 0.0)


class TestIntegrateLangevin:
    def test_trace_shapes_and_positivity(self):
        cfg = reference_config()
        trace = integrate_langevin(cfg, lambda t: 13.5)
        assert len(trace.times) == len(trace.intensity) == len(trace.inferred_x2)
        assert np.all(trace.intensity >= 0.0)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(cfg.t_end, rel=1e-12)

    @pytest.mark.parametrize("x2", [0.5, 13.5, 138.5])
    def test_constant_x2_steady_state(self, x2):
        cfg = reference_config()
        trace = integrate_langevin(cfg, lambda t: x2)
        closed_form = (DRIVE_AMPLITUDE / (cfg.kappa + cfg.coupling * x2)) ** 2
        assert trace.intensity[-1] == pytest.approx(closed_form, rel=1e-10)
        shift = abs(trace.intensity[-1] / trace.baseline - 1.0)
        assert shift == pytest.approx(2 * cfg.coupling * x2 / cfg.kappa, rel=1e-2)

    @pytest.mark.parametrize("coupling", [1.1e7, 1e300])
    def test_step_must_resolve_coupling_rate(self, coupling):
        # h = 5e-9 and x² = 1: h·g·x² > 1/20 diverges under RK4
        with pytest.raises(ParameterError, match=r"h\*g\*max\(x\^2\)"):
            integrate_langevin(reference_config(coupling=coupling), lambda t: 1.0)

    def test_step_resolving_coupling_rate_accepted(self):
        trace = integrate_langevin(reference_config(coupling=9e6), lambda t: 1.0)
        assert np.all(np.isfinite(trace.intensity))

    def test_non_finite_x2_rejected(self):
        with pytest.raises(ParameterError, match="coupling"):
            integrate_langevin(reference_config(), lambda t: math.nan)

    def test_diverging_trace_rejected(self):
        # x² < 0 turns the damping kappa + g·x² negative: the resolved trace grows
        # as e^(5e6·t) and overflows by t_end = 2e-4
        cfg = ReadoutConfig(kappa=1e7, coupling=1e-4, t_end=2e-4, dt=2.5e-9)
        with np.errstate(all="ignore"), pytest.raises(ParameterError, match="^readout trace is not finite$"):
            integrate_langevin(cfg, lambda t: -1.5e11)

    def test_inferred_x2_settles_to_input(self):
        cfg = reference_config()
        trace = integrate_langevin(cfg, lambda t: 13.5)
        assert trace.inferred_x2[-1] == pytest.approx(13.5, rel=1e-2)

    def test_halving_dt_converged(self):
        for x2_of_t in (lambda t: 138.5, lambda t: 137.9 + 137.2 * np.cos(2 * OMEGA_M * t)):
            coarse = integrate_langevin(reference_config(), x2_of_t)
            fine = integrate_langevin(reference_config(dt=2.5e-9), x2_of_t)
            assert fine.intensity[-1] == pytest.approx(coarse.intensity[-1], rel=1e-8)

    def test_ripple_transfer_function(self):
        # modulated x2 produces a 2*omega_m intensity ripple suppressed by
        # kappa / sqrt(kappa^2 + 4 omega_m^2) relative to the d.c. scale 2gB/kappa
        a, b = 137.862, 137.238
        ripples = {}
        for kappa in (1e7, 1e8):
            cfg = default_readout_config(kappa=kappa, coupling=1e-4, omega_m=OMEGA_M)
            trace = integrate_langevin(cfg, lambda t: a + b * np.cos(2 * OMEGA_M * t))
            report = analyze_trace(trace, cfg, OMEGA_M)
            expected = 2 * cfg.coupling * b / math.sqrt(kappa**2 + 4 * OMEGA_M**2)
            assert report.ripple_amplitude == pytest.approx(expected, rel=1e-3)
            assert expected == pytest.approx(
                (kappa / math.sqrt(kappa**2 + 4 * OMEGA_M**2)) * 2 * cfg.coupling * b / kappa
            )
            ripples[kappa] = report.ripple_amplitude
        assert ripples[1e8] < ripples[1e7]


def per_step_rk4(config, x2_of_t, rate, y0):
    """The per-step RK4 loop of dy/dt = rate(y, g·x²(t)) from y0, evaluating
    x²(t) at every stage of every step; returns the times and y after each step."""
    n_steps = max(1, math.ceil(config.t_end / config.dt - 1e-9))
    h = config.t_end / n_steps

    def deriv(t, y):
        return rate(y, config.coupling * float(x2_of_t(t)))

    y, ys = y0, [y0]
    for k in range(n_steps):
        t = k * h
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    return np.array([k * h for k in range(n_steps + 1)]), np.array(ys)


def deviation_loop(config, x2_of_t):
    """Sequential RK4 of du/dt = -(kappa + g·x²)·u - g·x² from u = -1."""
    return per_step_rk4(config, x2_of_t, lambda u, gx2: -(config.kappa + gx2) * u - gx2, -1.0)


def amplitude_loop(config, x2_of_t):
    """Sequential RK4 of the amplitude itself, dc/dt = -(kappa + g·x²)·c + drive, from c = 0."""
    rate = lambda c, gx2: -(config.kappa + gx2) * c + DRIVE_AMPLITUDE
    return per_step_rk4(config, x2_of_t, rate, 0.0)


SQUEEZED = GaussianState(mean=(0.3, -1.2), var_p=275.1, var_x=0.624, cross=3.1)


def free_x2(t):
    return free_x2_expectation(SQUEEZED, OMEGA_M, t)


ORACLE_CASES = pytest.mark.parametrize(
    "overrides, free",
    [
        ({}, False),
        ({"t_end": 5.1e-5}, True),  # 10,200 steps: more than one chunk
    ],
    ids=["constant", "multi_chunk"],
)


def oracle_config(overrides):
    return reference_config(**{"coupling": 1e4, **overrides})


class TestIntegratorOracle:
    @ORACLE_CASES
    def test_matches_per_step_loop(self, overrides, free):
        # the scan reorders the arithmetic of the sequential deviation loop:
        # equal to a few units of 1e-16, relative to each value
        cfg = oracle_config(overrides)
        x2_of_t = free_x2 if free else (lambda t: 13.5)
        times, u = deviation_loop(cfg, x2_of_t)
        trace = integrate_langevin(cfg, x2_of_t)
        assert np.array_equal(trace.times, times)
        intensity = trace.baseline * (1.0 + u) ** 2
        assert np.allclose(trace.intensity, intensity, rtol=1e-14, atol=0.0)
        inferred = -(2.0 * u + u * u) * cfg.kappa / (2.0 * cfg.coupling)
        assert np.allclose(trace.inferred_x2, inferred, rtol=1e-14, atol=0.0)

    @ORACLE_CASES
    def test_amplitude_loop_agrees_within_its_cancellation(self, overrides, free):
        # the amplitude loop, the integrator before the change to u, carries
        # I/I0 - 1 only to a few units of eps absolute (its inferred x² to
        # eps·kappa/(2g)): the two intensities agree to that, not better
        cfg = oracle_config(overrides)
        x2_of_t = free_x2 if free else (lambda t: 13.5)
        _, c = amplitude_loop(cfg, x2_of_t)
        trace = integrate_langevin(cfg, x2_of_t)
        tolerance = 64 * np.finfo(float).eps * trace.baseline
        assert np.max(np.abs(c**2 - trace.intensity)) <= tolerance

    def test_multi_chunk_case_spans_chunks(self):
        assert CHUNK_STEPS < reference_config(t_end=5.1e-5).n_steps < 2 * CHUNK_STEPS

    def test_provider_called_once_per_stage_grid(self):
        cfg = reference_config()
        calls = []

        def x2_of_t(t):
            calls.append(t)
            return np.full(t.shape, 13.5)

        integrate_langevin(cfg, x2_of_t)
        h = cfg.t_end / cfg.n_steps
        assert len(calls) == 3
        assert all(t.shape == (cfg.n_steps,) for t in calls)
        assert calls[0][0] == 0.0
        assert np.array_equal(calls[2], calls[0] + h)


class TestRippleReport:
    def test_isotropic_state_has_no_ripple(self):
        cfg = default_readout_config(kappa=1e7, coupling=1e-4, omega_m=OMEGA_M)
        report = ripple_report(cfg, thermal_state(13.0), OMEGA_M)
        assert report.dc_shift == pytest.approx(13.5, rel=1e-2)
        assert report.ripple_amplitude <= 1e-12 * report.dc_shift
        assert report.kappa_over_2omega == 5.0

    def test_anisotropic_state_dc_is_time_average(self):
        state = GaussianState(var_p=275.1, var_x=0.624)
        cfg = default_readout_config(kappa=1e7, coupling=1e-4, omega_m=OMEGA_M)
        report = ripple_report(cfg, state, OMEGA_M)
        assert report.ripple_amplitude > 0.0
        assert report.dc_shift == pytest.approx((275.1 + 0.624) / 2, rel=5e-2)

    def test_larger_kappa_shrinks_ripple(self):
        state = GaussianState(var_p=275.1, var_x=0.624)
        amplitudes = []
        for kappa in (1e7, 1e8):
            cfg = default_readout_config(kappa=kappa, coupling=1e-4, omega_m=OMEGA_M)
            amplitudes.append(ripple_report(cfg, state, OMEGA_M).ripple_amplitude)
        assert amplitudes[1] < amplitudes[0]

    @pytest.mark.parametrize("kappa", [5e6, 1e7, 1e8])
    def test_dc_shift_is_mean_x2(self, kappa):
        cfg = default_readout_config(kappa=kappa, coupling=1e-4, omega_m=OMEGA_M)
        state = GaussianState(var_p=3.0, var_x=0.2, cross=0.1)
        assert ripple_report(cfg, state, OMEGA_M).dc_shift == pytest.approx(1.6, rel=1e-7)
        snapshot = integrate_langevin(cfg, lambda t: 0.314)
        assert analyze_trace(snapshot, cfg, OMEGA_M).dc_shift == pytest.approx(0.314, rel=1e-7)

    @pytest.mark.parametrize("omega_m", [math.nan, math.inf])
    def test_ripple_report_blames_omega_m(self, omega_m):
        # not the coupling: the x² of a free evolution at a bad omega_m is nan
        cfg = reference_config()
        with pytest.raises(ParameterError, match="omega_m must be positive and finite"):
            ripple_report(cfg, thermal_state(13.0), omega_m)

    @pytest.mark.parametrize("omega_m", [0.0, math.nan, math.inf])
    def test_omega_m_must_be_positive_and_finite(self, omega_m):
        cfg = reference_config()
        trace = integrate_langevin(cfg, lambda t: 1.0)
        with pytest.raises(ParameterError, match="omega_m must be positive and finite"):
            analyze_trace(trace, cfg, omega_m)

    def test_window_too_short_rejected(self):
        cfg = reference_config(t_end=1e-6)
        with pytest.raises(ParameterError):
            ripple_report(cfg, thermal_state(13.0), OMEGA_M)

    @pytest.mark.parametrize("kappa, coupling", [(1e7, 1e-300), (1e7, 1e-12), (1e8, 1e-20)])
    def test_shift_below_transient_rejected(self, kappa, coupling):
        # 2g·x²/kappa <= 2e-19 sits below the transient e^-40 left in the window,
        # which the calibration kappa/(2g) would report as ⟨x²⟩
        cfg = default_readout_config(kappa=kappa, coupling=coupling, omega_m=OMEGA_M)
        trace = integrate_langevin(cfg, lambda t: 1.0)
        with pytest.raises(ParameterError, match="not above the residual transient"):
            analyze_trace(trace, cfg, OMEGA_M)

    def test_needs_positive_coupling(self):
        with pytest.raises(ParameterError, match="trace analysis needs a positive coupling"):
            reference_config(coupling=0.0)
