import math

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
    infer_x2,
    integrate_langevin,
    ripple_report,
    thermal_state,
)

OMEGA_M = 1e6


def reference_config(**overrides):
    settings = dict(
        drive_amplitude=1e5,
        detuning=0.0,
        kappa=1e7,
        coupling=1e-4,
        t_start=0.0,
        t_end=5e-6,   # 50 cavity lifetimes
        dt=5e-9,
    )
    settings.update(overrides)
    return ReadoutConfig(**settings)


class TestReadoutConfig:
    def test_step_size_bound(self):
        with pytest.raises(ParameterError):
            reference_config(dt=1e-7)  # only 1 point per cavity lifetime

    def test_context_frequency_tightens_bound(self):
        reference_config(dt=5e-9, context_frequency=2 * OMEGA_M)  # kappa still dominates
        with pytest.raises(ParameterError):
            reference_config(kappa=1e5, dt=5e-7, context_frequency=2 * OMEGA_M)

    def test_time_window(self):
        with pytest.raises(ParameterError):
            reference_config(t_end=0.0)

    def test_positive_rates(self):
        with pytest.raises(ParameterError):
            reference_config(kappa=0.0)
        with pytest.raises(ParameterError):
            reference_config(coupling=-1e-4)


class TestAdiabaticIntensity:
    def test_zero_x2_gives_baseline(self):
        cfg = reference_config()
        assert adiabatic_intensity(0.0, cfg) == baseline_intensity(cfg)

    def test_fractional_shift_value(self):
        cfg = reference_config()
        shift = adiabatic_intensity(13.5, cfg) / baseline_intensity(cfg) - 1.0
        assert shift == pytest.approx(2.7e-10, rel=1e-6)

    def test_squeezing_visible_in_shift_ratio(self):
        cfg = reference_config()
        i0 = baseline_intensity(cfg)
        before = adiabatic_intensity(138.5, cfg) / i0 - 1.0
        after = adiabatic_intensity(0.314, cfg) / i0 - 1.0
        assert after / before == pytest.approx(0.314 / 138.5, rel=1e-4)


class TestInferX2:
    def test_identity_shift(self):
        assert infer_x2(1e-4, 1e-4, 1e-4, 1e7) == 0.0

    def test_inverts_reference_shift(self):
        assert infer_x2(1e-4 * (1 + 2.7e-10), 1e-4, 1e-4, 1e7) == pytest.approx(13.5, rel=1e-5)

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


class TestIntegrateLangevin:
    def test_uncoupled_relaxation(self):
        cfg = reference_config(coupling=0.0, t_end=2e-6)  # 20 lifetimes
        trace = integrate_langevin(cfg, lambda t: 0.0)
        assert trace.intensity[-1] == pytest.approx((1e5 / 1e7) ** 2, rel=1e-6)
        assert np.all(trace.inferred_x2 == 0.0)

    def test_trace_shapes_and_positivity(self):
        cfg = reference_config()
        trace = integrate_langevin(cfg, lambda t: 13.5)
        assert len(trace.times) == len(trace.intensity) == len(trace.inferred_x2)
        assert np.all(trace.intensity >= 0.0)
        assert trace.times[0] == cfg.t_start
        assert trace.times[-1] == pytest.approx(cfg.t_end, rel=1e-12)

    @pytest.mark.parametrize("x2", [0.5, 13.5, 138.5])
    def test_constant_x2_steady_state(self, x2):
        cfg = reference_config()
        trace = integrate_langevin(cfg, lambda t: x2)
        closed_form = (cfg.drive_amplitude / (cfg.kappa + cfg.coupling * x2)) ** 2
        assert trace.intensity[-1] == pytest.approx(closed_form, rel=1e-10)
        shift = abs(trace.intensity[-1] / trace.baseline - 1.0)
        assert shift == pytest.approx(2 * cfg.coupling * x2 / cfg.kappa, rel=1e-2)

    def test_inferred_x2_settles_to_input(self):
        cfg = reference_config()
        trace = integrate_langevin(cfg, lambda t: 13.5)
        assert trace.inferred_x2[-1] == pytest.approx(13.5, rel=1e-2)

    def test_halving_dt_converged(self):
        for x2_of_t in (lambda t: 138.5, lambda t: 137.9 + 137.2 * math.cos(2 * OMEGA_M * t)):
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
            trace = integrate_langevin(cfg, lambda t: a + b * math.cos(2 * OMEGA_M * t))
            report = analyze_trace(trace, cfg, OMEGA_M)
            expected = 2 * cfg.coupling * b / math.sqrt(kappa**2 + 4 * OMEGA_M**2)
            assert report.ripple_amplitude == pytest.approx(expected, rel=1e-3)
            assert expected == pytest.approx(
                (kappa / math.sqrt(kappa**2 + 4 * OMEGA_M**2)) * 2 * cfg.coupling * b / kappa
            )
            ripples[kappa] = report.ripple_amplitude
        assert ripples[1e8] < ripples[1e7]


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

    def test_window_too_short_rejected(self):
        cfg = reference_config(t_end=1e-6)
        with pytest.raises(ParameterError):
            ripple_report(cfg, thermal_state(13.0), OMEGA_M)

    def test_needs_positive_coupling(self):
        cfg = reference_config(coupling=0.0)
        trace = integrate_langevin(cfg, lambda t: 1.0)
        with pytest.raises(ParameterError):
            analyze_trace(trace, cfg, OMEGA_M)
