import math

import numpy as np
import pytest

from quadkick import (
    Dissipate,
    Free,
    InvariantViolation,
    Kick,
    ParameterError,
    PhysicalParams,
    PulseSchedule,
    apply_schedule,
    coupling_from_physical,
    effective_stiffness,
    free_matrix,
    kick_matrix,
    optimal_kick_duration,
    quarter_period,
    thermal_state,
    two_pulse_variance,
)
from quadkick.kicks import fold

# frozen from a 50-digit evaluation of 2*hbar*omega^2/(m*omega_m*L*c)*sqrt(R/(1-R))
# at wavelength 532 nm, m = 1e-12 kg, omega_m = 1e6, L = 0.067 m, R = 0.4
COUPLING_FROZEN = 1.0748377206979388862e-4
NBAR_100UK = 12.598398495684691623


class TestEffectiveStiffness:
    def test_reference_parameters(self):
        g_tilde = effective_stiffness(1e-4, 1e11, 1e6)
        assert g_tilde == 2.1e7
        assert g_tilde / 1e6 == 21.0

    def test_uncoupled_limit(self):
        assert effective_stiffness(0.0, 1e11, 1e6) == 1e6

    def test_domain(self):
        with pytest.raises(ParameterError):
            effective_stiffness(-1e-4, 1e11, 1e6)
        with pytest.raises(ParameterError):
            effective_stiffness(1e-4, 1e11, 0.0)


class TestCouplingFromPhysical:
    def test_reference_value(self):
        assert coupling_from_physical(PhysicalParams()) == pytest.approx(
            COUPLING_FROZEN, rel=1e-12
        )

    def test_transparent_membrane(self):
        params = PhysicalParams(R=0.0)
        assert coupling_from_physical(params) == 0.0

    def test_half_reflectivity_unit_factor(self):
        # sqrt(R/(1-R)) = 1, leaving the bare geometric prefactor
        params = PhysicalParams(R=0.5)
        hbar, c = 1.054571817e-34, 2.99792458e8
        omega_opt = 2 * math.pi * c / params.wavelength
        expected = 2 * hbar * omega_opt**2 / (params.mass * params.omega_m * params.L * c)
        assert coupling_from_physical(params) == pytest.approx(expected, rel=1e-13)

    def test_reflectivity_bound(self):
        with pytest.raises(ParameterError):
            PhysicalParams(R=1.0)


class TestKickMatrix:
    def test_zero_time_identity(self):
        assert np.array_equal(kick_matrix(2.1e7, 1e6, 0.0).m, np.eye(2))

    def test_degenerates_to_free_rotation(self):
        for t in (0.0, 1e-7, 7.7e-7, 3e-6):
            k = kick_matrix(1e6, 1e6, t).m
            f = free_matrix(1e6, t).m
            assert np.allclose(k, f, atol=1e-12, rtol=0)

    def test_antidiagonal_at_optimal_duration(self):
        t_star = math.pi / (2 * math.sqrt(2.1e13))
        k = kick_matrix(2.1e7, 1e6, t_star).m
        up = math.sqrt(21.0)
        assert abs(k[0][0]) <= 1e-12 and abs(k[1][1]) <= 1e-12
        assert k[0][1] == pytest.approx(-up, rel=1e-12)
        assert k[1][0] == pytest.approx(1 / up, rel=1e-12)
        assert k[0][1] == pytest.approx(-4.583, rel=1e-3)
        assert k[1][0] == pytest.approx(0.2182, rel=1e-3)

    def test_scaling_factors_product_is_one(self):
        k = kick_matrix(2.1e7, 1e6, optimal_kick_duration(2.1e7, 1e6)).m
        assert abs(k[0][1] * k[1][0]) == pytest.approx(1.0, rel=1e-12)

    def test_unit_determinant_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            omega = 10 ** rng.uniform(3, 9)
            g_tilde = omega * rng.uniform(1, 100)
            t = rng.uniform(0, 10) / math.sqrt(g_tilde * omega)
            k = kick_matrix(g_tilde, omega, t)
            f = free_matrix(omega, rng.uniform(0, 10) / omega)
            assert abs(k.det - 1.0) <= 1e-12
            assert abs(f.det - 1.0) <= 1e-12

    def test_domain(self):
        with pytest.raises(ParameterError):
            kick_matrix(0.0, 1e6, 1e-7)
        with pytest.raises(ParameterError):
            kick_matrix(2.1e7, 1e6, -1e-7)
        with pytest.raises(ParameterError, match="angle"):
            kick_matrix(2.1e7, 1e6, 1e303)


class TestFreeMatrix:
    def test_quarter_period_antidiagonal(self):
        m = free_matrix(1e6, math.pi / 2e6).m
        assert np.allclose(m, [[0, -1], [1, 0]], atol=1e-12)

    def test_full_period_identity(self):
        m = free_matrix(1e6, 2 * math.pi / 1e6).m
        assert np.allclose(m, np.eye(2), atol=1e-12)

    def test_zero_time_identity(self):
        assert np.array_equal(free_matrix(1e6, 0.0).m, np.eye(2))

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ParameterError, match="angle"):
            free_matrix(1e6, 1e303)


class TestOptimalKickDuration:
    def test_reference_value(self):
        assert optimal_kick_duration(2.1e7, 1e6) == pytest.approx(3.427758604236288e-7, rel=1e-12)

    def test_uncoupled_gives_quarter_period(self):
        assert optimal_kick_duration(1e6, 1e6) == pytest.approx(quarter_period(1e6), rel=1e-15)

    def test_kick_diagonal_vanishes(self):
        g_tilde, omega = 5.5e7, 2.3e6
        k = kick_matrix(g_tilde, omega, optimal_kick_duration(g_tilde, omega)).m
        assert abs(k[0][0]) <= 1e-12


class TestPhysicalParams:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("g", -1e-4),
            ("omega_m", 0.0),
            ("n_p", -1.0),
            ("kappa", 0.0),
            ("gamma", -0.1),
            ("T", -1e-4),
            ("mass", 0.0),
            ("L", -0.067),
            ("wavelength", 0.0),
            ("R", 1.0),
            ("R", -0.1),
        ],
    )
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            PhysicalParams(**{field: value})

    def test_defaults_valid(self):
        params = PhysicalParams()
        assert params.occupancy() == pytest.approx(NBAR_100UK, rel=1e-12)


class TestScheduleTypes:
    def test_negative_duration_rejected(self):
        for seg in (Kick, Free, Dissipate):
            with pytest.raises(ParameterError):
                seg(-1e-7)

    def test_non_finite_duration_rejected(self):
        with pytest.raises(ParameterError):
            Free(math.inf)

    def test_negative_photons_rejected(self):
        with pytest.raises(ParameterError):
            Kick(1e-7, n_p=-1.0)

    def test_empty_schedule_allowed(self):
        assert PulseSchedule().segments == ()


def canonical_two_pulse(params, tau=None):
    g_tilde = effective_stiffness(params.g, params.n_p, params.omega_m)
    t_star = optimal_kick_duration(g_tilde, params.omega_m)
    tau = quarter_period(params.omega_m) if tau is None else tau
    return PulseSchedule((Kick(t_star), Free(tau), Kick(t_star)))


class TestApplySchedule:
    def test_two_pulse_protocol_from_nbar_138(self):
        params = PhysicalParams()
        folded = apply_schedule(thermal_state(138.0), canonical_two_pulse(params), params)
        final = folded[-1][1]
        assert final.var_x == pytest.approx(138.5 / 441.0, rel=1e-12)
        assert final.var_x < 0.5

    def test_intermediate_states_cold_oscillator(self):
        params = PhysicalParams()
        v0 = NBAR_100UK + 0.5
        folded = apply_schedule(thermal_state(NBAR_100UK), canonical_two_pulse(params), params)
        assert folded[1][1].var_x == pytest.approx(v0 / 21.0, rel=1e-12)  # ~0.624: not enough
        assert folded[1][1].var_x > 0.5
        assert folded[-1][1].var_x == pytest.approx(v0 / 441.0, rel=1e-12)  # ~0.0297

    def test_empty_schedule_returns_input(self):
        params = PhysicalParams()
        state = thermal_state(3.0)
        folded = apply_schedule(state, PulseSchedule(), params)
        assert folded == [(0, state)]

    def test_segment_indices(self):
        params = PhysicalParams()
        folded = apply_schedule(thermal_state(1.0), canonical_two_pulse(params), params)
        assert [i for i, _ in folded] == [0, 1, 2, 3]

    def test_per_segment_photon_override(self):
        params = PhysicalParams()
        # a kick with no photons is a plain rotation and cannot squeeze
        t_q = quarter_period(params.omega_m)
        folded = apply_schedule(
            thermal_state(5.0), PulseSchedule((Kick(t_q, n_p=0.0),)), params
        )
        assert folded[-1][1].var_x == pytest.approx(5.5, rel=1e-12)

    def test_invariant_violation_reports_segment(self):
        params = PhysicalParams()
        g_big = effective_stiffness(params.g, 1e300, params.omega_m)
        t_big = optimal_kick_duration(g_big, params.omega_m)
        schedule = PulseSchedule(
            (Kick(t_big, n_p=1e300), Free(quarter_period(params.omega_m)), Kick(t_big, n_p=1e300))
        )
        with pytest.raises(InvariantViolation) as excinfo:
            apply_schedule(thermal_state(138.0), schedule, params)
        assert excinfo.value.segment_index is not None
        assert str(excinfo.value.segment_index) in str(excinfo.value)

    def test_fold_is_lazy(self):
        # the failing second segment is never evaluated when only the first is taken
        params = PhysicalParams()
        states = fold(thermal_state(1.0), (Free(1e-7), Free(1e303)), params, 0.0)
        assert next(states) == apply_schedule(
            thermal_state(1.0), PulseSchedule((Free(1e-7),)), params
        )[1][1]

    def test_dissipation_segment_uses_bath_occupancy(self):
        params = PhysicalParams(T=1e-3)
        n_env = params.occupancy()
        schedule = PulseSchedule((Dissipate(1e3),))  # gamma*tau = 100: bath fixed point
        final = apply_schedule(thermal_state(0.0), schedule, params)[-1][1]
        assert final.var_x == pytest.approx(n_env + 0.5, rel=1e-9)


class TestTwoPulseVariance:
    def test_quarter_period_values(self):
        var_p, var_x = two_pulse_variance(quarter_period(1e6), 2.1e7, 1e6, 138.0)
        assert var_p == pytest.approx(441.0 * 138.5, rel=1e-12)
        assert var_x == pytest.approx(138.5 / 441.0, rel=1e-12)
        assert var_x == pytest.approx(0.314, rel=1e-3)

    def test_zero_wait_is_noop_on_variances(self):
        # two back-to-back antidiagonal kicks compose to -identity
        var_p, var_x = two_pulse_variance(0.0, 2.1e7, 1e6, 138.0)
        assert var_p == 138.5
        assert var_x == 138.5

    def test_timing_error_degrades_squeezing(self):
        tau = (math.pi / 2 - 0.01) / 1e6
        _, var_x = two_pulse_variance(tau, 2.1e7, 1e6, 138.0)
        assert var_x == pytest.approx((1e-4 + 1 / 441) * 138.5, rel=1e-3)
        assert var_x == pytest.approx(0.328, rel=2e-3)

    def test_matches_composition_on_grid(self):
        # independent oracle: explicit 2x2 matrix product K * M_f(tau) * K
        params = PhysicalParams()
        g_tilde = effective_stiffness(params.g, params.n_p, params.omega_m)
        t_star = optimal_kick_duration(g_tilde, params.omega_m)
        state = thermal_state(138.0)
        for tau in np.linspace(0.0, math.pi / params.omega_m, 100):
            composite = (
                np.array(kick_matrix(g_tilde, params.omega_m, t_star).m)
                @ np.array(free_matrix(params.omega_m, tau).m)
                @ np.array(kick_matrix(g_tilde, params.omega_m, t_star).m)
            )
            cov = composite @ state.cov @ composite.T
            var_p, var_x = two_pulse_variance(tau, g_tilde, params.omega_m, 138.0)
            assert var_p == pytest.approx(cov[0, 0], rel=1e-12)
            assert var_x == pytest.approx(cov[1, 1], rel=1e-12)

    def test_overflow_rejected(self):
        with pytest.raises(ParameterError, match="not finite"):
            two_pulse_variance(quarter_period(1e6), 2e296, 1e6, 12.6)

    def test_var_x_minimized_at_quarter_period(self):
        taus = np.linspace(0.0, math.pi / 1e6, 201)  # odd count: includes pi/2 exactly
        var_x = [two_pulse_variance(t, 2.1e7, 1e6, 138.0)[1] for t in taus]
        assert int(np.argmin(var_x)) == 100

    def test_var_p_maximized_at_quarter_period(self):
        taus = np.linspace(0.0, math.pi / 1e6, 201)
        var_p = [two_pulse_variance(t, 2.1e7, 1e6, 138.0)[0] for t in taus]
        assert int(np.argmax(var_p)) == 100

    def test_momentum_never_squeezed_by_one_kick(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            omega = 1e6
            g_tilde = omega * rng.uniform(1.0 + 1e-6, 100.0)
            state = thermal_state(rng.uniform(0, 50))
            t = rng.uniform(0, 4) / math.sqrt(g_tilde * omega)
            k = np.array(kick_matrix(g_tilde, omega, t).m)
            out_var_p = (k @ state.cov @ k.T)[0, 0]
            assert out_var_p >= state.var_p * (1 - 1e-12)
