import math
from dataclasses import fields

import numpy as np
import pytest

from quadkick import kicks
from quadkick import (
    Dissipate,
    Free,
    GaussianState,
    InvariantViolation,
    Kick,
    ParameterError,
    PhysicalParams,
    PulseSchedule,
    apply_schedule,
    coupling_from_physical,
    dissipate,
    effective_stiffness,
    free_matrix,
    kick_matrix,
    optimal_kick_duration,
    propagate,
    quarter_period,
    thermal_state,
    two_pulse_variance,
)

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

    @pytest.mark.parametrize("args", [(math.nan, 1e11, 1e6), (1e-4, math.nan, 1e6),
                                      (1e-4, 1e11, math.nan)])
    def test_nan_is_out_of_domain(self, args):
        # nan fails every comparison: it must not reach the overflow check
        with pytest.raises(ParameterError, match="^effective stiffness needs g >= 0, n_p >= 0"):
            effective_stiffness(*args)

    def test_overflow_rejected(self):
        with pytest.raises(ParameterError, match="overflows"):
            effective_stiffness(10.0, 1e308, 1e6)


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

    @pytest.mark.parametrize(
        "overrides",
        [{"mass": 1e-320, "L": 1e-300}, {"wavelength": 1e-200}, {"wavelength": 1e-320}],
        ids=["zero_denominator", "omega_squared_overflows", "omega_overflows"],
    )
    def test_non_finite_coupling_rejected(self, overrides):
        with pytest.raises(ParameterError, match="not finite"):
            coupling_from_physical(PhysicalParams(**overrides))


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
        # g_tilde/omega_m underflows to 0: the map's off-diagonal would divide by 0
        with pytest.raises(ParameterError, match="underflows"):
            kick_matrix(1e-320, 1e300, 0.0)


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

    def test_domain(self):
        with pytest.raises(ParameterError, match="^omega_m must be positive, got 0.0$"):
            free_matrix(0.0, 1.0)
        with pytest.raises(ParameterError, match="^duration must be non-negative, got -1.0$"):
            free_matrix(1e6, -1.0)


class TestOptimalKickDuration:
    def test_reference_value(self):
        assert optimal_kick_duration(2.1e7, 1e6) == pytest.approx(3.427758604236288e-7, rel=1e-12)

    def test_uncoupled_gives_quarter_period(self):
        assert optimal_kick_duration(1e6, 1e6) == pytest.approx(quarter_period(1e6), rel=1e-15)

    def test_kick_diagonal_vanishes(self):
        g_tilde, omega = 5.5e7, 2.3e6
        k = kick_matrix(g_tilde, omega, optimal_kick_duration(g_tilde, omega)).m
        assert abs(k[0][0]) <= 1e-12

    @pytest.mark.parametrize("g_tilde, omega", [(1e-170, 1e-170), (1e300, 1e10)])
    def test_product_out_of_range_rejected(self, g_tilde, omega):
        # g_tilde*omega_m underflows to 0 or overflows to inf
        with pytest.raises(ParameterError, match="out of range"):
            optimal_kick_duration(g_tilde, omega)

    def test_domain(self):
        with pytest.raises(ParameterError, match=r"^optimal duration needs g_tilde > 0 and omega_m > 0$"):
            optimal_kick_duration(0.0, 1e6)

    def test_overflowing_quarter_period_rejected(self):
        with pytest.raises(ParameterError, match="quarter period overflows"):
            quarter_period(1e-320)

    def test_nan_quarter_period_rejected(self):
        with pytest.raises(ParameterError, match="omega_m must be positive, got nan"):
            quarter_period(math.nan)

    def test_quarter_period_where_twice_omega_overflows(self):
        # 2·omega_m is inf here; the quarter period is still a positive double
        assert quarter_period(1e308) == 1.5707963267948964e-308

    def test_quarter_period_is_pi_over_twice_omega(self):
        rng = np.random.default_rng(17)
        omegas = np.exp(rng.uniform(-700.0, 700.0, 20000)).tolist()
        assert all(quarter_period(w) == math.pi / (2.0 * w) for w in omegas)


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

    @pytest.mark.parametrize("field", [f.name for f in fields(PhysicalParams)])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"field {field}: value {value!r} is out of range"):
            PhysicalParams(**{field: value})

    def test_first_failing_field_reported(self):
        # the rule table is in field order, so the sweep's per-value check
        # and the constructor report the same field
        assert list(kicks._FIELD_RANGES) == [f.name for f in fields(PhysicalParams)]
        with pytest.raises(ParameterError, match="^field omega_m: value -1.0 is out of range$"):
            PhysicalParams(R=2.0, omega_m=-1.0, T=-1.0)

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

    def test_unknown_segment_type_rejected(self):
        with pytest.raises(ParameterError, match="^unknown segment type float$"):
            PulseSchedule((1.0,))

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

    def test_first_item_is_the_input_object(self):
        class Tagged(GaussianState):
            pass

        params = PhysicalParams()
        state = Tagged(var_p=3.5, var_x=3.5)
        for schedule in (PulseSchedule(), canonical_two_pulse(params)):
            folded = apply_schedule(state, schedule, params)
            assert folded[0][1] is state
            assert folded[-len(folded)][1] is state
            assert folded[:1][0][1] is state

    def test_fold_compares_as_its_list(self):
        params = PhysicalParams()
        g_tilde = effective_stiffness(params.g, params.n_p, params.omega_m)
        schedule = canonical_two_pulse(params)
        kick = kick_matrix(g_tilde, params.omega_m, schedule.segments[0].duration)
        free = free_matrix(params.omega_m, schedule.segments[1].duration)
        states = [thermal_state(3.0)]
        for smap in (kick, free, kick):
            states.append(propagate(states[-1], smap))
        expected = list(enumerate(states))
        folded = apply_schedule(states[0], schedule, params)
        assert folded == expected
        assert expected == folded
        assert folded == apply_schedule(states[0], schedule, params)
        assert folded != expected[:-1]

    def test_fold_indexing(self):
        params = PhysicalParams()
        schedule = PulseSchedule((*canonical_two_pulse(params).segments, Dissipate(1e-3)))
        folded = apply_schedule(thermal_state(3.0), schedule, params)
        assert type(folded) is list
        items = list(folded)
        assert len(folded) == len(items) == 5
        assert [i for i, _ in items] == [0, 1, 2, 3, 4]
        assert folded[-1] == items[-1] == items[4]
        assert folded[-5] == items[0]
        assert folded[1:3] == items[1:3]
        assert folded[::-2] == items[::-2]
        assert folded[7:] == []
        for k in (5, -6):
            with pytest.raises(IndexError):
                folded[k]

    def test_fold_items_are_checked_states(self):
        params = PhysicalParams(gamma=1e4)
        schedule = PulseSchedule((*canonical_two_pulse(params).segments, Dissipate(1e-5)))
        initial = GaussianState(mean=(1.0, -2.0), var_p=3.0, var_x=0.4, cross=0.2)
        folded = apply_schedule(initial, schedule, params)
        rows = kicks._fold_rows(initial, schedule, params)
        assert folded[4][1] == dissipate(folded[3][1], params.gamma, 1e-5, params.occupancy())
        for i, s in folded:
            # the state the public constructor builds from the row's moments
            assert type(s) is GaussianState
            assert s == GaussianState(mean=s.mean, var_p=s.var_p, var_x=s.var_x, cross=s.cross)
            assert rows[i] == (*s.mean, s.var_p, s.var_x, s.cross, s.det_cov)

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
        with pytest.raises(InvariantViolation, match=r"segment 1 \(free\) produced an invalid state"):
            apply_schedule(thermal_state(138.0), schedule, params)

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

    def test_underflowing_stiffness_ratio_rejected(self):
        # (g_tilde/omega_m)² underflows to 0: var_x would divide by 0
        with pytest.raises(ParameterError, match="underflows"):
            two_pulse_variance(0.0, 1e-10, 1e300, 1.0)

    def test_negative_wait_rejected(self):
        # a wait cannot be negative, as for free_matrix
        with pytest.raises(ParameterError, match="duration must be non-negative"):
            two_pulse_variance(-1e-12, 2.1e7, 1e6, 138.0)

    def test_domain(self):
        with pytest.raises(ParameterError, match="^two-pulse variance needs g_tilde > 0 and omega_m > 0$"):
            two_pulse_variance(1e-6, 0.0, 1e6, 1.0)
        with pytest.raises(ParameterError, match="^occupancy must be non-negative, got -1.0$"):
            two_pulse_variance(1e-6, 2.1e7, 1e6, -1.0)

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
