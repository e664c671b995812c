import math

import numpy as np
import pytest

from quadkick import (
    ParameterError,
    PhysicalParams,
    PlanResult,
    PulseSchedule,
    SweepAxis,
    SweepSpec,
    apply_schedule,
    decoherence_term,
    effective_stiffness,
    min_pulses,
    quarter_period,
    sweep,
    thermal_occupancy,
    thermal_state,
    two_pulse_variance,
)

PARAMS = PhysicalParams()


class TestMinPulses:
    def test_two_pulses_from_138(self):
        plan = min_pulses(PARAMS, occupancy=138.0)
        assert plan.pulses == 2
        assert plan.target_met
        assert plan.final_state.var_x == pytest.approx(138.5 / 441.0, rel=1e-12)
        assert len(plan.history) == len(plan.schedule.segments) + 1

    def test_two_pulses_at_default_temperature(self):
        # one kick lands at ~0.624, still above the vacuum level
        plan = min_pulses(PARAMS)
        assert plan.pulses == 2
        v0 = PARAMS.occupancy() + 0.5
        assert plan.history[1][1] == pytest.approx(v0 / 21.0, rel=1e-12)
        assert plan.history[1][1] > 0.5

    def test_vacuum_needs_one_pulse(self):
        # the target is strict: the vacuum sits exactly on the threshold
        plan = min_pulses(PARAMS, occupancy=0.0)
        assert plan.pulses == 1
        assert plan.final_state.var_x == pytest.approx(0.5 / 21.0, rel=1e-12)

    def test_zero_pulses_when_already_below(self):
        plan = min_pulses(PARAMS, threshold=0.6, occupancy=0.0)
        assert plan.pulses == 0
        assert plan.schedule.segments == ()
        assert plan.history == ((0.5, 0.5, 0.0),)

    def test_cap_reported_not_raised(self):
        plan = min_pulses(PARAMS, threshold=1e-30, max_pulses=5, occupancy=138.0)
        assert plan.pulses == 5
        assert not plan.target_met

    def test_agrees_with_analytic_count(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n_bar = rng.uniform(0.1, 1e6)
            ratio = rng.uniform(1.5, 50.0)
            exact = math.log((n_bar + 0.5) / 0.5) / math.log(ratio)
            if abs(exact - round(exact)) < 1e-6:
                continue  # boundary cases depend on rounding direction
            n_p = (ratio - 1.0) * PARAMS.omega_m / (2.0 * PARAMS.g)
            params = PhysicalParams(n_p=n_p)
            plan = min_pulses(params, occupancy=n_bar)
            assert plan.pulses == math.ceil(exact)

    def test_monotone_in_photons_and_temperature(self):
        photon_grid = [1e9, 1e10, 1e11]
        temp_grid = [1e-4, 1e-3, 1e-2]
        counts = {
            (n_p, T): min_pulses(PhysicalParams(n_p=n_p, T=T)).pulses
            for n_p in photon_grid
            for T in temp_grid
        }
        for T in temp_grid:
            row = [counts[(n_p, T)] for n_p in photon_grid]
            assert all(a >= b for a, b in zip(row, row[1:]))
        for n_p in photon_grid:
            col = [counts[(n_p, T)] for T in temp_grid]
            assert all(a <= b for a, b in zip(col, col[1:]))

    def test_dissipation_costs_variance(self):
        params = PhysicalParams(T=1e-3)
        lossless = min_pulses(params, include_dissipation=False)
        lossy = min_pulses(params, include_dissipation=True)
        assert lossy.pulses == lossless.pulses == 2
        assert lossy.final_state.var_x > lossless.final_state.var_x
        kinds = [seg.kind for seg in lossy.schedule.segments]
        assert kinds == ["kick", "free", "dissipate", "kick"]

    def test_occupancy_override_sets_bath_too(self):
        lossless = min_pulses(PARAMS, include_dissipation=False, occupancy=138.0)
        lossy = min_pulses(PARAMS, include_dissipation=True, occupancy=138.0)
        assert lossy.pulses == 2
        assert lossy.final_state.var_x > lossless.final_state.var_x

    def test_domain(self):
        with pytest.raises(ParameterError):
            min_pulses(PARAMS, threshold=0.0)

    def test_plan_result_history_invariant(self):
        state = thermal_state(1.0)
        with pytest.raises(ParameterError):
            PlanResult(
                pulses=0,
                schedule=PulseSchedule(),
                final_state=state,
                history=((1.5, 1.5, 0.0), (1.5, 1.5, 0.0)),
                target_met=True,
            )


ONE_FOLD_PARAMS = [
    PARAMS,
    PhysicalParams(T=1e-3),
    PhysicalParams(T=1e-2, n_p=1e10),
    PhysicalParams(n_p=5e7),  # spends the whole 64-pulse budget
]


@pytest.mark.parametrize("include_dissipation", [False, True])
@pytest.mark.parametrize("params", ONE_FOLD_PARAMS, ids=lambda p: f"T={p.T:g},n_p={p.n_p:g}")
def test_min_pulses_is_the_schedule_fold(params, include_dissipation):
    # min_pulses and apply_schedule share one fold: their states agree bit for bit
    plan = min_pulses(params, include_dissipation=include_dissipation)
    folded = apply_schedule(thermal_state(params.occupancy()), plan.schedule, params)
    assert plan.history == tuple((s.var_p, s.var_x, s.cross) for _, s in folded)
    assert plan.final_state == folded[-1][1]


def _jitter(delta_tau, observable="var_x"):
    """The observable after the two-pulse protocol with its wait offset by delta_tau."""
    spec = SweepSpec(axes=(SweepAxis("delta_tau", (delta_tau,)),), base=PARAMS, observable=observable)
    (cell,) = sweep(spec)
    return cell.value


class TestJitterSensitivity:
    V0 = PARAMS.occupancy() + 0.5

    def test_zero_offset_reaches_floor(self):
        assert _jitter(0.0) == pytest.approx(self.V0 / 441.0, rel=1e-12)
        assert _jitter(0.0, "var_p") == pytest.approx(self.V0 * 441.0, rel=1e-12)

    def test_small_offset_value(self):
        var_x = _jitter(-0.01 / PARAMS.omega_m)
        assert var_x == pytest.approx((1e-4 + 1 / 441.0) * self.V0, rel=2e-3)

    def test_worst_case_offset_no_squeezing(self):
        assert _jitter(0.5 * math.pi / PARAMS.omega_m) == pytest.approx(self.V0, rel=1e-12)


class TestSweepSpecValidation:
    def test_unknown_parameter(self):
        with pytest.raises(ParameterError):
            SweepAxis("flux_capacitance", (1.0,))

    def test_empty_values(self):
        with pytest.raises(ParameterError):
            SweepAxis("T", ())

    def test_non_finite_value(self):
        with pytest.raises(ParameterError):
            SweepAxis("T", (1.0, math.inf))

    def test_axis_count(self):
        axis = SweepAxis("T", (1.0,))
        with pytest.raises(ParameterError):
            SweepSpec(axes=(), base=PARAMS)
        with pytest.raises(ParameterError):
            SweepSpec(axes=(axis, SweepAxis("n_p", (1e10,)), SweepAxis("R", (0.1,))), base=PARAMS)

    def test_duplicate_axes(self):
        with pytest.raises(ParameterError):
            SweepSpec(axes=(SweepAxis("T", (1.0,)), SweepAxis("T", (2.0,))), base=PARAMS)

    def test_unknown_observable(self):
        with pytest.raises(ParameterError):
            SweepSpec(axes=(SweepAxis("T", (1.0,)),), base=PARAMS, observable="energy")


class TestSweep:
    def test_decoherence_across_temperatures(self):
        spec = SweepSpec(
            axes=(SweepAxis("T", (1.0, 1e-3, 1e-4)),),
            base=PARAMS,
            observable="decoherence_term",
        )
        cells = sweep(spec)
        expected = [
            decoherence_term(0.1, math.pi * 1e-6, thermal_occupancy(T, 1e6))
            for T in (1.0, 1e-3, 1e-4)
        ]
        assert [c.value for c in cells] == pytest.approx(expected, rel=1e-12)
        magnitudes = [4e-2, 4e-5, 4e-6]
        for cell, mag in zip(cells, magnitudes):
            assert mag / 1.1 <= cell.value <= mag * 1.1

    def test_no_photons_no_squeezing(self):
        spec = SweepSpec(axes=(SweepAxis("n_p", (0.0,)),), base=PARAMS, observable="var_x")
        (cell,) = sweep(spec)
        assert cell.value == pytest.approx(PARAMS.occupancy() + 0.5, rel=1e-12)

    def test_two_axis_order_and_monotonicity(self):
        spec = SweepSpec(
            axes=(
                SweepAxis("T", (1e-4, 1e-3, 1e-2)),
                SweepAxis("n_p", (1e9, 1e10, 1e11)),
            ),
            base=PARAMS,
            observable="pulses_needed",
        )
        cells = sweep(spec)
        assert len(cells) == 9
        # axis-1 major: temperature varies slowest
        assert [c.coords[0][1] for c in cells] == [1e-4] * 3 + [1e-3] * 3 + [1e-2] * 3
        for block in (cells[0:3], cells[3:6], cells[6:9]):
            counts = [c.value for c in block]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_single_point_equals_direct_evaluation(self):
        spec = SweepSpec(axes=(SweepAxis("n_p", (1e11,)),), base=PARAMS, observable="var_x")
        (cell,) = sweep(spec)
        g_tilde = effective_stiffness(PARAMS.g, PARAMS.n_p, PARAMS.omega_m)
        direct = two_pulse_variance(
            quarter_period(PARAMS.omega_m), g_tilde, PARAMS.omega_m, PARAMS.occupancy()
        )[1]
        assert cell.value == direct

    def test_jitter_axis(self):
        spec = SweepSpec(
            axes=(SweepAxis("delta_tau", (-1e-8, 0.0, 1e-8)),), base=PARAMS, observable="var_x"
        )
        cells = sweep(spec)
        assert [c.coords[0][1] for c in cells] == [-1e-8, 0.0, 1e-8]
        assert cells[1].value < cells[0].value
        assert cells[1].value < cells[2].value

    def test_invalid_cell_marked_not_fatal(self):
        spec = SweepSpec(axes=(SweepAxis("R", (0.4, 2.0)),), base=PARAMS, observable="var_x")
        cells = sweep(spec)
        assert cells[0].error is None and cells[0].value is not None
        assert cells[1].value is None
        assert "R" in cells[1].error
