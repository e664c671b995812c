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
    SweepAxis,
    SweepCell,
    SweepSpec,
    apply_schedule,
    decoherence_term,
    effective_stiffness,
    min_pulses,
    optimal_kick_duration,
    quarter_period,
    sweep,
    thermal_occupancy,
    thermal_state,
    two_pulse_variance,
)
from quadkick import kicks, planner
from quadkick.planner import MAX_PULSES
from quadkick.state import VACUUM_VARIANCE

PARAMS = PhysicalParams()


def fold_plan(plan, params, n_bar=None):
    """The states after every kick of ``plan``, folded from the thermal state at ``n_bar``."""
    n_bar = params.occupancy() if n_bar is None else n_bar
    folded = apply_schedule(thermal_state(n_bar), plan.schedule, params)
    return [s for seg, (_, s) in zip(plan.schedule.segments, folded[1:]) if seg.kind == "kick"]


class TestMinPulses:
    def test_two_pulses_from_138(self):
        plan = min_pulses(PARAMS, occupancy=138.0)
        assert plan.pulses == 2
        final = fold_plan(plan, PARAMS, 138.0)[-1]
        assert final.var_x < VACUUM_VARIANCE
        assert final.var_x == pytest.approx(138.5 / 441.0, rel=1e-12)
        assert [seg.kind for seg in plan.schedule.segments] == ["kick", "free", "kick"]

    def test_two_pulses_at_default_temperature(self):
        # one kick lands at ~0.624, still above the vacuum level
        plan = min_pulses(PARAMS)
        assert plan.pulses == 2
        v0 = PARAMS.occupancy() + 0.5
        folded = apply_schedule(thermal_state(PARAMS.occupancy()), plan.schedule, PARAMS)
        after_first_kick = folded[1][1].var_x
        assert after_first_kick == pytest.approx(v0 / 21.0, rel=1e-12)
        assert after_first_kick > 0.5

    def test_vacuum_needs_one_pulse(self):
        # the target is strict: the vacuum sits exactly on the threshold
        plan = min_pulses(PARAMS, occupancy=0.0)
        assert plan.pulses == 1
        assert fold_plan(plan, PARAMS, 0.0)[-1].var_x == pytest.approx(0.5 / 21.0, rel=1e-12)

    def test_cap_reported_not_raised(self):
        # g̃/ω_m = 1.01: 64 kicks take var_x from n̄ + 1/2 ≈ 13.1 only to ≈ 6.9
        params = PhysicalParams(n_p=5e7)
        plan = min_pulses(params)
        assert plan.pulses == MAX_PULSES == 64
        assert not fold_plan(plan, params)[-1].var_x < VACUUM_VARIANCE

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
        assert fold_plan(lossy, params)[-1].var_x > fold_plan(lossless, params)[-1].var_x
        kinds = [seg.kind for seg in lossy.schedule.segments]
        assert kinds == ["kick", "free", "dissipate", "kick"]

    def test_occupancy_override_sets_bath_too(self):
        # gamma*tau = 1e-4: a bath at n̄ = 138 adds 0.014 to var_p per wait, one at
        # 10 K (n̄ ≈ 1.3e6) adds ≈ 131, which keeps var_x above 1/2 for good
        hot = PhysicalParams(T=10.0, gamma=1e-4 / quarter_period(1e6))
        plan = min_pulses(hot, include_dissipation=True, occupancy=138.0)
        assert plan.pulses == 2
        assert min_pulses(hot, include_dissipation=True).pulses == MAX_PULSES
        # the same schedule folded with the bath at the params' temperature squeezes nothing
        assert fold_plan(plan, hot, 138.0)[-1].var_x > 0.5

    @pytest.mark.parametrize("occupancy", [-1.0, math.nan, math.inf])
    def test_invalid_occupancy_override(self, occupancy):
        with pytest.raises(ParameterError):
            min_pulses(PARAMS, occupancy=occupancy)

    def test_cancelling_fold_still_counted(self):
        # g̃/ω_m ≈ 6.7 but the 95 mK bath refills var_p faster than the kicks
        # drain it: the target is never met.  Folding the 64-kick schedule
        # cancels var_p·var_x − cross² to 0, so only the recurrence can count it.
        params = PhysicalParams(gamma=3.1e4, g=6.99e-5, n_p=4.05e10, T=0.095)
        plan = min_pulses(params, include_dissipation=True)
        assert plan.pulses == MAX_PULSES
        with pytest.raises(InvariantViolation, match="det = 0.0"):
            apply_schedule(thermal_state(params.occupancy()), plan.schedule, params)


ONE_FOLD_PARAMS = [
    PARAMS,
    PhysicalParams(T=1e-3),
    PhysicalParams(T=1e-2, n_p=1e10),
    PhysicalParams(n_p=5e7),  # spends the whole 64-pulse budget
]


@pytest.mark.parametrize("include_dissipation", [False, True])
@pytest.mark.parametrize("params", ONE_FOLD_PARAMS, ids=lambda p: f"T={p.T:g},n_p={p.n_p:g}")
def test_min_pulses_is_the_schedule_fold(params, include_dissipation):
    # the recurrence's count is the fold's: the first kick to meet the target ends the plan
    plan = min_pulses(params, include_dissipation=include_dissipation)
    *before_last, last = fold_plan(plan, params)
    assert len(before_last) == plan.pulses - 1
    assert all(s.var_x >= 0.5 for s in before_last)
    assert (last.var_x < 0.5) == (plan.pulses < MAX_PULSES)


@pytest.mark.parametrize("include_dissipation", [False, True])
@pytest.mark.parametrize(
    "params, occupancy, pulses",
    [(PARAMS, 0.0, 1), (PARAMS, None, 2), (PhysicalParams(n_p=5e7), None, MAX_PULSES)],
)
def test_plan_is_the_canonical_kick_and_wait(params, occupancy, pulses, include_dissipation):
    # optimal kicks at t* separated by quarter-period waits τ, each followed by a
    # thermal contact of length τ with dissipation, and one kick object throughout
    plan = min_pulses(params, include_dissipation, occupancy)
    g_tilde = effective_stiffness(params.g, params.n_p, params.omega_m)
    kick = Kick(optimal_kick_duration(g_tilde, params.omega_m))
    tau = quarter_period(params.omega_m)
    wait = (Free(tau), Dissipate(tau)) if include_dissipation else (Free(tau),)
    assert plan.pulses == pulses
    assert plan.schedule.segments == (kick,) + (*wait, kick) * (pulses - 1)
    kicks_of_plan = [seg for seg in plan.schedule.segments if seg.kind == "kick"]
    assert all(seg is kicks_of_plan[0] for seg in kicks_of_plan)


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

    def test_grid_limit(self):
        # a spec allocates no grid, so a spec at the real limit builds at once
        n_p = SweepAxis("n_p", [1e10 + i for i in range(1000)])
        SweepSpec(axes=(n_p, SweepAxis("T", [1e-4 + 1e-7 * i for i in range(1000)])), base=PARAMS)
        over = (n_p, SweepAxis("T", [1e-4 + 1e-7 * i for i in range(1001)]))
        with pytest.raises(ParameterError, match=f"has 1001000 cells.*limit of {planner.MAX_CELLS}$"):
            SweepSpec(axes=over, base=PARAMS)
        # the limit is checked last: an earlier error keeps its text
        with pytest.raises(ParameterError, match="unknown observable"):
            SweepSpec(axes=over, base=PARAMS, observable="energy")


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

    @pytest.mark.parametrize("observable", ["var_x", "pulses_needed"])
    def test_cells_read_as_a_sequence(self, observable):
        axes = (SweepAxis("R", (0.4, 2.0)), SweepAxis("T", (1e-4, 1e-3, 1e-2)))
        cells = sweep(SweepSpec(axes, PARAMS, observable))
        assert type(cells) is list
        listed = list(cells)
        assert len(cells) == len(listed) == 6
        assert cells[-1] == listed[5] and cells[1:5:2] == [listed[1], listed[3]]
        assert listed[4] == SweepCell(
            (("R", 2.0), ("T", 1e-3)), None, "field R: value 2.0 is out of range"
        )
        assert all(type(cell.value) is float for cell in listed[:3])
        with pytest.raises(IndexError):
            cells[6]
        assert cells == listed and listed == cells and cells == sweep(SweepSpec(axes, PARAMS, observable))
        assert cells != listed[:5] and cells != tuple(listed)
        with pytest.raises(TypeError):
            hash(cells)

    def test_invalid_cell_marked_not_fatal(self):
        spec = SweepSpec(axes=(SweepAxis("R", (0.4, 2.0)),), base=PARAMS, observable="var_x")
        cells = sweep(spec)
        assert cells[0].error is None and cells[0].value is not None
        assert cells[1].value is None
        assert "R" in cells[1].error

    @pytest.mark.parametrize(
        "axes, observable, failed",
        [
            # a valid dissipative grid of counts: 16 axis values, 64 cells
            (
                (
                    SweepAxis("n_p", (1e7, 3e7, 1e8, 3e8, 1e9, 3e9, 1e10, 1e11)),
                    SweepAxis("T", (1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 1e-1)),
                ),
                "pulses_needed",
                0,
            ),
            # the quarter period or the stiffness overflows: three cells the grid leaves open
            ((SweepAxis("omega_m", (1e6, 1e-310)), SweepAxis("g", (1e-4, 1e300))), "var_x", 3),
        ],
        ids=["pulses_needed_8x8", "var_x_open_cells"],
    )
    def test_each_axis_value_checked_once(self, monkeypatch, axes, observable, failed):
        # README: "Each axis value is checked once"; no cell checks its params again
        check, calls = kicks.check_field, []

        def counted(name, value):
            calls.append(name)
            return check(name, value)

        monkeypatch.setattr(kicks, "check_field", counted)
        monkeypatch.setattr(planner, "check_field", counted)
        spec = SweepSpec(axes, PARAMS, observable, include_dissipation=True)
        cells = sweep(spec)
        assert len(calls) == sum(len(axis.values) for axis in axes)
        assert sum(cell.error is not None for cell in cells) == failed

    @pytest.mark.parametrize(
        "names, expected",
        [
            (("g", "n_p"), {"thermal_occupancy": 1, "quarter_period": 1, "cos": 1, "sin": 1}),
            (
                ("omega_m", "delta_tau"),
                {"thermal_occupancy": 40, "quarter_period": 40, "cos": 1600, "sin": 1600},
            ),
        ],
        ids=["g_n_p", "omega_m_delta_tau"],
    )
    def test_each_input_evaluated_once_per_distinct_value(self, monkeypatch, names, expected):
        # the grid's speed rests on this: the occupancy, the quarter period and
        # each transcendental run once per value of the axes their input
        # depends on, not once per cell, and no valid cell is evaluated twice
        spans = {
            "g": (1e-5, 1e-3), "n_p": (1e8, 1e12), "omega_m": (2e5, 5e6), "delta_tau": (1e-9, 2e-8),
        }
        axes = []
        for name in names:
            lo, hi = spans[name]
            axes.append(SweepAxis(name, [lo * (hi / lo) ** (i / 39) for i in range(40)]))
        calls = dict.fromkeys(expected, 0)

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("thermal_occupancy", "quarter_period"):
            counted(planner, name)
        for name in ("cos", "sin"):
            counted(math, name)
        cells = sweep(SweepSpec(axes, PARAMS, "var_x"))
        assert all(cell.error is None for cell in cells) and len(cells) == 1600
        assert calls == expected
