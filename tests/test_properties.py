"""Property tests over drawn states and parameters (hypothesis, derandomized).

Each property is a law of the model that must hold for every drawn input;
the draws stay inside the ranges where the law is exact up to round-off, so
no tolerance here absorbs a modelling error.
"""

import contextlib
import io
import itertools
import json
import math
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadkick import (
    Dissipate,
    Free,
    GaussianState,
    InvariantViolation,
    Kick,
    PhysicalParams,
    PulseSchedule,
    ReadoutConfig,
    SymplecticMap,
    adiabatic_intensity,
    analyze_trace,
    apply_schedule,
    baseline_intensity,
    decoherence_term,
    dissipate,
    effective_stiffness,
    free_matrix,
    free_x2_harmonics,
    integrate_langevin,
    kick_matrix,
    min_pulses,
    optimal_kick_duration,
    propagate,
    quarter_period,
    thermal_state,
    two_pulse_variance,
)
from quadkick.cli import main, parse_schedule
from quadkick.errors import ParameterError, QuadkickError
from quadkick.planner import (
    MAX_PULSES, OBSERVABLES, SweepAxis, SweepSpec, _pulse_count, sweep,
)
from quadkick.readout import N_PERIODS, SETTLE_FACTOR

OMEGA_M = 1e6
SWEEP_NAMES = tuple(f.name for f in fields(PhysicalParams)) + ("delta_tau",)

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=200)
# each readout example integrates a trace of up to 1e5 RK4 steps
READOUT = settings(derandomize=True, deadline=None, max_examples=20)


@st.composite
def states(draw):
    """A zero-mean rotated squeezed thermal state: det(cov) = v² >= 1/4."""
    v = draw(st.floats(0.5, 20.0))
    r = draw(st.floats(0.0, 2.0))
    theta = draw(st.floats(0.0, math.pi))
    c, s = math.cos(theta), math.sin(theta)
    big, small = v * math.exp(2.0 * r), v * math.exp(-2.0 * r)
    return GaussianState(
        var_p=big * c * c + small * s * s,
        var_x=big * s * s + small * c * c,
        cross=(big - small) * c * s,
    )


kappas = st.floats(5e6, 1e8)


@READOUT
@given(state=states(), kappa=kappas)
def test_dc_shift_is_mean_x2(state, kappa):
    # a zero-mean state's ⟨x²(t)⟩ oscillates about (var_p + var_x)/2
    cfg = ReadoutConfig(kappa=kappa, coupling=1e-4, omega_m=OMEGA_M)
    mean_x2 = 0.5 * (state.var_p + state.var_x)
    report = analyze_trace(integrate_langevin(cfg, free_x2_harmonics(state)))
    assert report.dc_shift == pytest.approx(mean_x2, rel=1e-7)


@READOUT
@given(state=states(), kappa=kappas)
def test_dc_shift_has_the_sign_of_the_adiabatic_intensity(state, kappa):
    # the intensity falls by 2g·dc_shift/kappa: below the baseline, as the closed form
    cfg = ReadoutConfig(kappa=kappa, coupling=1e-4, omega_m=OMEGA_M)
    report = analyze_trace(integrate_langevin(cfg, free_x2_harmonics(state)))
    integrated = -2.0 * cfg.coupling * report.dc_shift / kappa
    mean_x2 = 0.5 * (state.var_p + state.var_x)
    closed_form = adiabatic_intensity(mean_x2, cfg) / baseline_intensity(cfg) - 1.0
    assert integrated < 0.0 and closed_form < 0.0


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(log_kappa=st.floats(-320.0, 308.0), log_ratio=st.floats(-4.5, 4.0))
# the step count meets MAX_STEPS at omega_m/kappa = 6,248.7 and kappa/omega_m = 9,946.4
@example(log_kappa=0.0, log_ratio=math.log10(6248.7))
@example(log_kappa=0.0, log_ratio=-math.log10(9946.3))
@example(log_kappa=-149.127, log_ratio=math.log10(6248.7))
@example(log_kappa=158.82, log_ratio=-math.log10(9946.3))
# rejected: a baseline that is not a normal double, a window that overflows
@example(log_kappa=-300.0, log_ratio=-0.3)
@example(log_kappa=300.0, log_ratio=-0.3)
@example(log_kappa=-307.5, log_ratio=0.0)
def test_probe_window_is_whole_periods(log_kappa, log_ratio):
    # analyze_trace fits the last N_PERIODS periods π/omega_m of a probe's grid: on
    # every accepted probe the settle leaves exactly that many whole periods by the
    # rule floor((t_end - settle)/period + 1e-9), and each period holds at least
    # 40π ≈ 125.7 steps, so the fit's normal equations are never singular
    kappa = 10.0**log_kappa
    try:
        cfg = ReadoutConfig(kappa=kappa, coupling=1e-4, omega_m=kappa * 10.0**log_ratio)
    except ParameterError:
        return
    period = math.pi / cfg.omega_m
    assert math.floor((cfg.t_end - SETTLE_FACTOR / cfg.kappa) / period + 1e-9) == N_PERIODS
    assert period / cfg.step >= 125.0


@DERANDOMIZED
@given(
    state=states(),
    ratio=st.floats(1.0, 1e3),
    phase=st.floats(0.0, 10.0),
    kick=st.booleans(),
)
def test_maps_keep_the_determinant(state, ratio, phase, kick):
    # det = var_p·var_x - cross² is rounded relative to the var_p·var_x of the
    # state it is taken of; a kick can stretch that product of a squeezed state
    # 1e5-fold, so the scale is the larger of the two states' products
    g_tilde = ratio * OMEGA_M
    if kick:
        smap = kick_matrix(g_tilde, OMEGA_M, phase / math.sqrt(g_tilde * OMEGA_M))
    else:
        smap = free_matrix(OMEGA_M, phase / OMEGA_M)
    after = propagate(state, smap)
    scale = max(state.var_p * state.var_x, after.var_p * after.var_x)
    assert abs(after.det_cov - state.det_cov) <= 1e-12 * scale


@DERANDOMIZED
@given(tau=st.floats(0.0, 1.0), n_bar=st.floats(0.0, 200.0))
def test_two_pulse_variance_is_the_kick_free_kick_fold(tau, n_bar):
    params = PhysicalParams()
    g_tilde = effective_stiffness(params.g, params.n_p, params.omega_m)
    t_star = optimal_kick_duration(g_tilde, params.omega_m)
    schedule = PulseSchedule((Kick(t_star), Free(tau), Kick(t_star)))
    _, folded = apply_schedule(thermal_state(n_bar), schedule, params)[-1]
    var_p, var_x = two_pulse_variance(tau, g_tilde, params.omega_m, n_bar)
    assert var_p == pytest.approx(folded.var_p, rel=1e-12)
    assert var_x == pytest.approx(folded.var_x, rel=1e-12)


@DERANDOMIZED
@given(
    state=states(),
    gamma=st.floats(0.0, 1e3),
    t1=st.floats(0.0, 1e-2),
    t2=st.floats(0.0, 1e-2),
    n_env=st.floats(0.0, 1e3),
)
def test_dissipation_is_a_semigroup(state, gamma, t1, t2, n_env):
    twice = dissipate(dissipate(state, gamma, t1, n_env), gamma, t2, n_env)
    once = dissipate(state, gamma, t1 + t2, n_env)
    for a, b in zip(
        (*twice.mean, twice.var_p, twice.var_x, twice.cross),
        (*once.mean, once.var_p, once.var_x, once.cross),
    ):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)


@DERANDOMIZED
@given(gamma=st.floats(0.0, 1e3), tau=st.floats(0.0, 1e-2), n_env=st.floats(0.0, 1e3))
def test_bath_thermal_state_is_fixed(gamma, tau, n_env):
    bath = thermal_state(n_env)
    after = dissipate(bath, gamma, tau, n_env)
    assert after.var_p == pytest.approx(bath.var_p, rel=1e-12, abs=0.0)
    assert after.var_x == pytest.approx(bath.var_x, rel=1e-12, abs=0.0)
    assert (after.mean, after.cross) == ((0.0, 0.0), 0.0)


def decades(lo, hi):
    """Floats spread evenly over the decades 10**lo … 10**hi."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def cells(draw):
    """Planner cells over the ranges of a dissipative sweep, n_p down to 1e6."""
    return PhysicalParams(
        n_p=draw(decades(6, 12)), T=draw(decades(-6, 1)),
        gamma=draw(decades(-3, 5)), g=draw(decades(-5, -3)),
    )


@DERANDOMIZED
@given(params=cells(), include_dissipation=st.booleans())
def test_pulse_count_is_the_first_kick_below_vacuum(params, include_dissipation):
    # the fold of the plan is an independent oracle for the recurrence's count
    plan = min_pulses(params, include_dissipation=include_dissipation)
    try:
        folded = apply_schedule(thermal_state(params.occupancy()), plan.schedule, params)
    except InvariantViolation:
        assume(False)  # the fold cancels det(cov) to 0 on some unreachable cells
    kicks = [s for seg, (_, s) in zip(plan.schedule.segments, folded[1:]) if seg.kind == "kick"]
    assert len(kicks) == plan.pulses
    assert all(s.var_x >= 0.5 for s in kicks[:-1])
    assert kicks[-1].var_x < 0.5 or plan.pulses == MAX_PULSES


@DERANDOMIZED
@given(params=cells(), include_dissipation=st.booleans(), hotter=decades(-6, 1),
       brighter=decades(6, 12))
def test_pulse_count_is_monotone(params, include_dissipation, hotter, brighter):
    # a hotter start and bath never need fewer kicks, a brighter pulse never more
    def count(**change):
        return min_pulses(replace(params, **change), include_dissipation).pulses

    base = count()
    assert count(T=max(params.T, hotter)) >= base
    assert count(n_p=max(params.n_p, brighter)) <= base


# extremes for every axis: signed zeros, subnormals, overflow-prone magnitudes,
# and delta_tau offsets at and beyond minus the quarter period π/(2·1e6)
EXTREMES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-154, 0.5, 1.0,
    0.9999999999999999, 1e154, 1e300, 1.7e308, 1.7976931348623157e308, -1.0, -1e-4, -1.7e308,
    -1.5707963267948966e-06, -1.5707963267948968e-06, -2e-6, 1e-8,
)
axis_values = st.one_of(
    st.sampled_from(EXTREMES),
    decades(-10, 13),
    decades(-10, 13).map(lambda v: -v),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def closed_form_sweeps(draw):
    """Grids of 1 or 2 axes over every field and delta_tau, on a few bases."""
    names = draw(st.lists(st.sampled_from(SWEEP_NAMES), min_size=1, max_size=2, unique=True))
    axes = [SweepAxis(name, draw(st.lists(axis_values, min_size=1, max_size=6))) for name in names]
    base = draw(st.sampled_from((
        PhysicalParams(), PhysicalParams(g=10.0), PhysicalParams(omega_m=1e-300),
        PhysicalParams(T=0.0), PhysicalParams(gamma=0.0), PhysicalParams(n_p=1e300),
    )))
    observable = draw(st.sampled_from(("var_x", "var_p", "decoherence_term")))
    return SweepSpec(tuple(axes), base, observable, draw(st.booleans()))


# the decades of the planner fields that ``cells`` draws, and omega_m around its default
PLANNER_DECADES = {
    "n_p": (6, 12), "T": (-6, 1), "gamma": (-3, 5), "g": (-5, -3), "omega_m": (5, 7),
}


@st.composite
def small_sweeps(draw):
    """Grids of at most 4×4 over every field and delta_tau, for every observable;
    the axis values stray out of range on either axis, both, or neither."""
    names = draw(st.lists(st.sampled_from(SWEEP_NAMES), min_size=1, max_size=2, unique=True))
    axes = []
    for name in names:
        # a planner cell's range mixed in, so pulse counts between 1 and the budget turn up
        values = st.one_of(axis_values, decades(*PLANNER_DECADES.get(name, (-10, 13))))
        axes.append(SweepAxis(name, draw(st.lists(values, min_size=1, max_size=4))))
    base = draw(st.sampled_from((
        PhysicalParams(), PhysicalParams(n_p=5e7), PhysicalParams(g=10.0),
        PhysicalParams(omega_m=1e-300), PhysicalParams(T=0.0), PhysicalParams(gamma=3.1e4),
    )))
    return SweepSpec(tuple(axes), base, draw(st.sampled_from(OBSERVABLES)), draw(st.booleans()))


def reference_cell(spec, coords):
    """One cell from the public API alone: the substituted params, then the observable."""
    params = replace(spec.base, **{name: v for name, v in coords if name != "delta_tau"})
    if spec.observable == "pulses_needed":
        return float(min_pulses(params, include_dissipation=spec.include_dissipation).pulses)
    if spec.observable == "decoherence_term":
        return decoherence_term(params.gamma, math.pi / params.omega_m, params.occupancy())
    g_tilde = effective_stiffness(params.g, params.n_p, params.omega_m)
    tau = quarter_period(params.omega_m) + dict(coords).get("delta_tau", 0.0)
    var_p, var_x = two_pulse_variance(tau, g_tilde, params.omega_m, params.occupancy())
    return var_x if spec.observable == "var_x" else var_p


def assert_sweep_is_reference(spec):
    """``sweep(spec)`` gives every cell's ``reference_cell`` double, or its exact error text."""
    grids = [[(axis.name, v) for v in axis.values] for axis in spec.axes]
    expected = []
    for coords in itertools.product(*grids):
        try:
            expected.append((coords, reference_cell(spec, coords).hex(), None))
        except QuadkickError as exc:
            expected.append((coords, None, str(exc)))
    got = [(c.coords, None if c.value is None else c.value.hex(), c.error) for c in sweep(spec)]
    assert got == expected


@DERANDOMIZED
@given(spec=closed_form_sweeps())
# at T = 0 the occupancy is 0 for any omega_m, so only the wait π/omega_m overflows
@example(spec=SweepSpec(
    (SweepAxis("omega_m", (5e-324, 1e6)),), PhysicalParams(T=0.0), "decoherence_term"
))
# the grid leaves a cell open on its wait, angle or result alone: an overflowing
# stiffness g̃ at a zero sine (tau = 0) gives a finite var_x but a nan var_p,
@example(spec=SweepSpec(
    (SweepAxis("delta_tau", (-1.5707963267948967e-06, 0.0)),), PhysicalParams(g=1e10, n_p=1e300),
    "var_x",
))
# an overflowing occupancy a non-finite result, with and without decay,
@example(spec=SweepSpec((SweepAxis("omega_m", (1e-300, 1e6)),), PhysicalParams(g=0.0), "var_p"))
@example(spec=SweepSpec(
    (SweepAxis("gamma", (0.0, 0.1)),), PhysicalParams(omega_m=1e-300), "decoherence_term"
))
# and an overflowing quarter period an infinite angle
@example(spec=SweepSpec(
    (SweepAxis("omega_m", (5e-324, 1e6)),), PhysicalParams(g=0.0, T=0.0), "var_x"
))
def test_closed_form_grid_is_the_scalar_cell(spec):
    # the grid evaluation gives every cell's double, or its exact error text
    assert_sweep_is_reference(spec)


@DERANDOMIZED
@given(spec=small_sweeps())
# both values out of range: the cell reports g, the first in field order, not the first axis
@example(spec=SweepSpec(
    (SweepAxis("T", (-1.0, 1e-4)), SweepAxis("g", (-1.0, 1e-4))), PhysicalParams(),
    "pulses_needed", True,
))
def test_sweep_is_the_per_cell_reference(spec):
    # each axis value is checked once and no cell builds its params, yet every
    # cell is the per-cell evaluation's double, or its exact error text: the
    # cells the closed-form grid leaves open, and the pulse counts
    assert_sweep_is_reference(spec)


@st.composite
def count_params(draw):
    """Planner cells, and cells whose stiffness, kick or quarter period overflows
    or underflows."""
    extreme = st.sampled_from((5e-324, 1e-310, 1e-200, 1e-154, 1.0, 1e154, 1e200, 1e300))
    if draw(st.booleans()):
        return draw(cells())
    return PhysicalParams(**{
        name: draw(st.one_of(extreme, decades(*span))) for name, span in PLANNER_DECADES.items()
    })


def outcome(fn, *args):
    """``fn(*args)``, or the text of the QuadkickError it raises."""
    try:
        return fn(*args), None
    except QuadkickError as exc:
        return None, str(exc)


@DERANDOMIZED
@given(
    params=count_params(), include_dissipation=st.booleans(),
    occupancy=st.one_of(
        st.none(), decades(-6, 6), st.sampled_from((0.0, -1.0, 1e308, math.inf, math.nan)),
    ),
)
def test_pulse_count_is_min_pulses(params, include_dissipation, occupancy):
    # the count without a schedule is the plan's, and raises exactly what the plan raises
    count, count_error = outcome(_pulse_count, vars(params), include_dissipation, occupancy)
    plan, plan_error = outcome(min_pulses, params, include_dissipation, occupancy)
    assert count_error == plan_error
    if plan is not None:
        assert count == plan.pulses
        assert sum(isinstance(seg, Kick) for seg in plan.schedule.segments) == count


def reference_fold(state, schedule, params):
    """``apply_schedule`` with every map built by ``SymplecticMap(((a, b), (c, d)))``
    and every state by ``GaussianState(...)``, the public constructors."""
    n_env = params.occupancy()
    folded = [(0, state)]
    for i, seg in enumerate(schedule.segments):
        try:
            p, x = state.mean
            if isinstance(seg, Dissipate):
                add = decoherence_term(params.gamma, seg.duration, n_env)
                decay = math.exp(-params.gamma * seg.duration)
                shrink = math.exp(-0.5 * params.gamma * seg.duration)
                state = GaussianState(
                    mean=(shrink * p, shrink * x),
                    var_p=decay * state.var_p + add,
                    var_x=decay * state.var_x + add,
                    cross=decay * state.cross,
                )
            else:
                if isinstance(seg, Kick):
                    n_p = params.n_p if seg.n_p is None else seg.n_p
                    g_tilde = effective_stiffness(params.g, n_p, params.omega_m)
                    theta = math.sqrt(g_tilde * params.omega_m) * seg.duration
                    up = math.sqrt(g_tilde / params.omega_m)
                else:
                    theta, up = params.omega_m * seg.duration, 1.0
                c, s = math.cos(theta), math.sin(theta)
                smap = SymplecticMap(((c, -up * s), (s / up, c)))
                (a, b), (c, d) = smap.m
                vp, vx, cx = state.var_p, state.var_x, state.cross
                rp, rpx = a * vp + b * cx, a * cx + b * vx
                rxp, rx = c * vp + d * cx, c * cx + d * vx
                state = GaussianState(
                    mean=(a * p + b * x, c * p + d * x),
                    var_p=rp * a + rpx * b,
                    var_x=rxp * c + rx * d,
                    cross=0.5 * (rp * c + rpx * d + (rxp * a + rx * b)),
                )
        except QuadkickError as exc:
            raise InvariantViolation(f"segment {i} ({seg.kind}) produced an invalid state: {exc}")
        folded.append((i + 1, state))
    return folded


def _outcome(fold, state, schedule, params):
    """The bits of every folded moment, or the error text."""
    try:
        folded = fold(state, schedule, params)
    except InvariantViolation as exc:
        return str(exc)
    return [(i, [v.hex() for v in (*s.mean, s.var_p, s.var_x, s.cross)]) for i, s in folded]


FOLD_TOKEN = st.one_of(
    st.sampled_from(("kick", "kick:0", "free", "free:-0", "diss")),
    decades(7, 13).map(lambda n_p: f"kick:{n_p!r}"),
    st.floats(0.0, 1e-5).map(lambda s: f"free:{s!r}"),
    decades(-9, -2).map(lambda s: f"diss:{s!r}"),
)


def exact_fold(state, schedule, params):
    """The fold in exact arithmetic: each segment's float map entries and
    dissipation factors taken as ``Fraction``s, so every state's row
    (p, x, var_p, var_x, cross, det) is exact for those factors."""
    n_env = params.occupancy()
    p, x = map(Fraction, state.mean)
    vp, vx, cx = map(Fraction, (state.var_p, state.var_x, state.cross))
    rows = [(p, x, vp, vx, cx, vp * vx - cx * cx)]
    for seg in schedule.segments:
        if isinstance(seg, Dissipate):
            gamma, tau = params.gamma, seg.duration
            decay, shrink = Fraction(math.exp(-gamma * tau)), Fraction(math.exp(-0.5 * gamma * tau))
            add = Fraction(decoherence_term(gamma, tau, n_env))
            p, x, vp, vx, cx = shrink * p, shrink * x, decay * vp + add, decay * vx + add, decay * cx
        else:
            if isinstance(seg, Kick):
                n_p = params.n_p if seg.n_p is None else seg.n_p
                g_tilde = effective_stiffness(params.g, n_p, params.omega_m)
                smap = kick_matrix(g_tilde, params.omega_m, seg.duration)
            else:
                smap = free_matrix(params.omega_m, seg.duration)
            (a, b), (c, d) = ((Fraction(u), Fraction(v)) for u, v in smap.m)
            p, x = a * p + b * x, c * p + d * x
            vp, vx, cx = (
                a * a * vp + 2 * a * b * cx + b * b * vx,
                c * c * vp + 2 * c * d * cx + d * d * vx,
                a * c * vp + (a * d + b * c) * cx + b * d * vx,
            )
        rows.append((p, x, vp, vx, cx, vp * vx - cx * cx))
    return rows


def test_exact_fold_keeps_det_over_19_kick_free_pairs():
    # the float fold cancels det(cov) to 0 at segment 37 of this schedule and
    # exits 4; the exact one keeps (n̄ + 1/2)² up to the maps' rounded entries
    params = PhysicalParams()
    schedule = parse_schedule(";".join(["kick;free"] * 19), params)
    rows = exact_fold(thermal_state(params.occupancy()), schedule, params)
    assert len(rows) == 39
    assert f"{float(rows[-1][5]):.12g}" == "171.568043152"


@DERANDOMIZED
@given(
    tokens=st.lists(FOLD_TOKEN, max_size=8),
    dissipation=st.booleans(),
    gamma=decades(-2, 5),
    T=decades(-6, -2),
)
def test_fold_is_the_exact_fold(tokens, dissipation, gamma, T):
    # a short fold loses no digits: its variances and its printed det_cov are
    # the exact ones to 1e-12. The exact cross can be ~1e-16 of the covariance
    # (the cos(π/2) of a kick), so its scale is sqrt(var_p·var_x), not itself
    params = PhysicalParams(gamma=gamma, T=T)
    schedule = parse_schedule(";".join(tokens), params, dissipation)
    initial = thermal_state(params.occupancy())
    tol = Fraction(1e-12)
    for (_, s), (_, _, vp, vx, cx, det) in zip(
        apply_schedule(initial, schedule, params), exact_fold(initial, schedule, params)
    ):
        assert abs(Fraction(s.var_p) - vp) <= tol * vp
        assert abs(Fraction(s.var_x) - vx) <= tol * vx
        assert abs(s.cross - float(cx)) <= 1e-12 * math.sqrt(s.var_p * s.var_x)
        assert abs(Fraction(s.det_cov) - det) <= tol * Fraction(s.var_p) * Fraction(s.var_x)


def _simulate(tmp_path_factory, gamma, T, spec, dissipation, fmt):
    """``simulate`` of ``spec`` at (gamma, T) in-process: (exit code, stdout, stderr)."""
    config = tmp_path_factory.getbasetemp() / "fold.cfg"
    config.write_text(f"gamma = {gamma!r}\nT = {T!r}\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(config), f"--schedule={spec}",
                     "--dissipation", "on" if dissipation else "off", "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def _segments(schedule):
    """(index, kind, duration) of every row of a simulate output."""
    return [(0, "initial", 0.0)] + [
        (i + 1, seg.kind, seg.duration) for i, seg in enumerate(schedule.segments)
    ]


@DERANDOMIZED
@given(
    tokens=st.lists(FOLD_TOKEN, max_size=16),
    dissipation=st.booleans(),
    gamma=decades(-2, 5),
    T=decades(-6, -2),
    mean=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
)
@example(tokens=["kick", "free:-0", "kick:0", "diss"], dissipation=True, gamma=1e3, T=1e-4,
         mean=(1.0, -2.0))
# at the defaults the 19th kick;free pair cancels det(cov) to 0: both folds raise
@example(tokens=["kick", "free"] * 19, dissipation=False, gamma=0.1, T=1e-4, mean=(0.0, 0.0))
def test_fold_and_simulate_json_are_the_public_constructors(
    tmp_path_factory, tokens, dissipation, gamma, T, mean
):
    # the fold's checked float constructors give the bits, or the error text,
    # of the public ones; simulate's JSON is json.dumps' layout with "%.16e"
    # for every float, one row at a time
    params = PhysicalParams(gamma=gamma, T=T)
    spec = ";".join(tokens)
    schedule = parse_schedule(spec, params, dissipation)
    initial = thermal_state(params.occupancy())
    moved = GaussianState(mean=mean, var_p=initial.var_p, var_x=initial.var_x)
    expected = _outcome(reference_fold, moved, schedule, params)
    assert _outcome(apply_schedule, moved, schedule, params) == expected

    code, out, err = _simulate(tmp_path_factory, gamma, T, spec, dissipation, "json")
    if isinstance(expected, str):
        # the mean enters no second moment, so the thermal state fails alike
        assert (code, out, err) == (4, "", f"error: {expected}\n")
        return
    header = ("index", "kind", "duration", "var_p", "var_x", "cross", "det_cov", "x_squeezed")
    records = [
        dict(zip(header, (*segment, s.var_p, s.var_x, s.cross, s.det_cov, s.var_x < 0.5)))
        for segment, (_, s) in zip(_segments(schedule), reference_fold(initial, schedule, params))
    ]
    rows = [
        "  {\n" + ",\n".join(
            f"    {json.dumps(k)}: " + ("%.16e" % v if isinstance(v, float) else json.dumps(v))
            for k, v in record.items()
        ) + "\n  }"
        for record in records
    ]
    assert (code, err) == (0, "")
    assert out == "[\n" + ",\n".join(rows) + "\n]\n"


@DERANDOMIZED
@given(
    tokens=st.lists(FOLD_TOKEN, max_size=16),
    dissipation=st.booleans(),
    gamma=decades(-2, 5),
    T=decades(-6, -2),
)
@example(tokens=["free:-0", "kick:0", "diss", "kick", "free"], dissipation=True, gamma=1e3,
         T=1e-4)
@example(tokens=["kick", "free"] * 19, dissipation=False, gamma=0.1, T=1e-4)
def test_fold_and_simulate_csv_are_the_public_constructors(
    tmp_path_factory, tokens, dissipation, gamma, T
):
    # simulate's CSV is the "%.16e" text of the public constructors' fold, or its error
    params = PhysicalParams(gamma=gamma, T=T)
    spec = ";".join(tokens)
    schedule = parse_schedule(spec, params, dissipation)
    code, out, err = _simulate(tmp_path_factory, gamma, T, spec, dissipation, "csv")
    try:
        folded = reference_fold(thermal_state(params.occupancy()), schedule, params)
    except InvariantViolation as exc:
        assert (code, out, err) == (4, "", f"error: {exc}\n")
        return
    rows = [
        "%d,%s,%.16e,%.16e,%.16e,%.16e,%.16e,%s\n"
        % (*segment, s.var_p, s.var_x, s.cross, s.det_cov, "true" if s.var_x < 0.5 else "false")
        for segment, (_, s) in zip(_segments(schedule), folded)
    ]
    assert (code, err) == (0, "")
    assert out == "index,kind,duration,var_p,var_x,cross,det_cov,x_squeezed\n" + "".join(rows)
