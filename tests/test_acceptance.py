"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failing criterion shows up as an ordinary pytest failure.
"""

import math

import numpy as np
import pytest

from quadkick import (
    Free,
    Kick,
    PhysicalParams,
    PulseSchedule,
    ReadoutConfig,
    adiabatic_intensity,
    analyze_trace,
    apply_schedule,
    baseline_intensity,
    coupling_from_physical,
    dissipate,
    effective_stiffness,
    free_matrix,
    free_x2_harmonics,
    infer_x2,
    integrate_langevin,
    kick_matrix,
    min_pulses,
    optimal_kick_duration,
    propagate,
    quarter_period,
    thermal_occupancy,
    thermal_state,
    two_pulse_variance,
)
from quadkick.cli import main
from quadkick.state import GaussianState

PARAMS = PhysicalParams()
NBAR_1MK_FROZEN = 130.42097572596893598  # 50-digit Bose-factor evaluation


def report(number, message):
    print(f"ACCEPTANCE {number:02d} PASS - {message}")


def test_criterion_01_variance_reduction_factor():
    g_tilde = effective_stiffness(1e-4, 1e11, 1e6)
    assert g_tilde / 1e6 == 21.0  # exact in binary64

    state = thermal_state(138.0)
    kicked = propagate(state, kick_matrix(g_tilde, 1e6, optimal_kick_duration(g_tilde, 1e6)))
    assert kicked.var_x == pytest.approx(state.var_x / 21.0, rel=1e-12)
    # consistent with a nominal 20x reduction to within 5%
    assert abs((1 / 21.0) / (1 / 20.0) - 1.0) <= 0.05
    report(1, "single optimal kick divides var_x by exactly g_tilde/omega_m = 21")


def test_criterion_02_two_pulse_sub_vacuum():
    g_tilde = effective_stiffness(PARAMS.g, PARAMS.n_p, PARAMS.omega_m)
    t_star = optimal_kick_duration(g_tilde, PARAMS.omega_m)
    schedule = PulseSchedule((Kick(t_star), Free(quarter_period(PARAMS.omega_m)), Kick(t_star)))
    final = apply_schedule(thermal_state(138.0), schedule, PARAMS)[-1][1]
    assert final.var_x == pytest.approx(138.5 / 441.0, rel=1e-12)
    assert final.var_x < 0.5

    plan = min_pulses(PARAMS, occupancy=138.0)
    assert plan.pulses == 2
    report(2, f"two pulses push n_bar = 138 to var_x = {final.var_x:.6f} < 0.5")


def test_criterion_03_thermal_occupancy():
    cold = thermal_occupancy(1e-4, 1e6)
    assert 12.0 <= cold <= 13.5
    warm = thermal_occupancy(1e-3, 1e6)
    assert 125.0 <= warm <= 140.0
    assert warm == pytest.approx(NBAR_1MK_FROZEN, rel=1e-3)
    report(3, f"occupancies n_bar(0.1 mK) = {cold:.3f}, n_bar(1 mK) = {warm:.3f}")


def test_criterion_04_decoherence_magnitudes():
    from quadkick import decoherence_term

    tau = math.pi * 1e-6
    quoted = {1.0: 4e-2, 1e-3: 4e-5, 1e-4: 4e-6}
    for temperature, magnitude in quoted.items():
        term = decoherence_term(0.1, tau, thermal_occupancy(temperature, 1e6))
        assert magnitude / 1.1 <= term <= magnitude * 1.1
    report(4, "bath variance injection matches {4e-2, 4e-5, 4e-6} within factor 1.1")


def test_criterion_05_coupling_provenance():
    g = coupling_from_physical(PARAMS)
    assert 0.9e-4 <= g <= 1.2e-4
    report(5, f"geometry-derived coupling g = {g:.4e} 1/s in [0.9e-4, 1.2e-4]")


def test_criterion_06_symplectic_property_suite():
    rng = np.random.default_rng(20260811)
    cases = 1000
    for _ in range(cases):
        omega = 10 ** rng.uniform(4.0, 8.0)
        ratio = rng.uniform(1.0, 25.0)
        g_tilde = omega * ratio
        t = rng.uniform(0.0, 2.0) * optimal_kick_duration(g_tilde, omega)
        tau = rng.uniform(0.0, 2.0 * math.pi / omega)

        kick = kick_matrix(g_tilde, omega, t)
        rotation = free_matrix(omega, tau)
        assert abs(kick.det - 1.0) <= 1e-12
        assert abs(rotation.det - 1.0) <= 1e-12

        state = thermal_state(rng.uniform(0.0, 1000.0))
        moved = propagate(propagate(state, kick), rotation)
        assert moved.det_cov == pytest.approx(state.det_cov, rel=1e-9)

        # arbitrary kick/free schedule, no dissipation: Heisenberg holds throughout
        n_p = (ratio - 1.0) * omega / (2.0 * PARAMS.g)
        params = PhysicalParams(omega_m=omega, n_p=n_p)
        segments = []
        for _ in range(rng.integers(1, 5)):
            if rng.random() < 0.5:
                segments.append(Kick(rng.uniform(0.0, 2.0) * optimal_kick_duration(g_tilde, omega)))
            else:
                segments.append(Free(rng.uniform(0.0, 2.0 * math.pi / omega)))
        for _, folded in apply_schedule(state, PulseSchedule(tuple(segments)), params):
            assert folded.det_cov >= 0.25 - 1e-9
            assert folded.det_cov == pytest.approx(state.det_cov, rel=1e-9)
    report(6, f"{cases} randomized cases: unit determinants, det(cov) and Heisenberg preserved")


def test_criterion_07_closed_form_vs_composition():
    g_tilde = effective_stiffness(PARAMS.g, PARAMS.n_p, PARAMS.omega_m)
    t_star = optimal_kick_duration(g_tilde, PARAMS.omega_m)
    state = thermal_state(138.0)
    for tau in np.linspace(0.0, math.pi / PARAMS.omega_m, 100):
        schedule = PulseSchedule((Kick(t_star), Free(tau), Kick(t_star)))
        final = apply_schedule(state, schedule, PARAMS)[-1][1]
        var_p, var_x = two_pulse_variance(tau, g_tilde, PARAMS.omega_m, 138.0)
        assert var_p == pytest.approx(final.var_p, rel=1e-12)
        assert var_x == pytest.approx(final.var_x, rel=1e-12)
    report(7, "closed form equals three-matrix composition on the 100-point wait grid")


def test_criterion_08_thermal_channel_fixed_point():
    n_env = 12.6
    target = thermal_state(n_env)
    state = GaussianState(var_p=275.1, var_x=0.624)
    for _ in range(10):  # ten contacts of gamma*tau = 5 each: total 50
        state = dissipate(state, 0.1, 50.0, n_env)
    gap = np.abs(np.linalg.eigvalsh(state.cov - target.cov)).max()
    assert gap < 1e-9

    probe = GaussianState(mean=(1.0, -0.5), var_p=30.0, var_x=0.2, cross=0.9)
    once = dissipate(probe, 0.1, 7.0 + 3.0, n_env)
    twice = dissipate(dissipate(probe, 0.1, 7.0, n_env), 0.1, 3.0, n_env)
    assert twice.var_p == pytest.approx(once.var_p, rel=1e-12)
    assert twice.var_x == pytest.approx(once.var_x, rel=1e-12)
    assert twice.cross == pytest.approx(once.cross, rel=1e-12)
    assert twice.mean == pytest.approx(once.mean, rel=1e-12)
    report(8, f"channel fixed point reached (gap {gap:.2e}) and semigroup law holds")


def test_criterion_09_readout_magnitude():
    cfg = ReadoutConfig(
        kappa=1e7, coupling=1e-4, omega_m=1e6,
    )
    for x2 in (0.5, 13.5, 138.5):
        trace = integrate_langevin(cfg, (x2, 0.0, 0.0))
        shift = abs(trace.intensity[-1] / baseline_intensity(cfg) - 1.0)
        assert shift == pytest.approx(2.0 * cfg.coupling * x2 / cfg.kappa, rel=1e-2)

    # algebraic inversion: exercised at an order-one fractional shift, where
    # the identity is not drowned by float cancellation
    strong = ReadoutConfig(
        kappa=1e7, coupling=1e6, omega_m=1e6,
    )
    for x2 in (0.1, 1.0, 10.0, 100.0, 1e3):
        back = infer_x2(adiabatic_intensity(x2, strong), strong)
        assert back == pytest.approx(x2, rel=1e-12)
    report(9, "intensity shift magnitude is (2g/kappa)<x^2> within 1%; inversion exact to 1e-12")


def test_criterion_10_adiabatic_validity():
    state = GaussianState(var_p=275.1, var_x=0.624)
    ratios = []
    for kappa in (5e6, 1e7, 5e7, 1e8):
        cfg = ReadoutConfig(kappa=kappa, coupling=1e-4, omega_m=1e6)
        rep = analyze_trace(integrate_langevin(cfg, free_x2_harmonics(state)))
        ratios.append(rep.ripple_amplitude / rep.dc_shift)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    report(10, "2-omega ripple-to-dc ratio strictly decreasing across kappa grid")


def test_criterion_11_cli_determinism(tmp_path):
    commands = [
        ["constants"],
        ["simulate", "--schedule", "kick;free;kick;diss"],
        ["readout", "--var-p", "61078.5", "--var-x", "0.3140589569160997"],
        ["sweep", "--axis", "T=1,1e-3,1e-4", "--observable", "decoherence_term"],
    ]
    for i, argv in enumerate(commands):
        a = tmp_path / f"{i}_a.out"
        b = tmp_path / f"{i}_b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    report(11, "all four CLI commands are byte-identical across repeated runs")
