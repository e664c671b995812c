import math

import numpy as np
import pytest

from quadkick import (
    GaussianState,
    ParameterError,
    ReadoutConfig,
    SymplecticMap,
    free_matrix,
    free_x2_harmonics,
    kick_matrix,
    propagate,
    thermal_occupancy,
    thermal_state,
)

# Bose factor frozen from a 50-digit mpmath evaluation with
# hbar = 1.054571817e-34 J s, k_B = 1.380649e-23 J/K, omega_m = 1e6 rad/s.
NBAR_100UK = 12.598398495684691623
NBAR_1MK = 130.42097572596893598
NBAR_1K = 130919.83920784292626


def random_symplectic(rng):
    """Product of a kick, a rotation, and a kick with random parameters."""
    omega = 1e6
    g_tilde = omega * rng.uniform(1.0, 25.0)
    m = np.array(kick_matrix(g_tilde, omega, rng.uniform(0, 2e-6)).m)
    m = np.array(free_matrix(omega, rng.uniform(0, 2 * math.pi / omega)).m) @ m
    m = np.array(kick_matrix(omega * rng.uniform(1.0, 25.0), omega, rng.uniform(0, 2e-6)).m) @ m
    return SymplecticMap(m)


def random_state(rng):
    n_bar = rng.uniform(0.0, 50.0)
    state = thermal_state(n_bar)
    return propagate(state, random_symplectic(rng))


class TestThermalOccupancy:
    def test_frozen_values(self):
        assert thermal_occupancy(1e-4, 1e6) == pytest.approx(NBAR_100UK, rel=1e-12)
        assert thermal_occupancy(1e-3, 1e6) == pytest.approx(NBAR_1MK, rel=1e-12)
        assert thermal_occupancy(1.0, 1e6) == pytest.approx(NBAR_1K, rel=1e-12)

    def test_zero_temperature_limit(self):
        assert thermal_occupancy(0.0, 1e6) == 0.0

    def test_very_low_temperature_underflows_to_zero(self):
        assert thermal_occupancy(1e-30, 1e6) == 0.0

    def test_underflowing_thermal_energy_is_zero_temperature(self):
        # k_B*T underflows to 0
        assert thermal_occupancy(1e-320, 1e6) == 0.0

    def test_monotone_in_temperature(self):
        temps = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        values = [thermal_occupancy(t, 1e6) for t in temps]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_frequency(self):
        freqs = [1e5, 1e6, 1e7, 1e8]
        values = [thermal_occupancy(1e-3, f) for f in freqs]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("T, omega_m", [(1e-4, 1e-300), (1e300, 1e-5)])
    def test_overflowing_bose_factor_rejected(self, T, omega_m):
        # hbar*omega_m/(k_B*T) underflows to 0 or to a subnormal whose inverse is inf
        with pytest.raises(ParameterError, match="overflows"):
            thermal_occupancy(T, omega_m)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            thermal_occupancy(1e-3, 0.0)
        with pytest.raises(ParameterError):
            thermal_occupancy(1e-3, -1e6)
        with pytest.raises(ParameterError):
            thermal_occupancy(-1e-3, 1e6)


class TestThermalState:
    def test_vacuum(self):
        state = thermal_state(0.0)
        assert np.array_equal(state.cov, np.diag([0.5, 0.5]))
        assert np.array_equal(state.mean, np.zeros(2))

    @pytest.mark.parametrize("n_bar", [13.0, 138.0])
    def test_isotropic_variances(self, n_bar):
        state = thermal_state(n_bar)
        assert state.var_p == n_bar + 0.5
        assert state.var_x == n_bar + 0.5
        assert state.cross == 0.0

    def test_negative_occupancy(self):
        with pytest.raises(ParameterError):
            thermal_state(-0.1)


class TestSymplecticMap:
    def test_unit_determinant_enforced(self):
        with pytest.raises(ParameterError):
            SymplecticMap(np.array([[1.1, 0.0], [0.0, 1.0]]))
        SymplecticMap(np.eye(2))  # no raise

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            SymplecticMap(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ParameterError):
            SymplecticMap(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
        with pytest.raises(ParameterError):
            SymplecticMap(1.0)

    def test_entries_are_plain_floats(self):
        m = SymplecticMap(np.eye(2))
        assert m.m == ((1.0, 0.0), (0.0, 1.0))
        assert all(type(v) is float for row in m.m for v in row)
        assert type(m.det) is float

    def test_matrix_is_readonly(self):
        m = free_matrix(1e6, 0.0)
        with pytest.raises(TypeError):
            m.m[0][0] = 2.0


class TestStateInvariants:
    def test_non_positive_variance(self):
        with pytest.raises(ParameterError):
            GaussianState(var_p=0.0, var_x=0.5)
        with pytest.raises(ParameterError):
            GaussianState(var_p=0.5, var_x=-0.5)

    def test_heisenberg_bound(self):
        with pytest.raises(ParameterError):
            GaussianState(var_p=0.4, var_x=0.4)  # det = 0.16 < 1/4
        GaussianState(var_p=0.5, var_x=0.5)  # exactly on the bound

    def test_non_finite_moments(self):
        with pytest.raises(ParameterError):
            GaussianState(var_p=math.inf, var_x=0.5)
        with pytest.raises(ParameterError):
            GaussianState(mean=(math.nan, 0.0))

    def test_non_finite_determinant(self):
        # var_p·var_x - cross² is inf - inf = nan, which no comparison rejects
        with pytest.raises(ParameterError, match="determinant"):
            GaussianState(var_p=1e300, var_x=1e300, cross=1e300)
        with pytest.raises(ParameterError, match="determinant"):
            GaussianState(var_p=1e200, var_x=1e200)

    def test_moments_are_plain_floats(self):
        state = GaussianState(mean=np.array([1.0, -2.0]), var_p=np.float64(2.0), var_x=1, cross=0)
        assert state.mean == (1.0, -2.0)
        assert all(type(v) is float for v in (*state.mean, state.var_p, state.var_x, state.cross))
        assert state.cov[0, 1] == state.cov[1, 0]

    def test_mean_shape(self):
        with pytest.raises(ParameterError):
            GaussianState(mean=np.zeros(3))


# (p, x, var_p, var_x, cross) failing each check of a state, and the check
STATE_FAILURES = {
    "nan_mean": ((math.nan, 0.0, 1.0, 1.0, 0.0), "moments must be finite"),
    "inf_cross": ((0.0, 0.0, 1.0, 1.0, -math.inf), "moments must be finite"),
    "zero_var_p": ((0.0, 0.0, 0.0, 0.5, 0.0), "variances must be positive"),
    "negative_var_x": ((0.0, 0.0, 0.5, -0.5, 0.0), "variances must be positive"),
    "nan_det": ((0.0, 0.0, 1e300, 1e300, 1e300), "determinant must be finite"),
    "inf_det": ((0.0, 0.0, 1e200, 1e200, 0.0), "determinant must be finite"),
    "below_heisenberg": ((0.0, 0.0, 0.5, 0.5 - 3e-9, 0.0), "Heisenberg bound"),
}
# (a, b, c, d) failing each check of a map
MAP_FAILURES = {
    "inf_entry": ((1.0, math.inf, 0.0, 1.0), "entries must be finite"),
    "nan_entry": ((1.0, 0.0, 0.0, math.nan), "entries must be finite"),
    "det_above_one": ((1.0 + 2e-12, 0.0, 0.0, 1.0), "unit determinant"),
    "det_below_one": ((0.5, 0.0, 0.0, 1.5), "unit determinant"),
}


@pytest.mark.parametrize("name", sorted(STATE_FAILURES))
def test_state_constructors_fail_alike(name):
    # the fold's check of its float moments raises the public constructor's text
    (p, x, var_p, var_x, cross), check = STATE_FAILURES[name]
    with pytest.raises(ParameterError, match=check) as public:
        GaussianState(mean=(p, x), var_p=var_p, var_x=var_x, cross=cross)
    with pytest.raises(ParameterError) as folded:
        GaussianState._check(p, x, var_p, var_x, cross)
    assert str(folded.value) == str(public.value)


@pytest.mark.parametrize("name", sorted(MAP_FAILURES))
def test_map_constructors_fail_alike(name):
    (a, b, c, d), check = MAP_FAILURES[name]
    with pytest.raises(ParameterError, match=check) as public:
        SymplecticMap(((a, b), (c, d)))
    with pytest.raises(ParameterError) as folded:
        SymplecticMap._check(a, b, c, d)
    assert str(folded.value) == str(public.value)


def test_checks_pass_what_the_public_constructors_build():
    # on the Heisenberg bound's slack and on the unit determinant's
    state = GaussianState(mean=(1.0, -2.0), var_p=0.5, var_x=0.5 - 1.9e-9)
    assert GaussianState._check(1.0, -2.0, 0.5, 0.5 - 1.9e-9, 0.0) == state.det_cov
    smap = SymplecticMap(((1.0 + 9e-13, 0.0), (0.0, 1.0)))
    assert SymplecticMap._check(1.0 + 9e-13, 0.0, 0.0, 1.0) is None
    assert smap.m == ((1.0 + 9e-13, 0.0), (0.0, 1.0))


class TestPropagate:
    def test_identity(self):
        state = thermal_state(12.6)
        out = propagate(state, SymplecticMap(((1.0, 0.0), (0.0, 1.0))))
        assert np.array_equal(out.cov, state.cov)
        assert np.array_equal(out.mean, state.mean)

    def test_antidiagonal_kick_rescales(self):
        # p -> -sqrt(21) x, x -> p / sqrt(21) on an isotropic state
        up = math.sqrt(21.0)
        smap = SymplecticMap(np.array([[0.0, -up], [1.0 / up, 0.0]]))
        state = thermal_state(12.6)
        out = propagate(state, smap)
        assert out.var_p == pytest.approx(21.0 * 13.1, rel=1e-12)
        assert out.var_x == pytest.approx(13.1 / 21.0, rel=1e-12)
        assert out.var_p == pytest.approx(275.1, rel=1e-3)
        assert out.var_x == pytest.approx(0.624, rel=1e-3)

    def test_matches_scalar_expansion(self):
        # independent oracle: write M Sigma M^T out element by element
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = random_state(rng)
            smap = random_symplectic(rng)
            (a, b), (c, d) = smap.m
            vp, vx, cx = state.var_p, state.var_x, state.cross
            out = propagate(state, smap)
            assert out.var_p == pytest.approx(a * a * vp + 2 * a * b * cx + b * b * vx, rel=1e-12)
            assert out.var_x == pytest.approx(c * c * vp + 2 * c * d * cx + d * d * vx, rel=1e-12)
            assert out.cross == pytest.approx(
                a * c * vp + (a * d + b * c) * cx + b * d * vx, rel=1e-9, abs=1e-15
            )

    def test_determinant_preserved_random_maps(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            state = thermal_state(rng.uniform(0, 100))
            out = propagate(state, random_symplectic(rng))
            assert out.det_cov == pytest.approx(state.det_cov, rel=1e-9)

    def test_mean_transforms(self):
        state = GaussianState(mean=(1.0, -2.0), var_p=1.0, var_x=1.0)
        rot = free_matrix(1e6, math.pi / 2e6)  # quarter turn
        out = propagate(state, rot)
        assert out.mean == pytest.approx([2.0, 1.0], abs=1e-12)


def free_x2(state, omega_m, t):
    """⟨x²(t)⟩ from the harmonics (dc, a, b) of ``free_x2_harmonics``."""
    dc, a, b = free_x2_harmonics(state)
    return dc + a * math.cos(2.0 * omega_m * t) + b * math.sin(2.0 * omega_m * t)


class TestFreeX2Expectation:
    def test_vacuum_constant(self):
        assert free_x2_harmonics(thermal_state(0.0)) == (0.5, 0.0, 0.0)
        for t in (0.0, 1e-7, 3e-6, 1e-3):
            assert free_x2(thermal_state(0.0), 1e6, t) == pytest.approx(0.5, rel=1e-14)

    def test_thermal_time_independent(self):
        state = thermal_state(12.6)
        assert free_x2_harmonics(state)[1:] == (0.0, 0.0)
        values = [free_x2(state, 1e6, t) for t in np.linspace(0, 1e-5, 17)]
        assert np.allclose(values, 13.1, rtol=1e-14)

    def test_quarter_period_swaps_variances(self):
        state = GaussianState(var_p=275.1, var_x=0.624)
        t = math.pi / 2e6  # omega_m * t = pi / 2
        assert free_x2(state, 1e6, t) == pytest.approx(275.1, rel=1e-9)

    def test_matches_matrix_propagation(self):
        # independent oracle: rotate the full state, then read var_x + mean_x^2
        rng = np.random.default_rng(23)
        for _ in range(200):
            state = GaussianState(
                mean=rng.normal(size=2),
                var_p=rng.uniform(0.5, 30.0),
                var_x=rng.uniform(0.5, 30.0),
                cross=rng.uniform(-0.4, 0.4),
            )
            omega = 10 ** rng.uniform(3, 8)
            t = rng.uniform(0, 10 * math.pi / omega)
            rotated = propagate(state, free_matrix(omega, t))
            expected = rotated.var_x + rotated.mean[1] ** 2
            assert free_x2(state, omega, t) == pytest.approx(expected, rel=1e-10)

    def test_periodic_in_half_mechanical_period(self):
        state = GaussianState(var_p=5.0, var_x=0.8, cross=0.7)
        omega = 1e6
        period = math.pi / omega
        for t in np.linspace(0, period, 13):
            assert free_x2(state, omega, t) == pytest.approx(
                free_x2(state, omega, t + period), rel=1e-10
            )

    @pytest.mark.parametrize("omega_m", [0.0, -1e6, math.nan, math.inf])
    def test_omega_m_must_be_positive_and_finite(self, omega_m):
        # the harmonics hold for every frequency; the probe that evolves them checks it
        with pytest.raises(ParameterError, match="^omega_m must be (positive|finite), got"):
            ReadoutConfig(kappa=1e7, coupling=1e-4, omega_m=omega_m)

    def test_isotropic_state_rotation_invariant(self):
        state = thermal_state(7.0)
        for tau in (0.0, 1.3e-7, 2.2e-6, 5e-5):
            out = propagate(state, free_matrix(1e6, tau))
            assert out.var_p == pytest.approx(7.5, rel=1e-14)
            assert out.var_x == pytest.approx(7.5, rel=1e-14)
            assert out.cross == pytest.approx(0.0, abs=1e-13)
