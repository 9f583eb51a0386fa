import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqbell import qubit
from seqbell.qubit import (
    Direction,
    Outcome,
    PureState,
    Z_AXIS,
    _frame,
    amplitudes,
    bloch_vector,
    born_prob,
    direction_from_spherical,
    dot,
    eigenstate,
    overlap,
    random_direction,
    random_state,
    state_from_bloch,
)

X_AXIS = Direction(1.0, 0.0, 0.0)
Y_AXIS = Direction(0.0, 1.0, 0.0)


def born_amplitude_oracle(state, x, outcome):
    """Independent route: expand the eigenstate of x over the state's own
    basis and take |<x outcome|psi>|^2 from raw amplitudes."""
    eig = eigenstate(x, outcome, state.e)
    return abs(overlap(eig, state)) ** 2


def collapse(state, x, outcome):
    """The state left by observing the outcome along x: the eigenstate with
    Bloch vector outcome * x, against the z axis."""
    return state_from_bloch(int(outcome) * x.as_array())


def measure(state, x, rng):
    """One projective measurement along x drawn from its Born probability:
    (outcome, state left behind)."""
    outcome = Outcome.PLUS if rng.random() < born_prob(state, x, Outcome.PLUS) else Outcome.MINUS
    return outcome, collapse(state, x, outcome)


angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
unit_combo = st.tuples(angles, angles)


class TestDirection:
    def test_from_spherical_poles_and_equator(self):
        assert direction_from_spherical(0.0, 1.234) == Direction(0.0, 0.0, 1.0)
        d = direction_from_spherical(math.pi / 2, 0.0)
        assert abs(d.x - 1.0) < 1e-12 and abs(d.y) < 1e-12 and abs(d.z) < 1e-12
        d = direction_from_spherical(math.pi / 2, math.pi / 2)
        assert abs(d.y - 1.0) < 1e-12 and abs(d.x) < 1e-12

    def test_from_spherical_is_the_plain_formula_to_the_bit(self):
        # both poles and phi = 2 pi are on the grid
        for theta in np.linspace(0.0, math.pi, 37).tolist():
            for phi in np.linspace(0.0, 2.0 * math.pi, 73).tolist():
                st = math.sin(theta)
                plain = Direction(st * math.cos(phi), st * math.sin(phi), math.cos(theta))
                d = direction_from_spherical(theta, phi)
                assert [v.hex() for v in (d.x, d.y, d.z)] == [
                    v.hex() for v in (plain.x, plain.y, plain.z)
                ], (theta, phi)

    def test_unit_components_are_unit_without_renormalizing(self):
        # multiples of pi/2, random angles, and angles up to +-1e300
        values = [k * math.pi / 2 for k in range(-8, 9)]
        values += [sign * 10.0**k for k in (3, 10, 100, 200, 300) for sign in (1, -1)]
        values += np.random.default_rng(2501).uniform(-50.0, 50.0, 30).tolist()
        for theta in values:
            for phi in values:
                x, y, z = qubit._unit(theta, phi)
                d = direction_from_spherical(theta, phi)
                assert [v.hex() for v in (d.x, d.y, d.z)] == [v.hex() for v in (x, y, z)]
                assert abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-15, (theta, phi)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            direction_from_spherical(math.nan, 0.0)
        with pytest.raises(ValueError):
            Direction(math.inf, 0.0, 0.0)

    def test_renormalizes_near_unit_input(self):
        d = Direction(1.0 + 4e-10, 0.0, 0.0)
        assert abs(d.x - 1.0) < 1e-12

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            Direction(1.0, 1.0, 0.0)

    @given(unit_combo)
    def test_spherical_always_unit(self, tp):
        theta, phi = tp
        d = direction_from_spherical(theta, phi)
        assert abs(d.x**2 + d.y**2 + d.z**2 - 1.0) < 1e-12

    def test_dot_trivial_cases(self, rng):
        d = random_direction(rng)
        assert dot(d, d) == pytest.approx(1.0, abs=1e-12)
        assert dot(d, Direction(-d.x, -d.y, -d.z)) == pytest.approx(-1.0, abs=1e-12)
        assert dot(X_AXIS, Y_AXIS) == 0.0

    def test_dot_clamped(self):
        d = Direction(1.0, 1e-13, 0.0)
        assert -1.0 <= dot(d, d) <= 1.0


class TestEigenstate:
    def test_aligned_gives_pure_plus(self, rng):
        a = random_direction(rng)
        st_plus = eigenstate(a, Outcome.PLUS, a)
        assert st_plus.s == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_axis_amplitudes(self):
        st_eq = eigenstate(X_AXIS, Outcome.PLUS, Z_AXIS, phase=0.7)
        ap, am = amplitudes(st_eq)
        assert abs(ap) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert abs(am) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert st_eq.phi == pytest.approx(0.7, abs=1e-12)

    def test_antialigned_orthogonal_to_plus(self, rng):
        a = random_direction(rng)
        st_minus = eigenstate(a, Outcome.MINUS, a)
        st_plus = eigenstate(a, Outcome.PLUS, a)
        assert abs(overlap(st_plus, st_minus)) < 1e-12

    def test_bloch_fidelity_random(self, rng):
        for _ in range(300):
            x, e = random_direction(rng), random_direction(rng)
            r_plus = bloch_vector(eigenstate(x, Outcome.PLUS, e))
            r_minus = bloch_vector(eigenstate(x, Outcome.MINUS, e))
            assert np.max(np.abs(r_plus - x.as_array())) < 1e-10
            assert np.max(np.abs(r_minus + x.as_array())) < 1e-10

    def test_orthogonality_any_phase(self, rng):
        for _ in range(1000):
            x, e = random_direction(rng), random_direction(rng)
            phase = rng.uniform(0, 2 * math.pi)
            plus = eigenstate(x, Outcome.PLUS, e, phase)
            minus = eigenstate(x, Outcome.MINUS, e, phase)
            assert abs(overlap(plus, minus)) <= 1e-12


class TestBornProbability:
    def test_eigenstate_certainty(self, rng):
        a = random_direction(rng)
        st_a = eigenstate(a, Outcome.PLUS, a)
        assert born_prob(st_a, a, Outcome.PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_axis_half(self):
        st_z = PureState(1.0, 0.0, Z_AXIS)
        assert born_prob(st_z, X_AXIS, Outcome.PLUS) == pytest.approx(0.5, abs=1e-12)
        assert born_prob(st_z, X_AXIS, Outcome.MINUS) == pytest.approx(0.5, abs=1e-12)

    def test_amplitude_weight_on_reference_axis(self, rng):
        # P(a+) for a state written over a's own basis is the squared
        # amplitude, checked here for s^2 = 0.7 against the amplitude route.
        a = random_direction(rng)
        psi = PureState(math.sqrt(0.7), 0.3, a)
        assert born_prob(psi, a, Outcome.PLUS) == pytest.approx(0.7, abs=1e-12)
        assert born_amplitude_oracle(psi, a, Outcome.PLUS) == pytest.approx(0.7, abs=1e-12)

    def test_matches_amplitude_oracle(self, rng):
        for _ in range(300):
            psi = random_state(rng, random_direction(rng))
            x = random_direction(rng)
            for o in (Outcome.PLUS, Outcome.MINUS):
                assert born_prob(psi, x, o) == pytest.approx(
                    born_amplitude_oracle(psi, x, o), abs=1e-12
                )

    def test_completeness(self, rng):
        for _ in range(1000):
            psi = random_state(rng, random_direction(rng))
            x = random_direction(rng)
            total = born_prob(psi, x, Outcome.PLUS) + born_prob(psi, x, Outcome.MINUS)
            assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), angles, unit_combo, unit_combo)
    def test_completeness_property(self, s, phi, e_angles, x_angles):
        psi = PureState(s, phi, direction_from_spherical(*e_angles))
        x = direction_from_spherical(*x_angles)
        total = born_prob(psi, x, Outcome.PLUS) + born_prob(psi, x, Outcome.MINUS)
        assert abs(total - 1.0) < 1e-12


class TestBlochVector:
    def test_reference_axis_extremes(self, rng):
        e = random_direction(rng)
        assert np.max(np.abs(bloch_vector(PureState(1.0, 0.9, e)) - e.as_array())) < 1e-12
        assert np.max(np.abs(bloch_vector(PureState(0.0, 0.9, e)) + e.as_array())) < 1e-12

    def test_equal_superposition_points_along_x(self):
        psi = PureState(math.sqrt(0.5), 0.0, Z_AXIS)
        assert np.max(np.abs(bloch_vector(psi) - np.array([1.0, 0.0, 0.0]))) < 1e-12

    def test_unit_norm(self, rng):
        for _ in range(500):
            psi = random_state(rng, random_direction(rng))
            assert abs(np.linalg.norm(bloch_vector(psi)) - 1.0) < 1e-12

    def test_amplitude_normalization(self, rng):
        for _ in range(200):
            psi = random_state(rng, random_direction(rng))
            ap, am = amplitudes(psi)
            assert abs(abs(ap) ** 2 + abs(am) ** 2 - 1.0) < 1e-12


class TestFrameCovariance:
    def test_born_prob_depends_only_on_bloch_dot(self, rng):
        for _ in range(200):
            psi = random_state(rng, random_direction(rng))
            r = bloch_vector(psi)
            x = random_direction(rng)
            for e2 in (random_direction(rng), Z_AXIS):
                psi2 = state_from_bloch(r, e2)
                for o in (Outcome.PLUS, Outcome.MINUS):
                    assert abs(born_prob(psi, x, o) - born_prob(psi2, x, o)) < 1e-10

    def test_frame_right_handed(self, rng):
        for _ in range(100):
            e = random_direction(rng)
            u, v = map(np.array, _frame(e.x, e.y, e.z))
            assert abs(u @ v) < 1e-12
            assert abs(np.linalg.norm(u) - 1) < 1e-12
            assert np.max(np.abs(np.cross(u, v) - e.as_array())) < 1e-12

    def test_azimuth_of_x_about_z(self):
        assert eigenstate(X_AXIS, Outcome.PLUS, Z_AXIS).phi == 0.0
        assert eigenstate(Y_AXIS, Outcome.PLUS, Z_AXIS).phi == pytest.approx(math.pi / 2, abs=1e-12)
        assert eigenstate(Z_AXIS, Outcome.PLUS, Z_AXIS).phi == 0.0

    def test_state_from_bloch_is_the_plus_eigenstate(self, rng):
        # r off unit by up to 1e-10, so state_from_bloch's normalization is used
        pairs = []
        for _ in range(500):
            r, e = random_direction(rng), random_direction(rng)
            pairs += [(r.as_array() * (1.0 + 1e-10 * rng.uniform(-1.0, 1.0)), e)]
            pairs += [(e.as_array(), e), (-e.as_array(), e)]
        axes = [X_AXIS, Y_AXIS, Z_AXIS]
        axes += [Direction(-d.x, -d.y, -d.z) for d in axes]
        pairs += [(r.as_array(), e) for r in axes for e in axes]
        for r, e in pairs:
            unit = Direction(*(r / np.linalg.norm(r)).tolist())
            assert state_from_bloch(r, e) == eigenstate(unit, Outcome.PLUS, e), (r, e)


class TestCollapse:
    def test_projective_repeatability(self, rng):
        psi = random_state(rng)
        x = random_direction(rng)
        post = collapse(psi, x, Outcome.PLUS)
        assert born_prob(post, x, Outcome.PLUS) == pytest.approx(1.0, abs=1e-12)
        assert collapse(post, x, Outcome.PLUS) == post

    def test_fixed_point(self, rng):
        a = random_direction(rng)
        st_a = collapse(random_state(rng), a, Outcome.PLUS)
        assert collapse(st_a, a, Outcome.PLUS) == st_a

    def test_orthogonal_chain(self):
        # |a+> collapsed along b (a.b = 0) with outcome -1 lands in |b->,
        # from which a is again a coin flip.
        st_a = state_from_bloch(X_AXIS.as_array())
        post = collapse(st_a, Y_AXIS, Outcome.MINUS)
        assert np.max(np.abs(bloch_vector(post) + Y_AXIS.as_array())) < 1e-12
        assert born_prob(post, X_AXIS, Outcome.PLUS) == pytest.approx(0.5, abs=1e-12)


class TestMeasure:
    def test_eigenstate_always_plus(self, rng):
        a = random_direction(rng)
        st_a = state_from_bloch(a.as_array())
        for _ in range(200):
            outcome, post = measure(st_a, a, rng)
            assert outcome is Outcome.PLUS
            assert born_prob(post, a, Outcome.PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_axis_binomial(self, rng):
        st_z = PureState(1.0, 0.0, Z_AXIS)
        n = 10**6
        # the uniforms of n calls of measure, drawn at once
        hits = int((rng.random(n) < born_prob(st_z, X_AXIS, Outcome.PLUS)).sum())
        sigma = 0.5 / math.sqrt(n)
        assert abs(hits / n - 0.5) < 4 * sigma

    def test_perfect_correlation_exact(self, rng):
        for _ in range(1000):
            psi = random_state(rng, random_direction(rng))
            x = random_direction(rng)
            o1, post = measure(psi, x, rng)
            o2, _ = measure(post, x, rng)
            assert o1 == o2


class TestPureStateValidation:
    def test_rejects_bad_amplitude(self):
        with pytest.raises(ValueError):
            PureState(1.5, 0.0, Z_AXIS)
        with pytest.raises(ValueError):
            PureState(math.nan, 0.0, Z_AXIS)

    def test_phase_normalized(self):
        psi = PureState(0.5, 4 * math.pi + 0.25, Z_AXIS)
        assert psi.phi == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("phi", [-1e-300, -1e-17, -0.0, 2 * math.pi])
    def test_phase_lies_in_zero_to_two_pi_and_stays(self, phi):
        # phi % 2pi rounds to 2pi for a tiny negative phi; a config file's
        # round trip needs a phase that building the state again keeps
        psi = PureState(0.5, phi, Z_AXIS)
        assert 0.0 <= psi.phi < 2 * math.pi
        assert PureState(0.5, psi.phi, Z_AXIS) == psi

    def test_state_from_bloch_rejects_non_unit(self):
        # a NaN norm compares false with everything: it must still be refused
        # here, as a Bloch vector, not later by PureState
        for r in ([0.5, 0.0, 0.0], [math.nan, 0.0, 0.0], [1.0, math.nan, 0.0], [math.inf, 0.0, 0.0], [0.0, 0.0, -math.inf]):
            with pytest.raises(ValueError, match="Bloch vector"):
                state_from_bloch(np.array(r))


class TestUniformDraw:
    def test_values_and_state_as_rng_uniform(self):
        # the bounds the package draws with; -1 and 1 as ints, as verify wrote them
        bounds = [(-1.0, 1.0), (0.0, 2 * math.pi), (-1, 1), (0, 2 * math.pi)]
        for seed in range(200):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for low, high in bounds * 50:
                assert qubit._uniform(ours, float(low), float(high)) == ref.uniform(low, high)
            assert ours.bit_generator.state == ref.bit_generator.state
