import math

import numpy as np
import pytest

from seqbell import search
from seqbell.inequalities import lhs16, lhs18
from seqbell.search import (
    SearchConfig,
    TripleConfiguration,
    grid_oracle,
    gradient,
    local_search,
    maximize,
    objective,
    reference_configuration,
)

SQRT2 = math.sqrt(2.0)
ONE_DEGREE = math.pi / 180

# Verified against three independent oracles (exact reduced 2-D scan over
# the Gram boundary, 2M random direction triples, 1-degree exhaustive grid):
# the true global maxima are 3/2 for EQ16 and 7/3 for EQ18, the latter at
# the coplanar configuration with a.b = b.c = 1/3.
GLOBAL_MAX = {"EQ16": 1.5, "EQ18": 7.0 / 3.0}


def random_config(rng):
    return TripleConfiguration.from_array(
        np.concatenate(
            [
                [math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)]
                for _ in range(3)
            ]
        )
    )


def finite_difference_gradient(kind, config, h=1e-5):
    base = config.as_array()
    grad = np.zeros(6)
    for i in range(6):
        plus, minus = base.copy(), base.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (
            objective(kind, TripleConfiguration.from_array(plus))
            - objective(kind, TripleConfiguration.from_array(minus))
        ) / (2 * h)
    return grad


class TestObjective:
    def test_reference_values(self):
        assert objective("EQ16", reference_configuration("EQ16")) == pytest.approx(
            SQRT2, abs=1e-12
        )
        assert objective("EQ18", reference_configuration("EQ18")) == pytest.approx(
            SQRT2 + 0.5, abs=1e-12
        )

    def test_coincident_triple_boundary(self):
        config = TripleConfiguration(0.3, 1.0, 0.3, 1.0, 0.3, 1.0)
        assert objective("EQ16", config) == pytest.approx(1.0, abs=1e-12)
        assert objective("EQ18", config) == pytest.approx(1.0, abs=1e-12)

    def test_matches_algebraic_forms(self, rng):
        for _ in range(100):
            config = random_config(rng)
            a, b, c = config.directions()
            assert objective("EQ16", config) == lhs16(a, b, c)
            assert objective("EQ18", config) == lhs18(a, b, c)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            objective("EQ99", reference_configuration("EQ16"))


class TestGradient:
    def test_matches_finite_differences(self, rng):
        for kind in ("EQ16", "EQ18"):
            for _ in range(100):
                config = random_config(rng)
                exact = gradient(kind, config)
                approx = finite_difference_gradient(kind, config)
                scale = max(1.0, float(np.max(np.abs(exact))))
                assert np.max(np.abs(exact - approx)) / scale < 1e-6

    def test_rotational_gauge_symmetry(self, rng):
        # shifting every azimuth by the same constant is a rotation about z:
        # the objective is unchanged and the azimuth derivatives sum to zero
        for kind in ("EQ16", "EQ18"):
            config = random_config(rng)
            shift = rng.uniform(0, 2 * math.pi)
            shifted = TripleConfiguration.from_array(
                config.as_array() + np.array([0, shift, 0, shift, 0, shift])
            )
            assert objective(kind, shifted) == pytest.approx(
                objective(kind, config), abs=1e-12
            )
            g = gradient(kind, config)
            assert abs(g[1] + g[3] + g[5]) < 1e-10

    def test_common_rotation_invariance(self, rng):
        # apply one random 3-rotation to all three directions
        def rotate(d, axis, angle):
            v = d.as_array()
            k = axis / np.linalg.norm(axis)
            rotated = (
                v * math.cos(angle)
                + np.cross(k, v) * math.sin(angle)
                + k * (k @ v) * (1 - math.cos(angle))
            )
            return rotated

        from seqbell.qubit import Direction

        for kind in ("EQ16", "EQ18"):
            config = random_config(rng)
            axis = rng.normal(size=3)
            angle = rng.uniform(0, math.pi)
            a, b, c = config.directions()
            ra, rb, rc = (Direction.from_array(rotate(d, axis, angle)) for d in (a, b, c))
            before = objective(kind, config)
            after = lhs16(ra, rb, rc) if kind == "EQ16" else lhs18(ra, rb, rc)
            assert after == pytest.approx(before, abs=1e-12)


class TestLocalSearch:
    def test_monotone_trajectory(self, rng):
        for kind in ("EQ16", "EQ18"):
            for seed in range(5):
                stream = np.random.default_rng(seed)
                result = local_search(SearchConfig(objective=kind), random_config(stream), stream)
                values = result.trajectory
                assert all(b > a for a, b in zip(values, values[1:]))

    def test_gradient_small_at_returned_maximum(self):
        config = SearchConfig(objective="EQ16", n_starts=8, seed=3)
        result = maximize(config)
        assert result.gradient_norm <= 1e-6

    @pytest.mark.parametrize("kind", ["EQ16", "EQ18"])
    def test_zero_gradient_stops_at_once(self, kind):
        # all three directions at the north pole: every partial is exactly zero
        angles = [0.0, 0.3, 0.0, 1.0, 0.0, 2.0]
        assert objective(kind, angles) == 1.0
        assert gradient(kind, angles).tolist() == [0.0] * 6
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        result = local_search(SearchConfig(objective=kind), angles, rng)
        assert (result.converged, result.trajectory, result.gradient_norm) == (True, (1.0,), 0.0)
        assert rng.bit_generator.state == state

    def test_converged_flag(self):
        starved = SearchConfig(objective="EQ16", n_starts=1, max_iterations=2, seed=0)
        assert not maximize(starved).converged
        relaxed = SearchConfig(objective="EQ16", n_starts=1, max_iterations=5000, seed=0)
        assert maximize(relaxed).converged


class TestMaximize:
    def test_finds_global_maximum_eq16(self):
        result = maximize(SearchConfig(objective="EQ16", n_starts=20, seed=11))
        assert result.value >= 1.49
        assert result.value <= GLOBAL_MAX["EQ16"] + 1e-9

    def test_finds_global_maximum_eq18(self):
        result = maximize(SearchConfig(objective="EQ18", n_starts=20, seed=11))
        assert result.value >= 1.99
        assert result.value <= GLOBAL_MAX["EQ18"] + 1e-9

    def test_reference_start_reaches_at_least_reference_value(self):
        config = SearchConfig(objective="EQ16", n_starts=1, seed=0)
        result = maximize(config, initial=reference_configuration("EQ16"))
        assert result.value >= SQRT2 - 1e-12

    # a non-finite step_tolerance would let maximize report a zero-step search as converged
    @pytest.mark.parametrize(
        "bad",
        [
            {"n_starts": 0},
            {"objective": "eq99"},
            {"grid_resolution": 0.001},
            {"step_tolerance": math.nan},
            {"step_tolerance": math.inf},
        ],
    )
    def test_settings_checked_when_built(self, bad):
        with pytest.raises(ValueError):
            SearchConfig(**bad)

    def test_deterministic_for_fixed_seed(self):
        config = SearchConfig(objective="EQ18", n_starts=6, seed=21)
        r1, r2 = maximize(config), maximize(config)
        assert r1 == r2

    def test_restricted_optimum_over_a_alone(self):
        # with b and c pinned orthogonal, the best a is along b - c at sqrt(2)
        best = -np.inf
        base = reference_configuration("EQ16")
        for seed in range(10):
            stream = np.random.default_rng(seed)
            start = base.as_array()
            start[0] = math.acos(stream.uniform(-1, 1))
            start[1] = stream.uniform(0, 2 * math.pi)

            def pinned_ascent(angles):
                # optimize the a angles only, by zeroing the other gradients
                x = angles.copy()
                f = objective("EQ16", TripleConfiguration.from_array(x))
                for _ in range(500):
                    g = gradient("EQ16", TripleConfiguration.from_array(x))
                    g[2:] = 0.0
                    norm = np.linalg.norm(g)
                    if norm < 1e-13:
                        break
                    step, accepted = 0.5, False
                    while step * norm >= 1e-12:
                        cand = x + step * g
                        fc = objective("EQ16", TripleConfiguration.from_array(cand))
                        if fc > f:
                            x, f, accepted = cand, fc, True
                            break
                        step *= 0.5
                    if not accepted:
                        break
                return f

            best = max(best, pinned_ascent(start))
        assert best == pytest.approx(SQRT2, abs=1e-9)


class TestGridOracle:
    def test_eq16_one_degree(self):
        value = grid_oracle("EQ16", ONE_DEGREE)
        assert abs(value - 1.5) <= 5e-4

    def test_eq18_one_degree_finds_true_maximum(self):
        # the scan lands within O(resolution^2) of 7/3; the antipodal
        # configuration's 2.0 is only a local maximum
        value = grid_oracle("EQ18", ONE_DEGREE)
        assert 7.0 / 3.0 - 2e-4 <= value <= 7.0 / 3.0 + 1e-12

    def test_contains_reference_configurations(self):
        for kind, ref in (("EQ16", SQRT2), ("EQ18", SQRT2 + 0.5)):
            assert grid_oracle(kind, 3 * ONE_DEGREE) >= ref - 1e-12

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            grid_oracle("EQ16", 0.001)

    def test_oracle_consistency_with_maximize(self):
        for kind in ("EQ16", "EQ18"):
            search_best = maximize(SearchConfig(objective=kind, n_starts=20, seed=2)).value
            grid_best = grid_oracle(kind, 3 * ONE_DEGREE)
            assert search_best >= grid_best - 1e-3
            assert search_best <= GLOBAL_MAX[kind] + 1e-9


# ---------------------------------------------------------------------------
# the search as first written, on Direction objects and numpy 3-vectors: the
# float rewrite must reproduce it bit for bit


def reference_objective(kind, config):
    a, b, c = config.directions()
    return lhs16(a, b, c) if kind == "EQ16" else lhs18(a, b, c)


def _reference_sph_and_jacobian(theta, phi):
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    d = np.array([st * cp, st * sp, ct])
    d_theta = np.array([ct * cp, ct * sp, -st])
    d_phi = np.array([-st * sp, st * cp, 0.0])
    return d, d_theta, d_phi


def reference_gradient(kind, config):
    t = config.as_array()
    a, da_t, da_p = _reference_sph_and_jacobian(t[0], t[1])
    b, db_t, db_p = _reference_sph_and_jacobian(t[2], t[3])
    c, dc_t, dc_p = _reference_sph_and_jacobian(t[4], t[5])
    if kind == "EQ16":
        ga, gb, gc = b - c, a + c, b - a
    else:
        ab = float(a @ b)
        bc = float(b @ c)
        ga = b * (1.0 + bc) - 2.0 * c
        gb = a * (1.0 + bc) + c * (1.0 + ab)
        gc = b * (1.0 + ab) - 2.0 * a
    return np.array([ga @ da_t, ga @ da_p, gb @ db_t, gb @ db_p, gc @ dc_t, gc @ dc_p])


def _reference_wrap(angles):
    out = angles.copy()
    for i in (0, 2, 4):
        theta = out[i] % (2 * math.pi)
        phi = out[i + 1]
        if theta > math.pi:
            theta = 2 * math.pi - theta
            phi += math.pi
        out[i] = theta
        out[i + 1] = phi % (2 * math.pi)
    return out


def _reference_reseed(angles, rng):
    out = angles
    for i in (0, 2, 4):
        if abs(math.sin(out[i])) < search.POLE_EPSILON:
            if out is angles:
                out = angles.copy()
            out[i + 1] = rng.uniform(0.0, 2 * math.pi)
    return out


def reference_local_search(settings, start, rng):
    kind = settings.objective
    x = _reference_wrap(start.as_array())
    f = reference_objective(kind, TripleConfiguration.from_array(x))
    trajectory, converged = [f], False
    for _ in range(settings.max_iterations):
        g = reference_gradient(kind, TripleConfiguration.from_array(x))
        g_norm = float(np.linalg.norm(g))
        if g_norm == 0.0:
            converged = True
            break
        step, accepted = 0.5, False
        while step * g_norm >= settings.step_tolerance:
            candidate = _reference_reseed(_reference_wrap(x + step * g), rng)
            f_cand = reference_objective(kind, TripleConfiguration.from_array(candidate))
            if f_cand > f:
                x, f = candidate, f_cand
                trajectory.append(f)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
    final = TripleConfiguration.from_array(x)
    return final, f, float(np.linalg.norm(reference_gradient(kind, final))), converged, trajectory


def reference_grid(kind, resolution):
    n_theta = int(round(math.pi / resolution)) + 1
    n_phi = max(1, int(round(2 * math.pi / resolution)))
    theta = np.linspace(0.0, math.pi, n_theta)
    ab = np.cos(theta)[:, None]
    ac = np.cos(theta)[None, :]
    cos_cos = np.cos(theta)[:, None] * np.cos(theta)[None, :]
    sin_sin = np.sin(theta)[:, None] * np.sin(theta)[None, :]
    best = -math.inf
    for k in range(n_phi):
        bc = cos_cos + sin_sin * math.cos(k * 2 * math.pi / n_phi)
        if kind == "EQ16":
            values = ab - ac + bc
        else:
            values = ab + bc - 2.0 * ac + ab * bc
        best = max(best, float(values.max()))
    return best


def _angle_sets(n):
    """n random angle sextuples; some thetas at exactly 0 or pi, some angles
    outside [0, 2*pi)."""
    rng = np.random.default_rng(4401)
    angles = rng.uniform(-7.0, 14.0, size=(n, 6))
    thetas = angles[:, ::2]
    thetas[rng.random(thetas.shape) < 0.2] = 0.0
    thetas[rng.random(thetas.shape) < 0.2] = math.pi
    return angles


class TestAgainstReference:
    @pytest.mark.parametrize("kind", ["EQ16", "EQ18"])
    def test_objective_and_gradient_bit_for_bit(self, kind):
        for row in _angle_sets(10_000):
            config = TripleConfiguration.from_array(row)
            assert objective(kind, config) == reference_objective(kind, config)
            assert gradient(kind, config).tobytes() == reference_gradient(kind, config).tobytes()

    def test_stacked_matmul_rounds_as_per_row_matmul(self):
        rng = np.random.default_rng(4402)
        left, right = rng.normal(size=(2, 20_000, 3))
        per_row = np.array([u @ v for u, v in zip(left, right)])
        assert search._stacked_dots(left.tolist(), right.tolist()).tobytes() == per_row.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_objective_rejects_non_finite_angle(self, bad):
        for i in range(6):
            angles = [0.3, 1.0, 0.7, 2.0, 1.1, 4.0]
            angles[i] = bad
            with pytest.raises(ValueError):
                objective("EQ16", angles)

    @pytest.mark.parametrize("kind", ["EQ16", "EQ18"])
    def test_local_search_trajectories_bit_for_bit(self, kind):
        settings = SearchConfig(objective=kind)
        starts = [reference_configuration(kind), TripleConfiguration(0.0, 1.0, math.pi, 2.0, 0.5, 3.0)]
        stream = np.random.default_rng(4403)
        starts += [random_config(stream) for _ in range(8)]
        for seed, start in enumerate(starts):
            result = local_search(settings, start, np.random.default_rng(seed))
            final, value, g_norm, converged, trajectory = reference_local_search(
                settings, start, np.random.default_rng(seed)
            )
            assert result.configuration == final
            assert (result.value, result.gradient_norm, result.converged) == (value, g_norm, converged)
            assert result.trajectory == tuple(trajectory)

    @pytest.mark.parametrize("kind", ["EQ16", "EQ18"])
    @pytest.mark.parametrize("resolution", [ONE_DEGREE, 0.005, 3 * ONE_DEGREE])
    def test_grid_oracle_bit_for_bit(self, kind, resolution):
        assert grid_oracle(kind, resolution) == reference_grid(kind, resolution)

    @pytest.mark.parametrize("kind", ["EQ16", "EQ18"])
    def test_pruned_grid_oracle_is_the_exhaustive_scan(self, kind):
        # with the three resolutions above, 21 in all: from 0.005 rad to 10 rad
        resolutions = [0.01, 0.013, 0.02, 0.03, 0.045, 0.07, 0.1, 0.15, 0.25, 0.4, 0.6, 0.9]
        resolutions += [1.0, 1.5, 2.0, 3.0, math.pi, 5.0]
        for resolution in resolutions:
            assert grid_oracle(kind, resolution) == reference_grid(kind, resolution), resolution
