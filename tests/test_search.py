import math

import numpy as np
import pytest

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
            assert objective("EQ16", config) == pytest.approx(lhs16(a, b, c), abs=1e-12)
            assert objective("EQ18", config) == pytest.approx(lhs18(a, b, c), abs=1e-12)

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
