import math

import numpy as np
import pytest

from seqbell.engine import (
    Mode,
    Model,
    ProtocolConfig,
    RunCountTable,
    run_ensemble,
)
from seqbell.inequalities import (
    UNDEFINED_ESTIMATE,
    Eq5Ratio,
    Estimate,
    check_count_inequality,
    eq5_ratio,
    eq5_ratios,
    eq16_report,
    eq18_report,
    eval_eq6,
    eval_eq7,
    eval_eq8,
    eval_eq10,
    lhs16,
    lhs18,
    quantum_pair_prob,
)
from seqbell.lhv import (
    PAIR_MARGINAL_KEYS,
    TRIPLE_LABELS,
    HiddenCountTable,
    Setting,
    TripleDistribution,
    lhv_expectation,
    lhv_pair_prob,
)
from seqbell.qubit import (
    Direction,
    Outcome,
    Z_AXIS,
    dot,
    random_direction,
    random_state,
    state_from_bloch,
)

A, B, C = Setting.A, Setting.B, Setting.C
PLUS, MINUS = Outcome.PLUS, Outcome.MINUS

X_AXIS = Direction(1.0, 0.0, 0.0)
Y_AXIS = Direction(0.0, 1.0, 0.0)
SQRT2 = math.sqrt(2.0)


def eq16_directions():
    # orthogonal b, c with a along b - c
    b, c = X_AXIS, Y_AXIS
    a = Direction.from_array((b.as_array() - c.as_array()) / SQRT2)
    return a, b, c


def eq18_directions():
    # orthogonal a, c with b along a + c
    a, c = X_AXIS, Y_AXIS
    b = Direction.from_array((a.as_array() + c.as_array()) / SQRT2)
    return a, b, c


def one_reality(label, value=1):
    """The 8-vector holding value at the labelled reality, zero elsewhere."""
    v = np.zeros(8, dtype=np.int64)
    v[TRIPLE_LABELS.index(label)] = value
    return v


def exact_estimate(value):
    return Estimate(value=value, stderr=0.0, n_conditioning=1)


class TestQuantumClosedForms:
    def test_pair_probs_from_plus_eigenstate(self, rng):
        # from |a+>: P(a+,c-) = (1 - a.c)/2, P(a+,b-) = (1 - a.b)/2,
        # P(b+,c-) = (1 + a.b)(1 - b.c)/4
        a, b, c = (random_direction(rng) for _ in range(3))
        psi = state_from_bloch(a.as_array())
        assert quantum_pair_prob(psi, a, PLUS, c, MINUS) == pytest.approx(
            (1 - dot(a, c)) / 2, abs=1e-12
        )
        assert quantum_pair_prob(psi, a, PLUS, b, MINUS) == pytest.approx(
            (1 - dot(a, b)) / 2, abs=1e-12
        )
        assert quantum_pair_prob(psi, b, PLUS, c, MINUS) == pytest.approx(
            (1 + dot(a, b)) * (1 - dot(b, c)) / 4, abs=1e-12
        )

    def test_same_direction_opposite_signs_zero(self, rng):
        psi = random_state(rng)
        x = random_direction(rng)
        assert quantum_pair_prob(psi, x, PLUS, x, MINUS) == 0.0
        assert quantum_pair_prob(psi, x, MINUS, x, PLUS) == 0.0

    def test_state_independence_of_signed_sum(self, rng):
        # sum over sign pairs of sx sy P(x^sx, y^sy) equals x.y exactly
        for _ in range(1000):
            psi = random_state(rng, random_direction(rng))
            x, y = random_direction(rng), random_direction(rng)
            total = sum(
                int(sx) * int(sy) * quantum_pair_prob(psi, x, sx, y, sy)
                for sx in (PLUS, MINUS)
                for sy in (PLUS, MINUS)
            )
            assert abs(total - dot(x, y)) < 1e-12


class TestAlgebraicForms:
    def test_lhs16_reference_configuration(self):
        assert lhs16(*eq16_directions()) == pytest.approx(SQRT2, abs=1e-12)

    def test_lhs16_boundary_and_coplanar_maximum(self):
        d = Direction(0.0, 0.0, 1.0)
        assert lhs16(d, d, d) == pytest.approx(1.0, abs=1e-12)
        coplanar = [
            Direction(math.sin(t), 0.0, math.cos(t)) for t in (0.0, math.pi / 3, 2 * math.pi / 3)
        ]
        assert lhs16(*coplanar) == pytest.approx(1.5, abs=1e-12)

    def test_lhs18_reference_configuration(self):
        assert lhs18(*eq18_directions()) == pytest.approx(SQRT2 + 0.5, abs=1e-12)

    def test_lhs18_boundary_and_antipodal(self):
        d = Direction(0.0, 0.0, 1.0)
        assert lhs18(d, d, d) == pytest.approx(1.0, abs=1e-12)
        assert lhs18(Z_AXIS, X_AXIS, Direction(0.0, 0.0, -1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_eq18_equivalent_to_eq7_closed_forms(self, rng):
        # 1 - 4 * (P(a+,b-) + P(b+,c-) - P(a+,c-)) == lhs18, exactly
        for _ in range(1000):
            a, b, c = (random_direction(rng) for _ in range(3))
            psi = state_from_bloch(a.as_array())
            margin = (
                quantum_pair_prob(psi, a, PLUS, b, MINUS)
                + quantum_pair_prob(psi, b, PLUS, c, MINUS)
                - quantum_pair_prob(psi, a, PLUS, c, MINUS)
            )
            assert abs((1.0 - 4.0 * margin) - lhs18(a, b, c)) < 1e-12

    def test_closed_reports(self):
        r16 = eq16_report(*eq16_directions())
        assert r16.violated and r16.stderr_margin == 0.0
        r18 = eq18_report(*eq18_directions())
        assert r18.violated
        d = Direction(1.0, 0.0, 0.0)
        assert not eq16_report(d, d, d).violated
        assert eq16_report(d, d, d).margin == pytest.approx(0.0, abs=1e-12)


class TestEq6:
    def test_synthetic_violated_table(self):
        counts = np.zeros((3, 3, 2, 2), dtype=np.int64)
        counts[A, C, 0, 1] = 100
        report = eval_eq6(RunCountTable(counts))
        assert report.violated and report.lhs == 100.0 and report.rhs == 0.0

    def test_undefined_when_cells_empty(self):
        assert not eval_eq6(RunCountTable.zero()).defined

    def test_lhv_table_not_violated(self, rng):
        dist = TripleDistribution(rng.random(8))
        config = ProtocolConfig(
            mode=Mode.FREE,
            model=Model.LHV,
            a=X_AXIS,
            b=Y_AXIS,
            c=Z_AXIS,
            n_runs=10**6,
            seed=13,
            weights=tuple(dist.weights),
        )
        report = eval_eq6(run_ensemble(config).table)
        assert not report.violated

    def test_quantum_prepared_at_reference_violates(self):
        a, b, c = eq18_directions()
        config = ProtocolConfig(
            mode=Mode.PREPARED,
            model=Model.QUANTUM,
            a=a,
            b=b,
            c=c,
            n_runs=10**6,
            seed=7,
            state=state_from_bloch(a.as_array()),
        )
        report = eval_eq6(run_ensemble(config).table)
        assert report.violated
        assert report.n_sigma < -5


class TestEq7Eq8:
    def test_exact_reference_values(self):
        # prep |a+> at the EQ18 configuration: lhs 1/2, rhs just above 0.27
        a, b, c = eq18_directions()
        psi = state_from_bloch(a.as_array())
        p_ac = exact_estimate(quantum_pair_prob(psi, a, PLUS, c, MINUS))
        p_ab = exact_estimate(quantum_pair_prob(psi, a, PLUS, b, MINUS))
        p_bc = exact_estimate(quantum_pair_prob(psi, b, PLUS, c, MINUS))
        report = eval_eq7(p_ac, p_ab, p_bc)
        assert report.lhs == pytest.approx(0.5, abs=1e-12)
        assert report.rhs == pytest.approx(
            (1 - 1 / SQRT2) / 2 + (1 + 1 / SQRT2) * (1 - 1 / SQRT2) / 4, abs=1e-12
        )
        assert report.violated

    def test_lhv_exact_probabilities_satisfied(self, rng):
        for _ in range(50):
            dist = TripleDistribution(rng.random(8))
            p_ac = exact_estimate(lhv_pair_prob(dist, A, PLUS, C, MINUS))
            p_ab = exact_estimate(lhv_pair_prob(dist, A, PLUS, B, MINUS))
            p_bc = exact_estimate(lhv_pair_prob(dist, B, PLUS, C, MINUS))
            assert not eval_eq7(p_ac, p_ab, p_bc).violated
            q_ac = exact_estimate(lhv_pair_prob(dist, A, MINUS, C, PLUS))
            q_ab = exact_estimate(lhv_pair_prob(dist, A, MINUS, B, PLUS))
            q_bc = exact_estimate(lhv_pair_prob(dist, B, MINUS, C, PLUS))
            assert not eval_eq8(q_ac, q_ab, q_bc).violated

    def test_equal_probabilities_margin(self):
        p = exact_estimate(0.3)
        report = eval_eq7(p, p, p)
        assert not report.violated
        assert report.margin == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("evaluate", [eval_eq7, eval_eq8, eval_eq10])
    def test_undefined_input_propagates(self, evaluate, position):
        estimates = [exact_estimate(0.1)] * 3
        assert evaluate(*estimates).defined
        estimates[position] = UNDEFINED_ESTIMATE
        report = evaluate(*estimates)
        assert not report.defined and not report.violated

    def test_lhs18_reconstruction(self):
        a, b, c = eq18_directions()
        psi = state_from_bloch(a.as_array())
        p_ac = exact_estimate(quantum_pair_prob(psi, a, PLUS, c, MINUS))
        p_ab = exact_estimate(quantum_pair_prob(psi, a, PLUS, b, MINUS))
        p_bc = exact_estimate(quantum_pair_prob(psi, b, PLUS, c, MINUS))
        # lhs18 = 1 - 4 * margin7, with four times the margin's stderr
        report = eval_eq7(p_ac, p_ab, p_bc)
        assert 1.0 - 4.0 * report.margin == pytest.approx(SQRT2 + 0.5, abs=1e-12)
        assert 4.0 * report.stderr_margin == 0.0


class TestEq10:
    def test_quantum_reference_violation(self):
        a, b, c = eq16_directions()
        exact = lambda x, y: exact_estimate(dot(x, y))
        report = eval_eq10(exact(a, b), exact(b, c), exact(a, c))
        assert report.lhs == pytest.approx(SQRT2, abs=1e-12)
        assert report.violated

    def test_boundary_not_violated(self):
        report = eval_eq10(
            exact_estimate(1.0), exact_estimate(1.0), exact_estimate(1.0)
        )
        assert report.lhs == 1.0 and not report.violated

    def test_every_deterministic_triple_satisfies(self):
        for label in TRIPLE_LABELS:
            dist = TripleDistribution(one_reality(label))
            e = lambda x, y: exact_estimate(lhv_expectation(dist, x, y))
            report = eval_eq10(e(A, B), e(B, C), e(A, C))
            assert report.lhs in (1.0, -3.0)
            assert not report.violated

    def test_mixtures_satisfy_by_linearity(self, rng):
        for _ in range(100):
            dist = TripleDistribution(rng.random(8))
            e = lambda x, y: exact_estimate(lhv_expectation(dist, x, y))
            assert not eval_eq10(e(A, B), e(B, C), e(A, C)).violated


class TestEq5Ratio:
    def test_point_mass_ratio_near_one(self):
        dist = TripleDistribution(one_reality("a+b-c+"))
        config = ProtocolConfig(
            mode=Mode.FREE,
            model=Model.LHV,
            a=X_AXIS,
            b=Y_AXIS,
            c=Z_AXIS,
            n_runs=9 * 10**5,
            seed=23,
            weights=tuple(dist.weights),
        )
        result = run_ensemble(config)
        ratio = eq5_ratio(result.hidden, result.table, A, PLUS, B, MINUS)
        assert ratio.defined
        assert abs(ratio.ratio - 1.0) < 3 * ratio.stderr

    def test_uniform_all_pairs(self):
        config = ProtocolConfig(
            mode=Mode.FREE,
            model=Model.LHV,
            a=X_AXIS,
            b=Y_AXIS,
            c=Z_AXIS,
            n_runs=10**6,
            seed=29,
            weights=(0.125,) * 8,
        )
        result = run_ensemble(config)
        for x in Setting:
            for y in Setting:
                if x == y:
                    continue
                for sx in (PLUS, MINUS):
                    for sy in (PLUS, MINUS):
                        r = eq5_ratio(result.hidden, result.table, x, sx, y, sy)
                        assert r.defined
                        assert abs(r.ratio - 1.0) < 3.5 * r.stderr

    def test_zero_marginal_undefined(self):
        hidden = HiddenCountTable(one_reality("a+b+c+", 10))
        runs = RunCountTable.zero()
        ratio = eq5_ratio(hidden, runs, A, PLUS, B, MINUS)
        assert not ratio.defined

    def test_all_ratios_are_the_single_ratios(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            # some realities and cells empty, so some ratios are undefined
            hidden = HiddenCountTable(rng.integers(0, 50, size=8) * (rng.random(8) < 0.6))
            runs = RunCountTable(rng.integers(0, 50, size=(3, 3, 2, 2)))
            ratios = eq5_ratios(hidden, runs)
            assert list(ratios) == list(PAIR_MARGINAL_KEYS)
            for key, ratio in ratios.items():
                single = eq5_ratio(hidden, runs, *key)
                assert repr(ratio) == repr(single)  # nan compares unequal, its repr does not


class TestEq4Alias:
    def test_reexport_matches(self):
        table = HiddenCountTable(one_reality("a+b-c-", 4))
        report = check_count_inequality(table)
        assert report.inequality_id == "EQ4"
        assert report.margin == 0.0
