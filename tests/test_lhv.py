import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqbell.lhv import (
    ALL_TRIPLES,
    HiddenCountTable,
    HiddenTriple,
    PAIR_MARGINAL_KEYS,
    Setting,
    TripleDistribution,
    check_count_inequality,
    count_inequality_decomposition,
    hidden_marginal,
    lhv_expectation,
    lhv_pair_prob,
    sample_triple_indices,
)
from seqbell.qubit import OUTCOMES, Outcome

count_tables = st.lists(st.integers(min_value=0, max_value=10**6), min_size=8, max_size=8)


def marginal_oracle(table, x, sx, y, sy):
    """Brute force: walk all 8 triples and sum the consistent cells."""
    return sum(
        table.count(t)
        for t in ALL_TRIPLES
        if t.component(x) == sx and t.component(y) == sy
    )


class TestHiddenTriple:
    def test_eight_distinct_triples(self):
        assert len(set(ALL_TRIPLES)) == 8
        for i, t in enumerate(ALL_TRIPLES):
            assert t.index == i
            assert HiddenTriple.from_label(t.label()) == t

    def test_read_components(self):
        t = HiddenTriple.from_label("a+b-c+")
        assert t.component(Setting.A) is Outcome.PLUS
        assert t.component(Setting.B) is Outcome.MINUS
        assert t.component(Setting.C) is Outcome.PLUS

    def test_read_is_repeatable(self):
        for t in ALL_TRIPLES:
            for s in Setting:
                assert t.component(s) == t.component(s)

    def test_read_is_setting_local(self):
        # changing an unmeasured component never changes the read outcome
        for t in ALL_TRIPLES:
            for s in Setting:
                for other in ALL_TRIPLES:
                    if other.component(s) == t.component(s):
                        assert other.component(s) == t.component(s)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            HiddenTriple.from_label("a+b-")
        with pytest.raises(ValueError):
            HiddenTriple.from_label("a+b0c-")


class TestTripleDistribution:
    def test_point_mass_sampling(self, rng):
        t = HiddenTriple.from_label("a+b+c+")
        dist = TripleDistribution.point_mass(t)
        assert all(ALL_TRIPLES[i] == t for i in sample_triple_indices(dist, 100, rng))

    def test_uniform_frequencies(self, rng):
        n = 10**6
        idx = sample_triple_indices(TripleDistribution.uniform(), n, rng)
        freqs = np.bincount(idx, minlength=8) / n
        sigma = np.sqrt(0.125 * 0.875 / n)
        assert np.all(np.abs(freqs - 0.125) < 4 * sigma)

    def test_pair_support_concentrates(self, rng):
        dist = TripleDistribution.from_mapping({"a+b-c+": 0.5, "a+b-c-": 0.5})
        for i in sample_triple_indices(dist, 200, rng):
            t = ALL_TRIPLES[i]
            assert t.alpha is Outcome.PLUS and t.beta is Outcome.MINUS

    def test_zero_weight_never_sampled(self, rng):
        dist = TripleDistribution([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        idx = sample_triple_indices(dist, 10000, rng)
        assert set(np.unique(idx)) <= {1, 7}

    def test_draws_match_binary_search(self):
        # the running sum of these normalized weights passes 1.0 before the
        # last, zero, weight, whose edge is pinned to 1.0: the edges are then
        # not sorted, and each draw must still be searchsorted's
        w = np.random.default_rng(0).random(8)
        w[7] = 0.0
        dist = TripleDistribution(w)
        assert dist._cum[6] > dist._cum[7] == 1.0
        for seed in range(3):
            u = np.random.default_rng(seed).random(10**5)
            expected = np.minimum(np.searchsorted(dist._cum, u, side="right"), 7).astype(np.int8)
            drawn = sample_triple_indices(dist, 10**5, np.random.default_rng(seed))
            assert drawn.tobytes() == expected.tobytes()

    def test_normalization_and_validation(self):
        dist = TripleDistribution(np.full(8, 3.0))
        assert abs(dist.weights.sum() - 1.0) < 1e-12
        with pytest.raises(ValueError):
            TripleDistribution(np.zeros(8))
        with pytest.raises(ValueError):
            TripleDistribution([-0.1] + [1.0] * 7)
        with pytest.raises(ValueError):
            TripleDistribution(np.ones(7))

    def test_condition(self):
        dist = TripleDistribution.uniform().condition(Setting.A, Outcome.PLUS)
        assert lhv_pair_prob(dist, Setting.A, Outcome.PLUS, Setting.B, Outcome.PLUS) == 0.5
        assert lhv_pair_prob(dist, Setting.A, Outcome.MINUS, Setting.B, Outcome.PLUS) == 0.0
        point = TripleDistribution.point_mass(HiddenTriple.from_label("a+b+c+"))
        with pytest.raises(ValueError):
            point.condition(Setting.A, Outcome.MINUS)

    def test_mapping_round_trip(self):
        mapping = {t.label(): w for t, w in zip(ALL_TRIPLES, np.linspace(1, 8, 8) / 36)}
        dist = TripleDistribution.from_mapping(mapping)
        assert dist.as_mapping() == pytest.approx(mapping)


class TestHiddenMarginals:
    def test_single_cell_sums(self):
        table = HiddenCountTable.from_mapping({"a+b-c-": 5})
        assert hidden_marginal(table, Setting.A, Outcome.PLUS, Setting.B, Outcome.MINUS) == 5
        assert hidden_marginal(table, Setting.A, Outcome.PLUS, Setting.C, Outcome.MINUS) == 5
        assert hidden_marginal(table, Setting.B, Outcome.PLUS, Setting.C, Outcome.MINUS) == 0

    def test_defining_relations(self):
        # N(a+b-), N(a+c-) and the b+c- marginal written out cell by cell.
        table = HiddenCountTable(np.arange(1, 9, dtype=np.int64))
        n = lambda label: table.count(HiddenTriple.from_label(label))
        assert hidden_marginal(table, Setting.A, Outcome.PLUS, Setting.B, Outcome.MINUS) == n(
            "a+b-c+"
        ) + n("a+b-c-")
        assert hidden_marginal(table, Setting.A, Outcome.PLUS, Setting.C, Outcome.MINUS) == n(
            "a+b+c-"
        ) + n("a+b-c-")
        assert hidden_marginal(table, Setting.B, Outcome.PLUS, Setting.C, Outcome.MINUS) == n(
            "a+b+c-"
        ) + n("a-b+c-")

    def test_all_ones_table(self):
        table = HiddenCountTable(np.ones(8, dtype=np.int64))
        for key in PAIR_MARGINAL_KEYS:
            assert hidden_marginal(table, *key) == 2

    @given(count_tables)
    def test_matches_enumeration_oracle(self, counts):
        table = HiddenCountTable(np.array(counts, dtype=np.int64))
        for x in Setting:
            for y in Setting:
                if x == y:
                    continue
                for sx in OUTCOMES:
                    for sy in OUTCOMES:
                        assert hidden_marginal(table, x, sx, y, sy) == marginal_oracle(
                            table, x, sx, y, sy
                        )

    def test_same_setting_rejected(self):
        table = HiddenCountTable.zero()
        with pytest.raises(ValueError):
            hidden_marginal(table, Setting.A, Outcome.PLUS, Setting.A, Outcome.PLUS)


class TestCountInequality:
    def test_single_cell_margin_zero(self):
        for label in ("a+b-c-", "a+b+c-"):
            report = check_count_inequality(HiddenCountTable.from_mapping({label: 5 if label == "a+b-c-" else 7}))
            assert report.margin == 0.0
            assert not report.violated

    @given(count_tables)
    def test_holds_on_every_table(self, counts):
        table = HiddenCountTable(np.array(counts, dtype=np.int64))
        report = check_count_inequality(table)
        assert report.margin >= 0.0
        assert not report.violated
        assert report.margin == count_inequality_decomposition(table)

    def test_random_tables_bulk(self, rng):
        for _ in range(10**4):
            table = HiddenCountTable(rng.integers(0, 1000, size=8))
            report = check_count_inequality(table)
            assert report.margin >= 0
            assert report.margin == count_inequality_decomposition(table)

    def test_literal_misprint_breaks_identity(self):
        # A table concentrated on a-b+c- has EQ4 margin 5, but the misprinted
        # b+c- relation reads zero there, so the decomposition identity fails.
        table = HiddenCountTable.from_mapping({"a-b+c-": 5})
        good = check_count_inequality(table)
        assert good.margin == 5 == count_inequality_decomposition(table)
        bad = check_count_inequality(table, literal_eq3=True)
        assert bad.margin != count_inequality_decomposition(table)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            HiddenCountTable(np.array([-1, 0, 0, 0, 0, 0, 0, 0]))


class TestLhvClosedForms:
    def test_pair_prob_point_mass(self):
        dist = TripleDistribution.point_mass(HiddenTriple.from_label("a+b-c+"))
        assert lhv_pair_prob(dist, Setting.A, Outcome.PLUS, Setting.B, Outcome.MINUS) == 1.0
        assert lhv_pair_prob(dist, Setting.A, Outcome.PLUS, Setting.B, Outcome.PLUS) == 0.0

    def test_same_setting_perfectly_correlated(self, rng):
        dist = TripleDistribution(rng.random(8))
        for s in Setting:
            for o in OUTCOMES:
                assert lhv_pair_prob(dist, s, o, s, o.flipped()) == 0.0
        total = sum(lhv_pair_prob(dist, Setting.A, o, Setting.A, o) for o in OUTCOMES)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_expectation_of_deterministic_triples(self):
        for t in ALL_TRIPLES:
            dist = TripleDistribution.point_mass(t)
            for x in Setting:
                for y in Setting:
                    expected = int(t.component(x)) * int(t.component(y))
                    assert lhv_expectation(dist, x, y) == expected
