import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqbell.config import parse_config
from seqbell.inequalities import check_count_inequality
from seqbell.lhv import (
    HiddenCountTable,
    PAIR_MARGINAL_KEYS,
    TRIPLE_COMPONENTS,
    TRIPLE_LABELS,
    Setting,
    TripleDistribution,
    count_inequality_decomposition,
    hidden_marginal,
    lhv_expectation,
    lhv_pair_prob,
    sample_triple_indices,
)
from seqbell.qubit import OUTCOMES, Outcome

count_tables = st.lists(st.integers(min_value=0, max_value=10**6), min_size=8, max_size=8)


def by_label(mapping):
    """The 8-vector holding each labelled reality's value, zero elsewhere."""
    v = np.zeros(8)
    for label, value in mapping.items():
        v[TRIPLE_LABELS.index(label)] = value
    return v


def point_mass(label):
    return TripleDistribution(by_label({label: 1.0}))


def count_table(mapping):
    return HiddenCountTable(by_label(mapping).astype(np.int64))


def component(label, setting):
    """The outcome a reality assigns to a setting, read off its label."""
    return Outcome.PLUS if label[2 * setting + 1] == "+" else Outcome.MINUS


def marginal_oracle(table, x, sx, y, sy):
    """Brute force: walk all 8 labels and sum the consistent cells."""
    return sum(
        int(n)
        for label, n in zip(TRIPLE_LABELS, table.counts)
        if component(label, x) == sx and component(label, y) == sy
    )


class TestHiddenTriple:
    """A hidden triple is its index 0..7 into TRIPLE_LABELS and TRIPLE_COMPONENTS."""

    def test_eight_distinct_triples(self):
        assert len(TRIPLE_LABELS) == len(set(TRIPLE_LABELS)) == 8
        assert TRIPLE_COMPONENTS.shape == (8, 3)
        lines = parse_config("model = lhv").protocol_lines()
        keys = [line.split(" = ")[0] for line in lines if line.startswith("lhv.weights.")]
        assert keys == [f"lhv.weights.{label}" for label in TRIPLE_LABELS]

    def test_read_components(self):
        for label, row in zip(TRIPLE_LABELS, TRIPLE_COMPONENTS):
            assert [int(component(label, s)) for s in Setting] == row.tolist()
        row = TRIPLE_COMPONENTS[TRIPLE_LABELS.index("a+b-c+")]
        assert row.tolist() == [1, -1, 1]


class TestTripleDistribution:
    def test_point_mass_sampling(self, rng):
        dist = point_mass("a+b+c+")
        assert all(TRIPLE_LABELS[i] == "a+b+c+" for i in sample_triple_indices(dist, 100, rng))

    def test_uniform_frequencies(self, rng):
        n = 10**6
        idx = sample_triple_indices(TripleDistribution(np.full(8, 0.125)), n, rng)
        freqs = np.bincount(idx, minlength=8) / n
        sigma = np.sqrt(0.125 * 0.875 / n)
        assert np.all(np.abs(freqs - 0.125) < 4 * sigma)

    def test_pair_support_concentrates(self, rng):
        dist = TripleDistribution(by_label({"a+b-c+": 0.5, "a+b-c-": 0.5}))
        for i in sample_triple_indices(dist, 200, rng):
            assert TRIPLE_COMPONENTS[i, Setting.A] == 1 and TRIPLE_COMPONENTS[i, Setting.B] == -1

    def test_zero_weight_never_sampled(self, rng):
        dist = TripleDistribution([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        idx = sample_triple_indices(dist, 10000, rng)
        assert set(np.unique(idx)) <= {1, 7}

    def test_draws_match_binary_search(self):
        # the running sum of these normalized weights passes 1.0 before the
        # last, zero, weight; the edges are pinned to 1.0 from the last
        # positive weight on, and each draw must still be searchsorted's
        w = np.random.default_rng(0).random(8)
        w[7] = 0.0
        dist = TripleDistribution(w)
        assert np.cumsum(dist.weights)[6] > 1.0
        assert dist._cum[6:].tolist() == [1.0, 1.0]
        for seed in range(3):
            u = np.random.default_rng(seed).random(10**5)
            expected = np.minimum(np.searchsorted(dist._cum, u, side="right"), 7).astype(np.int8)
            drawn = sample_triple_indices(dist, 10**5, np.random.default_rng(seed))
            assert drawn.tobytes() == expected.tobytes()

    def test_edges_are_one_from_the_last_positive_weight(self):
        # a running sum can end a few ulps below 1 at the last positive
        # weight; a u in that gap would draw a zero-weight reality after it
        rng = np.random.default_rng(0)
        for _ in range(2000):
            w = rng.random(8) * (rng.random(8) < 0.7)
            w[rng.integers(8)] += 0.1
            setting = Setting(int(rng.integers(3)))
            sign = Outcome(int(TRIPLE_COMPONENTS[int(np.argmax(w)), setting]))
            dist = TripleDistribution(w)
            for d in (dist, dist.condition(setting, sign)):
                last = np.flatnonzero(d.weights)[-1]
                assert d._cum[last:].tolist() == [1.0] * (8 - last)

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
        dist = TripleDistribution(np.full(8, 0.125)).condition(Setting.A, Outcome.PLUS)
        assert lhv_pair_prob(dist, Setting.A, Outcome.PLUS, Setting.B, Outcome.PLUS) == 0.5
        assert lhv_pair_prob(dist, Setting.A, Outcome.MINUS, Setting.B, Outcome.PLUS) == 0.0
        point = point_mass("a+b+c+")
        with pytest.raises(ValueError):
            point.condition(Setting.A, Outcome.MINUS)

    def test_pickle_keeps_exact_read_only_arrays(self, rng):
        # the config carries its built distribution, so both restore the arrays
        # as pickled rather than normalizing the weights again
        dist = TripleDistribution(rng.random(8))
        config = parse_config("model = lhv\nlhv.weights.a+b-c+ = 3\nlhv.weights.a-b-c- = 0.7")
        for original, restored in (
            (dist, pickle.loads(pickle.dumps(dist))),
            (config.dist, pickle.loads(pickle.dumps(config)).dist),
        ):
            for name in ("weights", "_cum"):
                assert getattr(restored, name).tobytes() == getattr(original, name).tobytes()
                assert not getattr(restored, name).flags.writeable

    def test_mapping_round_trip(self):
        mapping = dict(zip(TRIPLE_LABELS, np.linspace(1, 8, 8) / 36))
        dist = TripleDistribution(by_label(mapping))
        assert dict(zip(TRIPLE_LABELS, dist.weights)) == pytest.approx(mapping)


def mask_sum_marginal(table, x, sx, y, sy):
    """hidden_marginal as first written: a boolean mask over the 8 realities."""
    mask = (TRIPLE_COMPONENTS[:, x] == sx) & (TRIPLE_COMPONENTS[:, y] == sy)
    return int(table.counts[mask].sum())


class TestHiddenMarginals:
    def test_matches_mask_sums(self, rng):
        for counts in rng.integers(0, 2**40, size=(200, 8)):
            table = HiddenCountTable(counts)
            for key in PAIR_MARGINAL_KEYS:
                assert hidden_marginal(table, *key) == mask_sum_marginal(table, *key)
                # plain ints name the same settings and signs
                assert hidden_marginal(table, *map(int, key)) == mask_sum_marginal(table, *key)

    def test_single_cell_sums(self):
        table = count_table({"a+b-c-": 5})
        assert hidden_marginal(table, Setting.A, Outcome.PLUS, Setting.B, Outcome.MINUS) == 5
        assert hidden_marginal(table, Setting.A, Outcome.PLUS, Setting.C, Outcome.MINUS) == 5
        assert hidden_marginal(table, Setting.B, Outcome.PLUS, Setting.C, Outcome.MINUS) == 0

    def test_defining_relations(self):
        # N(a+b-), N(a+c-) and the b+c- marginal written out cell by cell.
        table = HiddenCountTable(np.arange(1, 9, dtype=np.int64))
        n = lambda label: table.counts[TRIPLE_LABELS.index(label)]
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
        table = HiddenCountTable(np.zeros(8, dtype=np.int64))
        with pytest.raises(ValueError):
            hidden_marginal(table, Setting.A, Outcome.PLUS, Setting.A, Outcome.PLUS)

    @pytest.mark.parametrize("key", [(3, 1, 0, 1), (-1, 1, 0, 1), (0, 0, 1, 1), (0, 1, 2, 2)])
    def test_unknown_setting_or_sign_rejected(self, key):
        with pytest.raises(ValueError):
            hidden_marginal(HiddenCountTable(np.ones(8, dtype=np.int64)), *key)


class TestCountInequality:
    def test_single_cell_margin_zero(self):
        for label in ("a+b-c-", "a+b+c-"):
            report = check_count_inequality(count_table({label: 5 if label == "a+b-c-" else 7}))
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
        table = count_table({"a-b+c-": 5})
        good = check_count_inequality(table)
        assert good.margin == 5 == count_inequality_decomposition(table)
        bad = check_count_inequality(table, literal_eq3=True)
        assert bad.margin != count_inequality_decomposition(table)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            HiddenCountTable(np.array([-1, 0, 0, 0, 0, 0, 0, 0]))

    def test_integer_and_integral_float_counts_kept(self):
        assert HiddenCountTable([3] * 8).counts.tolist() == [3] * 8
        table = HiddenCountTable([2.0] * 8)
        assert table.counts.dtype == np.int64 and table.counts.tolist() == [2] * 8

    @pytest.mark.parametrize("bad", [2.7, np.nan, np.inf])
    def test_fractional_counts_rejected(self, bad):
        # the int64 cast used to truncate 2.7 to 2 without a word
        with pytest.raises(ValueError, match="whole numbers"):
            HiddenCountTable([bad] * 8)


class TestLhvClosedForms:
    def test_pair_prob_point_mass(self):
        dist = point_mass("a+b-c+")
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
        for label in TRIPLE_LABELS:
            dist = point_mass(label)
            for x in Setting:
                for y in Setting:
                    expected = int(component(label, x)) * int(component(label, y))
                    assert lhv_expectation(dist, x, y) == expected
