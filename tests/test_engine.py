import io
import itertools
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from seqbell import engine
from seqbell.cli import main
from seqbell.config import parse_config
from seqbell.engine import (
    ConfigError,
    Mode,
    Model,
    ProtocolConfig,
    RunCountTable,
    cell_law,
    estimate_expectation,
    estimate_pair_prob,
    run_ensemble,
    run_two_series,
    two_series_estimate,
    write_run_log,
)
from seqbell.inequalities import quantum_pair_prob
from seqbell.lhv import (
    ALL_TRIPLES,
    HiddenTriple,
    Setting,
    TRIPLE_COMPONENTS,
    TripleDistribution,
    hidden_marginal,
    lhv_pair_prob,
    sample_triple_indices,
)
from seqbell.qubit import (
    OUTCOMES,
    Direction,
    Outcome,
    PureState,
    Z_AXIS,
    bloch_vector,
    dot,
    measure,
    random_direction,
    random_state,
    state_from_bloch,
)

A, B, C = Setting.A, Setting.B, Setting.C
PLUS, MINUS = Outcome.PLUS, Outcome.MINUS

X_AXIS = Direction(1.0, 0.0, 0.0)
Y_AXIS = Direction(0.0, 1.0, 0.0)
XYZ = (X_AXIS, Y_AXIS, Z_AXIS)


def quantum_config(directions=XYZ, state=None, n_runs=100, seed=1, mode=Mode.FREE, **kw):
    return ProtocolConfig(
        mode=mode,
        model=Model.QUANTUM,
        **dict(zip("abc", directions)),
        n_runs=n_runs,
        seed=seed,
        state=state or PureState(1.0, 0.0, Z_AXIS),
        **kw,
    )


def lhv_config(dist=None, n_runs=100, seed=1, mode=Mode.FREE, directions=XYZ, **kw):
    return ProtocolConfig(
        mode=mode,
        model=Model.LHV,
        **dict(zip("abc", directions)),
        n_runs=n_runs,
        seed=seed,
        weights=tuple((dist or TripleDistribution.uniform()).weights),
        **kw,
    )


class DoneFuture:
    """What a stand-in executor's submit returns: the result, already there."""

    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


class TestDrawSettingPair:
    def test_uniform_over_nine_ordered_pairs(self, rng):
        n = 9 * 10**5
        counts = np.zeros((3, 3), dtype=int)
        first = rng.integers(0, 3, size=n)
        second = rng.integers(0, 3, size=n)
        np.add.at(counts, (first, second), 1)
        sigma = math.sqrt((1 / 9) * (8 / 9) / n)
        assert np.all(np.abs(counts / n - 1 / 9) < 4 * sigma)

    def test_chi_square_below_critical(self):
        # the setting pairs of a generated ensemble, over several chunks
        n = 10**6
        table = run_ensemble(quantum_config(n_runs=n, seed=27)).table
        counts = table.counts.sum(axis=(2, 3)).ravel()
        chi2 = float(((counts - n / 9) ** 2 / (n / 9)).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=8)


def scalar_quantum_run(state, directions, pair, rng):
    """One run measured step by step with the qubit primitives."""
    o1, collapsed = measure(state, directions[pair[0]], rng)
    o2, _ = measure(collapsed, directions[pair[1]], rng)
    return o1, o2


class TestScalarRuns:
    """Runs performed one at a time from the qubit and lhv primitives agree
    with `cell_law`."""

    def test_same_setting_always_equal(self, rng):
        psi = random_state(rng)
        for _ in range(300):
            o1, o2 = scalar_quantum_run(psi, XYZ, (B, B), rng)
            assert o1 == o2
        law = cell_law(quantum_config(state=psi))
        assert law[B, B, 0, 1] == law[B, B, 1, 0] == 0.0

    def test_eigenstate_first_outcome_and_flip_rate(self, rng):
        # From |a+>, the first a-measurement is certain and the b-outcome
        # flips with probability (1 - a.b)/2.
        a = random_direction(rng)
        b = random_direction(rng)
        dirs = (a, b, Z_AXIS)
        psi = state_from_bloch(a.as_array())
        n = 20000
        flips = 0
        for _ in range(n):
            o1, o2 = scalar_quantum_run(psi, dirs, (A, B), rng)
            assert o1 is PLUS
            flips += o2 is MINUS
        p = cell_law(quantum_config(directions=dirs, state=psi))[A, B, 0, 1]
        assert p == pytest.approx((1 - dot(a, b)) / 2, abs=1e-12)
        assert abs(flips / n - p) < 4 * math.sqrt(p * (1 - p) / n) + 1e-9

    def test_pair_bc_joint_frequency(self, rng):
        # From |a+>, P(b+, c-) = (1 + a.b)(1 - b.c)/4.
        a, b, c = (random_direction(rng) for _ in range(3))
        dirs = (a, b, c)
        psi = state_from_bloch(a.as_array())
        n = 20000
        hits = 0
        for _ in range(n):
            o1, o2 = scalar_quantum_run(psi, dirs, (B, C), rng)
            hits += o1 is PLUS and o2 is MINUS
        p = cell_law(quantum_config(directions=dirs, state=psi))[B, C, 0, 1]
        assert p == pytest.approx((1 + dot(a, b)) * (1 - dot(b, c)) / 4, abs=1e-12)
        assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n) + 1e-9

    def test_lhv_point_mass_record(self, rng):
        dist = TripleDistribution.point_mass(HiddenTriple.from_label("a+b-c+"))
        for i in sample_triple_indices(dist, 100, rng):
            triple = ALL_TRIPLES[i]
            assert triple.label() == "a+b-c+"
            assert triple.component(A) is PLUS and triple.component(B) is MINUS
        assert cell_law(lhv_config(dist=dist))[A, B, 0, 1] == 1.0

    def test_lhv_same_setting_equal(self, rng):
        dist = TripleDistribution(rng.random(8))
        law = cell_law(lhv_config(dist=dist))
        for s in (A, B, C):
            assert law[s, s, 0, 1] == law[s, s, 1, 0] == 0.0
            assert law[s, s, 0, 0] + law[s, s, 1, 1] == pytest.approx(1.0)


# fixed configurations for the goodness-of-fit tests of the chunk samplers,
# each with the configuration of a wrong law that the fit must reject
_LAW_RNG = np.random.default_rng(606)
_LAW_DIRS = tuple(random_direction(_LAW_RNG) for _ in range(3))
_LAW_PSI = random_state(_LAW_RNG, random_direction(_LAW_RNG))
# two zero weights make zero-probability cells in free mode too
_LAW_DIST = TripleDistribution(_LAW_RNG.random(8) * [1, 1, 0, 1, 1, 1, 0, 1])
_LAW_RUNS = 3 * 10**5


def _law_cases():
    q_free = quantum_config(directions=_LAW_DIRS, state=_LAW_PSI, n_runs=_LAW_RUNS, seed=61)
    q_prep = replace(q_free, mode=Mode.PREPARED, prep_setting=B, prep_sign=MINUS, seed=62)
    l_free = lhv_config(dist=_LAW_DIST, directions=_LAW_DIRS, n_runs=_LAW_RUNS, seed=63)
    l_prep = replace(
        l_free, mode=Mode.PREPARED, prep_setting=C, prep_sign=PLUS, seed=64, chunk_size=40000
    )
    return {
        "quantum-free": (q_free, replace(q_free, state=state_from_bloch(-bloch_vector(_LAW_PSI)))),
        "quantum-prepared": (q_prep, replace(q_prep, prep_sign=PLUS)),
        "lhv-free": (l_free, replace(l_free, weights=tuple(_LAW_DIST.weights[::-1]))),
        "lhv-prepared": (l_prep, replace(l_prep, prep_sign=MINUS)),
    }


LAW_CASES = _law_cases()


def chi_square(counts, law, n_runs):
    """Pearson statistic of a count table against n_runs * law / 9 over the
    cells the law allows, with its degrees of freedom."""
    expected = n_runs * law / 9
    allowed = law > 1e-12
    stat = float(((counts - expected)[allowed] ** 2 / expected[allowed]).sum())
    return stat, int(allowed.sum()) - 1


class TestCellLaw:
    def test_matches_pair_probs_bitwise(self):
        cells = list(itertools.product((A, B, C), (A, B, C), OUTCOMES, OUTCOMES))
        for config, _ in LAW_CASES.values():
            law = cell_law(config)
            prepared = config.mode is Mode.PREPARED
            if config.model is Model.QUANTUM:
                state = config.state
                if prepared:
                    bloch = int(config.prep_sign) * config.directions[config.prep_setting].as_array()
                    state = state_from_bloch(bloch)
                d = config.directions
                expected = [quantum_pair_prob(state, d[x], sx, d[y], sy) for x, y, sx, sy in cells]
            else:
                dist = config.dist
                if prepared:
                    dist = dist.condition(config.prep_setting, config.prep_sign)
                expected = [lhv_pair_prob(dist, x, sx, y, sy) for x, y, sx, sy in cells]
            assert law.shape == (3, 3, 2, 2)
            assert law.tobytes() == np.array(expected).tobytes()
            assert np.allclose(law.sum(axis=(2, 3)), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", LAW_CASES)
    def test_counts_fit_law(self, case):
        config, _ = LAW_CASES[case]
        law = cell_law(config)
        counts = run_ensemble(config).table.counts
        assert np.all(counts[law <= 1e-12] == 0)
        stat, df = chi_square(counts, law, config.n_runs)
        assert stat < stats.chi2.ppf(0.999, df)

    @pytest.mark.parametrize("case", LAW_CASES)
    def test_wrong_law_rejected(self, case):
        config, wrong = LAW_CASES[case]
        counts = run_ensemble(config).table.counts
        stat, df = chi_square(counts, cell_law(wrong), config.n_runs)
        assert stat > stats.chi2.ppf(0.999, df)

    def test_validates_config(self):
        dist = TripleDistribution([0, 0, 0, 0, 1, 1, 1, 1])  # all a- triples
        empty_prep = lhv_config(dist=dist, mode=Mode.PREPARED)
        negative = replace(empty_prep, mode=Mode.FREE, weights=(-1.0,) + (1.0,) * 7)
        # chunk_size is capped at 2**22 runs; no run starts here
        big_chunk = quantum_config(chunk_size=2**22 + 1)
        replace(big_chunk, chunk_size=2**22).validate()
        for config in (empty_prep, negative, replace(negative, weights=(0.0,) * 8), big_chunk):
            for call in (cell_law, run_ensemble):
                with pytest.raises(ConfigError):
                    call(config)


def reference_chunk_cells(config, series, chunk_index, size):
    """The chunk samplers in their first, explicit formulation: +/-1 outcome
    arrays from np.where or from reality components, a binary search for
    the reality, then the cell arithmetic.  Same stream, same draw order."""
    rng = engine._chunk_rng(config.seed, series, chunk_index)
    prepared = config.mode is Mode.PREPARED
    triples = None
    if config.model is Model.QUANTUM:
        dirs = np.array([d.as_array() for d in config.directions])
        if prepared:
            bloch = int(config.prep_sign) * config.directions[config.prep_setting].as_array()
        else:
            bloch = bloch_vector(config.state)
        p_first = 0.5 * (1.0 + dirs @ bloch)
        p_second = 0.5 * (1.0 + np.multiply.outer((1.0, -1.0), dirs @ dirs.T)).ravel()
        first = rng.integers(0, 3, size=size).astype(np.int8)
        second = rng.integers(0, 3, size=size).astype(np.int8)
        o1 = np.where(rng.random(size) < p_first[first], np.int8(1), np.int8(-1))
        row = (o1 < 0) * np.int8(9) + first * 3 + second
        o2 = np.where(rng.random(size) < p_second[row], np.int8(1), np.int8(-1))
    else:
        dist = config.dist
        if prepared:
            dist = dist.condition(config.prep_setting, config.prep_sign)
        idx = np.searchsorted(dist._cum, rng.random(size), side="right")
        triples = np.minimum(idx, 7).astype(np.int8)
        first = rng.integers(0, 3, size=size).astype(np.int8)
        second = rng.integers(0, 3, size=size).astype(np.int8)
        o1 = TRIPLE_COMPONENTS[triples, first]
        o2 = TRIPLE_COMPONENTS[triples, second]
    cell = (first * 3 + second) * 4 + (o1 < 0) * np.int8(2) + (o2 < 0)
    return cell, triples


def _oracle_cases():
    """Random directions, states and weights (some weights zero), free and
    prepared, for both models."""
    rng = np.random.default_rng(1010)
    cases = []
    for _ in range(3):
        dirs = tuple(random_direction(rng) for _ in range(3))
        psi = random_state(rng, random_direction(rng))
        weights = rng.random(8) * (rng.random(8) < 0.7)
        weights[rng.integers(8)] = rng.random() + 0.1
        # prepare a readout that the weights support
        setting = Setting(int(rng.integers(3)))
        sign = Outcome(int(TRIPLE_COMPONENTS[int(np.argmax(weights)), setting]))
        q_free = quantum_config(directions=dirs, state=psi)
        l_free = lhv_config(dist=TripleDistribution(weights), directions=dirs)
        for free in (q_free, l_free):
            cases.append(free)
            cases.append(replace(free, mode=Mode.PREPARED, prep_setting=setting, prep_sign=sign))
    return cases


class TestChunkKernels:
    @pytest.mark.parametrize("config", _oracle_cases())
    def test_match_reference_bit_for_bit(self, config):
        for seed, series, chunk_index in ((0, 0, 0), (7, 1, 3), (2**64 - 1, 0, 152587)):
            config = replace(config, seed=seed)
            # the last size spans three blocks of the threshold gathers
            for size in (1, 2, 7, 4099, 2 * engine._GATHER_BLOCK + 5):
                cell, triples = engine._chunk_cells(config, series, chunk_index, size)
                ref_cell, ref_triples = reference_chunk_cells(config, series, chunk_index, size)
                assert cell.dtype == ref_cell.dtype
                assert cell.tobytes() == ref_cell.tobytes()
                if ref_triples is None:
                    assert triples is None
                else:
                    assert triples.dtype == ref_triples.dtype
                    assert triples.tobytes() == ref_triples.tobytes()


class TestRunEnsemble:
    def test_rejects_zero_runs(self):
        with pytest.raises(ConfigError):
            run_ensemble(quantum_config(n_runs=0))

    def test_single_run_table(self):
        result = run_ensemble(quantum_config(n_runs=1))
        assert result.table.total_runs == 1
        assert result.n_runs == 1

    def test_table_conservation(self):
        result = run_ensemble(quantum_config(n_runs=12345, chunk_size=1000))
        assert result.table.total_runs == 12345

    def test_worker_count_invariance(self):
        dist = TripleDistribution(np.random.default_rng(99).random(8))
        config = lhv_config(dist=dist, n_runs=30000, seed=99, chunk_size=4096)
        one = run_ensemble(config, workers=1)
        eight = run_ensemble(config, workers=8)
        assert np.array_equal(one.table.counts, eight.table.counts)
        assert np.array_equal(one.hidden.counts, eight.hidden.counts)
        # pool workers get the config by pickle: its weights arrive bit for bit
        restored = pickle.loads(pickle.dumps(config))
        assert restored == config
        assert restored.dist.weights.tobytes() == config.dist.weights.tobytes()

    def test_worker_count_invariance_quantum(self):
        config = quantum_config(n_runs=30000, seed=5, chunk_size=4096)
        one = run_ensemble(config, workers=1)
        eight = run_ensemble(config, workers=8)
        assert np.array_equal(one.table.counts, eight.table.counts)

    def test_result_keeps_no_per_run_data(self):
        # a million runs pickle to a few KB: only the count tables are kept
        result = run_ensemble(lhv_config(n_runs=10**6, seed=12))
        assert len(pickle.dumps(result)) < 4096

    def test_pool_size_capped_by_chunks_and_cpus(self, monkeypatch):
        # a stand-in executor records the pool size and runs in this process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return DoneFuture(fn(*args))

        monkeypatch.setattr(engine, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
        five_chunks = quantum_config(n_runs=5000, seed=8, chunk_size=1000)
        serial = run_ensemble(five_chunks)
        for workers in (64, 2, 1):
            result = run_ensemble(five_chunks, workers=workers)
            assert np.array_equal(result.table.counts, serial.table.counts)
        run_ensemble(quantum_config(n_runs=2000, chunk_size=1000), workers=64)
        run_ensemble(quantum_config(n_runs=500, chunk_size=1000), workers=64)
        # min(workers, chunks, CPUs); one worker or one chunk starts no pool
        assert sizes == [3, 2, 2]

    def test_chunk_plan_is_never_built(self, monkeypatch):
        # 10^10 runs are 152 588 default chunks: nothing may grow with that count
        monkeypatch.setattr(engine, "_run_chunk", lambda task: (np.zeros(36, np.int64), None))
        config = quantum_config(n_runs=10**10)
        tracemalloc.start()
        try:
            run_ensemble(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_pool_keeps_few_chunks_in_flight(self, monkeypatch):
        # a stand-in executor counts the submissions not yet collected
        outstanding, most = [0], [0]

        class Collected(DoneFuture):
            def result(self):
                outstanding[0] -= 1
                return self.value

        class CountingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                outstanding[0] += 1
                most[0] = max(most[0], outstanding[0])
                return Collected(fn(*args))

        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        config = lhv_config(n_runs=3000, seed=31, chunk_size=10)
        serial = run_ensemble(config)
        pooled = run_ensemble(config, workers=2)
        assert np.array_equal(pooled.table.counts, serial.table.counts)
        assert np.array_equal(pooled.hidden.counts, serial.hidden.counts)
        assert outstanding[0] == 0
        # 300 chunks, never more than a few per worker outstanding
        assert 2 <= most[0] <= 4 * 2

    def test_seed_determinism(self):
        config = quantum_config(n_runs=5000, seed=123)
        r1 = run_ensemble(config)
        r2 = run_ensemble(config)
        assert np.array_equal(r1.table.counts, r2.table.counts)

    def test_expectation_matches_dot_any_state(self, rng):
        psi = random_state(rng, random_direction(rng))
        dirs = tuple(random_direction(rng) for _ in range(3))
        result = run_ensemble(quantum_config(directions=dirs, state=psi, n_runs=10**6, seed=8))
        est = estimate_expectation(result.table, A, B)
        assert est.defined
        assert abs(est.value - dot(dirs[0], dirs[1])) < 4 * est.stderr + 1e-9

    def test_two_series_mode_rejected(self):
        with pytest.raises(ConfigError):
            run_ensemble(quantum_config(mode=Mode.TWO_SERIES))

    def test_lhv_eq5_sampling_factor(self, rng):
        # 9 N[x+y-] / N(x+y-) concentrates at 1.
        dist = TripleDistribution(rng.random(8))
        result = run_ensemble(lhv_config(dist=dist, n_runs=10**6, seed=3))
        for (x, y) in ((A, B), (A, C), (B, C)):
            marginal = hidden_marginal(result.hidden, x, PLUS, y, MINUS)
            if marginal < 1000:
                continue
            observed = result.table.count(x, PLUS, y, MINUS)
            ratio = 9 * observed / marginal
            sigma = 9 * math.sqrt((1 / 9) * (8 / 9) / marginal)
            assert abs(ratio - 1.0) < 3 * sigma


class TestPreparedRuns:
    def test_prep_first_outcome_certain(self):
        # prep (A, +1): every A-first run opens with +1
        config = quantum_config(mode=Mode.PREPARED, n_runs=20000, seed=12)
        assert np.all(cell_law(config)[A, :, 1, :] < 1e-15)
        assert not run_ensemble(config).table.counts[A, :, 1, :].any()

    def test_orthogonal_pair_flip_rate(self):
        # prep (A, +1) with a.c = 0: P(a+, c-) = 1/2.
        config = quantum_config(mode=Mode.PREPARED, n_runs=180000, seed=13)
        assert cell_law(config)[A, C, 0, 1] == pytest.approx(0.5, abs=1e-15)
        table = run_ensemble(config).table
        n = table.pair_total(A, C)
        assert abs(table.count(A, PLUS, C, MINUS) / n - 0.5) < 4 * math.sqrt(0.25 / n)

    def test_prepared_ensemble_quantum(self):
        config = quantum_config(mode=Mode.PREPARED, n_runs=50000, seed=11)
        result = run_ensemble(config)
        # every A-first run must open with +1
        assert result.table.count(A, MINUS, B, PLUS) == 0
        assert result.table.count(A, MINUS, A, MINUS) == 0

    def test_prepared_ensemble_lhv_conditions_triples(self, rng):
        dist = TripleDistribution(rng.random(8) + 0.05)
        config = lhv_config(dist=dist, mode=Mode.PREPARED, n_runs=50000, seed=2)
        result = run_ensemble(config)
        # conditioning removes every a- reality
        assert int(result.hidden.counts[4:].sum()) == 0
        assert result.table.count(A, MINUS, B, MINUS) == 0

    def test_prepared_lhv_empty_support_rejected(self):
        dist = TripleDistribution([0, 0, 0, 0, 1, 1, 1, 1])  # all a- triples
        with pytest.raises(ConfigError):
            run_ensemble(lhv_config(dist=dist, mode=Mode.PREPARED, n_runs=10))

    def test_prepared_lhv_satisfies_probability_inequality(self, rng):
        from seqbell.inequalities import eval_eq7

        dist = TripleDistribution(rng.random(8) + 0.02)
        result = run_ensemble(lhv_config(dist=dist, mode=Mode.PREPARED, n_runs=10**5, seed=51))
        report = eval_eq7(
            estimate_pair_prob(result.table, A, PLUS, C, MINUS),
            estimate_pair_prob(result.table, A, PLUS, B, MINUS),
            estimate_pair_prob(result.table, B, PLUS, C, MINUS),
        )
        assert report.defined and not report.violated


class TestEstimators:
    def test_all_plus_plus_table(self):
        counts = np.zeros((3, 3, 2, 2), dtype=np.int64)
        counts[A, B, 0, 0] = 500
        table = RunCountTable(counts)
        prob = estimate_pair_prob(table, A, PLUS, B, PLUS)
        assert prob.value == 1.0 and prob.stderr == 0.0 and prob.defined

    def test_undefined_without_conditioning_runs(self):
        table = RunCountTable.zero()
        assert not estimate_pair_prob(table, A, PLUS, B, MINUS).defined
        assert not estimate_expectation(table, A, B).defined

    def test_low_stats_flag(self):
        counts = np.zeros((3, 3, 2, 2), dtype=np.int64)
        counts[A, B, 0, 0] = 3
        counts[A, B, 1, 1] = 1000
        table = RunCountTable(counts)
        assert estimate_pair_prob(table, A, PLUS, B, PLUS).low_stats
        assert not estimate_pair_prob(table, A, MINUS, B, MINUS).low_stats

    def test_lhv_point_mass_pair_prob_is_one(self):
        dist = TripleDistribution.point_mass(HiddenTriple.from_label("a+b-c+"))
        result = run_ensemble(lhv_config(dist=dist, n_runs=20000, seed=3))
        prob = estimate_pair_prob(result.table, A, PLUS, B, MINUS)
        assert prob.value == 1.0 and prob.stderr == 0.0

    def test_same_setting_expectation_exact_one(self):
        result = run_ensemble(quantum_config(n_runs=30000, seed=4))
        est = estimate_expectation(result.table, B, B)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_quantum_pair_prob_against_closed_form(self, rng):
        # closed form: born(a,+) * (1 - a.b)/2 with born from the Bloch vector
        a, b, c = (random_direction(rng) for _ in range(3))
        psi = random_state(rng)
        result = run_ensemble(
            quantum_config(directions=(a, b, c), state=psi, n_runs=10**6, seed=21)
        )
        p_hat = estimate_pair_prob(result.table, A, PLUS, B, MINUS)
        born = 0.5 * (1 + float(bloch_vector(psi) @ a.as_array()))
        p_true = born * (1 - dot(a, b)) / 2
        sigma = math.sqrt(p_true * (1 - p_true) / p_hat.n_conditioning)
        assert abs(p_hat.value - p_true) < 4 * sigma + 1e-9


class TestTwoSeries:
    def test_estimates_expectation(self):
        config = quantum_config(mode=Mode.TWO_SERIES, n_runs=10**6, seed=31)
        plus, minus = run_two_series(config)
        for (x, y) in ((A, B), (B, C), (A, C)):
            est = two_series_estimate(plus.table, minus.table, x, y)
            true = dot(config.directions[x], config.directions[y])
            assert est.defined
            assert abs(est.value - true) < 4 * est.stderr + 1e-9

    def test_agrees_with_free_mode(self):
        seed = 17
        two = quantum_config(mode=Mode.TWO_SERIES, n_runs=200000, seed=seed)
        plus, minus = run_two_series(two)
        free = run_ensemble(quantum_config(n_runs=200000, seed=seed + 1))
        for (x, y) in ((A, B), (B, C), (A, C)):
            ts = two_series_estimate(plus.table, minus.table, x, y)
            fr = estimate_expectation(free.table, x, y)
            pooled = math.sqrt(ts.stderr**2 + fr.stderr**2)
            assert abs(ts.value - fr.value) < 5 * pooled

    def test_degenerate_series_undefined(self):
        empty = RunCountTable.zero()
        some = run_ensemble(quantum_config(n_runs=100, seed=1)).table
        assert not two_series_estimate(empty, some, A, B).defined

    def test_requires_two_series_mode(self):
        with pytest.raises(ConfigError):
            run_two_series(quantum_config(mode=Mode.FREE))


class TestPerfectCorrelation:
    def test_quantum_fraction_one(self):
        result = run_ensemble(quantum_config(n_runs=30000, seed=6))
        same, agree = result.table.same_setting_totals()
        assert agree == same > 0

    def test_lhv_fraction_one(self):
        result = run_ensemble(lhv_config(n_runs=30000, seed=6))
        same, agree = result.table.same_setting_totals()
        assert agree == same > 0

    def test_adversarial_records(self):
        # ten same-setting runs, one of them disagreeing, beside other pairs
        counts = np.zeros((3, 3, 2, 2), dtype=np.int64)
        counts[A, A, 0, 0] = 9
        counts[A, A, 1, 0] = 1
        counts[A, B, 0, 1] = 5
        assert RunCountTable(counts).same_setting_totals() == (10, 9)

    def test_undefined_without_same_setting_runs(self):
        counts = np.zeros((3, 3, 2, 2), dtype=np.int64)
        counts[A, B, 0, 0] = 1
        assert RunCountTable(counts).same_setting_totals() == (0, 0)


_LHV_PREP_TEXT = """mode = prepared
model = lhv
n_runs = 3000
seed = 45
chunk_size = 1000
prep.setting = B
prep.sign = -1
lhv.weights.a+b+c+ = 0.3
lhv.weights.a+b+c- = 0.05
lhv.weights.a+b-c+ = 0.1
lhv.weights.a+b-c- = 0.05
lhv.weights.a-b+c+ = 0.2
lhv.weights.a-b+c- = 0.1
lhv.weights.a-b-c+ = 0.15
lhv.weights.a-b-c- = 0.05
"""


def _disturbed_run(value, tmp_path, capsys):
    """The parsed config and the CSV bytes of a simulate with the given disturbance."""
    text = _LHV_PREP_TEXT + f"disturbance = {value}\n"
    path = tmp_path / f"{value}.cfg"
    path.write_text(text)
    out = tmp_path / value
    assert main(["simulate", "--config", str(path), "--out", str(out), "--log-runs"]) == 0
    capsys.readouterr()
    return parse_config(text), [(out / name).read_bytes() for name in ("counts.csv", "runs.csv")]


class TestDisturbanceIsolation:
    """The disturbance key is recorded in the digest but never reaches the
    run protocol, so no count can depend on it."""

    def _check_inert(self, value, tmp_path, capsys):
        none_config, none_csv = _disturbed_run("none", tmp_path, capsys)
        config, csv = _disturbed_run(value, tmp_path, capsys)
        assert config.to_protocol() == none_config.to_protocol()
        assert config.digest() != none_config.digest()
        assert csv == none_csv

    def test_flip_bitwise_identical_to_none(self, tmp_path, capsys):
        self._check_inert("flip-unmeasured-after-second", tmp_path, capsys)

    def test_resample_leaves_chunked_ensemble_unchanged(self, tmp_path, capsys):
        self._check_inert("resample-after-second", tmp_path, capsys)


class TestExports:
    def test_count_table_csv_shape(self):
        result = run_ensemble(quantum_config(n_runs=500, seed=9))
        text = result.table.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "pair_first,pair_second,outcome_first,outcome_second,count"
        assert len(lines) == 37
        total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert total == 500

    def test_run_log_format(self):
        config = quantum_config(mode=Mode.PREPARED, n_runs=5, seed=2)
        result = run_ensemble(config)
        buf = io.StringIO()
        write_run_log(result, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == (
            "run_id,mode,model,prep_setting,prep_sign,first_setting,"
            "first_outcome,second_setting,second_outcome"
        )
        assert len(lines) == 6
        fields = lines[1].split(",")
        assert fields[1] == "prepared" and fields[2] == "quantum"
        assert fields[3] == "A" and fields[4] == "+1"
        assert fields[6] in ("+1", "-1")

    def test_run_log_and_records_rebuild_table(self, rng):
        # the run log's records over several chunks and a partial last one,
        # regenerated from their streams, tally back into the count table
        dist = TripleDistribution(rng.random(8) + 0.05)
        config = lhv_config(dist=dist, mode=Mode.PREPARED, n_runs=2500, seed=13, chunk_size=1000)
        result = run_ensemble(config)
        buf = io.StringIO()
        write_run_log(result, buf)
        rows = buf.getvalue().splitlines()[1:]
        from_log = np.zeros((3, 3, 2, 2), dtype=np.int64)
        for run_id, row in enumerate(rows):
            fields = row.split(",")
            assert int(fields[0]) == run_id
            x, y = Setting[fields[5]], Setting[fields[7]]
            from_log[x, y, int(fields[6] == "-1"), int(fields[8] == "-1")] += 1
        assert run_id == 2499
        assert np.array_equal(from_log, result.table.counts)

    def test_free_mode_log_has_empty_prep(self):
        result = run_ensemble(quantum_config(n_runs=3, seed=2))
        buf = io.StringIO()
        write_run_log(result, buf)
        fields = buf.getvalue().strip().split("\n")[1].split(",")
        assert fields[3] == "" and fields[4] == ""
