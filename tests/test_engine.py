import io
import math
import pickle

import numpy as np
import pytest
from scipy import stats

from seqbell import engine
from seqbell.engine import (
    ConfigError,
    Mode,
    Model,
    ProtocolConfig,
    RunCountTable,
    RunRecord,
    draw_setting_pair,
    estimate_expectation,
    estimate_pair_prob,
    execute_run_lhv,
    execute_run_quantum,
    perfect_correlation_check,
    prepared_run,
    run_ensemble,
    run_two_series,
    two_series_estimate,
    write_run_log,
)
from seqbell.lhv import (
    Disturbance,
    HiddenTriple,
    Setting,
    TripleDistribution,
    hidden_marginal,
    lhv_expectation,
)
from seqbell.qubit import (
    Direction,
    Outcome,
    PureState,
    Z_AXIS,
    bloch_vector,
    dot,
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
        directions=directions,
        n_runs=n_runs,
        seed=seed,
        state=state or PureState(1.0, 0.0, Z_AXIS),
        **kw,
    )


def lhv_config(dist=None, n_runs=100, seed=1, mode=Mode.FREE, directions=XYZ, **kw):
    return ProtocolConfig(
        mode=mode,
        model=Model.LHV,
        directions=directions,
        n_runs=n_runs,
        seed=seed,
        dist=dist or TripleDistribution.uniform(),
        **kw,
    )


class TestDrawSettingPair:
    def test_uniform_over_nine_ordered_pairs(self, rng):
        n = 9 * 10**5
        counts = np.zeros((3, 3), dtype=int)
        first = rng.integers(0, 3, size=n)
        second = rng.integers(0, 3, size=n)
        np.add.at(counts, (first, second), 1)
        sigma = math.sqrt((1 / 9) * (8 / 9) / n)
        assert np.all(np.abs(counts / n - 1 / 9) < 4 * sigma)

    def test_scalar_op_covers_all_pairs(self, rng):
        seen = {draw_setting_pair(rng) for _ in range(2000)}
        assert len(seen) == 9
        assert (A, A) in seen

    def test_chi_square_below_critical(self, rng):
        n = 10**6
        counts = np.zeros(9, dtype=int)
        for _ in range(200):
            x, y = draw_setting_pair(rng)
            counts[int(x) * 3 + int(y)] += 1
        first = rng.integers(0, 3, size=n - 200)
        second = rng.integers(0, 3, size=n - 200)
        counts += np.bincount(first * 3 + second, minlength=9)
        chi2 = float(((counts - n / 9) ** 2 / (n / 9)).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=8)


class TestScalarRuns:
    def test_same_setting_always_equal(self, rng):
        psi = random_state(rng)
        for _ in range(300):
            rec = execute_run_quantum(psi, (B, B), XYZ, rng)
            assert rec.first_outcome == rec.second_outcome

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
            rec = execute_run_quantum(psi, (A, B), dirs, rng)
            assert rec.first_outcome is PLUS
            flips += rec.second_outcome is MINUS
        p = (1 - dot(a, b)) / 2
        assert abs(flips / n - p) < 4 * math.sqrt(p * (1 - p) / n) + 1e-9

    def test_pair_bc_joint_frequency(self, rng):
        # From |a+>, P(b+, c-) = (1 + a.b)(1 - b.c)/4.
        a, b, c = (random_direction(rng) for _ in range(3))
        dirs = (a, b, c)
        psi = state_from_bloch(a.as_array())
        n = 20000
        hits = 0
        for _ in range(n):
            rec = execute_run_quantum(psi, (B, C), dirs, rng)
            hits += rec.first_outcome is PLUS and rec.second_outcome is MINUS
        p = (1 + dot(a, b)) * (1 - dot(b, c)) / 4
        assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n) + 1e-9

    def test_lhv_point_mass_record(self, rng):
        dist = TripleDistribution.point_mass(HiddenTriple.from_label("a+b-c+"))
        for _ in range(100):
            rec, triple = execute_run_lhv(dist, (A, B), Disturbance.NONE, rng)
            assert rec.first_outcome is PLUS and rec.second_outcome is MINUS
            assert triple.label() == "a+b-c+"

    def test_lhv_same_setting_equal(self, rng):
        dist = TripleDistribution.uniform()
        for _ in range(300):
            rec, _ = execute_run_lhv(dist, (C, C), Disturbance.NONE, rng)
            assert rec.first_outcome == rec.second_outcome

    def test_lhv_disturbance_never_touches_record(self, rng):
        dist = TripleDistribution.uniform()
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        for _ in range(200):
            rec_a, tr_a = execute_run_lhv(dist, (A, B), Disturbance.NONE, rng_a)
            rec_b, tr_b = execute_run_lhv(dist, (A, B), Disturbance.FLIP_UNMEASURED, rng_b)
            assert rec_a == rec_b and tr_a == tr_b


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
        config = lhv_config(n_runs=30000, seed=99, chunk_size=4096)
        one = run_ensemble(config, workers=1)
        eight = run_ensemble(config, workers=8)
        assert np.array_equal(one.table.counts, eight.table.counts)
        assert np.array_equal(one.hidden.counts, eight.hidden.counts)

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
        # a stand-in executor records the pool size and maps in this process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                return map(fn, args)

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
    def test_prep_first_outcome_certain(self, rng):
        config = quantum_config(mode=Mode.PREPARED, n_runs=10)
        for _ in range(200):
            rec = prepared_run(config, rng)
            assert rec.prep == (A, PLUS)
            if rec.first_setting is A:
                assert rec.first_outcome is PLUS

    def test_orthogonal_pair_flip_rate(self, rng):
        # prep (A, +1) with a.c = 0: P(a+, c-) = 1/2.
        config = quantum_config(mode=Mode.PREPARED, n_runs=10)
        n = 20000
        hits = 0
        for _ in range(n):
            rec = execute_run_quantum(
                state_from_bloch(X_AXIS.as_array()), (A, C), XYZ, rng
            )
            hits += rec.second_outcome is MINUS
        assert abs(hits / n - 0.5) < 4 * math.sqrt(0.25 / n)

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
        assert prob.estimate == 1.0 and prob.stderr == 0.0 and prob.defined

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
        assert prob.estimate == 1.0 and prob.stderr == 0.0

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
        assert abs(p_hat.estimate - p_true) < 4 * sigma + 1e-9


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
        assert perfect_correlation_check(result.records()) == 1.0

    def test_lhv_fraction_one(self):
        result = run_ensemble(lhv_config(n_runs=30000, seed=6))
        assert perfect_correlation_check(result.records()) == 1.0

    def test_adversarial_records(self):
        records = [
            RunRecord(i, A, A, PLUS, PLUS if i else MINUS) for i in range(10)
        ]
        assert perfect_correlation_check(records) == pytest.approx(0.9)

    def test_undefined_without_same_setting_runs(self):
        records = [RunRecord(0, A, B, PLUS, PLUS)]
        assert perfect_correlation_check(records) is None


class TestDisturbanceIsolation:
    def test_flip_bitwise_identical_to_none(self):
        base = lhv_config(n_runs=20000, seed=44)
        flipped = lhv_config(n_runs=20000, seed=44, disturbance=Disturbance.FLIP_UNMEASURED)
        r0, r1 = run_ensemble(base), run_ensemble(flipped)
        assert np.array_equal(r0.table.counts, r1.table.counts)
        assert np.array_equal(r0.hidden.counts, r1.hidden.counts)

    def test_resample_leaves_chunked_ensemble_unchanged(self, rng):
        # a resample happens after both outcomes of a run are fixed and is
        # never read, so the chunk sampler does not draw it: the disturbance
        # is invisible in the generated ensemble
        dist = TripleDistribution(rng.random(8) + 0.01)
        base = run_ensemble(lhv_config(dist=dist, n_runs=10**5, seed=45))
        res = run_ensemble(
            lhv_config(dist=dist, n_runs=10**5, seed=45, disturbance=Disturbance.RESAMPLE)
        )
        assert np.array_equal(base.table.counts, res.table.counts)
        true = lhv_expectation(dist, A, B)
        for result in (base, res):
            same, agree = result.table.same_setting_totals()
            assert same == agree
            est = estimate_expectation(result.table, A, B)
            assert abs(est.value - true) < 5 * est.stderr + 1e-9

    def test_resample_advances_scalar_stream_without_touching_records(self, rng):
        dist = TripleDistribution(rng.random(8) + 0.01)
        rng_none = np.random.default_rng(3)
        rng_res = np.random.default_rng(3)
        first_none, _ = execute_run_lhv(dist, (A, B), Disturbance.NONE, rng_none)
        first_res, _ = execute_run_lhv(dist, (A, B), Disturbance.RESAMPLE, rng_res)
        assert first_none == first_res
        # the streams have now diverged by exactly the resample draw
        assert rng_none.random() != rng_res.random()


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
        # several chunks and a partial last one, regenerated from their streams
        dist = TripleDistribution(rng.random(8) + 0.05)
        config = lhv_config(dist=dist, mode=Mode.PREPARED, n_runs=2500, seed=13, chunk_size=1000)
        result = run_ensemble(config)
        buf = io.StringIO()
        write_run_log(result, buf)
        rows = buf.getvalue().splitlines()[1:]
        from_log = np.zeros((3, 3, 2, 2), dtype=np.int64)
        from_records = np.zeros((3, 3, 2, 2), dtype=np.int64)
        for run_id, (row, rec) in enumerate(zip(rows, result.records(), strict=True)):
            fields = row.split(",")
            assert int(fields[0]) == rec.run_id == run_id
            x, y = Setting[fields[5]], Setting[fields[7]]
            from_log[x, y, int(fields[6] == "-1"), int(fields[8] == "-1")] += 1
            sx, sy = int(rec.first_outcome < 0), int(rec.second_outcome < 0)
            from_records[rec.first_setting, rec.second_setting, sx, sy] += 1
        assert run_id == 2499
        assert np.array_equal(from_log, result.table.counts)
        assert np.array_equal(from_records, result.table.counts)

    def test_free_mode_log_has_empty_prep(self):
        result = run_ensemble(quantum_config(n_runs=3, seed=2))
        buf = io.StringIO()
        write_run_log(result, buf)
        fields = buf.getvalue().strip().split("\n")[1].split(",")
        assert fields[3] == "" and fields[4] == ""
