import io
import itertools
import math
import multiprocessing.process
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from seqbell import engine
from seqbell.cli import main
from seqbell.config import parse_config
from seqbell.engine import (
    ConfigError,
    EnsembleResult,
    Mode,
    Model,
    ProtocolConfig,
    RunCountTable,
    cell_law,
    run_ensemble,
    run_two_series,
    write_run_log,
)
from seqbell.inequalities import (
    estimate_expectation,
    estimate_pair_prob,
    quantum_pair_prob,
    two_series_estimate,
)
from seqbell.lhv import (
    Setting,
    TRIPLE_COMPONENTS,
    TRIPLE_LABELS,
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
    born_prob,
    direction_from_spherical,
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
        weights=tuple((dist or TripleDistribution(np.full(8, 0.125))).weights),
        **kw,
    )


def point_mass(label):
    return TripleDistribution(np.eye(8)[TRIPLE_LABELS.index(label)])


def record_chunk_threads(monkeypatch):
    """Record the thread that draws each chunk, by chunk index, and every thread started."""
    drawn, started = {}, []
    draw_chunk, start = engine._draw_chunk, threading.Thread.start

    def recording(config, kernel, series, chunk_index, size):
        drawn.setdefault(chunk_index, []).append(threading.current_thread())
        return draw_chunk(config, kernel, series, chunk_index, size)

    def recording_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(engine, "_draw_chunk", recording)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return drawn, started


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


# PCG64's 128-bit multiplier; a post-step state whose two 64-bit halves are
# equal outputs the raw word 0
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def zero_word_rng(k):
    """A PCG64 generator whose k-th raw word (counted from 0) is 0."""
    inc = np.random.default_rng(5).bit_generator.state["state"]["inc"]
    state, step_back = (0x1234567 << 64) | 0x1234567, pow(_PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(k + 1):
        state = (state - inc) * step_back % 2**128
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


class TestRawWordSettings:
    """engine._draw_settings against two rng.integers(0, 3, size=n) calls."""

    def test_values_and_state_as_two_integer_calls(self):
        for seed in range(400):
            for n in (1, 2, 3, 8, 1001, 4096):
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                first, second = engine._draw_settings(ours, n)
                assert first.dtype == second.dtype == np.int8
                assert first.tolist() == ref.integers(0, 3, size=n).tolist()
                assert second.tolist() == ref.integers(0, 3, size=n).tolist()
                assert ours.bit_generator.state["state"] == ref.bit_generator.state["state"]
                assert ours.bit_generator.state["has_uint32"] == ref.bit_generator.state["has_uint32"]
                assert ours.random() == ref.random()

    @pytest.mark.parametrize("n, k", [(1, 0), (2, 1), (7, 0), (7, 3), (8, 7), (9, 8), (4096, 2048)])
    def test_zero_word_is_redrawn_as_numpy_redraws_it(self, n, k):
        words = zero_word_rng(k).bit_generator.random_raw(n)
        assert words[k] == 0
        ours, ref = zero_word_rng(k), zero_word_rng(k)
        first, second = engine._draw_settings(ours, n)
        expected = ref.integers(0, 3, size=n).tolist() + ref.integers(0, 3, size=n).tolist()
        assert first.tolist() + second.tolist() == expected
        assert ours.random(5).tolist() == ref.random(5).tolist()
        # numpy rejects the zero word: reading the raw words as they are differs
        halves = words.astype("<u8", copy=False).view("<u4").astype(np.int64)
        naive = (halves >= 1431655766) + (halves >= 2863311531)
        assert naive.tolist() != expected


    def test_needs_a_generator_without_a_half_word(self):
        # a 32-bit draw leaves the high half of its raw word buffered, and
        # numpy's next 32-bit draw takes it; the raw words skip it
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        for rng in (ours, ref):
            rng.integers(0, 3, size=1)
            assert rng.bit_generator.state["has_uint32"] == 1
        first, second = engine._draw_settings(ours, 64)
        expected = ref.integers(0, 3, size=64).tolist() + ref.integers(0, 3, size=64).tolist()
        assert first.tolist() + second.tolist() != expected


def scalar_quantum_run(state, directions, pair, rng):
    """One run measured step by step with the qubit primitives: each outcome
    drawn from its Born probability, then the state collapsed onto the
    eigenstate with Bloch vector outcome * direction."""
    outcomes = []
    for setting in pair:
        x = directions[setting]
        outcome = PLUS if rng.random() < born_prob(state, x, PLUS) else MINUS
        state = state_from_bloch(int(outcome) * x.as_array())
        outcomes.append(outcome)
    return tuple(outcomes)


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
        dist = point_mass("a+b-c+")
        for i in sample_triple_indices(dist, 100, rng):
            assert TRIPLE_LABELS[i] == "a+b-c+"
            assert TRIPLE_COMPONENTS[i, A] == PLUS and TRIPLE_COMPONENTS[i, B] == MINUS
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


def start_state(config):
    """The state every run of a quantum config starts from: the preparation
    eigenstate in prepared mode, else the configured state."""
    if config.mode is Mode.PREPARED:
        return state_from_bloch(int(config.prep_sign) * config.directions[config.prep_setting].as_array())
    return config.state


def law_factors(config):
    """The factors of quantum_pair_prob(state, x, sx, y, +1) as a quantum chunk
    draws against them: P(x^+) per setting, and the second outcome's
    (1 + sx x.y)/2 per (first outcome, x, y), flattened in that order."""
    state, d = start_state(config), config.directions
    p_first = [born_prob(state, x, PLUS) for x in d]
    p_second = [0.5 * (1.0 + int(s) * dot(x, y)) for s in OUTCOMES for x in d for y in d]
    return np.array(p_first), np.array(p_second)


class TestCellLaw:
    def test_matches_pair_probs_bitwise(self):
        cells = list(itertools.product((A, B, C), (A, B, C), OUTCOMES, OUTCOMES))
        for config in [config for config, _ in LAW_CASES.values()] + _oracle_cases():
            law = cell_law(config)
            prepared = config.mode is Mode.PREPARED
            if config.model is Model.QUANTUM:
                state = start_state(config)
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
        # a config checks itself when built, so no bad one reaches cell_law
        # or run_ensemble
        dist = TripleDistribution([0, 0, 0, 0, 1, 1, 1, 1])  # all a- triples
        free = lhv_config(dist=dist)
        # chunk_size is capped at 2**22 runs; no run starts here
        at_cap = quantum_config(chunk_size=2**22)
        for build in (
            lambda: replace(free, mode=Mode.PREPARED),  # empty preparation
            lambda: replace(free, weights=(-1.0,) + (1.0,) * 7),
            lambda: replace(free, weights=(0.0,) * 8),
            lambda: replace(at_cap, chunk_size=2**22 + 1),
        ):
            with pytest.raises(ConfigError):
                build()


def reference_chunk_cells(config, series, chunk_index, size):
    """The chunk samplers in their first, explicit formulation: +/-1 outcome
    arrays from np.where or from reality components, a binary search for
    the reality, then the cell arithmetic.  Same stream, same draw order.
    Returns the cells, the realities (lhv) and the generator after the draw."""
    rng = engine._chunk_rng(config.seed, series, chunk_index)
    prepared = config.mode is Mode.PREPARED
    triples = None
    if config.model is Model.QUANTUM:
        p_first, p_second = law_factors(config)
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
    return cell, triples, rng


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


def chunk_cells(config, series, chunk_index, size):
    """One chunk as the engine draws it, on the chunk's own fresh generator:
    each run's cell and, for the lhv model, its reality, both read off the
    run keys; and the generator after the draw."""
    rng = engine._chunk_rng(config.seed, series, chunk_index)
    kernel, cells = engine._series_kernel(config)
    key = kernel(size, rng)
    return cells[key], (key // 9 if config.model is Model.LHV else None), rng


def _rank_cases():
    """Quantum configs at the edges of the rank form: the bench's prepared
    template, whose prepared P(x^s) is an ulp off 0 and 1, so that it has a
    first threshold at 5.6e-17 and all 3 first and 6 second thresholds
    inside (0, 1), 252 keys; and the reference directions, whose
    orthogonal b and c tie (1 +- b.c)/2 at 0.5."""
    dirs = [direction_from_spherical(t, p) for t, p in ((0.3, 0.1), (1.2, 2.0), (2.5, 4.0))]
    at_bound = quantum_config(directions=dirs, mode=Mode.PREPARED, prep_setting=B, prep_sign=MINUS)
    tied = quantum_config(directions=(engine.DEFAULT_A, engine.DEFAULT_B, engine.DEFAULT_C))
    return [at_bound, tied]


def table_law(first, second):
    """The 36 cells of a two-step law table in C order: first[x][i] * second[x][i][y][j]."""
    axes = itertools.product(range(3), range(3), (0, 1), (0, 1))
    return np.array([first[x][i] * second[x][i][y][j] for x, y, i, j in axes])


def random_table(rng, plus2):
    """A two-step table with random first[x][0], the given 18 second[x][i][y][0]
    in (x, i, y) order, and each -1 entry one minus its +1 entry."""
    first = [(p, 1.0 - p) for p in rng.random(3).tolist()]
    rows = np.reshape(plus2, (3, 2, 3)).tolist()
    return first, [[[(q, 1.0 - q) for q in row] for row in pair] for pair in rows]


class TestChunkKernels:
    @pytest.mark.parametrize("config", [c for c in _oracle_cases() if c.model is Model.QUANTUM])
    def test_quantum_thresholds_are_the_laws_factors(self, config):
        # the kernel ranks its uniforms among cell_law's own numbers: its
        # edges are the table's +1 entries strictly inside (0, 1), sorted and
        # distinct, and the table is born_prob's and dot's, to the bit
        first, second = engine._quantum_law(config)
        edges = engine._series_kernel(config)[0].args
        plus1 = [first[x][0] for x in range(3)]
        plus2 = [second[x][i][y][0] for x, i, y in itertools.product(range(3), (0, 1), range(3))]
        assert edges == tuple(sorted({f for f in fs if 0.0 < f < 1.0}) for fs in (plus1, plus2))
        state, d = start_state(config), config.directions
        expected_first = [[born_prob(state, x, s) for s in OUTCOMES] for x in d]
        expected_second = [
            [[[0.5 * (1.0 + int(s) * int(t) * dot(x, y)) for t in OUTCOMES] for y in d] for s in OUTCOMES]
            for x in d
        ]
        assert np.array(first).tobytes() == np.array(expected_first).tobytes()
        assert np.array(second).tobytes() == np.array(expected_second).tobytes()
        assert cell_law(config).tobytes() == table_law(first, second).tobytes()

    def test_same_setting_twice_is_certain(self):
        # x.x is exactly 1, so a setting measured twice gives the same outcome
        # with probability 1, not 1 - 2**-53
        rng = np.random.default_rng(1)
        for _ in range(200):
            dirs = tuple(random_direction(rng) for _ in range(3))
            state = random_state(rng, random_direction(rng))
            _, second = engine._quantum_law(quantum_config(directions=dirs, state=state))
            assert [second[x][0][x][0] for x in range(3)] == [1.0] * 3
            assert [second[x][1][x][0] for x in range(3)] == [0.0] * 3
            for x, s in itertools.product(dirs, OUTCOMES):
                assert quantum_pair_prob(state, x, s, x, s.flipped()) == 0.0

    def test_table_kernel_samples_a_table_without_the_qubits_symmetry(self):
        # the 18 second[x][i][y][0] take six random values, each at three
        # random places, so second depends on s and t apart, not on s t alone;
        # 3 + 6 distinct edges give 9 * 4 * 7 = 252 keys
        rng = np.random.default_rng(2929)
        first, second = random_table(rng, rng.permutation(np.repeat(rng.random(6), 3)))
        kernel, cells = engine._table_kernel(first, second)
        assert len(cells) == 252
        n = 2**20
        counts = np.zeros(36, dtype=np.int64)
        for i in range(n // 2**16):  # each chunk on its own fresh stream
            counts += np.bincount(cells[kernel(2**16, engine._chunk_rng(29, 0, i))], minlength=36)
        critical = stats.chi2.ppf(0.999, 35)  # fixed: all 36 cells are allowed
        stat, df = chi_square(counts, table_law(first, second), n)
        assert df == 35
        assert stat < critical
        # the same counts read as if the table had the qubit's symmetry,
        # second[x][1][y][j] = second[x][0][y][1 - j], are far off
        by_st = [[rows[0], [row[::-1] for row in rows[0]]] for rows in second]
        assert chi_square(counts, table_law(first, by_st), n)[0] > critical

    def test_table_past_uint8_keys_raises(self):
        # 3 first edges and 18 distinct second ones need 9 * 4 * 19 = 684
        # keys; 7 second ones already need 288
        rng = np.random.default_rng(29)
        for plus2, n_keys in ((rng.random(18), 684), ([*rng.random(6), *[0.5] * 12], 288)):
            with pytest.raises(ValueError, match=f"{n_keys} run keys"):
                engine._table_kernel(*random_table(rng, plus2))

    def test_keys_fit_uint8_at_the_bound(self):
        # a qubit law has at most 3 first and 6 second thresholds inside
        # (0, 1): keys below 9 * 4 * 7 = 252, read as uint8 past 127
        for config in (_oracle_cases()[0], _rank_cases()[0]):
            kernel, cells = engine._series_kernel(config)
            assert [len(edges) for edges in kernel.args] == [3, 6]
            assert len(cells) == 252
            keys = kernel(4099, engine._chunk_rng(config.seed, 0, 0))
            assert keys.dtype == np.uint8
            assert 127 < keys.max() < 252
        # the tied case: one first threshold (0.5 thrice) and three second
        assert [len(edges) for edges in engine._series_kernel(_rank_cases()[1])[0].args] == [1, 3]

    @pytest.mark.parametrize("config", _oracle_cases() + _rank_cases())
    def test_match_reference_bit_for_bit(self, config):
        for seed, series, chunk_index in ((0, 0, 0), (7, 1, 3), (2**64 - 1, 0, 152587)):
            config = replace(config, seed=seed)
            for size in (1, 2, 7, 4099, 16389):
                cell, triples, rng = chunk_cells(config, series, chunk_index, size)
                ref_cell, ref_triples, ref_rng = reference_chunk_cells(config, series, chunk_index, size)
                assert cell.dtype == ref_cell.dtype
                assert cell.tobytes() == ref_cell.tobytes()
                if ref_triples is None:
                    assert triples is None
                else:
                    assert triples.dtype == ref_triples.dtype
                    assert triples.tobytes() == ref_triples.tobytes()
                # the raw-word settings leave the stream where two integers
                # calls leave it ("uinteger" is stale once "has_uint32" is 0)
                for field in ("state", "has_uint32"):
                    assert rng.bit_generator.state[field] == ref_rng.bit_generator.state[field]

    @pytest.mark.parametrize("config", [c for c in _oracle_cases() if c.model is Model.LHV])
    def test_lhv_fold_is_exact(self, config):
        # the counts folded once from the series' tally of the 72 run keys
        # are the bincounts of every chunk's cells and realities
        for n_runs, chunk_size in ((1, 7), (7, 7), (4099 + 7, 4099)):
            config = replace(config, n_runs=n_runs, chunk_size=chunk_size)
            result = run_ensemble(config)
            assert result.table.counts.dtype == result.hidden.counts.dtype == np.int64
            _assert_chunk_bincounts(result)
            assert result.table.total_runs == result.hidden.counts.sum() == n_runs


def _assert_chunk_bincounts(result):
    """The result's tables are the bincounts of every chunk's cells and
    realities as chunk_cells reads them."""
    config, cells, triples = result.config, [], []
    for i, size in enumerate(engine._chunk_plan(config.n_runs, config.chunk_size)):
        cell, triple, _ = chunk_cells(config, result.series, i, size)
        cells.append(cell)
        triples.append(triple)
    assert np.array_equal(result.table.counts.ravel(), np.bincount(np.concatenate(cells), minlength=36))
    assert np.array_equal(result.hidden.counts, np.bincount(np.concatenate(triples), minlength=8))


def _assert_same_tables(results, reference):
    for result, ref in zip(results, reference, strict=True):
        assert np.array_equal(result.table.counts, ref.table.counts)
        if ref.hidden is None:
            assert result.hidden is None
        else:
            assert np.array_equal(result.hidden.counts, ref.hidden.counts)


def _run_logs(results):
    logs = []
    for result in results:
        buf = io.StringIO()
        write_run_log(result, buf)
        logs.append(buf.getvalue().encode())
    return logs


class TestThreadPool:
    def test_starts_no_child_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a child process was started")

        monkeypatch.setattr(os, "fork", refuse, raising=False)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        free = lhv_config(n_runs=5000, seed=3, chunk_size=512)
        two = quantum_config(mode=Mode.TWO_SERIES, n_runs=5000, seed=4, chunk_size=512)
        serial = [run_ensemble(free), *run_two_series(two)]
        threads = set()
        draw_chunk = engine._draw_chunk

        def recording(*task):
            threads.add(threading.get_ident())
            return draw_chunk(*task)

        monkeypatch.setattr(engine, "_draw_chunk", recording)
        pooled = [run_ensemble(free, workers=2), *run_two_series(two, workers=2)]
        _assert_same_tables(pooled, serial)
        assert threads - {threading.get_ident()}

    def test_no_process_pool_module_imported(self):
        code = (
            "import sys, seqbell.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures', 'concurrent.futures.process', 'logging'}"
            " & set(sys.modules)))"
        )
        # the child finds seqbell where this process found it, with or without PYTHONPATH
        src = str(Path(engine.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.stdout.strip() == "[]"

    def test_failing_worker_stops_the_others_within_a_chunk(self, monkeypatch):
        # two real workers over 200 chunks; chunk 3, the second of worker 1's
        # share, fails while worker 0 would still have about 100 to go
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        draw_chunk, lock, calls = engine._draw_chunk, threading.Lock(), [0]

        def failing(config, kernel, series, chunk_index, size):
            with lock:
                calls[0] += 1
            if chunk_index == 3:
                raise RuntimeError("chunk 3 failed")
            time.sleep(0.002)  # lets the other worker take its next chunk meanwhile
            return draw_chunk(config, kernel, series, chunk_index, size)

        monkeypatch.setattr(engine, "_draw_chunk", failing)
        with pytest.raises(RuntimeError, match="chunk 3 failed"):
            run_ensemble(quantum_config(n_runs=200 * 50, chunk_size=50), workers=2)
        assert 2 <= calls[0] <= 20

    @pytest.mark.parametrize(
        "error", [RuntimeError("chunk 2 failed"), KeyboardInterrupt()], ids=["error", "interrupt"]
    )
    def test_failing_calling_thread_stops_the_others_within_a_chunk(self, monkeypatch, error):
        # two shares over 200 chunks; chunk 2, the second of the calling thread's
        # share 0, fails while the started thread would still have about 100 to go
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        draw_chunk, lock, calls = engine._draw_chunk, threading.Lock(), [0]
        caller = threading.current_thread()

        def failing(config, kernel, series, chunk_index, size):
            with lock:
                calls[0] += 1
            if chunk_index == 2:
                assert threading.current_thread() is caller
                raise error
            time.sleep(0.002)  # lets the other share take its next chunk meanwhile
            return draw_chunk(config, kernel, series, chunk_index, size)

        monkeypatch.setattr(engine, "_draw_chunk", failing)
        before = threading.enumerate()
        with pytest.raises(type(error)) as raised:
            run_ensemble(quantum_config(n_runs=200 * 50, chunk_size=50), workers=2)
        assert raised.value is error
        assert 3 <= calls[0] <= 20
        assert threading.enumerate() == before

    @pytest.mark.parametrize(
        "config",
        [
            quantum_config(n_runs=20000, seed=41, chunk_size=3000),
            lhv_config(
                dist=TripleDistribution([3, 1, 0, 2, 1, 0, 4, 1]),
                mode=Mode.PREPARED,
                prep_setting=B,
                prep_sign=MINUS,
                n_runs=20000,
                seed=42,
                chunk_size=3000,
            ),
            quantum_config(mode=Mode.TWO_SERIES, n_runs=20000, seed=43, chunk_size=3000),
        ],
        ids=["quantum-free", "lhv-prepared", "two-series"],
    )
    def test_real_threads_match_serial(self, monkeypatch, config):
        # four real worker threads whatever the host's CPU count; 20000 runs
        # leave a partial last chunk of 2000
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 4)

        def generate(workers):
            if config.mode is Mode.TWO_SERIES:
                return run_two_series(config, workers=workers)
            return (run_ensemble(config, workers=workers),)

        serial = generate(1)
        serial_logs = _run_logs(serial)
        # switch threads far more often than the default 5 ms
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                pooled = generate(4)
                _assert_same_tables(pooled, serial)
                assert _run_logs(pooled) == serial_logs
        finally:
            sys.setswitchinterval(interval)


class TestRunEnsemble:
    def test_rejects_zero_runs(self):
        with pytest.raises(ConfigError):
            run_ensemble(quantum_config(n_runs=0))

    def test_single_run_table(self):
        result = run_ensemble(quantum_config(n_runs=1))
        assert result.table.total_runs == 1

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
        # configs stay picklable for library use: the weights survive bit for bit
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
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
        five_chunks = quantum_config(n_runs=5000, seed=8, chunk_size=1000)
        serial = run_ensemble(five_chunks)
        drawn, started = record_chunk_threads(monkeypatch)
        shares, starts = [], []
        two_chunks = quantum_config(n_runs=2000, chunk_size=1000)
        one_chunk = quantum_config(n_runs=500, chunk_size=1000)
        calls = [(five_chunks, 64), (five_chunks, 2), (five_chunks, 1), (two_chunks, 64), (one_chunk, 64)]
        for config, workers in calls:
            drawn.clear()
            started.clear()
            result = run_ensemble(config, workers=workers)
            if config is five_chunks:
                assert np.array_equal(result.table.counts, serial.table.counts)
            # each chunk tallied once, chunk i by share i % shares, share 0 by this thread
            by_chunk = [drawn[i] for i in range(len(drawn))]
            assert all(len(threads) == 1 for threads in by_chunk)
            shares.append(len({id(threads[0]) for threads in by_chunk}))
            assert all(t[0] is by_chunk[i % shares[-1]][0] for i, t in enumerate(by_chunk))
            assert by_chunk[0][0] is threading.current_thread()
            starts.append(len(started))
        # min(workers, chunks, CPUs) shares; one worker or one chunk starts no thread
        assert shares == [3, 2, 1, 2, 1]
        assert starts == [2, 1, 0, 1, 0]

    def test_chunk_plan_is_never_built(self, monkeypatch):
        # 10^10 runs are 152 588 default chunks: nothing may grow with that count
        no_keys = np.zeros(0, np.uint8)
        monkeypatch.setattr(engine, "_draw_chunk", lambda *task: no_keys)
        config = quantum_config(n_runs=10**10)
        tracemalloc.start()
        try:
            run_ensemble(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_pool_submits_one_share_per_worker(self, monkeypatch):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        config = lhv_config(n_runs=3000, seed=31, chunk_size=10)
        serial = run_ensemble(config)
        drawn, started = record_chunk_threads(monkeypatch)
        before = threading.enumerate()
        pooled = run_ensemble(config, workers=2)
        assert np.array_equal(pooled.table.counts, serial.table.counts)
        assert np.array_equal(pooled.hidden.counts, serial.hidden.counts)
        # 300 chunks in two shares, each tallied once: the even chunks on the
        # calling thread, the odd ones on the one thread started, gone by the return
        assert sorted(drawn) == list(range(300))
        assert all(len(threads) == 1 for threads in drawn.values())
        assert {drawn[i][0] for i in range(0, 300, 2)} == {threading.current_thread()}
        assert {drawn[i][0] for i in range(1, 300, 2)} == set(started)
        assert len(started) == 1
        assert threading.enumerate() == before

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

    def test_integer_and_integral_float_counts_kept(self):
        assert RunCountTable(np.full((3, 3, 2, 2), 4)).total_runs == 144
        table = RunCountTable(np.full((3, 3, 2, 2), 2.0))
        assert table.counts.dtype == np.int64 and table.total_runs == 72

    @pytest.mark.parametrize("bad", [1.9, np.nan, -np.inf])
    def test_fractional_counts_rejected(self, bad):
        # the int64 cast used to truncate 1.9 to 1 without a word
        with pytest.raises(ValueError, match="whole numbers"):
            RunCountTable(np.full((3, 3, 2, 2), bad))

    def test_accessors_read_the_array(self, rng):
        # every accessor against the count array indexed directly
        counts = rng.integers(0, 2**40, size=(3, 3, 2, 2))
        table = RunCountTable(counts)
        assert table.total_runs == int(counts.sum())
        for x, y in itertools.product(Setting, Setting):
            assert table.pair_counts(x, y) == counts[x, y].ravel().tolist()
            assert table.pair_total(int(x), int(y)) == int(counts[x, y].sum())
            for sx, sy in itertools.product(OUTCOMES, OUTCOMES):
                expected = int(counts[x, y, int(sx < 0), int(sy < 0)])
                assert table.count(x, sx, y, sy) == expected
                assert table.count(int(x), int(sx), int(y), int(sy)) == expected
        same = sum(int(counts[s, s].sum()) for s in Setting)
        agree = sum(int(counts[s, s, 0, 0] + counts[s, s, 1, 1]) for s in Setting)
        assert table.same_setting_totals() == (same, agree)

    @pytest.mark.parametrize("key", [(3, 1, 0, 1), (-1, 1, 0, 1), (0, 0, 1, 1), (0, 1, 2, 2)])
    def test_unknown_setting_or_sign_rejected(self, key):
        with pytest.raises(ValueError):
            RunCountTable.zero().count(*key)

    def test_lhv_point_mass_pair_prob_is_one(self):
        dist = point_mass("a+b-c+")
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


def reference_run_log(result, fileobj):
    """The run log as first written: one Python string per row."""
    config = result.config
    prep = (
        f"{config.prep_setting.name},{int(config.prep_sign):+d}"
        if config.mode is Mode.PREPARED
        else ","
    )
    head = f",{config.mode.value},{config.model.value},{prep},"
    tails = [f"{head}{x.name},{int(sx):+d},{y.name},{int(sy):+d}\n" for x, y, sx, sy in engine._CELLS]
    kernel, cells = engine._series_kernel(config)
    tails = [tails[cell] for cell in cells]
    fileobj.write(
        "run_id,mode,model,prep_setting,prep_sign,"
        "first_setting,first_outcome,second_setting,second_outcome\n"
    )
    start = 0
    for i, size in enumerate(engine._chunk_plan(config.n_runs, config.chunk_size)):
        keys = engine._draw_chunk(config, kernel, result.series, i, size).tolist()
        run_ids = map(str, range(start, start + size))
        fileobj.writelines(map(str.__add__, run_ids, map(tails.__getitem__, keys)))
        start += size


class TestLhvTwoSeries:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tables_and_logs_match_every_chunk(self, monkeypatch, workers):
        # nine chunks per series, the last one partial; two real threads
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        dist = TripleDistribution(np.arange(1.0, 9.0))
        config = lhv_config(dist=dist, mode=Mode.TWO_SERIES, n_runs=2500, seed=17, chunk_size=300)
        results = run_two_series(config, workers=workers)
        assert [r.series for r in results] == [0, 1]
        for result in results:
            _assert_chunk_bincounts(result)
            ours, ref = io.StringIO(), io.StringIO()
            write_run_log(result, ours)
            reference_run_log(result, ref)
            assert ours.getvalue() == ref.getvalue()
        assert not np.array_equal(results[0].hidden.counts, results[1].hidden.counts)


def _log_cases():
    # chunks of 7 runs: the run ids cross 9 -> 10, 99 -> 100 and 999 -> 1000
    # inside a chunk, and the last chunk is partial
    dist = TripleDistribution(np.arange(1.0, 9.0))
    cases = [
        quantum_config(n_runs=1005, chunk_size=7, seed=5, state=PureState(0.6, 1.0, Z_AXIS)),
        lhv_config(dist=dist, n_runs=1005, chunk_size=7, seed=5),
    ]
    prepared = [replace(c, mode=Mode.PREPARED, prep_setting=B, prep_sign=MINUS) for c in cases]
    return cases + prepared


class TestRunLogBlocks:
    @pytest.mark.parametrize("config", _log_cases())
    def test_same_bytes_as_row_by_row_writer(self, config):
        for series in (0, 1):
            result = EnsembleResult(config, RunCountTable.zero(), None, series=series)
            ours, ref = io.StringIO(), io.StringIO()
            write_run_log(result, ours)
            reference_run_log(result, ref)
            assert ours.getvalue() == ref.getvalue()
            assert ours.getvalue().count("\n") == 1006

    def test_blocks_split_at_block_size_and_powers_of_ten(self):
        # ids 9990..10009 straddle a width change inside one chunk
        config = quantum_config(n_runs=10_010, chunk_size=10_010)
        ours, ref = io.StringIO(), io.StringIO()
        write_run_log(EnsembleResult(config, RunCountTable.zero(), None), ours)
        reference_run_log(EnsembleResult(config, RunCountTable.zero(), None), ref)
        assert ours.getvalue() == ref.getvalue()

    def test_ids_cross_multiples_of_ten_thousand(self):
        # chunks that start off a multiple of 10**4, ids past 99999 -> 100000
        config = quantum_config(n_runs=100_010, chunk_size=30_007)
        ours, ref = io.StringIO(), io.StringIO()
        write_run_log(EnsembleResult(config, RunCountTable.zero(), None), ours)
        reference_run_log(EnsembleResult(config, RunCountTable.zero(), None), ref)
        assert ours.getvalue() == ref.getvalue()

    def test_memory_bounded_at_largest_chunk(self, monkeypatch):
        # the writer's own memory, beyond the chunk's keys, must not grow
        # with the chunk: one 2^22-run chunk, its keys drawn beforehand
        config = quantum_config(n_runs=2**22, chunk_size=2**22)
        keys = engine._draw_chunk(config, engine._series_kernel(config)[0], 0, 0, 2**22)
        monkeypatch.setattr(engine, "_draw_chunk", lambda *task: keys)
        rows = [0]

        class Sink:
            def write(self, text):
                rows[0] += text.count("\n")

        tracemalloc.start()
        try:
            write_run_log(EnsembleResult(config, RunCountTable.zero(), None), Sink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[0] == 2**22 + 1
        assert peak < 4 * 2**20
