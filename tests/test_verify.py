import math

import numpy as np
import pytest

from seqbell import inequalities, lhv, qubit, verify
from seqbell.lhv import HiddenCountTable
from seqbell.qubit import Outcome
from seqbell.verify import CheckResult, check_eq4_identity, run_verification

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS


def test_every_check_passes_a_bool():
    for literal_eq3 in (False, True):
        results = run_verification(seed=42, literal_eq3=literal_eq3)
        assert [type(r.passed) for r in results] == [bool] * len(results)
        assert [r.name for r in results if not r.passed] == (["eq4_identity"] if literal_eq3 else [])


def test_eq4_tables_are_those_of_2000_draws_of_8(monkeypatch):
    drawn, sweep = [], verify._eq4_sweep

    def recording_sweep(counts, literal_eq3):
        drawn.extend(counts.tolist())
        return sweep(counts, literal_eq3)

    monkeypatch.setattr(verify, "_eq4_sweep", recording_sweep)
    ours, ref = np.random.default_rng(7), np.random.default_rng(7)
    result = check_eq4_identity(ours)
    expected = [ref.integers(0, 1000, size=8).tolist() for _ in range(2000)]
    assert drawn[:2000] == expected
    assert ours.bit_generator.state == ref.bit_generator.state
    assert result.passed and result.detail == "2001 tables checked"


# The state checks and the EQ4 sweep as first written, on qubit objects and
# one count table at a time: the reference for the float forms.


def reference_random_direction(rng):
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return qubit.Direction.from_array(v / norm)


def reference_random_state(rng, e):
    c = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2 * math.pi)
    return qubit.PureState(math.sqrt((1.0 + c) / 2.0), phi, e)


def reference_state_normalization(rng):
    worst = 0.0
    for _ in range(1000):
        psi = reference_random_state(rng, reference_random_direction(rng))
        ap, am = qubit.amplitudes(psi)
        worst = max(worst, abs(abs(ap) ** 2 + abs(am) ** 2 - 1.0))
        worst = max(worst, abs(float(np.linalg.norm(qubit.bloch_vector(psi))) - 1.0))
    return CheckResult("state_normalization", worst <= 1e-12, f"max deviation {worst:.3e}")


def reference_born_completeness(rng):
    worst = 0.0
    for _ in range(1000):
        psi = reference_random_state(rng, reference_random_direction(rng))
        x = reference_random_direction(rng)
        total = qubit.born_prob(psi, x, PLUS) + qubit.born_prob(psi, x, MINUS)
        worst = max(worst, abs(total - 1.0))
    return CheckResult("born_completeness", worst <= 1e-12, f"max deviation {worst:.3e}")


def reference_eigenstate_geometry(rng):
    worst_bloch, worst_overlap = 0.0, 0.0
    for _ in range(500):
        x, e = reference_random_direction(rng), reference_random_direction(rng)
        plus = qubit.eigenstate(x, PLUS, e)
        minus = qubit.eigenstate(x, MINUS, e)
        worst_bloch = max(
            worst_bloch,
            float(np.max(np.abs(qubit.bloch_vector(plus) - x.as_array()))),
            float(np.max(np.abs(qubit.bloch_vector(minus) + x.as_array()))),
        )
        phase = rng.uniform(0, 2 * math.pi)
        overlap = qubit.overlap(qubit.eigenstate(x, PLUS, e, phase), qubit.eigenstate(x, MINUS, e, phase))
        worst_overlap = max(worst_overlap, abs(overlap))
    ok = worst_bloch <= 1e-10 and worst_overlap <= 1e-12
    return CheckResult("eigenstate_geometry", ok, f"bloch {worst_bloch:.3e}, overlap {worst_overlap:.3e}")


def reference_eq4_identity(rng, literal_eq3):
    rows = [*rng.integers(0, 1000, size=(2000, 8)), np.array([0, 0, 0, 0, 0, 5, 0, 0])]
    return reference_eq4_sweep(rows, literal_eq3)


def reference_eq4_sweep(rows, literal_eq3):
    tables = [HiddenCountTable(row) for row in rows]
    for table in tables:
        report = inequalities.check_count_inequality(table, literal_eq3=literal_eq3)
        if report.margin < 0 or report.margin != lhv.count_inequality_decomposition(table):
            return CheckResult(
                "eq4_identity",
                False,
                f"margin {report.margin} != decomposition "
                f"{lhv.count_inequality_decomposition(table)} on {table.counts.tolist()}",
            )
    return CheckResult("eq4_identity", True, f"{len(tables)} tables checked")


def test_float_checks_are_the_object_checks():
    checks = (
        (verify.check_state_normalization, reference_state_normalization),
        (verify.check_born_completeness, reference_born_completeness),
        (verify.check_eigenstate_geometry, reference_eigenstate_geometry),
    )
    for seed in [*range(20), 2**63, 12345678901]:
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for check, reference in checks:
            assert check(ours) == reference(ref), seed
        assert ours.bit_generator.state == ref.bit_generator.state
        # the next check in the suite, in both modes, from the same state
        for literal_eq3 in (False, True):
            state = ours.bit_generator.state
            ref.bit_generator.state = state
            result = check_eq4_identity(ours, literal_eq3=literal_eq3)
            assert result == reference_eq4_identity(ref, literal_eq3), (seed, literal_eq3)
            assert ours.bit_generator.state == ref.bit_generator.state
            ours.bit_generator.state = state


def test_eq4_sweep_reports_the_first_failing_table():
    # under the misprint a row passes when its a+b-c- and a-b+c- counts agree
    counts = np.array([[1, 2, 3, 4, 5, 4, 7, 8], [0, 0, 0, 0, 0, 5, 0, 0], [0, 0, 0, 0, 0, 9, 0, 0]])
    for literal_eq3 in (False, True):
        result = verify._eq4_sweep(counts, literal_eq3)
        assert result == reference_eq4_sweep(counts, literal_eq3)
    assert result.detail == "margin 0.0 != decomposition 5 on [0, 0, 0, 0, 0, 5, 0, 0]"


_BORN, _BLOCH, _EIGENSTATE = qubit.born_prob, qubit.bloch_vector, qubit.eigenstate


@pytest.mark.parametrize(
    "name, broken, check",
    [
        ("amplitudes", lambda psi: (complex(psi.s), 0j), verify.check_state_normalization),
        ("bloch_vector", lambda psi: 1.5 * _BLOCH(psi), verify.check_state_normalization),
        ("born_prob", lambda psi, x, o: _BORN(psi, x, PLUS), verify.check_born_completeness),
        (
            "eigenstate",
            lambda x, o, e, phase=None: _EIGENSTATE(x, PLUS, e, phase),
            verify.check_eigenstate_geometry,
        ),
    ],
)
def test_state_checks_catch_an_error_in_the_object_functions(monkeypatch, name, broken, check):
    # each check's first draw goes through qubit's object functions
    assert check(np.random.default_rng(5)).passed
    monkeypatch.setattr(qubit, name, broken)
    assert not check(np.random.default_rng(5)).passed
