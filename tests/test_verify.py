import numpy as np

from seqbell import verify
from seqbell.verify import check_eq4_identity, run_verification


def test_every_check_passes_a_bool():
    for literal_eq3 in (False, True):
        results = run_verification(seed=42, literal_eq3=literal_eq3)
        assert [type(r.passed) for r in results] == [bool] * len(results)
        assert [r.name for r in results if not r.passed] == (["eq4_identity"] if literal_eq3 else [])


def test_eq4_tables_are_those_of_2000_draws_of_8(monkeypatch):
    drawn, table = [], verify.HiddenCountTable

    def recording_table(counts):
        drawn.append(np.asarray(counts).tolist())
        return table(counts)

    monkeypatch.setattr(verify, "HiddenCountTable", recording_table)
    ours, ref = np.random.default_rng(7), np.random.default_rng(7)
    result = check_eq4_identity(ours)
    expected = [ref.integers(0, 1000, size=8).tolist() for _ in range(2000)]
    assert drawn[:2000] == expected
    assert ours.bit_generator.state == ref.bit_generator.state
    assert result.passed and result.detail == "2001 tables checked"
