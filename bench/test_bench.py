"""Self-test of the benchmark, at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Every workload runs once untraced and once traced; each must print every
metric BENCHMARK.json declares, with its unit, and pass every output check.
Corrupted outputs must count as failed operations without ending the run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from checks import Checker, Executed

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = json.loads((run.BENCH / "baseline.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((run.BENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, scale="tiny") == 0
    lines = capsys.readouterr().out.splitlines()
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    passes = 1 + trace  # one timed pass, and the traced pass
    assert result["attempted"] == passes * provenance["ops_per_pass"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    for key in ("git_sha", "nproc", "python", "numpy", "seqbell", "seed", "samples"):
        assert key in provenance


def test_layer_counts_repeat_exactly_for_a_seed(capsys):
    counts = ("engine.runs", "engine.chunks", "engine.run_log_rows", "search.local_searches",
              "search.accepted_steps", "verify.checks")
    seen = []
    for _ in range(2):
        run.main(["--workload", "seed-sweep", "--seed", "7", "--seconds", "0", "--trace", "1"], scale="tiny")
        metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
        seen.append({name: metrics[name]["value"] for name in counts})
    assert seen[0] == seen[1]
    assert all(seen[0][name] > 0 for name in counts)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(BASELINE["layer_map"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END_UNITS)


def _run_tiny(name: str, workdir: Path):
    workload = workloads.build(name, 5, workdir, "tiny")
    return workload, run.run_pass(workload, workdir)[1]


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 1
    path.write_bytes(bytes(data))


def test_flipped_byte_in_counts_csv_is_one_failed_operation(tmp_path):
    workload, executed = _run_tiny("bulk-ensemble", tmp_path)
    _flip_byte(Path(workload.ops[0].out_dir) / "counts.csv", -2)  # last digit of the last count
    tally = run.Tally(Checker(GOLDEN))
    tally.add(executed)
    assert (tally.attempted, tally.failed) == (len(workload.ops), 1)
    assert "digest" in tally.problems[0]


def test_flipped_byte_in_runs_csv_breaks_the_tally(tmp_path):
    workload, executed = _run_tiny("seed-sweep", tmp_path)
    log_op = next(op for op in workload.ops if op.log_runs and op.template.mode == "prepared")
    runs_csv = Path(log_op.out_dir) / "runs.csv"
    first_row = runs_csv.read_text(encoding="utf-8").index("\n") + 1
    _flip_byte(runs_csv, first_row + len("0,prepared,lhv,A,+1,"))  # first run's first setting
    tally = run.Tally(Checker(GOLDEN))
    tally.add(executed)
    assert (tally.attempted, tally.failed) == (len(workload.ops), 1)
    assert "does not rebuild counts.csv" in tally.problems[0]


def test_corrupted_stdout_or_exception_fails_only_that_operation(tmp_path):
    workload, executed = _run_tiny("seed-sweep", tmp_path)
    first = executed[0]
    executed[0] = Executed(first.op, first.exit_status, first.stdout.replace("=", ":", 1), None, first.seconds)
    executed[1] = Executed(executed[1].op, None, "", "RuntimeError: boom", 0.0)
    tally = run.Tally(Checker(GOLDEN))
    tally.add(executed)
    assert (tally.attempted, tally.failed) == (len(workload.ops), 2)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "seed-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
