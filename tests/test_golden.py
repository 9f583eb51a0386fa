"""Golden output: full stdout and exit status of a fixed command matrix.

Every command runs in both report formats and is compared byte for byte
with a checked-in file under tests/golden/.  Each file holds the exit
status on its first line and the command's stdout after it.  The CSV files
that `simulate --out DIR --log-runs` writes are pinned by their SHA-256 in
tests/golden/csv_digests.json.

Regenerate the files (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from seqbell.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_LHV_WEIGHTS = (
    "lhv.weights.a+b+c+ = 0.2\nlhv.weights.a+b+c- = 0.05\n"
    "lhv.weights.a+b-c+ = 0.15\nlhv.weights.a+b-c- = 0.1\n"
    "lhv.weights.a-b+c+ = 0.1\nlhv.weights.a-b+c- = 0.15\n"
    "lhv.weights.a-b-c+ = 0.05\nlhv.weights.a-b-c- = 0.2\n"
)
_COPLANAR = (
    "directions.a.theta = 1.5707963267948966\ndirections.a.phi = 0.0\n"
    "directions.b.theta = 1.5707963267948966\ndirections.b.phi = 1.0471975511965976\n"
    "directions.c.theta = 1.5707963267948966\ndirections.c.phi = 2.0943951023931953\n"
)

CONFIGS = {
    "qfree": "n_runs = 3000\nseed = 5\nchunk_size = 1000\nstate.s = 0.8\nstate.phi = 0.4\n"
    + _COPLANAR,
    "lhvfree": "model = lhv\nn_runs = 3000\nseed = 6\n" + _LHV_WEIGHTS,
    "lhvprep": "mode = prepared\nmodel = lhv\nn_runs = 3000\nseed = 7\n"
    "disturbance = resample-after-second\nprep.setting = A\nprep.sign = +1\n" + _LHV_WEIGHTS,
    "qprep": "mode = prepared\nn_runs = 3000\nseed = 8\nprep.setting = B\nprep.sign = -1\n"
    "directions.a.theta = 0.3\ndirections.a.phi = 0.1\n"
    "directions.b.theta = 1.2\ndirections.b.phi = 2.0\n"
    "directions.c.theta = 2.5\ndirections.c.phi = 4.0\n",
    "two": "mode = two-series\nn_runs = 3000\nseed = 9\nstate.s = 0.6\nstate.phi = 1.1\n"
    + _COPLANAR,
    "qfree3": "n_runs = 3\nseed = 1\n",
    "lhvfree3": "model = lhv\nn_runs = 3\nseed = 2\n" + _LHV_WEIGHTS,
    "two3": "mode = two-series\nn_runs = 3\nseed = 3\n",
}

# (case name, argv); an argument naming a config expands to its file path
COMMANDS = (
    [(f"predict-{name}", ["predict", "--config", name]) for name in CONFIGS if not name.endswith("3")]
    + [
        (f"predict-prep-{name}", ["predict", "--config", name, "--prep"])
        for name in CONFIGS
        if not name.endswith("3")
    ]
    + [(f"simulate-{name}", ["simulate", "--config", name]) for name in CONFIGS]
    + [
        ("optimize-eq16", ["optimize", "--objective", "eq16", "--reference-start"]),
        ("optimize-eq18", ["optimize", "--objective", "eq18", "--reference-start"]),
        ("verify", ["verify"]),
        ("verify-literal-eq3", ["verify", "--use-literal-eq3"]),
    ]
)

# simulate configs whose runs*.csv and counts*.csv are pinned; the extra LHV
# prepared config ends on a partial chunk
CSV_CONFIGS = {
    **CONFIGS,
    "lhvprep-partial": "mode = prepared\nmodel = lhv\nn_runs = 2500\nseed = 10\n"
    "chunk_size = 1000\nprep.setting = B\nprep.sign = -1\n" + _LHV_WEIGHTS,
}
CSV_DIGESTS = GOLDEN_DIR / "csv_digests.json"

CASES = [
    (f"{name}.{fmt}", argv + ["--format", fmt])
    for name, argv in COMMANDS
    for fmt in ("tabular", "structured")
]


def _run(argv, config_dir: Path) -> str:
    argv = [str(config_dir / f"{a}.cfg") if a in CONFIGS else a for a in argv]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(argv)
    return f"exit status: {status}\n" + buffer.getvalue()


def _write_configs(config_dir: Path) -> None:
    for name, text in CSV_CONFIGS.items():
        (config_dir / f"{name}.cfg").write_text(text, encoding="utf-8")


def _csv_digests(name: str, config_dir: Path) -> dict[str, str]:
    """SHA-256 of every CSV that `simulate --log-runs` writes for a config."""
    out = config_dir / f"{name}.out"
    argv = ["simulate", "--config", str(config_dir / f"{name}.cfg"), "--out", str(out), "--log-runs"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*.csv"))
    }


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden_configs")
    _write_configs(path)
    return path


@pytest.mark.parametrize("case,argv", CASES, ids=[case for case, _ in CASES])
def test_output_matches_golden(case, argv, config_dir):
    expected = (GOLDEN_DIR / f"{case}.txt").read_text(encoding="utf-8")
    assert _run(argv, config_dir) == expected


@pytest.mark.parametrize("name", CSV_CONFIGS)
def test_csv_outputs_match_golden(name, config_dir):
    expected = json.loads(CSV_DIGESTS.read_text(encoding="utf-8"))
    pinned = {key: value for key, value in expected.items() if key.startswith(f"{name}/")}
    assert pinned and _csv_digests(name, config_dir) == pinned


def test_byte_order_mark_leaves_the_output_unchanged(config_dir, tmp_path):
    # the BOM sits in front of the config's first key, "mode"
    (tmp_path / "lhvprep.cfg").write_bytes(b"\xef\xbb\xbf" + (config_dir / "lhvprep.cfg").read_bytes())
    expected = (GOLDEN_DIR / "simulate-lhvprep.structured.txt").read_text(encoding="utf-8")
    assert _run(["simulate", "--config", "lhvprep", "--format", "structured"], tmp_path) == expected


def _regenerate() -> None:
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        _write_configs(Path(tmp))
        for case, argv in CASES:
            (GOLDEN_DIR / f"{case}.txt").write_text(_run(argv, Path(tmp)), encoding="utf-8")
        digests = {}
        for name in CSV_CONFIGS:
            digests.update(_csv_digests(name, Path(tmp)))
    CSV_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} golden files to {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
