"""seqbell benchmark: one workload, closed loop, in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's commands (see workloads.py)
go through `seqbell.cli.main(argv)` one after another, each starting when
the previous one has returned, with stdout captured.  The command list is
repeated until `--seconds` have passed, with a fresh-interpreter set-up
probe before each pass; every operation of every pass is checked
(checks.py).  Each command is timed at its best over the run's passes:
the host's speed swings by up to 2x over seconds to minutes, so a median
over every execution reads how much of the run fell in slow phases, while
the best of about ten tries reads the command's own cost.  wall_s is the
sum of these per-command times, cmd_p50_ms and cmd_p95_ms their
percentiles.  With `--trace 0` the last stdout line holds the end-to-end
metrics; with `--trace 1` a further traced pass gives the per-layer
metrics (spans.py).  The line before it holds the provenance, the sample
counts and the same figures over every execution.

Nothing runs at more than `--workers 2`.  The program is read from `src/`;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "seqbell" / "cli.py").is_file():
    sys.exit(f"error: no seqbell sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import seqbell  # noqa: E402
from seqbell import cli  # noqa: E402

import workloads  # noqa: E402
from checks import Checker, Executed  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SETUP_PROBES = 7  # at least this many set-up probes per run

# child process timing one cold set-up: import seqbell.cli, then load and
# validate every config file of the workload; prints both elapsed times
PROBE = """
import sys, time
t0 = time.perf_counter()
import seqbell.cli
t1 = time.perf_counter()
from seqbell.config import load_config
for path in sys.argv[1:]:
    load_config(path).to_protocol()
print(t1 - t0, time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def execute(op: workloads.Op) -> Executed:
    """Run one command in-process; an exception fails only this operation."""
    out, err = io.StringIO(), io.StringIO()
    status = error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(list(op.argv))
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # recorded as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    return Executed(op, status, out.getvalue(), error, time.perf_counter() - start)


def run_pass(workload: workloads.Workload, workdir: Path) -> tuple[float, list[Executed]]:
    """The whole command list once, closed loop; returns its wall time."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    start = time.perf_counter()
    executed = [execute(op) for op in workload.ops]
    return time.perf_counter() - start, executed


class Tally:
    """Operations attempted and failed, with the first few problems kept."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, executed: list[Executed]) -> None:
        for done in executed:
            self.attempted += 1
            problems = self.checker.problems(done)
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{' '.join(done.op.argv)}: {'; '.join(problems)}")


def setup_probe(config_paths) -> tuple[float, float]:
    """Import and full set-up time of one fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *config_paths],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    import_s, total_s = map(float, done.stdout.split())
    return import_s, total_s


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "seqbell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, dict]:
    """Returns (result line, provenance)."""
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = workloads.build(name, seed, workdir, scale)
        runs = sum(op.runs for op in workload.ops)
        golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
        checker = Checker(golden)
        tally = Tally(checker)
        walls, latencies, imports, totals = [], [], [], []
        best = [math.inf] * len(workload.ops)  # each command's best time over the passes
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            # one set-up probe per pass spreads the set-up samples over the run
            import_s, total_s = setup_probe(workload.config_paths)
            imports.append(import_s)
            totals.append(total_s)
            wall, executed = run_pass(workload, workdir)
            walls.append(wall)
            latencies += [done.seconds for done in executed]
            best = [min(b, done.seconds) for b, done in zip(best, executed)]
            tally.add(executed)
        while len(totals) < SETUP_PROBES:
            import_s, total_s = setup_probe(workload.config_paths)
            imports.append(import_s)
            totals.append(total_s)
        wall_s = math.fsum(best)
        p50, p95 = (float(v) * 1000.0 for v in np.percentile(best, [50, 95]))
        pooled_p50, pooled_p95 = (float(v) * 1000.0 for v in np.percentile(latencies, [50, 95]))

        if trace:
            tracer = Tracer()
            checker.stats.clear()
            with tracer.installed():
                traced_wall, executed = run_pass(workload, workdir)
            tally.add(executed)
            tracer.dump(WORK / f"spans-{name}-{seed}.json")
            metrics = layer_metrics(tracer.spans, checker.stats, imports, traced_wall - statistics.median(walls))
        else:
            values = {
                "setup_s": statistics.median(totals),
                "wall_s": wall_s,
                "runs_per_s": runs / wall_s,
                "cmd_p50_ms": p50,
                "cmd_p95_ms": p95,
                "peak_rss_mb": peak_rss_mb(),
                "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    provenance = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "source_sha256_16": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seqbell": seqbell.__version__,
        "ops_per_pass": len(workload.ops),
        "runs_per_pass": runs,
        "pass_walls_s": walls,
        "samples": {
            "setup_s": len(totals),
            "commands": len(best),
            "tries_per_command": len(walls),
            "beyond_cmd_p95": sum(s * 1000.0 > p95 for s in best),
        },
        "over_every_execution": {
            "wall_s_median_pass": statistics.median(walls),
            "cmd_p50_ms": pooled_p50,
            "cmd_p95_ms": pooled_p95,
            "executions": len(latencies),
        },
        "problems": tally.problems,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, provenance


def main(argv=None, scale: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result, provenance = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), scale)
    for problem in provenance["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
