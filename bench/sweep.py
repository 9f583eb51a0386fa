"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/sweep.py --workload seed-sweep --seeds 101-110 [--trace 1]

Each run is a separate `bench/run.py` process with BENCHMARK.json's
run_seconds.  Prints one JSON object: per metric the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median, plus every run's result, its pass walls and its
figures over every execution.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="N or FIRST-LAST")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in args.seeds:
        argv = ["--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(
            [sys.executable, "bench/run.py", *argv], cwd=ROOT, capture_output=True, text=True, timeout=600
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        provenance, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
        provenance = provenance["provenance"]
        runs.append({
            "seed": seed,
            "result": result,
            "pass_walls_s": provenance["pass_walls_s"],
            "over_every_execution": provenance["over_every_execution"],
        })
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}", file=sys.stderr)
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    print(json.dumps({"workload": args.workload, "trace": args.trace, "seeds": args.seeds, "metrics": summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
