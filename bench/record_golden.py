"""Record the output digests every benchmark operation is checked against.

    python3 bench/record_golden.py

Run only at a commit whose outputs are the reference: the digests pin the
exact bytes of structured stdout and every CSV.  Each operation of every
workload seed in the pool (both sizes) runs once; an output that fails any
other check is not recorded and the script exits 1.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # puts src/ on sys.path
import workloads
from checks import Checker, output_digest


def main() -> int:
    checker = Checker({})  # no digests: every other check still applies
    golden: dict[str, dict[int, str]] = {}
    bad = 0
    for name in workloads.WORKLOADS:
        for scale in workloads.SIZES:
            for seed in range(workloads.POOL[name]):
                workdir = run.WORK / f"record-{name}"
                shutil.rmtree(workdir, ignore_errors=True)
                workload = workloads.build(name, seed, workdir, scale)
                for op in workload.ops:
                    recorded = golden.setdefault(op.family, {})
                    if op.seed in recorded:
                        continue
                    done = run.execute(op)
                    problems = checker.content_problems(done)
                    if problems:
                        bad += 1
                        print(f"not recorded: {' '.join(op.argv)}: {problems}", file=sys.stderr)
                        continue
                    recorded[op.seed] = output_digest(done.stdout, op.out_dir)
                shutil.rmtree(workdir, ignore_errors=True)
                print(f"{name} {scale} seed {seed}: {sum(map(len, golden.values()))} digests", file=sys.stderr)
    table = {
        family: [digests.get(i) for i in range(max(digests) + 1)]
        for family, digests in sorted(golden.items())
    }
    lines = [f"{json.dumps(family)}: {json.dumps(digests)}" for family, digests in table.items()]
    (run.BENCH / "golden.json").write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
