"""Output checks for each executed operation.

An operation fails when it raises, exits non-zero, or any check below
fails; a failed check is recorded and never aborts the run.

- Structured stdout plus every CSV it wrote must match the digest recorded
  from the reference commit (the determinism contract, any `--workers`).
- Every simulated E and P estimate lies within 5 sigma of its closed form,
  and same-setting agreement is exactly 1.
- `runs.csv` has `n_runs` data rows, and tallying them rebuilds `counts.csv`.
- `optimize` reaches 3/2 (EQ16) or 7/3 (EQ18) within 1e-6, and its grid
  oracle within 2e-4.
- `verify` exits 0 and reports `verify.ok = true`.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from seqbell.inequalities import quantum_pair_prob
from seqbell.lhv import Setting, TripleDistribution, lhv_expectation, lhv_pair_prob
from seqbell.qubit import Direction, Outcome, PureState, direction_from_spherical, dot, state_from_bloch

from workloads import Op, Template

N_SIGMA = 5.0
OPTIMUM = {"eq16": 1.5, "eq18": 7.0 / 3.0}
SEARCH_TOL = 1e-6
GRID_TOL = 2e-4

SIGN = {"+": Outcome.PLUS, "-": Outcome.MINUS}
COUNTS_HEADER = "pair_first,pair_second,outcome_first,outcome_second,count"


@dataclass
class Executed:
    """What one operation did: exit status (None if it raised), captured
    stdout, the exception text if any, and its latency."""

    op: Op
    exit_status: int | None
    stdout: str
    error: str | None
    seconds: float


def output_digest(stdout: str, out_dir: str | None) -> str:
    """First 16 hex digits of SHA-256 over stdout and every CSV in out_dir."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    if out_dir is not None:
        for path in sorted(Path(out_dir).glob("*.csv")):
            h.update(b"\0" + path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def parse_kv(stdout: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)


class ClosedForm:
    """Exact E(x, y) and P(x^sx, y^sy) of one template's ensemble."""

    def __init__(self, t: Template):
        self.template = t
        self.dirs = {s: direction_from_spherical(*t.angles[s]) for s in Setting}
        if t.model == "quantum":
            if t.mode == "prepared":
                setting, sign = t.prep
                self.state = state_from_bloch(sign * self.dirs[Setting[setting]].as_array())
            else:
                s, phi, e = t.state
                self.state = PureState(s, phi, Direction(*e))
        else:
            dist = TripleDistribution(t.weights)
            if t.mode == "prepared":
                setting, sign = t.prep
                dist = dist.condition(Setting[setting], Outcome(sign))
            self.dist = dist

    def prob(self, x: Setting, sx: Outcome, y: Setting, sy: Outcome) -> float:
        if self.template.model == "quantum":
            return quantum_pair_prob(self.state, self.dirs[x], sx, self.dirs[y], sy)
        return lhv_pair_prob(self.dist, x, sx, y, sy)

    def expectation(self, x: Setting, y: Setting) -> float:
        if self.template.model == "quantum":
            return dot(self.dirs[x], self.dirs[y])
        return lhv_expectation(self.dist, x, y)

    def two_series_sigma(self, x: Setting, y: Setting, n: int) -> float:
        """Closed-form stderr of the two-series E, each series holding n/2
        of the conditioning runs."""
        var = 0.0
        for first in (Outcome.PLUS, Outcome.MINUS):
            p_same = self.prob(x, first, y, first)
            p_diff = self.prob(x, first, y, first.flipped())
            var += (p_same + p_diff - (p_same - p_diff) ** 2) / (n / 2)
        return math.sqrt(max(0.0, var))


def _within(name: str, value: float, exact: float, sigma: float) -> str | None:
    if sigma == 0.0:
        return None if value == exact else f"{name} = {value!r}, exact {exact!r}"
    if abs(value - exact) <= N_SIGMA * sigma:
        return None
    return f"{name} = {value!r} is {abs(value - exact) / sigma:.1f} sigma from {exact!r}"


def _estimate_problems(kv: dict[str, str], closed: ClosedForm, two_series: bool) -> list[str]:
    problems = []
    n_e = n_p = 0
    for key, raw in kv.items():
        parts = key.split(".")
        if parts[0] != "estimate" or parts[-1] != "value":
            continue
        prefix = key[: -len(".value")]
        n = int(kv[f"{prefix}.n"])
        value = float(raw)
        if parts[1] == "E":
            x, y = Setting[parts[2]], Setting[parts[3]]
            exact = closed.expectation(x, y)
            if two_series:
                sigma = closed.two_series_sigma(x, y, n)
            else:
                sigma = math.sqrt(max(0.0, 1.0 - exact * exact) / n)
            n_e += 1
        else:
            (x, sx), (y, sy) = ((Setting[p[0]], SIGN[p[1]]) for p in parts[2:4])
            exact = closed.prob(x, sx, y, sy)
            sigma = math.sqrt(exact * (1.0 - exact) / n)
            n_p += 1
        problem = _within(prefix, value, exact, sigma)
        if problem:
            problems.append(problem)
    if n_e < 3 or (not two_series and n_p < 6):
        problems.append(f"expected 3 E and 6 P estimates, found {n_e} E and {n_p} P")
    if not two_series and kv.get("result.same_setting_agreement") != "1.0":
        problems.append(f"same-setting agreement {kv.get('result.same_setting_agreement')!r} != 1.0")
    return problems


def _tally_runs_csv(path: Path) -> tuple[int, Counter]:
    tally: Counter = Counter()
    rows = 0
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            f = line.rstrip("\n").split(",")
            tally[(f[5], f[7], f[6], f[8])] += 1
            rows += 1
    return rows, tally


def counts_csv_text(tally: Counter) -> str:
    lines = [COUNTS_HEADER]
    for x in "ABC":
        for y in "ABC":
            for ox in ("+1", "-1"):
                for oy in ("+1", "-1"):
                    lines.append(f"{x},{y},{ox},{oy},{tally[(x, y, ox, oy)]}")
    return "\n".join(lines) + "\n"


def _run_log_problems(op: Op, stats: Counter) -> list[str]:
    out = Path(op.out_dir)
    runs_csv, counts_csv = out / "runs.csv", out / "counts.csv"
    if not runs_csv.exists() or not counts_csv.exists():
        return ["runs.csv or counts.csv missing"]
    rows, tally = _tally_runs_csv(runs_csv)
    stats["run_log_rows"] += rows
    stats["run_log_bytes"] += os.path.getsize(runs_csv)
    problems = []
    if rows != op.n_runs:
        problems.append(f"runs.csv has {rows} rows, expected {op.n_runs}")
    if counts_csv_text(tally) != counts_csv.read_text(encoding="utf-8"):
        problems.append("tallying runs.csv does not rebuild counts.csv")
    return problems


def _optimize_problems(op: Op, kv: dict[str, str]) -> list[str]:
    target = OPTIMUM[op.objective]
    problems = []
    value, grid = float(kv.get("search.value", "nan")), float(kv.get("grid.value", "nan"))
    if not abs(value - target) <= SEARCH_TOL:
        problems.append(f"search.value {value!r} not within {SEARCH_TOL} of {target!r}")
    if not abs(grid - target) <= GRID_TOL:
        problems.append(f"grid.value {grid!r} not within {GRID_TOL} of {target!r}")
    return problems


class Checker:
    """Applies every check to executed operations; `stats` accumulates the
    run-log rows and bytes it counted."""

    def __init__(self, golden: dict[str, list[str | None]]):
        self.golden = golden
        self.closed: dict[str, ClosedForm] = {}
        self.stats: Counter = Counter()

    def expected_digest(self, op: Op) -> str | None:
        digests = self.golden.get(op.family, [])
        return digests[op.seed] if op.seed < len(digests) else None

    def problems(self, done: Executed) -> list[str]:
        """Every failed check of one operation; empty when it passed."""
        problems = self.content_problems(done)
        if done.error is None:
            op = done.op
            expected = self.expected_digest(op)
            actual = output_digest(done.stdout, op.out_dir)
            if expected is None:
                problems.append(f"no recorded digest for {op.family}[{op.seed}]")
            elif actual != expected:
                problems.append(f"output digest {actual} != recorded {expected}")
        return problems

    def content_problems(self, done: Executed) -> list[str]:
        """Every check except the digest comparison."""
        if done.error is not None:
            return [f"raised {done.error}"]
        problems = [] if done.exit_status == 0 else [f"exit status {done.exit_status}"]
        try:
            problems += self._content_problems(done.op, parse_kv(done.stdout))
        except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems

    def _content_problems(self, op: Op, kv: dict[str, str]) -> list[str]:
        if op.kind == "simulate":
            t = op.template
            if t.name not in self.closed:
                self.closed[t.name] = ClosedForm(t)
            problems = _estimate_problems(kv, self.closed[t.name], t.mode == "two-series")
            if op.log_runs:
                problems += _run_log_problems(op, self.stats)
            return problems
        if op.kind == "optimize":
            return _optimize_problems(op, kv)
        if op.kind == "verify" and kv.get("verify.ok") != "true":
            return [f"verify.ok = {kv.get('verify.ok')!r}"]
        return []
