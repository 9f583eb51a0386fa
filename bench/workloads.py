"""Workload generation: the fixed command list of each workload.

A workload is a list of `seqbell` command lines plus the config files they
read, all generated from the workload seed.  The seed selects the RNG seeds
handed to the program from a finite pool per workload, so that every
operation has an output digest recorded from the reference commit
(`golden.json`, written by `record_golden.py`).  Configs use fixed physics
templates; only seeds, and for `seed-sweep` the command order, vary.

`seed-sweep` also carries the two `--log-runs` commands: on a shared VM
whose interpreter speed drifts over minutes, two workloads with long runs
hold steadier than three with short ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("bulk-ensemble", "seed-sweep")

# workload seed -> pool seed (seed % POOL); golden digests cover the whole pool
POOL = {"bulk-ensemble": 16, "seed-sweep": 64}

SIZES = {
    "full": {
        "bulk_runs": 10**7,
        "bulk_chunk": None,
        "log_runs": 10**5,
        "sweep_runs": 2000,
        "sweep_sims": 450,
        "sweep_predicts": 100,
    },
    # self-test size: small chunks so that --workers 2 still starts a pool
    "tiny": {
        "bulk_runs": 20000,
        "bulk_chunk": 8192,
        "log_runs": 2000,
        "sweep_runs": 500,
        "sweep_sims": 9,
        "sweep_predicts": 4,
    },
}

TRIPLE_LABELS = ("a+b+c+", "a+b+c-", "a+b-c+", "a+b-c-", "a-b+c+", "a-b+c-", "a-b-c+", "a-b-c-")

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Template:
    """The physics of one config file: everything except n_runs and seed."""

    name: str
    mode: str
    model: str
    angles: tuple[tuple[float, float], ...]  # (theta, phi) of a, b, c
    state: tuple[float, float, tuple[float, float, float]] | None = None  # (s, phi, e)
    weights: tuple[float, ...] | None = None
    prep: tuple[str, int] | None = None
    disturbance: str = "none"


QFREE = Template(
    "qfree",
    "free",
    "quantum",
    angles=((HALF_PI, 0.0), (HALF_PI, math.pi / 3), (HALF_PI, 2 * math.pi / 3)),
    state=(0.8, 0.4, (0.0, 0.0, 1.0)),
)
QPREP = Template(
    "qprep",
    "prepared",
    "quantum",
    angles=((0.3, 0.1), (1.2, 2.0), (2.5, 4.0)),
    state=(1.0, 0.0, (0.0, 0.0, 1.0)),
    prep=("B", -1),
)
LHVPREP = Template(
    "lhvprep",
    "prepared",
    "lhv",
    angles=((HALF_PI, 7 * math.pi / 4), (HALF_PI, 0.0), (HALF_PI, HALF_PI)),
    weights=(0.2, 0.05, 0.15, 0.1, 0.1, 0.15, 0.05, 0.2),
    prep=("A", 1),
    disturbance="resample-after-second",
)
TWO = Template(
    "two",
    "two-series",
    "quantum",
    angles=((HALF_PI, 0.0), (HALF_PI, math.pi / 4), (HALF_PI, HALF_PI)),
    state=(0.6, 1.1, (0.0, 0.0, 1.0)),
)


@dataclass(frozen=True)
class Op:
    """One command of a workload and what its output must satisfy."""

    kind: str  # simulate | predict | optimize | verify
    argv: tuple[str, ...]
    family: str  # golden digest family; the digest is indexed by `seed`
    seed: int
    template: Template | None = None
    n_runs: int = 0  # runs per series
    out_dir: str | None = None
    log_runs: bool = False
    objective: str | None = None

    @property
    def runs(self) -> int:
        """Monte Carlo runs the command requests; two-series counts both series."""
        if self.kind != "simulate":
            return 0
        return 2 * self.n_runs if self.template.mode == "two-series" else self.n_runs


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    config_paths: tuple[str, ...]


def config_text(t: Template, n_runs: int, seed: int, chunk_size: int | None = None) -> str:
    lines = [f"mode = {t.mode}", f"model = {t.model}", f"n_runs = {n_runs}", f"seed = {seed}"]
    if chunk_size is not None:
        lines.append(f"chunk_size = {chunk_size}")
    if t.disturbance != "none":
        lines.append(f"disturbance = {t.disturbance}")
    for name, (theta, phi) in zip("abc", t.angles):
        lines += [f"directions.{name}.theta = {theta!r}", f"directions.{name}.phi = {phi!r}"]
    if t.state is not None:
        s, phi, e = t.state
        lines += [f"state.s = {s!r}", f"state.phi = {phi!r}"]
        lines += [f"state.e.{ax} = {v!r}" for ax, v in zip("xyz", e)]
    if t.weights is not None:
        lines += [f"lhv.weights.{label} = {w!r}" for label, w in zip(TRIPLE_LABELS, t.weights)]
    if t.prep is not None:
        lines += [f"prep.setting = {t.prep[0]}", f"prep.sign = {t.prep[1]:+d}"]
    lines.append("report.format = structured")
    return "\n".join(lines) + "\n"


class _Writer:
    """Writes the config files of one workload into workdir/configs."""

    def __init__(self, workdir: Path):
        self.dir = Path(workdir) / "configs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths: list[str] = []

    def write(self, name: str, text: str) -> str:
        path = self.dir / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        self.paths.append(str(path))
        return str(path)


def _bulk(seed: int, size: dict, writer: _Writer, outdir: Path) -> list[Op]:
    pool_seed = seed % POOL["bulk-ensemble"]
    ops = []
    for template, workers in ((QFREE, 2), (LHVPREP, 1), (TWO, 2)):
        n = size["bulk_runs"]
        path = writer.write(template.name, config_text(template, n, pool_seed, size["bulk_chunk"]))
        out = str(outdir / template.name)
        argv = ("simulate", "--config", path, "--workers", str(workers), "--out", out)
        ops.append(
            Op("simulate", argv, f"bulk-ensemble/{template.name}", pool_seed, template, n, out)
        )
    return ops


def _seed_sweep(seed: int, size: dict, writer: _Writer, outdir: Path) -> list[Op]:
    base = seed % POOL["seed-sweep"]
    n = size["sweep_runs"]
    sims = (QFREE, LHVPREP, TWO)
    paths = {t.name: writer.write(t.name, config_text(t, n, 0)) for t in sims}
    ops = []
    for i in range(size["sweep_sims"]):
        t = sims[i % len(sims)]
        argv = ("simulate", "--config", paths[t.name], "--seed", str(base + i))
        ops.append(Op("simulate", argv, f"seed-sweep/{t.name}", base + i, t, n))
    predicts = (QFREE, QPREP, LHVPREP, TWO)
    paths["qprep"] = writer.write("qprep", config_text(QPREP, n, 0))
    for j in range(size["sweep_predicts"]):
        t = predicts[j % len(predicts)]
        argv = ("predict", "--config", paths[t.name], "--prep", "--seed", str(base + j))
        ops.append(Op("predict", argv, f"seed-sweep/predict.{t.name}", base + j, t))
    for objective in ("eq16", "eq18"):
        argv = ("optimize", "--objective", objective, "--seed", str(base), "--format", "structured")
        ops.append(Op("optimize", argv, f"seed-sweep/optimize.{objective}", base, objective=objective))
    argv = ("verify", "--seed", str(base), "--format", "structured")
    ops.append(Op("verify", argv, "seed-sweep/verify", base))
    for t in (QFREE, LHVPREP):
        out = str(outdir / t.name)
        n_log = size["log_runs"]
        argv = ("simulate", "--config", paths[t.name], "--runs", str(n_log), "--seed", str(base), "--log-runs", "--out", out)
        ops.append(Op("simulate", argv, f"seed-sweep/log.{t.name}", base, t, n_log, out, True))
    random.Random(seed).shuffle(ops)
    return ops


def build(name: str, seed: int, workdir: Path, scale: str = "full") -> Workload:
    """Generate the config files under workdir and the command list."""
    size = SIZES[scale]
    writer = _Writer(workdir)
    outdir = Path(workdir) / "out"
    if name == "bulk-ensemble":
        ops = _bulk(seed, size, writer, outdir)
    elif name == "seed-sweep":
        ops = _seed_sweep(seed, size, writer, outdir)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if scale != "full":
        ops = [_rescale(op, scale) for op in ops]
    return Workload(tuple(ops), tuple(writer.paths))


def _rescale(op: Op, scale: str) -> Op:
    # optimize and verify do not depend on the size, so they share the full digests
    if op.kind in ("optimize", "verify"):
        return op
    workload, _, rest = op.family.partition("/")
    return replace(op, family=f"{workload}.{scale}/{rest}")
