"""Monte Carlo run engine: pairs of immediately consecutive measurements.

A run draws an ordered pair of settings, each uniform over {A, B, C}, and
performs two back-to-back measurements on one system under either the
quantum model or the deterministic joint-reality model.  Outcomes land in
a 9 x 4 count table; for the hidden-variable model the joint reality in
force between the two measurements is also tallied per run.  `cell_law`
gives the exact probability of every cell of that table, the reference the
samplers are tested against.

Ensembles are generated in fixed-size chunks.  Chunk i of series s uses an
RNG stream derived from (seed, s, i) and chunk tables merge by addition, so
results are bit-identical for any worker count.  Only the count tables are
kept: the run log regenerates each chunk's runs from its own stream, one
chunk at a time.  The per-chunk samplers are fully vectorized.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .lhv import (
    HiddenCountTable,
    Setting,
    SETTINGS,
    TRIPLE_COMPONENTS,
    TripleDistribution,
    lhv_pair_prob,
    sample_triple_indices,
)
from .qubit import (
    OUTCOMES,
    Direction,
    Outcome,
    PureState,
    Z_AXIS,
    bloch_vector,
    born_prob,
    dot,
    state_from_bloch,
)


class ConfigError(ValueError):
    """Raised for invalid protocol or experiment configuration."""


class Mode(str, Enum):
    FREE = "free"
    TWO_SERIES = "two-series"
    PREPARED = "prepared"


class Model(str, Enum):
    QUANTUM = "quantum"
    LHV = "lhv"


# reference directions: orthogonal b, c and a along b - c
DEFAULT_A = Direction(1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)
DEFAULT_B = Direction(1.0, 0.0, 0.0)
DEFAULT_C = Direction(0.0, 1.0, 0.0)

_SIGN_TO_IDX = {1: 0, -1: 1}

# (first setting, second setting, first outcome, second outcome) of each of
# the 36 cells, in the C order of the (3, 3, 2, 2) count table
_CELLS = tuple(itertools.product(SETTINGS, SETTINGS, Outcome, Outcome))


@dataclass(frozen=True)
class RunCountTable:
    """Observed run counts N[x^a y^b], indexed (first setting, second
    setting, first outcome, second outcome) with outcome index 0 = +1."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (3, 3, 2, 2):
            raise ValueError(f"expected counts of shape (3,3,2,2), got {c.shape}")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @classmethod
    def zero(cls) -> "RunCountTable":
        return cls(np.zeros((3, 3, 2, 2), dtype=np.int64))

    @property
    def total_runs(self) -> int:
        return int(self.counts.sum())

    def count(self, x: Setting, sign_x: Outcome, y: Setting, sign_y: Outcome) -> int:
        return int(
            self.counts[Setting(x), Setting(y), _SIGN_TO_IDX[int(sign_x)], _SIGN_TO_IDX[int(sign_y)]]
        )

    def pair_total(self, x: Setting, y: Setting) -> int:
        return int(self.counts[Setting(x), Setting(y)].sum())

    def __add__(self, other: "RunCountTable") -> "RunCountTable":
        return RunCountTable(self.counts + other.counts)

    def same_setting_totals(self) -> tuple[int, int]:
        """(number of same-setting runs, number of those with equal outcomes)."""
        same = sum(self.pair_total(s, s) for s in SETTINGS)
        agree = sum(
            int(self.counts[s, s, 0, 0] + self.counts[s, s, 1, 1]) for s in SETTINGS
        )
        return same, agree

    def to_csv_text(self) -> str:
        rows = ["pair_first,pair_second,outcome_first,outcome_second,count"]
        rows += [
            f"{x.name},{y.name},{int(sx):+d},{int(sy):+d},{n}"
            for (x, y, sx, sy), n in zip(_CELLS, self.counts.ravel().tolist())
        ]
        return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class Estimate:
    """An estimated pair probability or expectation with its standard error
    and the number of runs it is conditioned on."""

    value: float
    stderr: float
    n_conditioning: int
    low_stats: bool = False

    @property
    def defined(self) -> bool:
        return self.n_conditioning > 0


UNDEFINED_ESTIMATE = Estimate(value=math.nan, stderr=math.nan, n_conditioning=0)


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything one ensemble needs: model, protocol, directions, seeding.
    The defaults are the reference experiment, with EQ16 left-hand side sqrt(2)."""

    mode: Mode = Mode.FREE
    model: Model = Model.QUANTUM
    n_runs: int = 10**6
    seed: int = 42
    chunk_size: int = 65536
    a: Direction = DEFAULT_A
    b: Direction = DEFAULT_B
    c: Direction = DEFAULT_C
    state: PureState | None = PureState(1.0, 0.0, Z_AXIS)
    weights: tuple[float, ...] | None = None
    prep_setting: Setting = Setting.A
    prep_sign: Outcome = Outcome.PLUS

    @property
    def directions(self) -> tuple[Direction, Direction, Direction]:
        return (self.a, self.b, self.c)

    @cached_property
    def dist(self) -> TripleDistribution:
        """The normalized lhv weights; cached, and pickled with the config."""
        return TripleDistribution(self.weights)

    def validate(self) -> None:
        if not all(isinstance(d, Direction) for d in self.directions):
            raise ConfigError("directions must be three unit vectors (a, b, c)")
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a non-negative 64-bit integer, got {self.seed}")
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")
        # a chunk takes about 12 bytes per run while it is drawn: bound it
        if self.chunk_size > 2**22:
            raise ConfigError(f"chunk_size must be <= {2**22}, got {self.chunk_size}")
        if self.model is Model.QUANTUM and self.state is None:
            raise ConfigError("quantum model requires an initial state")
        if self.model is Model.LHV:
            if self.weights is None:
                raise ConfigError("lhv model requires a triple distribution")
            try:
                dist = self.dist
            except ValueError as exc:
                raise ConfigError(f"lhv.weights: {exc}") from exc
            if self.mode is Mode.PREPARED:
                # fail before any work if the preparation has no support
                try:
                    dist.condition(self.prep_setting, self.prep_sign)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# vectorized chunk core


def _chunk_rng(seed: int, series: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(series, chunk_index)))


def _effective_bloch(config: ProtocolConfig) -> np.ndarray:
    if config.mode is Mode.PREPARED:
        return int(config.prep_sign) * config.directions[config.prep_setting].as_array()
    return bloch_vector(config.state)


def _effective_dist(config: ProtocolConfig) -> TripleDistribution:
    if config.mode is Mode.PREPARED:
        return config.dist.condition(config.prep_setting, config.prep_sign)
    return config.dist


def cell_law(config: ProtocolConfig) -> np.ndarray:
    """Exact P(first outcome, second outcome | setting pair) of every cell.

    A (3, 3, 2, 2) array in the layout of `RunCountTable.counts`, so
    n_runs * cell_law(config) / 9 is the expected count table.  Prepared
    mode starts every run in the preparation eigenstate (quantum) or from
    the conditioned weights (lhv); any other mode, including each series of
    two-series mode, from the configured state or weights.
    """
    config.validate()
    if config.model is Model.LHV:
        dist = _effective_dist(config)
        law = [lhv_pair_prob(dist, x, sx, y, sy) for x, y, sx, sy in _CELLS]
    else:
        state = config.state
        if config.mode is Mode.PREPARED:
            state = state_from_bloch(_effective_bloch(config))
        # quantum_pair_prob's float steps, each Born probability and dot
        # product evaluated once
        dirs = config.directions
        born = {(x, s): born_prob(state, dirs[x], s) for x in SETTINGS for s in OUTCOMES}
        dots = {(x, y): dot(dirs[x], dirs[y]) for x in SETTINGS for y in SETTINGS}
        law = [born[x, sx] * 0.5 * (1.0 + sx * sy * dots[x, y]) for x, y, sx, sy in _CELLS]
    return np.array(law).reshape(3, 3, 2, 2)


# The samplers return each run's cell index directly, computed in place on
# int8 buffers: cell = 4 * (3 * first + second) + 2 * minus1 + minus2, where
# a minus bit is set when that outcome is -1.  They draw the same values in
# the same order as the explicit formulation the tests keep as their
# reference, so every count and run log is the same bit for bit.
#
# No float64 or int64 temporary of a whole chunk lives next to another one:
# settings are cast to int8 as soon as they are drawn, the second uniforms
# reuse the first ones' buffer, and the thresholds are gathered in blocks of
# 64 KB.  Otherwise the allocator trims and re-faults the freed temporaries
# on every chunk (serial quantum free ensemble of 10^7 runs, 2-CPU host:
# about 41k minor faults and 41 ns/run with whole-chunk gathers, none and
# 33 ns/run with blocked ones).

_GATHER_BLOCK = 8192


def _at_least(u: np.ndarray, thresholds: np.ndarray, index: np.ndarray) -> np.ndarray:
    """u >= thresholds[index], gathered one block of runs at a time."""
    out = np.empty(len(u), dtype=bool)
    for start in range(0, len(u), _GATHER_BLOCK):
        block = slice(start, start + _GATHER_BLOCK)
        np.greater_equal(u[block], thresholds[index[block]], out=out[block])
    return out


def _quantum_chunk(config: ProtocolConfig, n: int, rng: np.random.Generator):
    dirs = np.array([d.as_array() for d in config.directions])
    # P(+1) of the first outcome per setting, of the second per (first outcome, pair)
    p_first = 0.5 * (1.0 + dirs @ _effective_bloch(config))
    p_second = 0.5 * (1.0 + np.multiply.outer((1.0, -1.0), dirs @ dirs.T)).ravel()
    # dtype=np.int8 here would take numpy's 8-bit bounded path: another stream
    first = rng.integers(0, 3, size=n).astype(np.int8)
    second = rng.integers(0, 3, size=n).astype(np.int8)
    u = rng.random(n)
    minus1 = _at_least(u, p_first, first)
    pair = first
    pair *= 3
    pair += second
    row = np.multiply(minus1, np.int8(9), out=second)
    row += pair
    rng.random(out=u)
    minus2 = _at_least(u, p_second, row)
    cell = pair
    cell *= 2
    cell += minus1
    cell *= 2
    cell += minus2
    return cell, None


# the cell of each (reality, first setting, second setting), at t * 9 + 3 * x + y
_LHV_CELLS = np.array(
    [
        4 * (3 * x + y) + 2 * (TRIPLE_COMPONENTS[t, x] < 0) + (TRIPLE_COMPONENTS[t, y] < 0)
        for t, x, y in itertools.product(range(8), SETTINGS, SETTINGS)
    ],
    dtype=np.int8,
)


def _lhv_chunk(config: ProtocolConfig, n: int, rng: np.random.Generator):
    triples = sample_triple_indices(_effective_dist(config), n, rng)
    key = rng.integers(0, 3, size=n).astype(np.int8)
    second = rng.integers(0, 3, size=n).astype(np.int8)
    key *= 3
    key += second
    key += np.multiply(triples, np.int8(9), out=second)
    return _LHV_CELLS[key], triples


def _chunk_cells(config: ProtocolConfig, series: int, chunk_index: int, size: int):
    """Draw one chunk from its own stream: each run's index into the 36
    cells of `_CELLS` and, for the lhv model, its reality index."""
    rng = _chunk_rng(config.seed, series, chunk_index)
    sampler = _quantum_chunk if config.model is Model.QUANTUM else _lhv_chunk
    return sampler(config, size, rng)


def _run_chunk(args):
    cell, triples = _chunk_cells(*args)
    hidden = None if triples is None else np.bincount(triples, minlength=8)
    return np.bincount(cell, minlength=36), hidden


def _chunk_plan(n_runs: int, chunk_size: int):
    """Yield the run count of each chunk in turn: the plan is never built,
    whatever n_runs is."""
    full, rest = divmod(n_runs, chunk_size)
    yield from itertools.repeat(chunk_size, full)
    if rest:
        yield rest


@dataclass
class EnsembleResult:
    """The outcome counts, and for the lhv model the reality counts, of one
    generated ensemble.  No per-run data is kept: the run log regenerates it."""

    config: ProtocolConfig
    table: RunCountTable
    hidden: HiddenCountTable | None
    series: int = 0

    @property
    def n_runs(self) -> int:
        return self.config.n_runs


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# chunks submitted to the pool and not yet merged, per worker: enough to keep
# every worker fed, few enough that memory does not grow with n_runs
_IN_FLIGHT_PER_WORKER = 4


def _chunk_tables(config: ProtocolConfig, series: int, workers: int):
    """Yield the count tables of each chunk of one series, in chunk order."""
    tasks = (
        (config, series, i, size)
        for i, size in enumerate(_chunk_plan(config.n_runs, config.chunk_size))
    )
    n_chunks = -(-config.n_runs // config.chunk_size)
    # a fork pool starts every worker at once: never more than chunks or CPUs
    pool_size = min(workers, n_chunks, _usable_cpus())
    if pool_size <= 1:
        yield from map(_run_chunk, tasks)
        return
    # Executor.map would submit every chunk up front: refill a bounded queue
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        pending = collections.deque()
        for task in tasks:
            if len(pending) == _IN_FLIGHT_PER_WORKER * pool_size:
                yield pending.popleft().result()
            pending.append(pool.submit(_run_chunk, task))
        while pending:
            yield pending.popleft().result()


def _generate_series(config: ProtocolConfig, series: int, workers: int) -> EnsembleResult:
    counts = np.zeros(36, dtype=np.int64)
    hidden = np.zeros(8, dtype=np.int64) if config.model is Model.LHV else None
    for chunk_counts, chunk_hidden in _chunk_tables(config, series, workers):
        counts += chunk_counts
        if hidden is not None:
            hidden += chunk_hidden
    return EnsembleResult(
        config=config,
        table=RunCountTable(counts.reshape(3, 3, 2, 2)),
        hidden=None if hidden is None else HiddenCountTable(hidden),
        series=series,
    )


def run_ensemble(config: ProtocolConfig, workers: int = 1) -> EnsembleResult:
    """Generate the configured number of runs (free or prepared mode).

    Deterministic for a fixed (config, seed, chunk_size) regardless of the
    worker count.
    """
    config.validate()
    if config.mode is Mode.TWO_SERIES:
        raise ConfigError("two-series mode is generated by run_two_series")
    return _generate_series(config, series=0, workers=workers)


def run_two_series(config: ProtocolConfig, workers: int = 1) -> tuple[EnsembleResult, EnsembleResult]:
    """Generate the two independent run series of the two-series strategy.

    Each series has config.n_runs runs.  Series 0 is read through its
    first-outcome +1 runs, series 1 through its -1 runs; the unused runs
    stay in the denominators as discarded.
    """
    config.validate()
    if config.mode is not Mode.TWO_SERIES:
        raise ConfigError("run_two_series requires mode = two-series")
    plus = _generate_series(config, series=0, workers=workers)
    minus = _generate_series(config, series=1, workers=workers)
    return plus, minus


# ---------------------------------------------------------------------------
# estimation


def estimate_pair_prob(
    table: RunCountTable, x: Setting, sign_x: Outcome, y: Setting, sign_y: Outcome
) -> Estimate:
    """P(x^sx, y^sy) with binomial standard error, conditioned on the pair (x, y)."""
    n = table.pair_total(x, y)
    if n == 0:
        return UNDEFINED_ESTIMATE
    k = table.count(x, sign_x, y, sign_y)
    p = k / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    return Estimate(value=p, stderr=stderr, n_conditioning=n, low_stats=k < 10)


def estimate_expectation(table: RunCountTable, x: Setting, y: Setting) -> Estimate:
    """E(x, y) as the signed sum of the four outcome-pair probabilities."""
    n = table.pair_total(x, y)
    if n == 0:
        return UNDEFINED_ESTIMATE
    x, y = Setting(x), Setting(y)
    block = table.counts[x, y]
    value = float(block[0, 0] + block[1, 1] - block[0, 1] - block[1, 0]) / n
    # multinomial with +/-1 scores: var = (1 - E^2)/n
    stderr = math.sqrt(max(0.0, 1.0 - value * value) / n)
    return Estimate(value=value, stderr=stderr, n_conditioning=n, low_stats=bool(block.min() < 10))


def two_series_estimate(
    table_plus: RunCountTable, table_minus: RunCountTable, x: Setting, y: Setting
) -> Estimate:
    """E(x, y) from two separate series.

    The plus series contributes P(x+, y+) - P(x+, y-) using only runs whose
    first outcome was +1; the minus series contributes P(x-, y-) - P(x-, y+).
    Discarded runs (wrong first outcome) stay in each denominator, which is
    what makes the two halves estimate the same conditional probabilities as
    a single free-running ensemble.
    """
    n_p = table_plus.pair_total(x, y)
    n_m = table_minus.pair_total(x, y)
    if n_p == 0 or n_m == 0:
        return UNDEFINED_ESTIMATE
    k_pp = table_plus.count(x, Outcome.PLUS, y, Outcome.PLUS)
    k_pm = table_plus.count(x, Outcome.PLUS, y, Outcome.MINUS)
    k_mm = table_minus.count(x, Outcome.MINUS, y, Outcome.MINUS)
    k_mp = table_minus.count(x, Outcome.MINUS, y, Outcome.PLUS)

    def half(k1, k2, n):
        p1, p2 = k1 / n, k2 / n
        diff = p1 - p2
        var = max(0.0, p1 + p2 - diff * diff) / n
        return diff, var

    d_plus, var_plus = half(k_pp, k_pm, n_p)
    d_minus, var_minus = half(k_mm, k_mp, n_m)
    return Estimate(
        value=d_plus + d_minus,
        stderr=math.sqrt(var_plus + var_minus),
        n_conditioning=n_p + n_m,
        low_stats=min(k_pp, k_pm, k_mm, k_mp) < 10,
    )


# ---------------------------------------------------------------------------
# exports


def write_run_log(result: EnsembleResult, fileobj) -> None:
    """CSV run log, one data row per run.

    Rows are regenerated and written one chunk at a time, so memory stays
    bounded by the chunk size whatever the number of runs.
    """
    config = result.config
    prep = (
        f"{config.prep_setting.name},{int(config.prep_sign):+d}"
        if config.mode is Mode.PREPARED
        else ","
    )
    head = f",{config.mode.value},{config.model.value},{prep},"
    # everything after the run_id, indexed by cell
    tails = [f"{head}{x.name},{int(sx):+d},{y.name},{int(sy):+d}\n" for x, y, sx, sy in _CELLS]
    fileobj.write(
        "run_id,mode,model,prep_setting,prep_sign,"
        "first_setting,first_outcome,second_setting,second_outcome\n"
    )
    start = 0
    for i, size in enumerate(_chunk_plan(config.n_runs, config.chunk_size)):
        cells = _chunk_cells(config, result.series, i, size)[0].tolist()
        run_ids = map(str, range(start, start + size))
        # writelines streams the rows: a joined chunk string would cost
        # several MB per chunk of peak memory
        fileobj.writelines(map(str.__add__, run_ids, map(tails.__getitem__, cells)))
        start += size
