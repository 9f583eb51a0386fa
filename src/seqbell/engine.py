"""Monte Carlo run engine: pairs of immediately consecutive measurements.

A run draws an ordered pair of settings, each uniform over {A, B, C}, and
performs two back-to-back measurements on one system under either the
quantum model or the deterministic joint-reality model.  Outcomes land in
a 9 x 4 count table; for the hidden-variable model the joint reality in
force between the two measurements is also tallied per run.  `cell_law`
gives the exact probability of every cell; a quantum cell is the product of two
entries of a two-step law table, and the quantum sampler ranks draws among them.

Ensembles are generated in fixed-size chunks.  Chunk i of series s uses an
RNG stream derived from (seed, s, i); chunk tallies of the run keys add up,
and each series folds the sum once through its model's table from keys to
count cells, so results are bit-identical for any worker count.  Each thread
tallies its own share of the chunks: the samplers run in numpy, which releases
the GIL, but np.bincount's counting loop holds it.  Only the count tables are
kept: the run log regenerates each chunk's runs from its stream, one at a time.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

import numpy as np

from .lhv import (
    CountTable,
    HiddenCountTable,
    Setting,
    SETTINGS,
    TRIPLE_COMPONENTS,
    TripleDistribution,
    add_ranks,
    sample_triple_indices,
)
from .qubit import (
    Direction,
    Outcome,
    PureState,
    Z_AXIS,
    _bloch,
    _born,
    _dot,
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

# (first setting, second setting, first outcome, second outcome) of each of
# the 36 cells, in the C order of the (3, 3, 2, 2) count table
_CELLS = tuple(itertools.product(SETTINGS, SETTINGS, Outcome, Outcome))
# each cell's flat index keyed (x, sx, y, sy); plain ints find the same cells
_CELL_INDEX = {(x, sx, y, sy): i for i, (x, y, sx, sy) in enumerate(_CELLS)}


def _cell_index(x: Setting, sign_x: Outcome, y: Setting, sign_y: Outcome) -> int:
    try:
        return _CELL_INDEX[x, sign_x, y, sign_y]
    except KeyError:
        raise ValueError(f"no count cell for {(x, sign_x, y, sign_y)}") from None


class RunCountTable(CountTable):
    """Observed run counts N[x^a y^b], indexed (first setting, second
    setting, first outcome, second outcome) with outcome index 0 = +1."""

    _SHAPE = (3, 3, 2, 2)

    @classmethod
    def zero(cls) -> "RunCountTable":
        return cls(np.zeros((3, 3, 2, 2), dtype=np.int64))

    @property
    def total_runs(self) -> int:
        return sum(self._cells)

    def count(self, x: Setting, sign_x: Outcome, y: Setting, sign_y: Outcome) -> int:
        return self._cells[_cell_index(x, sign_x, y, sign_y)]

    def pair_counts(self, x: Setting, y: Setting) -> list[int]:
        """The (+1, +1), (+1, -1), (-1, +1) and (-1, -1) counts of the pair (x, y)."""
        i = _cell_index(x, 1, y, 1)
        return self._cells[i : i + 4]

    def pair_total(self, x: Setting, y: Setting) -> int:
        return sum(self.pair_counts(x, y))

    def same_setting_totals(self) -> tuple[int, int]:
        """(number of same-setting runs, number of those with equal outcomes)."""
        blocks = [self.pair_counts(s, s) for s in SETTINGS]
        return sum(map(sum, blocks)), sum(b[0] + b[3] for b in blocks)

    def to_csv_text(self) -> str:
        rows = ["pair_first,pair_second,outcome_first,outcome_second,count"]
        rows += [
            f"{x.name},{y.name},{int(sx):+d},{int(sy):+d},{n}"
            for (x, y, sx, sy), n in zip(_CELLS, self._cells)
        ]
        return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything one ensemble needs: model, protocol, directions, seeding;
    checked when built.  The defaults are the reference experiment, with EQ16
    left-hand side sqrt(2)."""

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

    def __post_init__(self):
        # fields that the model and mode do not read hold their defaults, so
        # configs that behave alike are equal and round-trip through a file
        object.__setattr__(self, "weights" if self.model is Model.QUANTUM else "state", None)
        if self.mode is not Mode.PREPARED:
            object.__setattr__(self, "prep_setting", Setting.A)
            object.__setattr__(self, "prep_sign", Outcome.PLUS)
        self.validate()

    @property
    def directions(self) -> tuple[Direction, Direction, Direction]:
        return (self.a, self.b, self.c)

    @cached_property
    def dist(self) -> TripleDistribution:
        """The normalized lhv weights, built once per config."""
        return TripleDistribution(self.weights)

    @cached_property
    def run_dist(self) -> TripleDistribution:
        """The weights each run draws from: conditioned on the preparation in
        prepared mode, built once per config."""
        if self.mode is Mode.PREPARED:
            return self.dist.condition(self.prep_setting, self.prep_sign)
        return self.dist

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
                self.dist
            except ValueError as exc:
                raise ConfigError(f"lhv.weights: {exc}") from exc
            # fail before any work if the preparation has no support
            try:
                self.run_dist
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# vectorized chunk core


def _chunk_rng(seed: int, series: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(series, chunk_index)))


def _quantum_law(config: ProtocolConfig):
    """The quantum law as a two-step table in quantum_pair_prob's float steps:
    first[x][i] = P(x^s) of the state the runs start from, second[x][i][y][j] =
    (1 + s t x.y)/2, with i, j = 0 for s, t = +1 and 1 for -1: s = -1 swaps t."""
    dirs, state = config.directions, config.state
    if config.mode is Mode.PREPARED:
        state = state_from_bloch(int(config.prep_sign) * dirs[config.prep_setting].as_array())
    v = [(d.x, d.y, d.z) for d in (*dirs, state.e)]
    r = _bloch(state.s, state.phi, v[3])
    first = [(_born(r, x, 1), _born(r, x, -1)) for x in v[:3]]
    plus = [[(0.5 * (1.0 + d), 0.5 * (1.0 - d)) for d in [_dot(x, y) for y in v[:3]]] for x in v[:3]]
    return first, [(pairs, [(m, p) for p, m in pairs]) for pairs in plus]


# the count-table cell of each lhv run key t * 9 + 3 * x + y (reality, settings)
_LHV_CELLS = np.array(
    [_CELL_INDEX[x, t[x], y, t[y]] for t in TRIPLE_COMPONENTS.tolist() for x in SETTINGS for y in SETTINGS],
    dtype=np.int8,
)


def cell_law(config: ProtocolConfig) -> np.ndarray:
    """Exact P(first outcome, second outcome | setting pair) of every cell.

    A (3, 3, 2, 2) array in the layout of `RunCountTable.counts`, so
    n_runs * cell_law(config) / 9 is the expected count table.  Prepared
    mode starts every run in the preparation eigenstate (quantum) or from
    the conditioned weights (lhv); any other mode, including each series of
    two-series mode, from the configured state or weights.
    """
    if config.model is Model.LHV:
        # np.add.at adds one key at a time: each cell sums its realities'
        # weights in reality order from 0.0, the float steps of lhv_pair_prob
        law = np.zeros(36)
        np.add.at(law, _LHV_CELLS, np.repeat(config.run_dist.weights, 9))
    else:
        first, second = _quantum_law(config)
        axes = itertools.product(range(3), range(3), (0, 1), (0, 1))  # (x, y, i, j) in C order
        law = np.array([first[x][i] * second[x][i][y][j] for x, y, i, j in axes])
    return law.reshape(3, 3, 2, 2)


# The samplers return each run's key, computed in place on int8 buffers, and
# the series' key table maps it to its cell.  add_ranks ranks each uniform u
# among the law's distinct thresholds inside (0, 1): u >= t when that rank
# reaches t's place, and the table decides thresholds <= 0 and >= 1, so a
# rank's lowest uniform (0.0, then each edge) gives the minus bits of its key.
# A quantum key is ((3 * first + second) * (n1 + 1) + rank1) * (n2 + 1) + rank2
# over n1 distinct first[x][0] and n2 second[x][i][y][0]: at most 256 keys, read
# as uint8 from the wrapping int8 buffer.  A qubit has n1 <= 3 and n2 <= 6, the
# (1 +- x.y)/2 of three off-diagonal dots (x.x is 1): 252 keys.  An lhv key is
# 9 * reality + 3 * first + second.  The draws are those of the tests' explicit
# reference, in its order, so every count and run log is the same bit for bit.

# numpy's rng.integers(0, 3) maps a 32-bit word w to (3 * w) >> 32, which is
# (w >= 1431655766) + (w >= 2863311531), and redraws only w = 0 (Lemire's
# bounded method); PCG64 hands it the low half of each raw word, then the high
_SETTING_EDGES = (np.uint32(1431655766), np.uint32(2863311531))


def _draw_settings(rng: np.random.Generator, n: int):
    """The first and second settings of n runs as int8 arrays: the values of,
    and the generator state after, two rng.integers(0, 3, size=n) calls on a
    generator that holds no half word, read from n raw words."""
    words = rng.bit_generator.random_raw(n).astype("<u8", copy=False).view("<u4")
    if not words.min():  # p = 2**-32 per word: rewind and let numpy redraw
        rng.bit_generator.advance(-n)
        return tuple(rng.integers(0, 3, size=n).astype(np.int8) for _ in range(2))
    settings = np.greater_equal(words, _SETTING_EDGES[0]).view(np.int8)
    settings += np.greater_equal(words, _SETTING_EDGES[1]).view(np.int8)
    return settings[:n], settings[n:]


def _quantum_chunk(edges1, edges2, n: int, rng: np.random.Generator):
    key, second = _draw_settings(rng, n)
    key *= 3
    key += second
    key *= len(edges1) + 1
    u = rng.random(n)
    add_ranks(key, u, edges1)
    key *= len(edges2) + 1
    add_ranks(key, rng.random(out=u), edges2)
    return key.view(np.uint8)


def _lhv_chunk(dist: TripleDistribution, n: int, rng: np.random.Generator):
    triples = sample_triple_indices(dist, n, rng)  # 64-bit draws: no half word held
    key, second = _draw_settings(rng, n)
    key *= 3
    key += second
    key += np.multiply(triples, np.int8(9), out=second)
    return key


def _series_kernel(config: ProtocolConfig):
    """One series' chunk kernel (n, rng) -> run keys, its invariants bound
    once, and the count-table cell of each of its run keys.

    Its settings come from _draw_settings, which gives numpy's values only on
    a generator that holds no 32-bit half word: call it on a fresh generator,
    as _draw_chunk does with each chunk's own.
    """
    if config.model is Model.LHV:
        return partial(_lhv_chunk, config.run_dist), _LHV_CELLS
    return _table_kernel(*_quantum_law(config))


def _table_kernel(first, second):
    """The chunk kernel of a two-step law table laid out as _quantum_law's,
    and the count-table cell of each of its run keys."""
    plus1 = [f[0] for f in first]
    plus2 = [p[0] for i in (0, 1) for rows in second for p in rows[i]]  # at 9i + 3x + y
    edges = [sorted({t for t in ts if 0.0 < t < 1.0}) for ts in (plus1, plus2)]
    low1, low2 = (np.array([0.0, *e]) for e in edges)
    pairs = np.arange(9)[:, None]
    minus1 = low1 >= np.array(plus1)[pairs // 3]
    minus2 = low2 >= np.array(plus2)[9 * minus1 + pairs][..., None]
    cells = ((4 * pairs + 2 * minus1)[..., None] + minus2).astype(np.int8).ravel()
    if len(cells) > 256:
        raise ValueError(f"a law table of {len(cells)} run keys does not fit uint8 keys")
    return partial(_quantum_chunk, *edges), cells


def _draw_chunk(config: ProtocolConfig, kernel, series: int, chunk_index: int, size: int):
    """One chunk's run keys, drawn by its series' kernel from the chunk's own stream."""
    return kernel(size, _chunk_rng(config.seed, series, chunk_index))


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


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _share_tally(config: ProtocolConfig, kernel, n_keys: int, series: int, stop, first: int, step: int):
    """Tally chunks first, first + step, ... of a series until `stop` is set; set it on failure."""
    tally = np.zeros(n_keys, dtype=np.int64)
    plan = enumerate(_chunk_plan(config.n_runs, config.chunk_size))
    try:
        for i, size in itertools.islice(plan, first, None, step):
            if stop.is_set():
                break
            tally += np.bincount(_draw_chunk(config, kernel, series, i, size), minlength=n_keys)
    except BaseException:
        stop.set()
        raise
    return tally


def _generate_series(config: ProtocolConfig, kernel, cells, series: int, workers: int):
    """One series' key tally, summed over one share of its chunks per worker, folded
    once into its 36 cell counts and, for the lhv model, its 8 reality counts."""
    # more threads than chunks or CPUs would only wait
    pool_size = max(1, min(workers, -(-config.n_runs // config.chunk_size), _usable_cpus()))
    stop = threading.Event()
    share_tally = partial(_share_tally, config, kernel, len(cells), series, stop, step=pool_size)
    if pool_size == 1:
        tally = share_tally(0)
    else:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            futures = [pool.submit(share_tally, w) for w in range(pool_size)]
            try:
                tally = sum(future.result() for future in futures)
            finally:
                # on a failure or an interrupt here, the workers stop within a chunk
                stop.set()
    counts = np.zeros(36, dtype=np.int64)
    np.add.at(counts, cells, tally)
    hidden = HiddenCountTable(tally.reshape(8, 9).sum(1)) if config.model is Model.LHV else None
    return EnsembleResult(config, RunCountTable(counts.reshape(3, 3, 2, 2)), hidden, series)


def run_ensemble(config: ProtocolConfig, workers: int = 1) -> EnsembleResult:
    """Generate the configured number of runs (free or prepared mode).

    Deterministic for a fixed (config, seed, chunk_size) regardless of the
    worker count.
    """
    if config.mode is Mode.TWO_SERIES:
        raise ConfigError("two-series mode is generated by run_two_series")
    return _generate_series(config, *_series_kernel(config), series=0, workers=workers)


def run_two_series(config: ProtocolConfig, workers: int = 1) -> tuple[EnsembleResult, EnsembleResult]:
    """Generate the two independent run series of the two-series strategy.

    Each series has config.n_runs runs.  Series 0 is read through its
    first-outcome +1 runs, series 1 through its -1 runs; the unused runs
    stay in the denominators as discarded.
    """
    if config.mode is not Mode.TWO_SERIES:
        raise ConfigError("run_two_series requires mode = two-series")
    kernel = _series_kernel(config)
    return tuple(_generate_series(config, *kernel, series=s, workers=workers) for s in (0, 1))


# ---------------------------------------------------------------------------
# exports


# rows per write of the run log: 65536-row blocks raise the peak RSS of a
# process writing two 10^5-run logs by about 7 MB
_LOG_BLOCK = 8192
# the last four digits of every run id in ASCII, by id % 10**4 (grids: cheap at import)
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_LOW_DIGITS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).reshape(-1, 4)


def write_run_log(result: EnsembleResult, fileobj) -> None:
    """CSV run log, one data row per run, written to a text handle.

    Rows are regenerated one chunk at a time and written in blocks of at
    most _LOG_BLOCK rows whose run ids have one width and one quotient by
    10**4: a uint8 matrix of that quotient's digits, the ids' last four
    digits sliced from _LOW_DIGITS, then the row's tail gathered by run key.
    Memory stays bounded by the chunk size whatever the number of runs.
    """
    config = result.config
    prepared = config.mode is Mode.PREPARED
    prep = f"{config.prep_setting.name},{int(config.prep_sign):+d}" if prepared else ","
    head = f",{config.mode.value},{config.model.value},{prep},"
    # everything after the run_id, by cell and then by run key; every tail has one length
    tails = "".join(f"{head}{x.name},{int(sx):+d},{y.name},{int(sy):+d}\n" for x, y, sx, sy in _CELLS)
    kernel, cells = _series_kernel(config)
    tails = np.frombuffer(tails.encode("ascii"), dtype=np.uint8).reshape(36, -1)[cells]
    fileobj.write(
        "run_id,mode,model,prep_setting,prep_sign,"
        "first_setting,first_outcome,second_setting,second_outcome\n"
    )
    start = 0
    for i, size in enumerate(_chunk_plan(config.n_runs, config.chunk_size)):
        keys = _draw_chunk(config, kernel, result.series, i, size)
        lo = 0
        while lo < size:
            high, low = divmod(start + lo, 10**4)
            width = len(str(start + lo))
            hi = min(size, lo + _LOG_BLOCK, 10**width - start, lo + 10**4 - low)
            rows = np.empty((hi - lo, width + tails.shape[1]), dtype=np.uint8)
            if high:
                rows[:, : width - 4] = np.frombuffer(str(high).encode("ascii"), np.uint8)
            rows[:, max(0, width - 4) : width] = _LOW_DIGITS[low : low + hi - lo, max(0, 4 - width) :]
            rows[:, width:] = np.take(tails, keys[lo:hi], axis=0)
            fileobj.write(rows.tobytes().decode("ascii"))
            lo = hi
        start += size
