"""Joint-reality hidden-variable model with deterministic readout.

A hidden triple assigns a definite +1/-1 outcome to each of the three
settings A, B, C at once; reading a setting returns its component without
changing it, so two consecutive readings of the same setting are perfectly
correlated by construction.  An ensemble is a weight vector over the 8
triples.  Count tables over triples support the pair marginals
N(x^a y^b) and the three-term count inequality they satisfy identically:

    N(a+c-) <= N(a+b-) + N(b+c-)        (id EQ4)

with N(a+b-) = N(a+b-c+) + N(a+b-c-), N(a+c-) = N(a+b+c-) + N(a+b-c-),
and N(b+c-) = N(a+b+c-) + N(a-b+c-).  The margin of EQ4 equals
N(a+b-c+) + N(a-b+c-) cell by cell, which is the identity the built-in
verifier checks.  `inequalities` evaluates EQ4 on these tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from itertools import product

import numpy as np

from .qubit import OUTCOMES, Outcome


class Setting(IntEnum):
    """The three values of the external parameter."""

    A = 0
    B = 1
    C = 2


SETTINGS = (Setting.A, Setting.B, Setting.C)

# the 24 ordered pair marginals N(x^sx y^sy) as (x, sx, y, sy), in report order
PAIR_MARGINAL_KEYS = tuple(
    (x, sx, y, sy) for x, y, sx, sy in product(SETTINGS, SETTINGS, OUTCOMES, OUTCOMES) if x != y
)


# one joint reality per index 0..7: its label, and its (8, 3) int8 signed
# components, row = index, column = setting; a+b+c+ first, a-b-c- last
TRIPLE_LABELS = tuple(f"a{sa}b{sb}c{sc}" for sa, sb, sc in product("+-", repeat=3))
TRIPLE_COMPONENTS = np.array(list(product((1, -1), repeat=3)), dtype=np.int8)

# the indices of the realities consistent with readout sx at x and sy at y,
# keyed (x, sx, y, sy): two for distinct settings, four for a same-setting key
# with equal signs, none for one with unequal signs
_PAIR_CELLS = {
    (x, sx, y, sy): tuple(
        np.flatnonzero((TRIPLE_COMPONENTS[:, x] == sx) & (TRIPLE_COMPONENTS[:, y] == sy)).tolist()
    )
    for x, y, sx, sy in product(SETTINGS, SETTINGS, OUTCOMES, OUTCOMES)
}


class Disturbance(str, Enum):
    """What happens to the joint reality after the second measurement of a run.

    A configuration key that is recorded but never simulated: each run draws
    a fresh reality, and only the reality in force between its two
    measurements enters any count, so no choice here can change a statistic.
    """

    NONE = "none"
    RESAMPLE = "resample-after-second"
    FLIP_UNMEASURED = "flip-unmeasured-after-second"


@dataclass(frozen=True, eq=False)
class TripleDistribution:
    """Normalized weights over the 8 joint realities, as read-only arrays."""

    weights: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (8,):
            raise ValueError(f"expected 8 weights, got shape {w.shape}")
        values = w.tolist()  # checked as Python floats: faster for 8
        if not all(map(math.isfinite, values)):
            raise ValueError("weights must be finite")
        if min(values) < 0.0:
            raise ValueError("weights must be non-negative")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("weights must have positive total mass")
        w = w / total
        cum = np.cumsum(w)
        # 1.0 from the last positive weight on: no u < 1 reaches a zero weight
        cum[np.flatnonzero(w)[-1] :] = 1.0
        self.__setstate__({"weights": w, "_cum": cum})

    def __setstate__(self, state):
        # unpickling keeps the exact float bits but yields writeable arrays
        for array in state.values():
            array.setflags(write=False)
        self.__dict__.update(state)

    def condition(self, setting: Setting, outcome: Outcome) -> "TripleDistribution":
        """Distribution over triples whose component at setting equals outcome."""
        keep = TRIPLE_COMPONENTS[:, Setting(setting)] == int(outcome)
        w = np.where(keep, self.weights, 0.0)
        if w.sum() <= 0.0:
            raise ValueError(
                f"conditioning on {Setting(setting).name}={int(outcome):+d} leaves zero mass"
            )
        return TripleDistribution(w)


def add_ranks(acc: np.ndarray, u: np.ndarray, edges) -> np.ndarray:
    """Add to int8 acc the count of the non-decreasing edges <= each u: one
    compare-and-add per edge through one bool buffer, up to an edge >= 1."""
    hit = np.empty(len(u), dtype=bool)
    for edge in edges:
        if edge >= 1.0:
            break
        acc += np.greater_equal(u, edge, out=hit).view(np.int8)
    return acc


def sample_triple_indices(dist: TripleDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n joint realities at once, as indices into TRIPLE_LABELS.

    The index of a uniform u is the number of cumulative weights before the
    last that are <= u.  That is searchsorted(cum, u, side="right") capped
    at 7, since cum[:7] is non-decreasing and cum[7] is 1.0 > u.  The int8
    compare-and-adds of add_ranks cost about a tenth of that binary search
    per run.
    """
    return add_ranks(np.zeros(n, dtype=np.int8), rng.random(n), dist._cum[:7].tolist())


@dataclass(frozen=True)
class CountTable:
    """Counts of shape _SHAPE: whole, non-negative, held as a read-only int64
    array.  Both count tables build on it."""

    counts: np.ndarray
    _SHAPE = ()

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.shape != self._SHAPE:
            raise ValueError(f"expected counts of shape {self._SHAPE}, got {raw.shape}")
        # the int64 cast would truncate a fractional count without a word
        if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (np.trunc(raw) == raw)):
            raise ValueError("counts must be whole numbers")
        c = raw.astype(np.int64, copy=False)
        if c.min() < 0:
            raise ValueError("counts must be non-negative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @cached_property
    def _cells(self) -> list[int]:
        """The counts as Python ints in C order, read once."""
        return self.counts.ravel().tolist()


class HiddenCountTable(CountTable):
    """Counts of joint realities recorded between the two measurements of each run."""

    _SHAPE = (8,)


def hidden_marginal(
    table: HiddenCountTable, x: Setting, sign_x: Outcome, y: Setting, sign_y: Outcome
) -> int:
    """Pair marginal N(x^sx y^sy): realities consistent with both components."""
    if x == y:
        raise ValueError("pair marginal needs two distinct settings")
    try:
        i, j = _PAIR_CELLS[x, sign_x, y, sign_y]
    except KeyError:
        raise ValueError(f"no pair marginal for {(x, sign_x, y, sign_y)}") from None
    return table._cells[i] + table._cells[j]


# the cells of the EQ4 margin's decomposition N(a+b-c+) + N(a-b+c-)
EQ4_DECOMPOSITION_CELLS = (2, 5)


def eq4_cells(literal_eq3: bool = False) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The realities summed by each side of EQ4: N(a+c-), and N(a+b-) + N(b+c-).

    literal_eq3 reproduces a misprinted defining relation in which N(b+c-)
    duplicates the cells of N(a+c-); it exists only so the built-in verifier
    can demonstrate that the misprint breaks the EQ4 margin identity.
    """
    A, B, C, PLUS, MINUS = Setting.A, Setting.B, Setting.C, Outcome.PLUS, Outcome.MINUS
    lhs = _PAIR_CELLS[A, PLUS, C, MINUS]
    bc = lhs if literal_eq3 else _PAIR_CELLS[B, PLUS, C, MINUS]
    return lhs, _PAIR_CELLS[A, PLUS, B, MINUS] + bc


def count_inequality_decomposition(table: HiddenCountTable) -> int:
    """Exact cell decomposition of the EQ4 margin: N(a+b-c+) + N(a-b+c-)."""
    return sum(table._cells[i] for i in EQ4_DECOMPOSITION_CELLS)


def lhv_pair_prob(
    dist: TripleDistribution, x: Setting, sign_x: Outcome, y: Setting, sign_y: Outcome
) -> float:
    """Exact P(x^sx, y^sy) for runs with ordered settings (x, y): readout is
    deterministic, so this is just the pair marginal of the weights."""
    return float(dist.weights[list(_PAIR_CELLS[x, sign_x, y, sign_y])].sum())


def lhv_expectation(dist: TripleDistribution, x: Setting, y: Setting) -> float:
    """Exact product expectation of the x and y readouts."""
    prod = TRIPLE_COMPONENTS[:, Setting(x)].astype(float) * TRIPLE_COMPONENTS[:, Setting(y)]
    return float(dist.weights @ prod)
