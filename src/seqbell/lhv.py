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
verifier checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import product

import numpy as np

from .qubit import OUTCOMES, Outcome
from .reporting import DEFAULT_SIGMA, InequalityReport


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


@dataclass(frozen=True)
class HiddenTriple:
    """One joint reality: a definite outcome for each setting."""

    alpha: Outcome
    beta: Outcome
    gamma: Outcome

    def component(self, setting: Setting) -> Outcome:
        return (self.alpha, self.beta, self.gamma)[Setting(setting)]

    @property
    def index(self) -> int:
        bits = [0 if o is Outcome.PLUS else 1 for o in (self.alpha, self.beta, self.gamma)]
        return bits[0] * 4 + bits[1] * 2 + bits[2]

    @classmethod
    def from_index(cls, index: int) -> "HiddenTriple":
        if not 0 <= index < 8:
            raise ValueError(f"triple index must be in 0..7, got {index}")
        outs = [Outcome.PLUS if (index >> shift) & 1 == 0 else Outcome.MINUS for shift in (2, 1, 0)]
        return cls(*outs)

    def label(self) -> str:
        signs = ["+" if o is Outcome.PLUS else "-" for o in (self.alpha, self.beta, self.gamma)]
        return f"a{signs[0]}b{signs[1]}c{signs[2]}"

    @classmethod
    def from_label(cls, label: str) -> "HiddenTriple":
        text = label.strip()
        if len(text) != 6 or text[0] != "a" or text[2] != "b" or text[4] != "c":
            raise ValueError(f"triple label must look like 'a+b-c+', got {label!r}")
        outs = []
        for ch in (text[1], text[3], text[5]):
            if ch == "+":
                outs.append(Outcome.PLUS)
            elif ch == "-":
                outs.append(Outcome.MINUS)
            else:
                raise ValueError(f"triple label signs must be '+' or '-', got {label!r}")
        return cls(*outs)


ALL_TRIPLES = tuple(HiddenTriple.from_index(i) for i in range(8))

# (8, 3) array of signed components, row = triple index, column = setting.
TRIPLE_COMPONENTS = np.array(
    [[int(t.alpha), int(t.beta), int(t.gamma)] for t in ALL_TRIPLES], dtype=np.int8
)

# the realities consistent with readout sx at x and sy at y, keyed (x, sx, y, sy);
# a same-setting key with unequal signs selects none
_PAIR_MASKS = {
    (x, sx, y, sy): (TRIPLE_COMPONENTS[:, x] == sx) & (TRIPLE_COMPONENTS[:, y] == sy)
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


class TripleDistribution:
    """Normalized weights over the 8 joint realities."""

    __slots__ = ("weights", "_cum")

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.shape != (8,):
            raise ValueError(f"expected 8 weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("weights must have positive total mass")
        w = w / total
        cum = np.cumsum(w)
        cum[-1] = 1.0
        w.setflags(write=False)
        cum.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_cum", cum)

    def __setattr__(self, name, value):
        raise AttributeError("TripleDistribution is immutable")

    def __reduce__(self):
        # restore the exact arrays: re-normalizing could shift float bits,
        # so a pickled config draws the same runs as the original
        return (_rebuild_triple_distribution, (np.array(self.weights), np.array(self._cum)))

    def __eq__(self, other):
        if not isinstance(other, TripleDistribution):
            return NotImplemented
        return bool(np.array_equal(self.weights, other.weights))

    def __hash__(self):
        return hash(self.weights.tobytes())

    @classmethod
    def uniform(cls) -> "TripleDistribution":
        return cls(np.full(8, 0.125))

    @classmethod
    def point_mass(cls, triple: HiddenTriple) -> "TripleDistribution":
        w = np.zeros(8)
        w[triple.index] = 1.0
        return cls(w)

    @classmethod
    def from_mapping(cls, mapping) -> "TripleDistribution":
        w = np.zeros(8)
        for label, weight in mapping.items():
            w[HiddenTriple.from_label(label).index] = float(weight)
        return cls(w)

    def as_mapping(self) -> dict[str, float]:
        return {t.label(): float(self.weights[t.index]) for t in ALL_TRIPLES}

    def condition(self, setting: Setting, outcome: Outcome) -> "TripleDistribution":
        """Distribution over triples whose component at setting equals outcome."""
        keep = TRIPLE_COMPONENTS[:, Setting(setting)] == int(outcome)
        w = np.where(keep, self.weights, 0.0)
        if w.sum() <= 0.0:
            raise ValueError(
                f"conditioning on {Setting(setting).name}={int(outcome):+d} leaves zero mass"
            )
        return TripleDistribution(w)


def _rebuild_triple_distribution(weights: np.ndarray, cum: np.ndarray) -> TripleDistribution:
    obj = TripleDistribution.__new__(TripleDistribution)
    weights.setflags(write=False)
    cum.setflags(write=False)
    object.__setattr__(obj, "weights", weights)
    object.__setattr__(obj, "_cum", cum)
    return obj


def sample_triple_indices(dist: TripleDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n joint realities at once, as indices into ALL_TRIPLES.

    The index of a uniform u is the number of cumulative weights before the
    last that are <= u.  That is searchsorted(cum, u, side="right") capped
    at 7, since cum[:7] is non-decreasing and cum[7] is 1.0 > u.  Seven int8
    compare-and-adds cost about a tenth of that binary search per run.
    """
    u = rng.random(n)
    idx = np.zeros(n, dtype=np.int8)
    for edge in dist._cum[:7]:
        idx += u >= edge
    return idx


@dataclass(frozen=True)
class HiddenCountTable:
    """Counts of joint realities recorded between the two measurements of each run."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (8,):
            raise ValueError(f"expected 8 counts, got shape {c.shape}")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @classmethod
    def zero(cls) -> "HiddenCountTable":
        return cls(np.zeros(8, dtype=np.int64))

    @classmethod
    def from_mapping(cls, mapping) -> "HiddenCountTable":
        c = np.zeros(8, dtype=np.int64)
        for label, n in mapping.items():
            c[HiddenTriple.from_label(label).index] = int(n)
        return cls(c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def count(self, triple: HiddenTriple) -> int:
        return int(self.counts[triple.index])


def hidden_marginal(
    table: HiddenCountTable,
    x: Setting,
    sign_x: Outcome,
    y: Setting,
    sign_y: Outcome,
    *,
    literal_eq3: bool = False,
) -> int:
    """Pair marginal N(x^sx y^sy): realities consistent with both components.

    literal_eq3 reproduces a misprinted defining relation in which N(b+c-)
    duplicates the cells of N(a+c-); it exists only so the built-in verifier
    can demonstrate that the misprint breaks the EQ4 margin identity.
    """
    x, y = Setting(x), Setting(y)
    if x == y:
        raise ValueError("pair marginal needs two distinct settings")
    if (
        literal_eq3
        and {x, y} == {Setting.B, Setting.C}
        and {(x, sign_x), (y, sign_y)} == {(Setting.B, Outcome.PLUS), (Setting.C, Outcome.MINUS)}
    ):
        mask = (TRIPLE_COMPONENTS[:, Setting.A] == 1) & (TRIPLE_COMPONENTS[:, Setting.C] == -1)
        return int(table.counts[mask].sum())
    return int(table.counts[_PAIR_MASKS[x, sign_x, y, sign_y]].sum())


def count_inequality_decomposition(table: HiddenCountTable) -> int:
    """Exact cell decomposition of the EQ4 margin: N(a+b-c+) + N(a-b+c-)."""
    return table.count(HiddenTriple.from_label("a+b-c+")) + table.count(
        HiddenTriple.from_label("a-b+c-")
    )


def check_count_inequality(
    table: HiddenCountTable,
    sigma_threshold: float = DEFAULT_SIGMA,
    *,
    literal_eq3: bool = False,
) -> InequalityReport:
    """Evaluate the hidden-count inequality N(a+c-) <= N(a+b-) + N(b+c-).

    Holds with margin >= 0 for every non-negative table; the evaluation is
    exact, so the report carries zero standard error.
    """
    lhs = hidden_marginal(table, Setting.A, Outcome.PLUS, Setting.C, Outcome.MINUS)
    rhs = hidden_marginal(
        table, Setting.A, Outcome.PLUS, Setting.B, Outcome.MINUS
    ) + hidden_marginal(
        table, Setting.B, Outcome.PLUS, Setting.C, Outcome.MINUS, literal_eq3=literal_eq3
    )
    return InequalityReport(
        inequality_id="EQ4",
        lhs=float(lhs),
        rhs=float(rhs),
        stderr_margin=0.0,
        sigma_threshold=sigma_threshold,
    )


def lhv_pair_prob(
    dist: TripleDistribution, x: Setting, sign_x: Outcome, y: Setting, sign_y: Outcome
) -> float:
    """Exact P(x^sx, y^sy) for runs with ordered settings (x, y): readout is
    deterministic, so this is just the pair marginal of the weights."""
    return float(dist.weights[_PAIR_MASKS[x, sign_x, y, sign_y]].sum())


def lhv_expectation(dist: TripleDistribution, x: Setting, y: Setting) -> float:
    """Exact product expectation of the x and y readouts."""
    prod = TRIPLE_COMPONENTS[:, Setting(x)].astype(float) * TRIPLE_COMPONENTS[:, Setting(y)]
    return float(dist.weights @ prod)
