"""Closed-form qubit predictions and the consecutive-measurement inequalities.

For two back-to-back measurements along x then y the joint probability
factorizes as P(x^a, y^b) = P(x^a) (1 + ab x.y)/2, because the second
measurement sees the eigenstate left by the first.  The signed sum over
outcome pairs then collapses to E(x, y) = x.y for every initial state:
positive correlation, unlike the -x.y of a spatially entangled singlet pair.

Inequality ids and their content:

    EQ4   N(a+c-) <= N(a+b-) + N(b+c-)            hidden-reality counts
    EQ6   N[a+c-] <= N[a+b-] + N[b+c-]            observed run counts
    EQ7   P(a+,c-) <= P(a+,b-) + P(b+,c-)         pair probabilities
    EQ8   P(a-,c+) <= P(a-,b+) + P(b-,c+)         mirrored signs
    EQ10  E(a,b) + E(b,c) - E(a,c) <= 1           expectations
    EQ16  a.b - a.c + b.c <= 1                    EQ10 with E = dot
    EQ18  a.b + b.c - 2 a.c + (a.b)(b.c) <= 1     EQ7 from the a+ eigenstate

EQ18 relates to EQ7 through the exact identity lhs18 = 1 - 4 * margin7, so
a probability-level estimate of EQ7 doubles as an estimate of lhs18.

Every estimate and verdict is made here, from the count tables that
`engine` samples and `lhv` defines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .engine import RunCountTable
from .lhv import PAIR_MARGINAL_KEYS, HiddenCountTable, Setting, eq4_cells, hidden_marginal
from .qubit import Direction, Outcome, PureState, born_prob, dot
from .reporting import DEFAULT_SIGMA, InequalityReport, undefined_report

A, B, C = Setting.A, Setting.B, Setting.C
PLUS, MINUS = Outcome.PLUS, Outcome.MINUS

# the setting pairs of EQ10, and the probabilities of EQ7 and EQ8 as
# (setting, sign, setting, sign) in (lhs, rhs term, rhs term) order
PAIRS = ((A, B), (B, C), (A, C))
EQ7_PROBS = ((A, PLUS, C, MINUS), (A, PLUS, B, MINUS), (B, PLUS, C, MINUS))
EQ8_PROBS = ((A, MINUS, C, PLUS), (A, MINUS, B, PLUS), (B, MINUS, C, PLUS))


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
    pp, pm, mp, mm = table.pair_counts(x, y)
    n = pp + pm + mp + mm
    if n == 0:
        return UNDEFINED_ESTIMATE
    value = float(pp + mm - pm - mp) / n
    # multinomial with +/-1 scores: var = (1 - E^2)/n
    stderr = math.sqrt(max(0.0, 1.0 - value * value) / n)
    return Estimate(value=value, stderr=stderr, n_conditioning=n, low_stats=min(pp, pm, mp, mm) < 10)


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


def quantum_pair_prob(
    state: PureState, x: Direction, sign_x: Outcome, y: Direction, sign_y: Outcome
) -> float:
    """Exact P(x^sx, y^sy) for a run measuring x then y from the given state."""
    return born_prob(state, x, sign_x) * 0.5 * (1.0 + int(sign_x) * int(sign_y) * dot(x, y))


def _lhs(kind: str, ab, ac, bc):
    """lhs16 or lhs18 from the three dot products, with the same IEEE steps
    on floats and on arrays."""
    return ab - ac + bc if kind == "EQ16" else ab + bc - 2.0 * ac + ab * bc


def lhs16(a: Direction, b: Direction, c: Direction) -> float:
    """Left side of EQ16: a.b - a.c + b.c."""
    return _lhs("EQ16", dot(a, b), dot(a, c), dot(b, c))


def lhs18(a: Direction, b: Direction, c: Direction) -> float:
    """Left side of EQ18: b.(a + c) - 2 a.c + (a.b)(b.c)."""
    return _lhs("EQ18", dot(a, b), dot(a, c), dot(b, c))


def eq16_report(
    a: Direction, b: Direction, c: Direction, sigma_threshold: float = DEFAULT_SIGMA
) -> InequalityReport:
    return InequalityReport("EQ16", lhs=lhs16(a, b, c), rhs=1.0, sigma_threshold=sigma_threshold)


def eq18_report(
    a: Direction, b: Direction, c: Direction, sigma_threshold: float = DEFAULT_SIGMA
) -> InequalityReport:
    return InequalityReport("EQ18", lhs=lhs18(a, b, c), rhs=1.0, sigma_threshold=sigma_threshold)


def check_count_inequality(
    table: HiddenCountTable,
    sigma_threshold: float = DEFAULT_SIGMA,
    *,
    literal_eq3: bool = False,
) -> InequalityReport:
    """Evaluate the hidden-count inequality EQ4, N(a+c-) <= N(a+b-) + N(b+c-).

    Holds with margin >= 0 for every non-negative table; the evaluation is
    exact, so the report carries zero standard error.
    """
    lhs, rhs = (sum(table._cells[i] for i in side) for side in eq4_cells(literal_eq3))
    return InequalityReport(
        inequality_id="EQ4",
        lhs=float(lhs),
        rhs=float(rhs),
        stderr_margin=0.0,
        sigma_threshold=sigma_threshold,
    )


def eval_eq6(table: RunCountTable, sigma_threshold: float = DEFAULT_SIGMA) -> InequalityReport:
    """Count form on observed runs: N[a+c-] <= N[a+b-] + N[b+c-].

    The margin's standard error treats the three cells as entries of one
    multinomial over the full 36-cell table.
    """
    n_ac = table.count(Setting.A, Outcome.PLUS, Setting.C, Outcome.MINUS)
    n_ab = table.count(Setting.A, Outcome.PLUS, Setting.B, Outcome.MINUS)
    n_bc = table.count(Setting.B, Outcome.PLUS, Setting.C, Outcome.MINUS)
    if n_ac + n_ab + n_bc == 0:
        return undefined_report("EQ6", sigma_threshold)
    total = table.total_runs
    margin = n_ab + n_bc - n_ac
    p_sum = (n_ab + n_bc + n_ac) / total
    mean = margin / total
    variance = total * max(0.0, p_sum - mean * mean)
    return InequalityReport(
        "EQ6",
        lhs=float(n_ac),
        rhs=float(n_ab + n_bc),
        stderr_margin=math.sqrt(variance),
        sigma_threshold=sigma_threshold,
    )


def _estimated_report(
    inequality_id: str, lhs: float, rhs: float, estimates, sigma_threshold: float
) -> InequalityReport:
    """An inequality on three estimates: undefined unless all three are
    defined, with their standard errors added in quadrature."""
    if not all(e.defined for e in estimates):
        return undefined_report(inequality_id, sigma_threshold)
    stderr = math.sqrt(sum(e.stderr**2 for e in estimates))
    return InequalityReport(inequality_id, lhs, rhs, stderr, sigma_threshold)


def _eval_triangle(inequality_id: str, p_ac, p_ab, p_bc, sigma_threshold: float) -> InequalityReport:
    """P(x,z) <= P(x,y) + P(y,z) on three estimated probabilities: EQ7 and EQ8."""
    rhs = p_ab.value + p_bc.value
    return _estimated_report(inequality_id, p_ac.value, rhs, (p_ac, p_ab, p_bc), sigma_threshold)


def eval_eq7(
    p_ac: Estimate, p_ab: Estimate, p_bc: Estimate, sigma_threshold: float = DEFAULT_SIGMA
) -> InequalityReport:
    """P(a+,c-) <= P(a+,b-) + P(b+,c-) on estimated probabilities."""
    return _eval_triangle("EQ7", p_ac, p_ab, p_bc, sigma_threshold)


def eval_eq8(
    p_ac: Estimate, p_ab: Estimate, p_bc: Estimate, sigma_threshold: float = DEFAULT_SIGMA
) -> InequalityReport:
    """P(a-,c+) <= P(a-,b+) + P(b-,c+) on estimated probabilities."""
    return _eval_triangle("EQ8", p_ac, p_ab, p_bc, sigma_threshold)


def eval_eq10(e_ab, e_bc, e_ac, sigma_threshold: float = DEFAULT_SIGMA) -> InequalityReport:
    """E(a,b) + E(b,c) - E(a,c) <= 1 on expectation estimates."""
    lhs = e_ab.value + e_bc.value - e_ac.value
    return _estimated_report("EQ10", lhs, 1.0, (e_ab, e_bc, e_ac), sigma_threshold)


def evaluate_table(table: RunCountTable, sigma_threshold: float = DEFAULT_SIGMA):
    """Every observable statistic of one 36-cell count table: the E estimates
    keyed by PAIRS, the EQ7/EQ8 probabilities keyed by (x, sx, y, sy), and the
    EQ6, EQ7, EQ8 and EQ10 reports."""
    expectations = {(x, y): estimate_expectation(table, x, y) for (x, y) in PAIRS}
    probs = {key: estimate_pair_prob(table, *key) for key in EQ7_PROBS + EQ8_PROBS}
    reports = [
        eval_eq6(table, sigma_threshold),
        eval_eq7(*(probs[k] for k in EQ7_PROBS), sigma_threshold),
        eval_eq8(*(probs[k] for k in EQ8_PROBS), sigma_threshold),
        eval_eq10(*expectations.values(), sigma_threshold),
    ]
    return expectations, probs, reports


class Eq5Ratio(NamedTuple):
    """Sampling-factor check: 9 N[x^sx y^sy] / N(x^sx y^sy), expected 1."""

    ratio: float
    stderr: float
    marginal: int
    observed: int

    @property
    def defined(self) -> bool:
        return self.marginal > 0


def eq5_ratio(
    hidden: HiddenCountTable,
    runs: RunCountTable,
    x: Setting,
    sign_x: Outcome,
    y: Setting,
    sign_y: Outcome,
) -> Eq5Ratio:
    """Ratio of nine times the observed run count for ordered pair (x, y) to
    the hidden pair marginal from the same ensemble.

    Given the marginal, the observed count is binomial with success rate 1/9
    (the chance that an independent uniform pair choice picks exactly (x, y)),
    which sets the standard error.
    """
    marginal = hidden_marginal(hidden, x, sign_x, y, sign_y)
    if marginal == 0:
        return Eq5Ratio(ratio=math.nan, stderr=math.nan, marginal=0, observed=0)
    observed = runs.count(x, sign_x, y, sign_y)
    p_hat = observed / marginal
    return Eq5Ratio(
        ratio=9.0 * p_hat,
        stderr=9.0 * math.sqrt(max(0.0, p_hat * (1.0 - p_hat)) / marginal),
        marginal=marginal,
        observed=observed,
    )


def eq5_ratios(hidden: HiddenCountTable, runs: RunCountTable) -> dict[tuple, Eq5Ratio]:
    """eq5_ratio of every pair marginal, keyed as PAIR_MARGINAL_KEYS."""
    return {key: eq5_ratio(hidden, runs, *key) for key in PAIR_MARGINAL_KEYS}
