"""Built-in invariant suite behind the `verify` subcommand.

Each item re-derives one of the package's structural guarantees from
scratch at a fixed seed: state normalization and completeness, eigenstate
geometry, perfect correlation of both models, the hidden-count margin
identity, the 1/9 sampling factor, hidden-variable satisfaction of every
observable inequality, Monte Carlo agreement with the closed forms, and
the analytic gradient.  Every item is deterministic for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, inequalities, lhv, qubit, search
from .lhv import Setting
from .qubit import Outcome

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_directions(rng) -> dict:
    """Three random directions, as the a, b, c arguments of ProtocolConfig."""
    return dict(zip("abc", (qubit.random_direction(rng) for _ in range(3))))


# The three state checks compute on floats through qubit's float forms, with
# the draws, in the same order, of the same checks on qubit objects.  Each
# check's first draw goes through the object functions, so they are checked too.


def check_state_normalization(rng) -> CheckResult:
    psi = qubit.random_state(rng, qubit.random_direction(rng))
    ap, am = qubit.amplitudes(psi)
    worst, blochs = abs(abs(ap) ** 2 + abs(am) ** 2 - 1.0), [qubit.bloch_vector(psi).tolist()]
    for _ in range(999):
        e = qubit._random_unit(rng)
        s, phi = qubit._random_amplitude(rng)
        ap, am = qubit._amplitudes(s, phi)
        worst = max(worst, abs(abs(ap) ** 2 + abs(am) ** 2 - 1.0))
        blochs.append(qubit._bloch(s, phi, e))
    # np.linalg.norm of each vector, rounded as it rounds
    norms = np.sqrt(search._stacked_dots(blochs, blochs))
    worst = max(worst, float(np.abs(norms - 1.0).max()))
    return CheckResult("state_normalization", worst <= 1e-12, f"max deviation {worst:.3e}")


def check_born_completeness(rng) -> CheckResult:
    psi = qubit.random_state(rng, qubit.random_direction(rng))
    x = qubit.random_direction(rng)
    worst = abs(qubit.born_prob(psi, x, PLUS) + qubit.born_prob(psi, x, MINUS) - 1.0)
    for _ in range(999):
        e = qubit._random_unit(rng)
        r = qubit._bloch(*qubit._random_amplitude(rng), e)
        x = qubit._random_unit(rng)
        worst = max(worst, abs(qubit._born(r, x, 1) + qubit._born(r, x, -1) - 1.0))
    return CheckResult("born_completeness", worst <= 1e-12, f"max deviation {worst:.3e}")


def check_eigenstate_geometry(rng) -> CheckResult:
    x, e = qubit.random_direction(rng), qubit.random_direction(rng)
    plus, minus = (qubit.bloch_vector(qubit.eigenstate(x, o, e)) for o in (PLUS, MINUS))
    worst_bloch = float(max(np.abs(plus - x.as_array()).max(), np.abs(minus + x.as_array()).max()))
    phase = qubit._uniform(rng, 0.0, 2 * math.pi)
    pair = (qubit.eigenstate(x, o, e, phase) for o in (PLUS, MINUS))
    worst_overlap = abs(qubit.overlap(*pair))
    for _ in range(499):
        x, e = qubit._random_unit(rng), qubit._random_unit(rng)
        plus = qubit._bloch(*qubit._eigen(x, e, True), e)
        minus = qubit._bloch(*qubit._eigen(x, e, False), e)
        worst_bloch = max(
            worst_bloch,
            *(abs(r - v) for r, v in zip(plus, x)),
            *(abs(r + v) for r, v in zip(minus, x)),
        )
        phase = qubit._uniform(rng, 0.0, 2 * math.pi)
        inner = qubit._inner(*qubit._eigen(x, e, True, phase), *qubit._eigen(x, e, False, phase))
        worst_overlap = max(worst_overlap, abs(inner))
    ok = worst_bloch <= 1e-10 and worst_overlap <= 1e-12
    return CheckResult(
        "eigenstate_geometry", ok, f"bloch {worst_bloch:.3e}, overlap {worst_overlap:.3e}"
    )


def _ensemble(seed, n_runs, directions, **population):
    """A free-mode run ensemble at the given directions (as _random_directions
    gives them), of the quantum model for state= or the lhv one for weights=."""
    model = engine.Model.LHV if "weights" in population else engine.Model.QUANTUM
    return engine.run_ensemble(
        engine.ProtocolConfig(model=model, **directions, n_runs=n_runs, seed=seed, **population)
    )


def check_perfect_correlation(rng, seed, model: engine.Model) -> CheckResult:
    directions = _random_directions(rng)
    if model is engine.Model.QUANTUM:
        result = _ensemble(seed, 2 * 10**5, directions, state=qubit.random_state(rng))
    else:
        result = _ensemble(seed, 2 * 10**5, directions, weights=tuple(rng.random(8) + 0.01))
    same, agree = result.table.same_setting_totals()
    ok = same > 0 and agree == same
    return CheckResult(f"perfect_correlation_{model.value}", ok, f"{agree}/{same} same-setting runs agree")


def check_eq4_identity(rng, literal_eq3: bool = False) -> CheckResult:
    """EQ4 margin is non-negative and equals its two-cell decomposition.

    The misprint toggle makes the second half fail on tables supported on
    the a-b+c- reality.
    """
    # one draw of 2000 x 8 gives the values, and leaves the generator in the
    # state, of 2000 draws of 8
    counts = np.vstack([rng.integers(0, 1000, size=(2000, 8)), [0, 0, 0, 0, 0, 5, 0, 0]])
    return _eq4_sweep(counts, literal_eq3)  # the last table: a-b+c- only


def _eq4_sweep(counts: np.ndarray, literal_eq3: bool) -> CheckResult:
    """check_eq4_identity on each row of an (n, 8) hidden count array, in one pass."""
    lhs_cells, rhs_cells = lhv.eq4_cells(literal_eq3)
    margin = counts[:, rhs_cells].sum(1) - counts[:, lhs_cells].sum(1)
    decomposition = counts[:, lhv.EQ4_DECOMPOSITION_CELLS].sum(1)
    failed = np.flatnonzero((margin < 0) | (margin != decomposition))
    if failed.size:
        i = failed[0]
        return CheckResult(
            "eq4_identity",
            False,
            f"margin {float(margin[i])} != decomposition {decomposition[i]} on {counts[i].tolist()}",
        )
    return CheckResult("eq4_identity", True, f"{len(counts)} tables checked")


def check_eq5_sampling_factor(rng, seed) -> CheckResult:
    result = _ensemble(seed, 10**6, _random_directions(rng), weights=(0.125,) * 8)
    worst = 0.0
    for ratio in inequalities.eq5_ratios(result.hidden, result.table).values():
        if ratio.marginal >= 1000:
            worst = max(worst, abs(ratio.ratio - 1.0) / ratio.stderr)
    return CheckResult("eq5_sampling_factor", worst <= 4.0, f"worst deviation {worst:.2f} sigma")


def check_lhv_satisfaction(rng, seed) -> CheckResult:
    worst = math.inf
    for i in range(5):
        result = _ensemble((seed + i) % 2**64, 2 * 10**5, _random_directions(rng), weights=tuple(rng.random(8)))
        _, _, reports = inequalities.evaluate_table(result.table)
        for report in reports:
            if report.defined:
                worst = min(worst, report.n_sigma)
                if report.violated:
                    return CheckResult(
                        "lhv_satisfaction", False, f"{report.inequality_id} violated at {report.n_sigma:.2f} sigma"
                    )
    return CheckResult("lhv_satisfaction", True, f"worst margin {worst:.2f} sigma")


def check_quantum_consistency(rng, seed) -> CheckResult:
    worst = 0.0
    for i in range(3):
        directions = _random_directions(rng)
        psi = qubit.random_state(rng, qubit.random_direction(rng))
        result = _ensemble((seed + i) % 2**64, 2 * 10**5, directions, state=psi)
        law = engine.cell_law(result.config).tolist()
        for x in Setting:
            for y in Setting:
                estimate = inequalities.estimate_pair_prob(result.table, x, PLUS, y, PLUS)
                true = law[x][y][0][0]
                sigma = math.sqrt(true * (1 - true) / estimate.n_conditioning)
                if sigma == 0.0:
                    if estimate.value != true:
                        return CheckResult(
                            "quantum_consistency", False, f"exact cell mismatch at ({x}, {y})"
                        )
                    continue
                worst = max(worst, abs(estimate.value - true) / sigma)
    return CheckResult("quantum_consistency", worst <= 4.0, f"worst deviation {worst:.2f} sigma")


def check_gradient(rng) -> CheckResult:
    worst = 0.0
    for kind in ("EQ16", "EQ18"):
        for _ in range(100):
            base = search._random_start(rng)
            exact = search.gradient(kind, base).tolist()
            for i in range(6):
                h = 1e-5
                up, down = base.copy(), base.copy()
                up[i] += h
                down[i] -= h
                approx = (search.objective(kind, up) - search.objective(kind, down)) / (2 * h)
                scale = max(1.0, abs(exact[i]))
                worst = max(worst, abs(exact[i] - approx) / scale)
    return CheckResult("gradient_finite_difference", worst <= 1e-6, f"worst rel err {worst:.3e}")


def run_verification(seed: int = 42, literal_eq3: bool = False) -> list[CheckResult]:
    if not 0 <= seed < 2**64:
        raise engine.ConfigError(f"seed must be a non-negative 64-bit integer, got {seed}")
    rng = np.random.default_rng(seed)
    return [
        check_state_normalization(rng),
        check_born_completeness(rng),
        check_eigenstate_geometry(rng),
        check_perfect_correlation(rng, seed, engine.Model.QUANTUM),
        check_perfect_correlation(rng, seed, engine.Model.LHV),
        check_eq4_identity(rng, literal_eq3=literal_eq3),
        check_eq5_sampling_factor(rng, seed),
        check_lhv_satisfaction(rng, seed),
        check_quantum_consistency(rng, seed),
        check_gradient(rng),
    ]
