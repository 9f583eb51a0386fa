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
from .lhv import PAIR_MARGINAL_KEYS, HiddenCountTable, Setting
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


def check_state_normalization(rng) -> CheckResult:
    worst = 0.0
    for _ in range(1000):
        psi = qubit.random_state(rng, qubit.random_direction(rng))
        ap, am = qubit.amplitudes(psi)
        worst = max(worst, abs(abs(ap) ** 2 + abs(am) ** 2 - 1.0))
        worst = max(worst, abs(float(np.linalg.norm(qubit.bloch_vector(psi))) - 1.0))
    return CheckResult("state_normalization", worst <= 1e-12, f"max deviation {worst:.3e}")


def check_born_completeness(rng) -> CheckResult:
    worst = 0.0
    for _ in range(1000):
        psi = qubit.random_state(rng, qubit.random_direction(rng))
        x = qubit.random_direction(rng)
        total = qubit.born_prob(psi, x, PLUS) + qubit.born_prob(psi, x, MINUS)
        worst = max(worst, abs(total - 1.0))
    return CheckResult("born_completeness", worst <= 1e-12, f"max deviation {worst:.3e}")


def check_eigenstate_geometry(rng) -> CheckResult:
    worst_bloch, worst_overlap = 0.0, 0.0
    for _ in range(500):
        x, e = qubit.random_direction(rng), qubit.random_direction(rng)
        plus = qubit.eigenstate(x, PLUS, e)
        minus = qubit.eigenstate(x, MINUS, e)
        worst_bloch = max(
            worst_bloch,
            float(np.max(np.abs(qubit.bloch_vector(plus) - x.as_array()))),
            float(np.max(np.abs(qubit.bloch_vector(minus) + x.as_array()))),
        )
        phase = rng.uniform(0, 2 * math.pi)
        worst_overlap = max(
            worst_overlap,
            abs(qubit.overlap(qubit.eigenstate(x, PLUS, e, phase), qubit.eigenstate(x, MINUS, e, phase))),
        )
    ok = worst_bloch <= 1e-10 and worst_overlap <= 1e-12
    return CheckResult(
        "eigenstate_geometry", ok, f"bloch {worst_bloch:.3e}, overlap {worst_overlap:.3e}"
    )


def _perfect_correlation(config) -> CheckResult:
    result = engine.run_ensemble(config)
    same, agree = result.table.same_setting_totals()
    ok = same > 0 and agree == same
    return CheckResult(
        f"perfect_correlation_{config.model.value}", ok, f"{agree}/{same} same-setting runs agree"
    )


def check_perfect_correlation_quantum(rng, seed) -> CheckResult:
    config = engine.ProtocolConfig(
        mode=engine.Mode.FREE,
        model=engine.Model.QUANTUM,
        **_random_directions(rng),
        n_runs=2 * 10**5,
        seed=seed,
        state=qubit.random_state(rng),
    )
    return _perfect_correlation(config)


def check_perfect_correlation_lhv(rng, seed) -> CheckResult:
    config = engine.ProtocolConfig(
        mode=engine.Mode.FREE,
        model=engine.Model.LHV,
        **_random_directions(rng),
        n_runs=2 * 10**5,
        seed=seed,
        weights=tuple(rng.random(8) + 0.01),
    )
    return _perfect_correlation(config)


def check_eq4_identity(rng, literal_eq3: bool = False) -> CheckResult:
    """EQ4 margin is non-negative and equals its two-cell decomposition.

    The misprint toggle makes the second half fail on tables supported on
    the a-b+c- reality.
    """
    # one draw of 2000 x 8 gives the values, and leaves the generator in the
    # state, of 2000 draws of 8
    tables = [HiddenCountTable(row) for row in rng.integers(0, 1000, size=(2000, 8))]
    tables.append(HiddenCountTable(np.array([0, 0, 0, 0, 0, 5, 0, 0])))  # a-b+c- only
    for table in tables:
        report = lhv.check_count_inequality(table, literal_eq3=literal_eq3)
        if report.margin < 0 or report.margin != lhv.count_inequality_decomposition(table):
            return CheckResult(
                "eq4_identity",
                False,
                f"margin {report.margin} != decomposition "
                f"{lhv.count_inequality_decomposition(table)} on {table.counts.tolist()}",
            )
    return CheckResult("eq4_identity", True, f"{len(tables)} tables checked")


def check_eq5_sampling_factor(rng, seed) -> CheckResult:
    config = engine.ProtocolConfig(
        mode=engine.Mode.FREE,
        model=engine.Model.LHV,
        **_random_directions(rng),
        n_runs=10**6,
        seed=seed,
        weights=(0.125,) * 8,
    )
    result = engine.run_ensemble(config)
    worst = 0.0
    for key in PAIR_MARGINAL_KEYS:
        ratio = inequalities.eq5_ratio(result.hidden, result.table, *key)
        if ratio.marginal >= 1000:
            worst = max(worst, abs(ratio.ratio - 1.0) / ratio.stderr)
    return CheckResult("eq5_sampling_factor", worst <= 4.0, f"worst deviation {worst:.2f} sigma")


def check_lhv_satisfaction(rng, seed) -> CheckResult:
    worst = math.inf
    for i in range(5):
        config = engine.ProtocolConfig(
            mode=engine.Mode.FREE,
            model=engine.Model.LHV,
            **_random_directions(rng),
            n_runs=2 * 10**5,
            seed=seed + i,
            weights=tuple(rng.random(8)),
        )
        result = engine.run_ensemble(config)
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
        config = engine.ProtocolConfig(
            mode=engine.Mode.FREE,
            model=engine.Model.QUANTUM,
            **directions,
            n_runs=2 * 10**5,
            seed=seed + i,
            state=psi,
        )
        result = engine.run_ensemble(config)
        for x in Setting:
            for y in Setting:
                estimate = engine.estimate_pair_prob(result.table, x, PLUS, y, PLUS)
                true = inequalities.quantum_pair_prob(
                    psi, config.directions[x], PLUS, config.directions[y], PLUS
                )
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
            base = []
            for _ in range(3):
                base += (math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
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
        check_perfect_correlation_quantum(rng, seed),
        check_perfect_correlation_lhv(rng, seed),
        check_eq4_identity(rng, literal_eq3=literal_eq3),
        check_eq5_sampling_factor(rng, seed),
        check_lhv_satisfaction(rng, seed),
        check_quantum_consistency(rng, seed),
        check_gradient(rng),
    ]
