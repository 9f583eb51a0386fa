"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Statistical criteria run at pinned seeds (checked against
neighbouring seeds during development, so none of them is an outlier).

Criterion 8 carries one deliberately red assertion: the stated 1-degree
grid-oracle value for the EQ18 objective (2.0 +/- 5e-4) is contradicted by
every independent oracle.  The exhaustive scan, an exact reduced 2-D scan
over the Gram boundary, and random sampling all locate the global maximum
at 7/3 (coplanar configuration with a.b = b.c = 1/3); the antipodal
configuration giving 2.0 is only a local maximum.  The assertion is kept
as stated rather than silently corrected; the surrounding checks pin the
true landscape.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import seqbell

from seqbell.engine import (
    Mode,
    Model,
    ProtocolConfig,
    run_ensemble,
)
from seqbell.inequalities import (
    check_count_inequality,
    eq5_ratio,
    estimate_expectation,
    estimate_pair_prob,
    eval_eq6,
    eval_eq7,
    eval_eq8,
    eval_eq10,
    lhs16,
    lhs18,
    quantum_pair_prob,
)
from seqbell.lhv import Setting, TripleDistribution
from seqbell.qubit import (
    Direction,
    Outcome,
    dot,
    random_direction,
    random_state,
    state_from_bloch,
)
from seqbell.search import (
    SearchConfig,
    TripleConfiguration,
    gradient,
    grid_oracle,
    maximize,
    objective,
)

A, B, C = Setting.A, Setting.B, Setting.C
PLUS, MINUS = Outcome.PLUS, Outcome.MINUS
SQRT2 = math.sqrt(2.0)
ONE_DEGREE = math.pi / 180

X_AXIS = Direction(1.0, 0.0, 0.0)
Y_AXIS = Direction(0.0, 1.0, 0.0)


def report_line(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def eq16_triple():
    b, c = X_AXIS, Y_AXIS
    a = Direction.from_array((b.as_array() - c.as_array()) / SQRT2)
    return a, b, c


def eq18_triple():
    a, c = X_AXIS, Y_AXIS
    b = Direction.from_array((a.as_array() + c.as_array()) / SQRT2)
    return a, b, c


def eq7_probs(table):
    return (
        estimate_pair_prob(table, A, PLUS, C, MINUS),
        estimate_pair_prob(table, A, PLUS, B, MINUS),
        estimate_pair_prob(table, B, PLUS, C, MINUS),
    )


class TestCriterion1ClosedFormValues:
    def test_reference_configuration_values(self):
        v16 = lhs16(*eq16_triple())
        v18 = lhs18(*eq18_triple())
        ok = abs(v16 - SQRT2) <= 1e-12 and abs(v18 - (SQRT2 + 0.5)) <= 1e-12
        assert report_line(
            1, ok, f"lhs16 = {v16!r} (target sqrt(2)), lhs18 = {v18!r} (target sqrt(2)+1/2)"
        )


class TestCriterion2StateIndependence:
    def test_signed_probability_sum_equals_dot(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(1000):
            psi = random_state(rng, random_direction(rng))
            x, y = random_direction(rng), random_direction(rng)
            total = sum(
                int(sx) * int(sy) * quantum_pair_prob(psi, x, sx, y, sy)
                for sx in (PLUS, MINUS)
                for sy in (PLUS, MINUS)
            )
            worst = max(worst, abs(total - dot(x, y)))
        assert report_line(2, worst <= 1e-12, f"max |E - x.y| = {worst:.3e} over 1000 states")


class TestCriterion3QuantumMonteCarlo:
    def test_twenty_random_configurations(self):
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        exceedances = 0
        comparisons = 0
        for i in range(20):
            dirs = tuple(random_direction(rng) for _ in range(3))
            psi = random_state(rng, random_direction(rng))
            config = ProtocolConfig(
                mode=Mode.FREE,
                model=Model.QUANTUM,
                **dict(zip("abc", dirs)),
                n_runs=10**6,
                seed=1000 + i,
                state=psi,
            )
            result = run_ensemble(config)
            for x in Setting:
                for y in Setting:
                    est = estimate_pair_prob(result.table, x, PLUS, y, PLUS)
                    true = quantum_pair_prob(psi, dirs[x], PLUS, dirs[y], PLUS)
                    sigma = math.sqrt(true * (1 - true) / est.n_conditioning)
                    comparisons += 1
                    if sigma == 0.0:
                        exceedances += est.value != true
                    else:
                        exceedances += abs(est.value - true) > 4 * sigma
        elapsed = time.perf_counter() - start
        ok = exceedances <= 1 and elapsed < 60.0
        assert report_line(
            3,
            ok,
            f"{exceedances}/{comparisons} comparisons beyond 4 sigma (allowed 1), {elapsed:.1f}s (< 60s)",
        )


class TestCriterion4QuantumViolation:
    def test_prepared_protocol_violates_eq7(self):
        a, b, c = eq18_triple()
        config = ProtocolConfig(
            mode=Mode.PREPARED,
            model=Model.QUANTUM,
            a=a,
            b=b,
            c=c,
            n_runs=10**6,
            seed=4,
            state=state_from_bloch(a.as_array()),
        )
        start = time.perf_counter()
        result = run_ensemble(config)
        probs = eq7_probs(result.table)
        report = eval_eq7(*probs, 5.0)
        lhs18_hat = 1.0 - 4.0 * report.margin
        elapsed = time.perf_counter() - start
        ok = (
            report.margin < 0
            and report.n_sigma <= -5.0
            and 1.85 <= lhs18_hat <= 1.97
            and elapsed < 10.0
        )
        assert report_line(
            4,
            ok,
            f"margin {report.margin:.5f} at {report.n_sigma:.1f} sigma, "
            f"lhs18 estimate {lhs18_hat:.4f} in [1.85, 1.97], {elapsed:.2f}s (< 10s)",
        )


class TestCriterion5LhvSatisfaction:
    def test_fifty_random_distributions(self):
        rng = np.random.default_rng(1)
        worst_sigma = math.inf
        eq4_exact = True
        for i in range(50):
            dist = TripleDistribution(rng.random(8))
            dirs = tuple(random_direction(rng) for _ in range(3))
            config = ProtocolConfig(
                mode=Mode.FREE,
                model=Model.LHV,
                **dict(zip("abc", dirs)),
                n_runs=10**6,
                seed=100 + i,
                weights=tuple(dist.weights),
            )
            result = run_ensemble(config)
            table = result.table
            reports = [
                eval_eq6(table, 5.0),
                eval_eq7(*eq7_probs(table), 5.0),
                eval_eq8(
                    estimate_pair_prob(table, A, MINUS, C, PLUS),
                    estimate_pair_prob(table, A, MINUS, B, PLUS),
                    estimate_pair_prob(table, B, MINUS, C, PLUS),
                    5.0,
                ),
                eval_eq10(
                    estimate_expectation(table, A, B),
                    estimate_expectation(table, B, C),
                    estimate_expectation(table, A, C),
                    5.0,
                ),
            ]
            for rep in reports:
                assert rep.defined
                if rep.violated:
                    assert report_line(
                        5, False, f"{rep.inequality_id} violated at {rep.n_sigma:.2f} sigma"
                    )
                if math.isfinite(rep.n_sigma):
                    worst_sigma = min(worst_sigma, rep.n_sigma)
            hidden_report = check_count_inequality(result.hidden)
            eq4_exact = eq4_exact and hidden_report.margin >= 0 and not hidden_report.violated
        ok = eq4_exact and worst_sigma > -5.0
        assert report_line(
            5,
            ok,
            f"50 distributions, worst observable margin {worst_sigma:.2f} sigma, "
            f"hidden-count inequality exact on every table: {eq4_exact}",
        )


class TestCriterion6SamplingFactor:
    def test_ratio_against_exact_binomial_sigma(self):
        rng = np.random.default_rng(10)
        distributions = [
            TripleDistribution(np.full(8, 0.125)),
            TripleDistribution(rng.random(8)),
            TripleDistribution([0.1, 0, 0.6, 0, 0, 0.3, 0, 0]),  # a+b+c+, a+b-c+, a-b+c-
        ]
        worst = 0.0
        checked = 0
        for i, dist in enumerate(distributions):
            config = ProtocolConfig(
                mode=Mode.FREE,
                model=Model.LHV,
                **dict(zip("abc", (random_direction(rng) for _ in range(3)))),
                n_runs=10**6,
                seed=10 + i,
                weights=tuple(dist.weights),
            )
            result = run_ensemble(config)
            for x in Setting:
                for y in Setting:
                    if x == y:
                        continue
                    for sx in (PLUS, MINUS):
                        for sy in (PLUS, MINUS):
                            ratio = eq5_ratio(result.hidden, result.table, x, sx, y, sy)
                            if ratio.marginal < 1000:
                                continue
                            checked += 1
                            sigma = math.sqrt(8.0 / ratio.marginal)  # binomial at rate 1/9
                            worst = max(worst, abs(ratio.ratio - 1.0) / sigma)
        ok = worst <= 3.0 and checked > 0
        assert report_line(
            6, ok, f"worst ratio deviation {worst:.2f} sigma over {checked} pair marginals"
        )


class TestCriterion7PerfectCorrelation:
    def test_same_setting_agreement_both_models(self):
        quantum = ProtocolConfig(
            mode=Mode.FREE,
            model=Model.QUANTUM,
            a=X_AXIS,
            b=Y_AXIS,
            c=Direction(0.0, 0.0, 1.0),
            n_runs=4 * 10**5,
            seed=70,
            state=random_state(np.random.default_rng(7)),
        )
        lhv = ProtocolConfig(
            mode=Mode.FREE,
            model=Model.LHV,
            a=X_AXIS,
            b=Y_AXIS,
            c=Direction(0.0, 0.0, 1.0),
            n_runs=4 * 10**5,
            seed=71,
            weights=tuple(np.random.default_rng(7).random(8)),
        )
        details = []
        ok = True
        for config in (quantum, lhv):
            result = run_ensemble(config)
            same, agree = result.table.same_setting_totals()
            ok = ok and same >= 10**5 and agree == same
            details.append(f"{config.model.value}: {agree}/{same}")
        assert report_line(7, ok, "same-setting agreement " + ", ".join(details))


class TestCriterion8Optimizer:
    def test_multistart_reaches_stated_floors(self):
        v16 = maximize(SearchConfig(objective="EQ16", n_starts=20, seed=11)).value
        v18 = maximize(SearchConfig(objective="EQ18", n_starts=20, seed=11)).value
        ok = v16 >= 1.49 and v18 >= 1.99
        assert report_line(
            8, ok, f"maximize: EQ16 {v16:.6f} (>= 1.49), EQ18 {v18:.6f} (>= 1.99)"
        )

    def test_grid_oracle_eq16_value(self):
        value = grid_oracle("EQ16", ONE_DEGREE)
        ok = abs(value - 1.5) <= 5e-4
        assert report_line(8, ok, f"grid oracle EQ16 at 1 degree: {value!r} (1.5 +/- 5e-4)")

    def test_grid_oracle_eq18_value_as_stated(self):
        # Red by design: the exhaustive scan finds the true global maximum
        # near 7/3 at the coplanar arccos(1/3) configuration, so it cannot
        # report the antipodal local maximum 2.0.  See the module docstring.
        value = grid_oracle("EQ18", ONE_DEGREE)
        ok = abs(value - 2.0) <= 5e-4
        report_line(
            8,
            ok,
            f"grid oracle EQ18 at 1 degree: {value!r} (stated target 2.0 +/- 5e-4; "
            f"true maximum 7/3 = {7 / 3!r})",
        )
        assert ok, (
            f"exhaustive 1-degree scan reports {value!r}, within "
            f"{7 / 3 - value:.2e} of the global maximum 7/3; the antipodal "
            "configuration (value 2.0) is only a local maximum"
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(88)
        worst = 0.0
        for kind in ("EQ16", "EQ18"):
            for _ in range(100):
                config = TripleConfiguration.from_array(
                    np.concatenate(
                        [
                            [math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)]
                            for _ in range(3)
                        ]
                    )
                )
                exact = gradient(kind, config)
                base = config.as_array()
                for i in range(6):
                    h = 1e-5
                    up, down = base.copy(), base.copy()
                    up[i] += h
                    down[i] -= h
                    approx = (
                        objective(kind, TripleConfiguration.from_array(up))
                        - objective(kind, TripleConfiguration.from_array(down))
                    ) / (2 * h)
                    worst = max(worst, abs(exact[i] - approx) / max(1.0, abs(exact[i])))
        ok = worst <= 1e-6
        assert report_line(8, ok, f"gradient vs central differences: worst rel err {worst:.3e}")


class TestCriterion9Determinism:
    @staticmethod
    def _run(args):
        # the child imports the same seqbell as this process, PYTHONPATH set or not
        src = str(Path(seqbell.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "seqbell.cli", *args],
            capture_output=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_simulate_and_optimize_byte_identical(self, tmp_path):
        sim_args = ["simulate", "--runs", "100000", "--seed", "7", "--format", "structured"]
        outputs = {}
        for tag, workers in (("w1a", "1"), ("w1b", "1"), ("w8", "8")):
            out_dir = tmp_path / tag
            stdout = self._run(sim_args + ["--workers", workers, "--out", str(out_dir)])
            outputs[tag] = (stdout, (out_dir / "report.txt").read_bytes(),
                            (out_dir / "counts.csv").read_bytes())
        sim_ok = outputs["w1a"] == outputs["w1b"] == outputs["w8"]

        opt_args = ["optimize", "--objective", "eq18", "--starts", "10", "--seed", "3",
                    "--format", "structured"]
        opt_ok = self._run(opt_args) == self._run(opt_args)
        ok = sim_ok and opt_ok
        assert report_line(
            9,
            ok,
            f"simulate byte-identical across repeats and workers 1/8: {sim_ok}; "
            f"optimize repeat identical: {opt_ok}",
        )
