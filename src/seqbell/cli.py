"""Command line interface: predict | simulate | optimize | verify.

All numeric output in structured mode is full-precision key = value lines;
two invocations with the same config and seed print byte-identical reports
regardless of the worker count.  Inequality violations are scientific
results and never affect the exit status; only configuration and I/O
errors do.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import REPORT_FORMATS, ExperimentConfig, apply_overrides, load_config, parse_config
from .engine import (
    ConfigError,
    Mode,
    Model,
    cell_law,
    run_ensemble,
    run_two_series,
    two_series_estimate,
    write_run_log,
)
from .inequalities import (
    EQ7_PROBS,
    EQ8_PROBS,
    PAIRS,
    eq5_ratio,
    eq16_report,
    eq18_report,
    eval_eq4,
    eval_eq10,
    evaluate_table,
    lhs16,
    lhs18,
)
from .lhv import PAIR_MARGINAL_KEYS
from .qubit import Outcome, dot
from .reporting import InequalityReport, kv_line, kv_lines, report_lines, report_table_row
from .search import (
    OBJECTIVE_KINDS,
    SearchConfig,
    grid_oracle,
    maximize,
    objective,
    reference_configuration,
)
from .verify import run_verification

ALL_PROBS = EQ7_PROBS + EQ8_PROBS
_SIGN = {Outcome.PLUS: "+", Outcome.MINUS: "-"}


def _prob_key(x, sx, y, sy, sep=".") -> str:
    return f"{x.name}{_SIGN[sx]}{sep}{y.name}{_SIGN[sy]}"


def _keys(prefix: str, fields) -> tuple[str, ...]:
    return tuple(f"{prefix}.{field} = " for field in fields)


# the structured keys of the estimate and eq5 blocks, built once
_ESTIMATE_FIELDS = ("defined", "value", "stderr", "n", "low_stats")
_E_KEYS = {(x, y): _keys(f"estimate.E.{x.name}.{y.name}", _ESTIMATE_FIELDS) for x, y in PAIRS}
_P_KEYS = {key: _keys(f"estimate.P.{_prob_key(*key)}", _ESTIMATE_FIELDS) for key in ALL_PROBS}
_EQ5_KEYS = {
    key: _keys(f"eq5.{_prob_key(*key)}", ("defined", "ratio", "stderr", "marginal", "observed"))
    for key in PAIR_MARGINAL_KEYS
}


def _direction_lines(directions) -> list[str]:
    return [f"  {n} = ({d.x:+.6f}, {d.y:+.6f}, {d.z:+.6f})" for n, d in zip("abc", directions)]


# ---------------------------------------------------------------------------
# shared report pieces


def _structured(command: str, config: ExperimentConfig | None, lines: list[str]) -> str:
    """A structured report: the header, the config block if any, then lines."""
    head = ["format = structured", f"command = {command}"]
    if config is not None:
        head.append(kv_line("config.digest", config.digest()))
        head += [f"config.{line}" for line in config.protocol_lines()]
    return "\n".join(head + lines) + "\n"


def _estimate_lines(keys: tuple[str, ...], est) -> list[str]:
    return kv_lines(keys, (est.defined, est.value, est.stderr, est.n_conditioning, est.low_stats))


def _estimate_row(label: str, value: str, est, flag_low_stats: bool = True) -> str:
    flag = "  [low statistics]" if flag_low_stats and est.low_stats else ""
    return f"  {label} = {value} +/- {est.stderr:.6f}  [n={est.n_conditioning}]{flag}"


def _inequality_lines(reports, structured: bool) -> list[str]:
    if structured:
        return [line for r in reports for line in report_lines(r, f"inequality.{r.inequality_id}")]
    return ["  " + report_table_row(r) for r in reports]


# ---------------------------------------------------------------------------
# predict


def _exact_pair_probs(config: ExperimentConfig, use_prep: bool) -> dict[tuple, float]:
    """The six inequality probabilities in exact closed form."""
    law = cell_law(replace(config, mode=Mode.PREPARED if use_prep else Mode.FREE))
    return {
        (x, sx, y, sy): float(law[x, y, int(sx < 0), int(sy < 0)]) for x, sx, y, sy in ALL_PROBS
    }


def build_predict_report(config: ExperimentConfig, use_prep: bool) -> str:
    a, b, c = config.directions
    sigma = config.sigma
    reports = [
        eq16_report(a, b, c, sigma),
        eq18_report(a, b, c, sigma),
        InequalityReport("EQ10", dot(a, b) + dot(b, c) - dot(a, c), 1.0, sigma_threshold=sigma),
    ]
    probs = _exact_pair_probs(config, use_prep)
    triplets = [
        InequalityReport(eq, probs[lhs], probs[rhs1] + probs[rhs2], sigma_threshold=sigma)
        for eq, (lhs, rhs1, rhs2) in (("EQ7", EQ7_PROBS), ("EQ8", EQ8_PROBS))
    ]

    if config.report_format == "structured":
        lines = [
            kv_line("predict.prep_state_used", use_prep),
            kv_line("dot.ab", dot(a, b)),
            kv_line("dot.bc", dot(b, c)),
            kv_line("dot.ac", dot(a, c)),
            kv_line("closed.lhs16", lhs16(a, b, c)),
            kv_line("closed.lhs18", lhs18(a, b, c)),
        ]
        lines += _inequality_lines(reports, structured=True)
        lines += [kv_line(f"prob.P.{_prob_key(*key)}", value) for key, value in probs.items()]
        lines += _inequality_lines(triplets, structured=True)
        return _structured("predict", config, lines)

    lines = [
        "exact predictions (no sampling)",
        f"config digest: {config.digest()}",
        *_direction_lines(config.directions),
        f"  a.b = {dot(a, b):+.9f}   b.c = {dot(b, c):+.9f}   a.c = {dot(a, c):+.9f}",
        "",
        f"lhs16 = {lhs16(a, b, c):.15f}",
        f"lhs18 = {lhs18(a, b, c):.15f}",
        "",
        "inequalities (closed form):",
    ]
    lines += _inequality_lines(reports, structured=False)
    source = "preparation eigenstate" if use_prep else (
        "configured state" if config.model is Model.QUANTUM else "configured weights"
    )
    lines += ["", f"pair probabilities from the {source}:"]
    lines += [f"  P({_prob_key(*key, sep=',')}) = {value:.9f}" for key, value in probs.items()]
    lines += ["", "inequalities (probability form):"]
    lines += _inequality_lines(triplets, structured=False)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# simulate


def build_simulate_report(config: ExperimentConfig, result, result_minus=None) -> str:
    structured = config.report_format == "structured"
    if result_minus is not None:
        return _build_two_series_report(config, result, result_minus, structured)
    table, hidden = result.table, result.hidden
    expectations, probs, reports = evaluate_table(table, config.sigma)
    _, eq7, _, eq10 = reports
    if hidden is not None:
        reports.append(eval_eq4(hidden, config.sigma))
    same, agree = table.same_setting_totals()
    # ** 0.5 here and math.sqrt in EQ10's stderr can differ in the last bit
    lhs16_err = sum(e.stderr**2 for e in expectations.values()) ** 0.5
    # lhs18 = 1 - 4 * margin7; both nan when EQ7 is undefined
    lhs18_est = 1.0 - 4.0 * eq7.margin
    lhs18_err = 4.0 * eq7.stderr_margin if eq7.defined else float("nan")

    if structured:
        lines = [
            kv_line("result.total_runs", table.total_runs),
            kv_line("result.same_setting_runs", same),
            kv_line("result.same_setting_agreement", agree / same if same else float("nan")),
        ]
        for pair, est in expectations.items():
            lines += _estimate_lines(_E_KEYS[pair], est)
        for key, prob in probs.items():
            lines += _estimate_lines(_P_KEYS[key], prob)
        lines += [
            kv_line("derived.lhs16.value", eq10.lhs),
            kv_line("derived.lhs16.stderr", lhs16_err),
            kv_line("derived.lhs18.value", lhs18_est),
            kv_line("derived.lhs18.stderr", lhs18_err),
        ]
        lines += _inequality_lines(reports, structured=True)
        if hidden is not None:
            for key in PAIR_MARGINAL_KEYS:
                ratio = eq5_ratio(hidden, table, *key)
                values = (True, *ratio) if ratio.defined else (False,)
                lines += kv_lines(_EQ5_KEYS[key], values)
        return _structured("simulate", config, lines)

    lines = [
        f"run ensemble report ({config.model.value}, {config.mode.value} mode)",
        f"config digest: {config.digest()}",
        f"runs: {table.total_runs}   seed: {config.seed}",
        f"same-setting runs: {same}   agreement: "
        + (f"{agree / same:.6f}" if same else "undefined"),
        "",
        "expectation estimates:",
    ]
    lines += [
        _estimate_row(f"E({x.name},{y.name})", f"{est.value:+.6f}", est)
        for (x, y), est in expectations.items()
    ]
    lines += ["", "pair probability estimates:"]
    lines += [
        _estimate_row(f"P({_prob_key(*key, sep=',')})", f"{prob.value:.6f}", prob)
        for key, prob in probs.items()
    ]
    lines += [
        "",
        f"derived lhs16 = {eq10.lhs:+.6f} +/- {lhs16_err:.6f}",
        f"derived lhs18 = {lhs18_est:+.6f} +/- {lhs18_err:.6f}",
        "",
        "inequalities:",
    ]
    lines += _inequality_lines(reports, structured=False)
    if hidden is not None:
        lines += ["", "sampling-factor ratios (expected 1):"]
        for key in ALL_PROBS:
            ratio = eq5_ratio(hidden, table, *key)
            if ratio.defined:
                lines.append(
                    f"  9 N[{_prob_key(*key, sep='')}] / N(...) = "
                    f"{ratio.ratio:.6f} +/- {ratio.stderr:.6f}"
                )
    return "\n".join(lines) + "\n"


def _build_two_series_report(config, plus, minus, structured) -> str:
    estimates = {(x, y): two_series_estimate(plus.table, minus.table, x, y) for (x, y) in PAIRS}
    eq10 = eval_eq10(*estimates.values(), config.sigma)
    if structured:
        lines = [
            kv_line("result.series_plus_runs", plus.table.total_runs),
            kv_line("result.series_minus_runs", minus.table.total_runs),
        ]
        for pair, est in estimates.items():
            lines += _estimate_lines(_E_KEYS[pair], est)
        lines.append(kv_line("derived.lhs16.value", eq10.lhs))  # nan when undefined
        lines += _inequality_lines([eq10], structured=True)
        return _structured("simulate", config, lines)
    lines = [
        f"two-series report ({config.model.value})",
        f"config digest: {config.digest()}",
        f"series runs: {plus.table.total_runs} (+1 series), {minus.table.total_runs} (-1 series)",
        "",
        "combined expectation estimates:",
    ]
    lines += [
        _estimate_row(f"E({x.name},{y.name})", f"{est.value:+.6f}", est, flag_low_stats=False)
        for (x, y), est in estimates.items()
    ]
    lines += [""] + _inequality_lines([eq10], structured=False)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# optimize


def build_optimize_report(config: ExperimentConfig, settings: SearchConfig, use_reference_start: bool) -> str:
    kind = settings.objective
    initial = reference_configuration(kind) if use_reference_start else None
    result = maximize(settings, initial=initial)
    grid_value = grid_oracle(kind, settings.grid_resolution)
    reference_value = objective(kind, reference_configuration(kind))
    discrepancy = result.value < grid_value - 1e-3
    directions = result.configuration.directions()

    if config.report_format == "structured":
        lines = [
            kv_line("objective", kind),
            kv_line("search.n_starts", settings.n_starts),
            kv_line("search.seed", settings.seed),
            kv_line("search.step_tolerance", settings.step_tolerance),
            kv_line("search.max_iterations", settings.max_iterations),
            kv_line("search.reference_start", use_reference_start),
            kv_line("search.value", result.value),
            kv_line("search.gradient_norm", result.gradient_norm),
            kv_line("search.converged", result.converged),
        ]
        lines += [
            kv_line(f"search.angles.{name}", getattr(result.configuration, name))
            for name in ("theta_a", "phi_a", "theta_b", "phi_b", "theta_c", "phi_c")
        ]
        lines += [
            kv_line(f"search.directions.{name}.{axis}", getattr(d, axis))
            for name, d in zip("abc", directions)
            for axis in "xyz"
        ]
        lines += [
            kv_line("grid.resolution", settings.grid_resolution),
            kv_line("grid.value", grid_value),
            kv_line("reference_point.value", reference_value),
            kv_line("discrepancy", discrepancy),
        ]
        return _structured("optimize", None, lines)

    lines = [
        f"violation search for {kind}",
        f"multi-start ascent: {settings.n_starts} starts, seed {settings.seed}"
        + (", first start at the reference configuration" if use_reference_start else ""),
        f"  best value      = {result.value:.12f}",
        f"  gradient norm   = {result.gradient_norm:.3e}",
        f"  converged       = {result.converged}",
        *_direction_lines(directions),
        f"grid oracle at {settings.grid_resolution:.6f} rad = {grid_value:.12f}",
        f"reference configuration value = {reference_value:.12f}",
    ]
    if discrepancy:
        lines.append("WARNING: multi-start result trails the grid oracle by more than 1e-3")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry points


def _load(args) -> ExperimentConfig:
    """The config file, or the defaults, with the flags laid over it; checked once."""
    overrides = dict(
        seed=args.seed,
        n_runs=getattr(args, "runs", None),
        report_format=args.format,
        sigma=args.sigma,
        out_dir=args.out,
        log_runs=getattr(args, "log_runs", None),
    )
    return load_config(args.config, **overrides) if args.config else parse_config(**overrides)


def _make_out_dir(config: ExperimentConfig) -> Path | None:
    """Create the output directory, if any, before any work is done."""
    if config.out_dir is None:
        return None
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_outputs(out: Path, config: ExperimentConfig, text: str, results: dict) -> None:
    (out / "report.txt").write_text(text, encoding="utf-8")
    for suffix, result in results.items():
        (out / f"counts{suffix}.csv").write_text(result.table.to_csv_text(), encoding="utf-8")
        if config.log_runs:
            with open(out / f"runs{suffix}.csv", "w", encoding="utf-8", newline="") as fh:
                write_run_log(result, fh)


def cmd_predict(args) -> int:
    config = _load(args)
    out = _make_out_dir(config)
    text = build_predict_report(config, use_prep=args.prep)
    sys.stdout.write(text)
    if out is not None:
        (out / "predict.txt").write_text(text, encoding="utf-8")
    return 0


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    config = _load(args)
    out = _make_out_dir(config)
    if config.mode is Mode.TWO_SERIES:
        plus, minus = run_two_series(config, workers=args.workers)
        text = build_simulate_report(config, plus, minus)
        results = {"_plus": plus, "_minus": minus}
    else:
        result = run_ensemble(config, workers=args.workers)
        text = build_simulate_report(config, result)
        results = {"": result}
    sys.stdout.write(text)
    if out is not None:
        _write_outputs(out, config, text, results)
    return 0


def cmd_optimize(args) -> int:
    config = _load(args)
    settings = apply_overrides(
        config.optimizer or SearchConfig(),
        objective=args.objective,
        n_starts=args.starts,
        seed=args.seed,
    )
    out = _make_out_dir(config)
    text = build_optimize_report(config, settings, use_reference_start=args.reference_start)
    sys.stdout.write(text)
    if out is not None:
        (out / "optimize.txt").write_text(text, encoding="utf-8")
    return 0


def cmd_verify(args) -> int:
    results = run_verification(seed=args.seed, literal_eq3=args.use_literal_eq3)
    all_ok = all(r.passed for r in results)
    if args.format == "structured":
        lines = [kv_line("seed", args.seed)]
        for r in results:
            lines.append(kv_line(f"check.{r.name}", "pass" if r.passed else "fail"))
            lines.append(kv_line(f"check.{r.name}.detail", r.detail))
        lines.append(kv_line("verify.ok", all_ok))
        sys.stdout.write(_structured("verify", None, lines))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"{status}  {r.name:<30} {r.detail}\n")
        sys.stdout.write(("all checks passed" if all_ok else "SOME CHECKS FAILED") + "\n")
    return 0 if all_ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqbell",
        description="temporal Bell inequalities for consecutive measurements",
    )
    parser.add_argument("--version", action="version", version=f"seqbell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="experiment config file")
        p.add_argument("--seed", type=int, metavar="N")
        p.add_argument("--format", choices=REPORT_FORMATS)
        p.add_argument("--sigma", type=float, metavar="K", help="violation significance threshold")
        p.add_argument("--out", metavar="DIR", help="directory for report and CSV outputs")

    p_predict = sub.add_parser("predict", help="exact closed-form predictions, no sampling")
    common(p_predict)
    p_predict.add_argument(
        "--prep",
        action="store_true",
        help="use the preparation eigenstate (or conditioned weights) for probabilities",
    )
    p_predict.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="generate a run ensemble and evaluate inequalities")
    common(p_sim)
    p_sim.add_argument("--runs", type=int, metavar="N", help="number of runs")
    p_sim.add_argument("--workers", type=int, default=1, metavar="N")
    p_sim.add_argument("--log-runs", action="store_true", dest="log_runs", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="search directions maximizing a violation expression")
    common(p_opt)
    p_opt.add_argument("--objective", choices=[kind.lower() for kind in OBJECTIVE_KINDS])
    p_opt.add_argument("--starts", type=int, metavar="N")
    p_opt.add_argument(
        "--reference-start",
        action="store_true",
        help="seed the first local search at the reference violating configuration",
    )
    p_opt.set_defaults(func=cmd_optimize)

    p_verify = sub.add_parser("verify", help="run the built-in invariant suite")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--format", choices=REPORT_FORMATS, default="tabular")
    p_verify.add_argument(
        "--use-literal-eq3", action="store_true", help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
