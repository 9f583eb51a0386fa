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
    write_run_log,
)
from .inequalities import (
    EQ7_PROBS,
    EQ8_PROBS,
    PAIRS,
    check_count_inequality,
    eq5_ratios,
    eq16_report,
    eq18_report,
    eval_eq10,
    evaluate_table,
    two_series_estimate,
)
from .lhv import PAIR_MARGINAL_KEYS
from .qubit import Outcome, dot
from .reporting import InequalityReport, inequality_row, render
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


def _estimate_templates(label: str, sign: str) -> tuple[str, str]:
    """The tabular templates of an estimate row, plain and flagged low_stats."""
    template = f"  {label} = {{1:{sign}.6f}} +/- {{2:.6f}}  [n={{3}}]"
    return template, template + "  [low statistics]"


# the structured keys and tabular templates of every report row, built once;
# an estimate row's values are (defined, value, stderr, n, low_stats), an
# eq5 row's (defined, ratio, stderr, marginal, observed)
_ESTIMATE_FIELDS = ("defined", "value", "stderr", "n", "low_stats")
_E_KEYS = {(x, y): _keys(f"estimate.E.{x.name}.{y.name}", _ESTIMATE_FIELDS) for x, y in PAIRS}
_P_KEYS = {key: _keys(f"estimate.P.{_prob_key(*key)}", _ESTIMATE_FIELDS) for key in ALL_PROBS}
_EQ5_KEYS = {
    key: _keys(f"eq5.{_prob_key(*key)}", ("defined", "ratio", "stderr", "marginal", "observed"))
    for key in PAIR_MARGINAL_KEYS
}
_E_TEMPLATES = {(x, y): _estimate_templates(f"E({x.name},{y.name})", "+") for x, y in PAIRS}
_P_TEMPLATES = {key: _estimate_templates(f"P({_prob_key(*key, sep=',')})", "") for key in ALL_PROBS}
_EQ5_TEMPLATES = {
    key: f"  9 N[{_prob_key(*key, sep='')}] / N(...) = {{1:.6f}} +/- {{2:.6f}}" for key in ALL_PROBS
}
_PROB_ROWS = {
    key: (f"  P({_prob_key(*key, sep=',')}) = {{:.9f}}", (f"prob.P.{_prob_key(*key)} = ",))
    for key in ALL_PROBS
}
_DOT_KEYS = _keys("dot", ("ab", "bc", "ac"))
_SAME_KEYS = _keys("result", ("same_setting_runs", "same_setting_agreement"))
_SERIES_KEYS = _keys("result", ("series_plus_runs", "series_minus_runs"))
_LHS16_KEYS = _keys("derived.lhs16", ("value", "stderr"))
_LHS18_KEYS = _keys("derived.lhs18", ("value", "stderr"))
_DIRECTION_TEMPLATES = tuple(f"  {name} = ({{:+.6f}}, {{:+.6f}}, {{:+.6f}})" for name in "abc")
_SEARCH_DIRECTION_KEYS = tuple(_keys(f"search.directions.{name}", "xyz") for name in "abc")
_ANGLES = ("theta_a", "phi_a", "theta_b", "phi_b", "theta_c", "phi_c")
_ANGLE_KEYS = _keys("search.angles", _ANGLES)
_SEARCH_FIELDS = ("n_starts", "seed", "step_tolerance", "max_iterations")
_SEARCH_KEYS = _keys("search", (*_SEARCH_FIELDS, "reference_start"))
_GRID_KEYS = _keys("grid", ("resolution", "value"))
_BLANK = ("", (), ())


def _text(line: str) -> tuple:
    """A tabular-only row of constant text; a leading newline leaves a blank
    line above it."""
    return line, (), ()


def _estimate_rows(estimates: dict, keys: dict, templates: dict, flag_low_stats=True) -> list:
    rows = []
    for key, est in estimates.items():
        values = (est.defined, est.value, est.stderr, est.n_conditioning, est.low_stats)
        rows.append((templates[key][flag_low_stats and est.low_stats], keys[key], values))
    return rows


def _direction_rows(directions, keys=((), (), ())) -> list:
    return [(t, k, (d.x, d.y, d.z)) for t, k, d in zip(_DIRECTION_TEMPLATES, keys, directions)]


# ---------------------------------------------------------------------------
# predict


def _exact_pair_probs(config: ExperimentConfig, use_prep: bool) -> dict[tuple, float]:
    """The six inequality probabilities in exact closed form."""
    if (config.mode is Mode.PREPARED) != use_prep:  # the only part of the mode cell_law reads
        config = replace(config, mode=Mode.PREPARED if use_prep else Mode.FREE)
    law = cell_law(config)
    return {
        (x, sx, y, sy): float(law[x, y, int(sx < 0), int(sy < 0)]) for x, sx, y, sy in ALL_PROBS
    }


def build_predict_report(config: ExperimentConfig, use_prep: bool) -> str:
    a, b, c = config.directions
    sigma = config.sigma
    ab, bc, ac = dot(a, b), dot(b, c), dot(a, c)
    eq16, eq18 = eq16_report(a, b, c, sigma), eq18_report(a, b, c, sigma)
    reports = [eq16, eq18, InequalityReport("EQ10", ab + bc - ac, 1.0, sigma_threshold=sigma)]
    probs = _exact_pair_probs(config, use_prep)
    triplets = [
        InequalityReport(eq, probs[lhs], probs[rhs1] + probs[rhs2], sigma_threshold=sigma)
        for eq, (lhs, rhs1, rhs2) in (("EQ7", EQ7_PROBS), ("EQ8", EQ8_PROBS))
    ]
    source = "preparation eigenstate" if use_prep else (
        "configured state" if config.model is Model.QUANTUM else "configured weights"
    )
    rows = [
        (None, ("predict.prep_state_used = ",), (use_prep,)),
        *_direction_rows(config.directions),
        ("  a.b = {:+.9f}   b.c = {:+.9f}   a.c = {:+.9f}", _DOT_KEYS, (ab, bc, ac)),
        _BLANK,
        ("lhs16 = {:.15f}", ("closed.lhs16 = ",), (eq16.lhs,)),
        ("lhs18 = {:.15f}", ("closed.lhs18 = ",), (eq18.lhs,)),
        _text("\ninequalities (closed form):"),
        *map(inequality_row, reports),
        _text(f"\npair probabilities from the {source}:"),
        *[(*_PROB_ROWS[key], (value,)) for key, value in probs.items()],
        _text("\ninequalities (probability form):"),
        *map(inequality_row, triplets),
    ]
    return render(config.report_format, "predict", "exact predictions (no sampling)", config, rows)


# ---------------------------------------------------------------------------
# simulate


def build_simulate_report(config: ExperimentConfig, result, result_minus=None) -> str:
    if result_minus is not None:
        return _build_two_series_report(config, result, result_minus)
    table, hidden = result.table, result.hidden
    expectations, probs, reports = evaluate_table(table, config.sigma)
    _, eq7, _, eq10 = reports
    if hidden is not None:
        reports.append(check_count_inequality(hidden, config.sigma))
    same, agree = table.same_setting_totals()
    # ** 0.5 here and math.sqrt in EQ10's stderr can differ in the last bit
    lhs16_err = sum(e.stderr**2 for e in expectations.values()) ** 0.5
    # lhs18 = 1 - 4 * margin7; both nan when EQ7 is undefined
    lhs18_est = 1.0 - 4.0 * eq7.margin
    lhs18_err = 4.0 * eq7.stderr_margin if eq7.defined else float("nan")

    rows = [
        ("runs: {}   seed: {}", ("result.total_runs = ",), (table.total_runs, config.seed)),
        ("same-setting runs: {}   agreement: {:.6f}", _SAME_KEYS, (same, agree / same))
        if same
        else ("same-setting runs: {}   agreement: undefined", _SAME_KEYS, (same, float("nan"))),
        _text("\nexpectation estimates:"),
        *_estimate_rows(expectations, _E_KEYS, _E_TEMPLATES),
        _text("\npair probability estimates:"),
        *_estimate_rows(probs, _P_KEYS, _P_TEMPLATES),
        _BLANK,
        ("derived lhs16 = {:+.6f} +/- {:.6f}", _LHS16_KEYS, (eq10.lhs, lhs16_err)),
        ("derived lhs18 = {:+.6f} +/- {:.6f}", _LHS18_KEYS, (lhs18_est, lhs18_err)),
        _text("\ninequalities:"),
        *map(inequality_row, reports),
    ]
    if hidden is not None:
        # all 24 ratios in the structured report; the defined ones of the six
        # inequality probabilities in the tabular one
        ratios = eq5_ratios(hidden, table)
        values = {key: (True, *r) if r.defined else (False,) for key, r in ratios.items()}
        rows += [(None, _EQ5_KEYS[key], v) for key, v in values.items()]
        rows.append(_text("\nsampling-factor ratios (expected 1):"))
        rows += [(_EQ5_TEMPLATES[key], (), values[key]) for key in ALL_PROBS if values[key][0]]
    title = f"run ensemble report ({config.model.value}, {config.mode.value} mode)"
    return render(config.report_format, "simulate", title, config, rows)


def _build_two_series_report(config, plus, minus) -> str:
    estimates = {(x, y): two_series_estimate(plus.table, minus.table, x, y) for (x, y) in PAIRS}
    eq10 = eval_eq10(*estimates.values(), config.sigma)
    plus_runs, minus_runs = plus.table.total_runs, minus.table.total_runs
    rows = [
        ("series runs: {} (+1 series), {} (-1 series)", _SERIES_KEYS, (plus_runs, minus_runs)),
        _text("\ncombined expectation estimates:"),
        *_estimate_rows(estimates, _E_KEYS, _E_TEMPLATES, flag_low_stats=False),
        (None, _LHS16_KEYS, (eq10.lhs,)),  # the value only; nan when undefined
        _BLANK,
        inequality_row(eq10),
    ]
    title = f"two-series report ({config.model.value})"
    return render(config.report_format, "simulate", title, config, rows)


# ---------------------------------------------------------------------------
# optimize


def build_optimize_report(config: ExperimentConfig, settings: SearchConfig, use_reference_start: bool) -> str:
    kind = settings.objective
    initial = reference_configuration(kind) if use_reference_start else None
    result = maximize(settings, initial=initial)
    grid_value = grid_oracle(kind, settings.grid_resolution)
    reference_value = objective(kind, reference_configuration(kind))
    discrepancy = result.value < grid_value - 1e-3
    start = ", first start at the reference configuration" if use_reference_start else ""
    warning = "WARNING: multi-start result trails the grid oracle by more than 1e-3"
    rows = [
        ("violation search for {}", ("objective = ",), (kind,)),
        (
            "multi-start ascent: {} starts, seed {}" + start,
            _SEARCH_KEYS,
            (*[getattr(settings, name) for name in _SEARCH_FIELDS], use_reference_start),
        ),
        ("  best value      = {:.12f}", ("search.value = ",), (result.value,)),
        ("  gradient norm   = {:.3e}", ("search.gradient_norm = ",), (result.gradient_norm,)),
        ("  converged       = {}", ("search.converged = ",), (result.converged,)),
        (None, _ANGLE_KEYS, tuple(getattr(result.configuration, name) for name in _ANGLES)),
        *_direction_rows(result.configuration.directions(), _SEARCH_DIRECTION_KEYS),
        ("grid oracle at {:.6f} rad = {:.12f}", _GRID_KEYS, (settings.grid_resolution, grid_value)),
        ("reference configuration value = {:.12f}", ("reference_point.value = ",), (reference_value,)),
        (warning if discrepancy else None, ("discrepancy = ",), (discrepancy,)),
    ]
    return render(config.report_format, "optimize", None, None, rows)


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


def _write_report(text: str, out: Path | None, name: str) -> int:
    """Write the report to stdout, then the same text to out/name if there is an out dir."""
    sys.stdout.write(text)
    if out is not None:
        (out / name).write_text(text, encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    config = _load(args)
    out = _make_out_dir(config)
    return _write_report(build_predict_report(config, use_prep=args.prep), out, "predict.txt")


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    config = _load(args)
    if config.log_runs and config.out_dir is None:
        raise ConfigError("--log-runs (output.log_runs) needs an output directory: --out or output.dir")
    out = _make_out_dir(config)
    if config.mode is Mode.TWO_SERIES:
        plus, minus = run_two_series(config, workers=args.workers)
        text = build_simulate_report(config, plus, minus)
        results = {"_plus": plus, "_minus": minus}
    else:
        result = run_ensemble(config, workers=args.workers)
        text = build_simulate_report(config, result)
        results = {"": result}
    _write_report(text, out, "report.txt")
    if out is not None:
        for suffix, result in results.items():
            (out / f"counts{suffix}.csv").write_text(result.table.to_csv_text(), encoding="utf-8")
            if config.log_runs:
                with open(out / f"runs{suffix}.csv", "w", encoding="utf-8", newline="") as fh:
                    write_run_log(result, fh)
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
    return _write_report(text, out, "optimize.txt")


def cmd_verify(args) -> int:
    results = run_verification(seed=args.seed, literal_eq3=args.use_literal_eq3)
    all_ok = all(r.passed for r in results)
    rows = [(None, ("seed = ",), (args.seed,))]
    for r in results:
        status = "pass" if r.passed else "fail"
        keys = (f"check.{r.name} = ", f"check.{r.name}.detail = ")
        rows.append(("{2}  {3:<30} {1}", keys, (status, r.detail, status.upper(), r.name)))
    verdict = "all checks passed" if all_ok else "SOME CHECKS FAILED"
    rows.append((verdict, ("verify.ok = ",), (all_ok,)))
    sys.stdout.write(render(args.format, "verify", None, None, rows))
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
