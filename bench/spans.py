"""Span recording for the traced run, and the per-layer metrics built from it.

Only the traced run installs recorders.  They wrap, from outside the
program, the module-level names through which each layer is called: the
names `seqbell.cli` imports, `engine.run_ensemble` (called by `verify`),
`search.local_search`, `RunCountTable.to_csv_text` and
`ExperimentConfig.to_protocol`.  Each span records its name, start, end and
parent; spans stay in memory until `dump`.  Work inside forked pool workers
is not traced.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from seqbell import cli, config, engine, search

# per-layer metric -> (unit, better); the order is the print order
LAYER_METRICS = {
    "setup.import_s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    "config.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "cli.report_calls": ("count", "lower"),
    "engine.run_ensemble_s": ("s", "lower"),
    "engine.run_two_series_s": ("s", "lower"),
    "engine.ns_per_run.w1": ("ns", "lower"),
    "engine.ns_per_run.w2": ("ns", "lower"),
    "engine.us_per_call": ("us", "lower"),
    "engine.result_bytes": ("bytes", "lower"),
    "engine.runs": ("count", "higher"),
    "engine.chunks": ("count", "lower"),
    "engine.run_log_s": ("s", "lower"),
    "engine.run_log_us_per_row": ("us", "lower"),
    "engine.run_log_rows": ("count", "higher"),
    "engine.run_log_bytes": ("bytes", "lower"),
    "engine.counts_csv_s": ("s", "lower"),
    "search.maximize_s": ("s", "lower"),
    "search.local_searches": ("count", "lower"),
    "search.accepted_steps": ("count", "lower"),
    "search.grid_oracle_s": ("s", "lower"),
    "search.grid_points": ("count", "lower"),
    "verify.run_s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "tracing.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _describe_engine(args, kwargs, result) -> dict:
    protocol = _arg(args, kwargs, 0, "config")
    series = result if isinstance(result, tuple) else (result,)
    arrays = [
        value
        for r in series
        for value in getattr(r, "__dict__", {}).values()
        if isinstance(value, np.ndarray)
    ]
    return {
        "workers": int(_arg(args, kwargs, 1, "workers", 1)),
        "runs": protocol.n_runs * len(series),
        "chunks": math.ceil(protocol.n_runs / protocol.chunk_size) * len(series),
        "result_bytes": sum(a.nbytes for a in arrays),
    }


def _describe_grid(args, kwargs, result) -> dict:
    resolution = _arg(args, kwargs, 1, "resolution")
    n_theta = int(round(math.pi / resolution)) + 1
    n_phi = max(1, int(round(2 * math.pi / resolution)))
    return {"points": n_theta * n_theta * n_phi}


def _describe_local_search(args, kwargs, result) -> dict:
    return {"steps": len(result.trajectory) - 1}


def _describe_verify(args, kwargs, result) -> dict:
    return {"checks": len(result), "failed": sum(not r.passed for r in result)}


class Tracer:
    """Records spans while installed; `spans` is in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), math.nan, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, describe=None) -> None:
        original = owner.__dict__.get(attr)
        if original is None:  # the layer is gone; its metrics read 0
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, describe))

    @contextmanager
    def installed(self):
        self._patch(cli, "main", "cli.main")
        self._patch(cli, "load_config", "config.load")
        self._patch(config.ExperimentConfig, "to_protocol", "config.to_protocol")
        for builder in ("build_simulate_report", "build_predict_report", "build_optimize_report"):
            self._patch(cli, builder, "cli.report")
        self._patch(cli, "run_ensemble", "engine.run_ensemble", _describe_engine)
        self._patch(engine, "run_ensemble", "engine.run_ensemble", _describe_engine)
        self._patch(cli, "run_two_series", "engine.run_two_series", _describe_engine)
        self._patch(cli, "write_run_log", "engine.run_log")
        self._patch(engine.RunCountTable, "to_csv_text", "engine.counts_csv")
        self._patch(cli, "maximize", "search.maximize")
        self._patch(search, "local_search", "search.local_search", _describe_local_search)
        self._patch(cli, "grid_oracle", "search.grid_oracle", _describe_grid)
        self._patch(cli, "run_verification", "verify.run", _describe_verify)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def layer_metrics(spans: list[Span], run_log: dict, import_s: list[float], overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    run_log holds the rows and bytes of the run logs the pass wrote, as
    counted by the output checks; import_s the set-up probes' import times.
    A layer the workload never calls reads 0.
    """
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.seconds
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append((i, s))

    def total(name, where=lambda i, s: True):
        return sum(s.seconds for i, s in by_name[name] if where(i, s))

    def self_time(name):
        return sum(s.seconds - children[i] for i, s in by_name[name])

    def attr_sum(names, key, where=lambda i, s: True):
        return sum(s.attrs[key] for n in names for i, s in by_name[n] if where(i, s))

    def top_level_config(i, s):
        return s.parent is None or not spans[s.parent].name.startswith("config.")

    def from_cli(i, s):
        return s.parent is not None and spans[s.parent].name == "cli.main"

    engine_names = ("engine.run_ensemble", "engine.run_two_series")
    ns_per_run = {}
    for workers in (1, 2):
        def at(i, s, workers=workers):
            return s.attrs["workers"] == workers
        runs = attr_sum(engine_names, "runs", at)
        seconds = sum(total(n, at) for n in engine_names)
        ns_per_run[workers] = seconds / runs * 1e9 if runs else 0.0
    cli_calls = sum(1 for n in engine_names for i, s in by_name[n] if from_cli(i, s))
    cli_engine_s = sum(total(n, from_cli) for n in engine_names)
    rows = run_log.get("run_log_rows", 0)
    run_log_s = total("engine.run_log")

    values = {
        "setup.import_s": statistics.median(import_s),
        "config.load_s": total("config.load", top_level_config) + total("config.to_protocol", top_level_config),
        "config.calls": len(by_name["config.load"]) + len(by_name["config.to_protocol"]),
        "cli.self_s": self_time("cli.main"),
        "cli.report_s": self_time("cli.report"),
        "cli.report_calls": len(by_name["cli.report"]),
        "engine.run_ensemble_s": total("engine.run_ensemble"),
        "engine.run_two_series_s": total("engine.run_two_series"),
        "engine.ns_per_run.w1": ns_per_run[1],
        "engine.ns_per_run.w2": ns_per_run[2],
        "engine.us_per_call": cli_engine_s / cli_calls * 1e6 if cli_calls else 0.0,
        "engine.result_bytes": attr_sum(engine_names, "result_bytes"),
        "engine.runs": attr_sum(engine_names, "runs"),
        "engine.chunks": attr_sum(engine_names, "chunks"),
        "engine.run_log_s": run_log_s,
        "engine.run_log_us_per_row": run_log_s / rows * 1e6 if rows else 0.0,
        "engine.run_log_rows": rows,
        "engine.run_log_bytes": run_log.get("run_log_bytes", 0),
        "engine.counts_csv_s": total("engine.counts_csv"),
        "search.maximize_s": total("search.maximize"),
        "search.local_searches": len(by_name["search.local_search"]),
        "search.accepted_steps": attr_sum(["search.local_search"], "steps"),
        "search.grid_oracle_s": total("search.grid_oracle"),
        "search.grid_points": attr_sum(["search.grid_oracle"], "points"),
        "verify.run_s": total("verify.run"),
        "verify.checks": attr_sum(["verify.run"], "checks"),
        "verify.checks_failed": attr_sum(["verify.run"], "failed"),
        "tracing.overhead_s": overhead_s,
    }
    return {
        name: {"value": int(values[name]) if unit in ("count", "bytes") else float(values[name]), "unit": unit}
        for name, (unit, _) in LAYER_METRICS.items()
    }
