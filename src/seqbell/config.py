"""Experiment configuration: flat dotted-key text format, round-trip safe.

A config file is a sequence of "key = value" lines (# starts a comment
line).  Directions may be given either as unit components (.x/.y/.z) or as
spherical angles (.theta/.phi), never both; serialization always emits
components with full-precision floats, so parse(serialize(config)) returns
an identical config.  Unknown and duplicate keys are rejected, as are keys
that do not apply to the configured model or mode.
"""

from __future__ import annotations

import collections
import hashlib
import math
from dataclasses import dataclass, fields, replace

from .engine import ConfigError, Mode, Model, ProtocolConfig
from .lhv import TRIPLE_LABELS, Disturbance, Setting
from .qubit import Direction, Outcome, PureState, direction_from_spherical
from .reporting import DEFAULT_SIGMA
from .search import OBJECTIVE_KINDS, SearchConfig

REPORT_FORMATS = ("tabular", "structured")


@dataclass(frozen=True)
class ExperimentConfig(ProtocolConfig):
    """A config file: the run protocol plus what only reports and the CLI read.
    Checked when built: the format and threshold first, then the protocol."""

    disturbance: Disturbance = Disturbance.NONE
    report_format: str = "tabular"
    sigma: float = DEFAULT_SIGMA
    out_dir: str | None = None
    log_runs: bool = False
    optimizer: SearchConfig | None = None

    def __post_init__(self):
        if self.report_format not in REPORT_FORMATS:
            raise ConfigError(
                f"report.format must be tabular or structured, got {self.report_format!r}"
            )
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"report.sigma must be finite and > 0, got {self.sigma!r}")
        super().__post_init__()

    def to_protocol(self) -> ProtocolConfig:
        return ProtocolConfig(**{f.name: getattr(self, f.name) for f in fields(ProtocolConfig)})

    def protocol_lines(self) -> list[str]:
        """Canonical serialization of the physics-defining keys."""
        lines = [
            f"mode = {self.mode.value}",
            f"model = {self.model.value}",
            f"n_runs = {self.n_runs}",
            f"seed = {self.seed}",
            f"chunk_size = {self.chunk_size}",
            f"disturbance = {self.disturbance.value}",
        ]
        for name, d in (("a", self.a), ("b", self.b), ("c", self.c)):
            lines += [
                f"directions.{name}.x = {d.x!r}",
                f"directions.{name}.y = {d.y!r}",
                f"directions.{name}.z = {d.z!r}",
            ]
        if self.model is Model.QUANTUM:
            lines += [
                f"state.s = {self.state.s!r}",
                f"state.phi = {self.state.phi!r}",
                f"state.e.x = {self.state.e.x!r}",
                f"state.e.y = {self.state.e.y!r}",
                f"state.e.z = {self.state.e.z!r}",
            ]
        else:
            for label, w in zip(TRIPLE_LABELS, self.weights):
                lines.append(f"lhv.weights.{label} = {w!r}")
        if self.mode is Mode.PREPARED:
            lines += [
                f"prep.setting = {self.prep_setting.name}",
                f"prep.sign = {int(self.prep_sign):+d}",
            ]
        return lines

    def to_text(self) -> str:
        lines = self.protocol_lines()
        lines += [
            f"report.format = {self.report_format}",
            f"report.sigma = {self.sigma!r}",
        ]
        if self.out_dir is not None:
            lines.append(f"output.dir = {self.out_dir}")
        if self.log_runs:
            lines.append("output.log_runs = true")
        if self.optimizer is not None:
            opt = self.optimizer
            lines += [
                f"optimizer.objective = {opt.objective.lower()}",
                f"optimizer.starts = {opt.n_starts}",
                f"optimizer.seed = {opt.seed}",
                f"optimizer.step_tolerance = {opt.step_tolerance!r}",
                f"optimizer.max_iterations = {opt.max_iterations}",
                f"optimizer.grid_resolution = {opt.grid_resolution!r}",
            ]
        return "\n".join(lines) + "\n"

    def digest(self, protocol_lines: list[str] | None = None) -> str:
        """The protocol's hash; pass the lines of protocol_lines() when they
        are already built."""
        if protocol_lines is None:
            protocol_lines = self.protocol_lines()
        payload = "\n".join(protocol_lines).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


def _parse_lines(text: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    """The entries of a file, and their dotted keys grouped by the part
    before the first dot, in file order: one pass over the lines."""
    entries: dict[str, str] = {}
    groups: dict[str, list[str]] = collections.defaultdict(list)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
        head, dot, _ = key.partition(".")
        if dot:
            groups[head].append(key)
    return entries, groups


def _take_float(entries, key, default=None):
    if key not in entries:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = entries.pop(key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {raw!r}")
    return value


def _take_int(entries, key, default):
    if key not in entries:
        return default
    raw = entries.pop(key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from exc


def _take_direction(entries, prefix, default):
    xyz_keys = [f"{prefix}.{ax}" for ax in "xyz"]
    sph_keys = [f"{prefix}.theta", f"{prefix}.phi"]
    has_xyz = any(k in entries for k in xyz_keys)
    has_sph = any(k in entries for k in sph_keys)
    if has_xyz and has_sph:
        raise ConfigError(f"{prefix}: give either .x/.y/.z or .theta/.phi, not both")
    try:
        if has_xyz:
            return Direction(*(_take_float(entries, k) for k in xyz_keys))
        if has_sph:
            theta = _take_float(entries, sph_keys[0])
            phi = _take_float(entries, sph_keys[1], default=0.0)
            return direction_from_spherical(theta, phi)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc
    return default


def parse_config(text: str = "", **overrides) -> ExperimentConfig:
    """The config of a file's text; an empty text is the default config.
    Overrides (the CLI flags) replace what the text sets; None leaves it."""
    entries, groups = _parse_lines(text)
    defaults = ExperimentConfig  # its class attributes are the field defaults

    def take_enum(key, enum_cls, default):
        if key not in entries:
            return default
        raw = entries.pop(key)
        try:
            return enum_cls(raw)
        except ValueError as exc:
            valid = ", ".join(e.value for e in enum_cls)
            raise ConfigError(f"key {key!r}: expected one of {valid}, got {raw!r}") from exc

    mode = take_enum("mode", Mode, defaults.mode)
    model = take_enum("model", Model, defaults.model)
    disturbance = take_enum("disturbance", Disturbance, defaults.disturbance)
    n_runs = _take_int(entries, "n_runs", defaults.n_runs)
    seed = _take_int(entries, "seed", defaults.seed)
    chunk_size = _take_int(entries, "chunk_size", defaults.chunk_size)

    a = _take_direction(entries, "directions.a", defaults.a)
    b = _take_direction(entries, "directions.b", defaults.b)
    c = _take_direction(entries, "directions.c", defaults.c)

    state_keys = groups["state"]
    if state_keys and model is not Model.QUANTUM:
        raise ConfigError(f"state.* keys require model = quantum: {sorted(state_keys)}")
    state = None
    if model is Model.QUANTUM:
        s = _take_float(entries, "state.s", defaults.state.s)
        phi = _take_float(entries, "state.phi", defaults.state.phi)
        e = _take_direction(entries, "state.e", defaults.state.e)
        try:
            state = PureState(s, phi, e)
        except ValueError as exc:
            raise ConfigError(f"state: {exc}") from exc

    weight_keys = [k for k in groups["lhv"] if k.startswith("lhv.weights.")]
    if weight_keys and model is not Model.LHV:
        raise ConfigError(f"lhv.weights.* keys require model = lhv: {sorted(weight_keys)}")
    weights = None
    if model is Model.LHV:
        values = dict.fromkeys(TRIPLE_LABELS, 0.125)
        for key in weight_keys:
            label = key[len("lhv.weights.") :]
            if label not in values:
                raise ConfigError(f"unknown triple label in {key!r}")
            values[label] = _take_float(entries, key)
        weights = tuple(values.values())

    prep_keys = groups["prep"]
    if prep_keys and mode is not Mode.PREPARED:
        raise ConfigError(f"prep.* keys require mode = prepared: {sorted(prep_keys)}")
    prep_setting, prep_sign = defaults.prep_setting, defaults.prep_sign
    if "prep.setting" in entries:
        raw = entries.pop("prep.setting")
        if raw not in ("A", "B", "C"):
            raise ConfigError(f"prep.setting must be A, B or C, got {raw!r}")
        prep_setting = Setting[raw]
    if "prep.sign" in entries:
        raw = entries.pop("prep.sign")
        if raw not in ("+1", "-1"):
            raise ConfigError(f"prep.sign must be +1 or -1, got {raw!r}")
        prep_sign = Outcome.PLUS if raw == "+1" else Outcome.MINUS

    report_format = entries.pop("report.format", defaults.report_format)
    sigma = _take_float(entries, "report.sigma", defaults.sigma)

    out_dir = entries.pop("output.dir", None)
    log_runs = False
    if "output.log_runs" in entries:
        raw = entries.pop("output.log_runs")
        if raw not in ("true", "false"):
            raise ConfigError(f"output.log_runs must be true or false, got {raw!r}")
        log_runs = raw == "true"

    optimizer = None
    if groups["optimizer"]:
        search = SearchConfig()
        objective = entries.pop("optimizer.objective", search.objective)
        if objective.upper() not in OBJECTIVE_KINDS:
            raise ConfigError(f"optimizer.objective must be eq16 or eq18, got {objective!r}")
        optimizer = apply_overrides(
            search,
            objective=objective,
            n_starts=_take_int(entries, "optimizer.starts", search.n_starts),
            seed=_take_int(entries, "optimizer.seed", search.seed),
            step_tolerance=_take_float(entries, "optimizer.step_tolerance", search.step_tolerance),
            max_iterations=_take_int(entries, "optimizer.max_iterations", search.max_iterations),
            grid_resolution=_take_float(entries, "optimizer.grid_resolution", search.grid_resolution),
        )

    if entries:
        raise ConfigError(f"unknown config keys: {sorted(entries)}")

    settings = dict(
        mode=mode,
        model=model,
        n_runs=n_runs,
        seed=seed,
        chunk_size=chunk_size,
        disturbance=disturbance,
        a=a,
        b=b,
        c=c,
        state=state,
        weights=weights,
        prep_setting=prep_setting,
        prep_sign=prep_sign,
        report_format=report_format,
        sigma=sigma,
        out_dir=out_dir,
        log_runs=log_runs,
        optimizer=optimizer,
    )
    settings.update((k, v) for k, v in overrides.items() if v is not None)
    return ExperimentConfig(**settings)


def load_config(path, **overrides) -> ExperimentConfig:
    with open(path, "rb") as fh:  # bytes, then text: faster than a text handle
        data = fh.read()
    try:
        text = data.decode("utf-8")  # not utf-8-sig: its error offsets skip the BOM
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_config(text.removeprefix("\ufeff"), **overrides)


def apply_overrides(config, **overrides):
    """Apply CLI flag overrides to a `SearchConfig`; None values leave it untouched.
    A bad value fails its check when the copy is built: an optimizer error."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    try:
        return replace(config, **changes) if changes else config
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc
