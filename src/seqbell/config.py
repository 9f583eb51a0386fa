"""Experiment configuration: flat dotted-key text format, round-trip safe.

A config file is a sequence of "key = value" lines (# starts a comment
line).  One ordered table, KEYS, describes each key: its field, how its
text is read and written, the model or mode it needs, when it is written
and whether it is hashed; parsing, serializing, hashing and the unknown-key
check all walk it.  Directions may be given either as unit components
(.x/.y/.z) or as spherical angles (.theta/.phi), never both; serialization
always emits components with full-precision floats, so
parse(serialize(config)) returns an identical config.  Unknown and
duplicate keys are rejected, as are keys that do not apply to the
configured model or mode.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import attrgetter

from .engine import ConfigError, Mode, Model, ProtocolConfig
from .lhv import TRIPLE_LABELS, Disturbance, Setting
from .qubit import Direction, Outcome, PureState, direction_from_spherical
from .reporting import DEFAULT_SIGMA
from .search import OBJECTIVE_KINDS, SearchConfig

REPORT_FORMATS = ("tabular", "structured")


@dataclass(frozen=True)
class ExperimentConfig(ProtocolConfig):
    """A config file: the run protocol plus what only reports and the CLI read.
    Checked when built: the format, threshold and output directory first,
    then the protocol."""

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
        out = self.out_dir  # a config line is stripped and ends at a line break
        if out is not None and (out != out.strip() or len(out.splitlines()) != 1):
            raise ConfigError(f"output.dir must be one non-empty line, not padded, got {out!r}")
        super().__post_init__()

    def to_protocol(self) -> ProtocolConfig:
        return ProtocolConfig(**{f.name: getattr(self, f.name) for f in fields(ProtocolConfig)})

    def _lines(self, protocol: bool) -> list[str]:
        lines = []
        for key in KEYS:
            if key.protocol is protocol and (key.scope is None or key.scope.applies(self)):
                if (value := key.get(self)) not in key.skip:
                    lines += key.show(value)
        return lines

    def protocol_lines(self) -> list[str]:
        """Canonical serialization of the physics-defining keys."""
        return self._lines(True)

    def to_text(self) -> str:
        return "\n".join(self.protocol_lines() + self._lines(False)) + "\n"

    def digest(self, protocol_lines: list[str] | None = None) -> str:
        """The protocol's hash; pass the lines of protocol_lines() when they
        are already built."""
        if protocol_lines is None:
            protocol_lines = self.protocol_lines()
        payload = "\n".join(protocol_lines).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class Scope:
    """Keys under a prefix.  needs = (field, value): they apply only where the
    config's field is that value, and elsewhere are an error; no needs: they
    apply when given.  With a field, they set parts of its value, build(parts)
    (None where they do not apply); `unknown` rejects an unlisted key."""

    prefix: str
    needs: tuple[str, object] | None
    field: str | None = None
    build: Callable[[dict], object] | None = None
    unknown: str | None = None

    def applies(self, config) -> bool:
        if self.needs is None:
            return getattr(config, self.field) is not None
        return getattr(config, self.needs[0]) is self.needs[1]


@dataclass(frozen=True, eq=False)
class Key:
    """A key and its field (under a scope with a field: an attribute or index
    of its value).  take(entries) pops its text and returns its value, or
    None; show(get(config)) is its lines, written where its scope applies
    and the value is not in `skip`."""

    name: str
    field: str | int
    take: Callable[[dict], object]
    get: Callable[[object], object]
    show: Callable[[object], list[str]]
    scope: Scope | None = None
    skip: tuple = ()
    protocol: bool = True  # hashed into the digest; False: a file-only line


def _key(name, field, read, write=str, scope=None, **options) -> Key:
    """The key `name`: read(name, text) is its value and write(value) its
    text; read=_direction takes name.x/.y/.z or name.theta/.phi."""
    path = field if scope is None or scope.field is None else f"{scope.field}.{field}"
    get = attrgetter(path) if isinstance(field, str) else lambda c: getattr(c, scope.field)[field]
    if read is _direction:
        keys = [f"{name}.{axis}" for axis in ("x", "y", "z", "theta", "phi")]
        x, y, z = keys[:3]
        show = lambda d: [f"{x} = {d.x!r}", f"{y} = {d.y!r}", f"{z} = {d.z!r}"]  # noqa: E731
        return Key(name, field, partial(_direction, name, keys), get, show, scope, **options)

    def take(entries):
        raw = entries.pop(name, None)
        return None if raw is None else read(name, raw)

    return Key(name, field, take, get, lambda value: [f"{name} = {write(value)}"], scope, **options)


def _direction(name, keys, entries):
    x, y, z, theta, phi = [entries.pop(key, None) for key in keys]
    if (x or y or z) and (theta or phi):
        raise ConfigError(f"{name}: give either .x/.y/.z or .theta/.phi, not both")
    try:
        if x or y or z:
            return Direction(*[_read_float(key, raw) for key, raw in zip(keys, (x, y, z))])
        if theta or phi:  # phi may be left out: 0
            return direction_from_spherical(
                _read_float(keys[3], theta), _read_float(keys[4], phi or "0"))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return None


def _read_int(key, raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from exc


def _read_float(key, raw):
    if raw is None:
        raise ConfigError(f"missing required key {key!r}")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {raw!r}")
    return value


def _choice(values: dict, message: str = "", fold=str):
    """read and write of a key whose text, after fold, is one of values' keys."""
    *others, last = values
    message = message or f"{{key}} must be {', '.join(others)} or {last}, got {{raw!r}}"

    def read(key, raw):
        if fold(raw) not in values:
            raise ConfigError(message.format(key=key, raw=raw))
        return values[fold(raw)]

    return read, {value: name for name, value in values.items()}.__getitem__


def _enum(cls):
    valid = ", ".join(e.value for e in cls)
    message = f"key {{key!r}}: expected one of {valid}, got {{raw!r}}"
    return _choice({e.value: e for e in cls}, message)


INT, FLOAT, TEXT = (_read_int, str), (_read_float, repr), (lambda key, raw: raw, str)
_STATE = Scope("state.", ("model", Model.QUANTUM), "state",
               lambda parts: PureState(**{**vars(ExperimentConfig.state), **parts}))
_WEIGHTS = Scope("lhv.weights.", ("model", Model.LHV), "weights",
                 lambda parts: tuple(parts.get(i, 0.125) for i in range(len(TRIPLE_LABELS))),
                 "unknown triple label in {!r}")
_PREP = Scope("prep.", ("mode", Mode.PREPARED))
_OBJECTIVE = _choice({kind.lower(): kind for kind in OBJECTIVE_KINDS}, fold=str.lower)
_OPTIMIZER = Scope("optimizer.", None, "optimizer",
                   lambda parts: SearchConfig(**parts) if parts else None)

KEYS: tuple[Key, ...] = (
    _key("mode", "mode", *_enum(Mode)),
    _key("model", "model", *_enum(Model)),
    _key("n_runs", "n_runs", *INT),
    _key("seed", "seed", *INT),
    _key("chunk_size", "chunk_size", *INT),
    _key("disturbance", "disturbance", *_enum(Disturbance)),
    *(_key(f"directions.{name}", name, _direction) for name in "abc"),
    _key("state.s", "s", *FLOAT, _STATE),
    _key("state.phi", "phi", *FLOAT, _STATE),
    _key("state.e", "e", _direction, scope=_STATE),
    *(_key(f"lhv.weights.{label}", i, *FLOAT, _WEIGHTS) for i, label in enumerate(TRIPLE_LABELS)),
    _key("prep.setting", "prep_setting", *_choice({s.name: s for s in Setting}), _PREP),
    _key("prep.sign", "prep_sign", *_choice({"+1": Outcome.PLUS, "-1": Outcome.MINUS}), _PREP),
    _key("report.format", "report_format", *TEXT, protocol=False),
    _key("report.sigma", "sigma", *FLOAT, protocol=False),
    _key("output.dir", "out_dir", *TEXT, skip=(None,), protocol=False),
    _key("output.log_runs", "log_runs", *_choice({"true": True, "false": False}), skip=(False,),
         protocol=False),
    _key("optimizer.objective", "objective", *_OBJECTIVE, _OPTIMIZER, protocol=False),
    _key("optimizer.starts", "n_starts", *INT, _OPTIMIZER, protocol=False),
    _key("optimizer.seed", "seed", *INT, _OPTIMIZER, protocol=False),
    _key("optimizer.step_tolerance", "step_tolerance", *FLOAT, _OPTIMIZER, protocol=False),
    _key("optimizer.max_iterations", "max_iterations", *INT, _OPTIMIZER, protocol=False),
    _key("optimizer.grid_resolution", "grid_resolution", *FLOAT, _OPTIMIZER, protocol=False),
)


def parse_config(text: str = "", **overrides) -> ExperimentConfig:
    """The config of a file's text; an empty text is the default config.
    Overrides (the CLI flags) replace what the text sets; None leaves it.
    Keys are read in table order: the first faulty one is reported."""
    entries: dict[str, str] = {}
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
    settings: dict = {}
    # the table keeps a scope's keys together
    for scope, keys in itertools.groupby(KEYS, attrgetter("scope")):
        target = settings
        if scope is not None:
            given = [k for k in entries if k.startswith(scope.prefix)]
            field, needed = scope.needs or (None, None)
            applies = not field or settings.get(field, getattr(ExperimentConfig, field)) is needed
            if given and not applies:
                raise ConfigError(
                    f"{scope.prefix}* keys require {field} = {needed.value}: {sorted(given)}")
            if scope.field is not None:
                settings[scope.field], target = None, {}
            if not applies:
                continue
        for key in keys:
            value = key.take(entries)
            if value is not None:
                target[key.field] = value
        if target is not settings:  # the scope builds a field
            for k in given if scope.unknown else ():
                if k in entries:
                    raise ConfigError(scope.unknown.format(k))
            try:
                settings[scope.field] = scope.build(target)
            except ValueError as exc:
                raise ConfigError(f"{scope.field}: {exc}") from exc
    if entries:
        raise ConfigError(f"unknown config keys: {sorted(entries)}")
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
