import math
from dataclasses import dataclass, replace
from enum import Enum
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from seqbell import cli
from seqbell import config as config_module
from seqbell.cli import fmt_value, inequality_row, main, render
from seqbell.config import REPORT_FORMATS, ExperimentConfig, parse_config
from seqbell.engine import DEFAULT_A, ConfigError, Mode, Model, ProtocolConfig, RunCountTable
from seqbell.inequalities import (
    InequalityReport,
    check_count_inequality,
    eq5_ratio,
    evaluate_table,
    undefined_report,
)
from seqbell.lhv import (
    PAIR_MARGINAL_KEYS,
    TRIPLE_LABELS,
    Disturbance,
    HiddenCountTable,
    Setting,
    TripleDistribution,
)
from seqbell.qubit import (
    Direction,
    Outcome,
    PureState,
    Z_AXIS,
    direction_from_spherical,
    eigenstate,
    overlap,
)
from seqbell.search import SearchConfig, TripleConfiguration

SQRT2 = math.sqrt(2.0)


LHV_TEXT = """
# hidden-variable ensemble
mode = free
model = lhv
n_runs = 5000
seed = 7
lhv.weights.a+b+c+ = 0.5
lhv.weights.a-b-c- = 0.5
lhv.weights.a+b-c+ = 0
lhv.weights.a+b-c- = 0
lhv.weights.a+b+c- = 0
lhv.weights.a-b+c+ = 0
lhv.weights.a-b+c- = 0
lhv.weights.a-b-c+ = 0
"""

PREPARED_TEXT = """
mode = prepared
model = quantum
n_runs = 1000
seed = 3
prep.setting = B
prep.sign = -1
directions.a.theta = 1.5707963267948966
directions.a.phi = 0.0
state.s = 0.8
state.phi = 1.25
"""


class TestParse:
    def test_defaults_reproduce_reference_directions(self):
        config = parse_config("")
        assert config.mode is Mode.FREE and config.model is Model.QUANTUM
        assert config.n_runs == 10**6 and config.seed == 42
        assert config.a == DEFAULT_A
        assert config.state == PureState(1.0, 0.0, Z_AXIS)
        # one set of defaults: the file-level config adds none to the protocol's
        assert ExperimentConfig().to_protocol() == ProtocolConfig()

    def test_lhv_weights(self):
        config = parse_config(LHV_TEXT)
        assert config.model is Model.LHV
        assert config.weights[0] == 0.5 and config.weights[7] == 0.5
        assert sum(config.weights) == 1.0

    def test_prepared_with_spherical_direction(self):
        config = parse_config(PREPARED_TEXT)
        assert config.prep_setting is Setting.B
        assert config.prep_sign is Outcome.MINUS
        assert config.a.x == pytest.approx(1.0, abs=1e-12)
        assert config.state.s == 0.8

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config("modee = free")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2")

    def test_xyz_and_spherical_mutually_exclusive(self):
        text = "directions.a.x = 1\ndirections.a.y = 0\ndirections.a.z = 0\ndirections.a.theta = 0"
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    def test_state_keys_require_quantum(self):
        with pytest.raises(ConfigError, match="state"):
            parse_config("model = lhv\nstate.s = 1.0")

    def test_weights_require_lhv(self):
        with pytest.raises(ConfigError, match="lhv.weights"):
            parse_config("lhv.weights.a+b+c+ = 1.0")

    def test_bad_triple_labels_rejected(self):
        for label in ("a+b-", "a+b0c-"):
            with pytest.raises(ConfigError, match="unknown triple label"):
                parse_config(f"model = lhv\nlhv.weights.{label} = 1")

    def test_report_format_checked_when_built(self):
        # a config built in code gets the parser's check: no silent tabular report
        message = "report.format must be tabular or structured, got 'json'"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(report_format="json")
        with pytest.raises(ConfigError, match=message):
            replace(ExperimentConfig(), report_format="json")
        with pytest.raises(ConfigError, match=message):
            parse_config("report.format = json")

    def test_prep_keys_require_prepared_mode(self):
        with pytest.raises(ConfigError, match="prep"):
            parse_config("prep.setting = B")

    def test_bad_values_rejected(self):
        for text in (
            "n_runs = many",
            "mode = sometimes",
            "report.sigma = -2",
            "report.sigma = 0",
            "report.sigma = nan",
            "report.sigma = inf",
            "directions.a.x = 5",
            "prep.setting = D\nmode = prepared",
            "optimizer.starts = 0",
            "optimizer.seed = -1",
            "optimizer.max_iterations = 0",
            "optimizer.step_tolerance = 0",
            "optimizer.grid_resolution = 0.001",
            "chunk_size = 4194305",
        ):
            with pytest.raises(ConfigError):
                parse_config(text)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("directions.a.x = 1\ndirections.a.y = 1\ndirections.a.z = 0")


def _weights_text(weight_of):
    return "\n".join(f"lhv.weights.{label} = {weight_of(label)}" for label in TRIPLE_LABELS)


# (id, config text, the full ConfigError message); a "two:" text has two
# faults, and its message names the one that is reported first
CONFIG_ERRORS = [
    ("bad-mode", "mode = sometimes",
     "key 'mode': expected one of free, two-series, prepared, got 'sometimes'"),
    ("bad-model", "model = classical", "key 'model': expected one of quantum, lhv, got 'classical'"),
    ("bad-disturbance", "disturbance = often",
     "key 'disturbance': expected one of none, resample-after-second, "
     "flip-unmeasured-after-second, got 'often'"),
    ("bad-int", "n_runs = many", "key 'n_runs': not an integer: 'many'"),
    ("bad-int-float", "seed = 1.5", "key 'seed': not an integer: '1.5'"),
    ("bad-chunk", "chunk_size = big", "key 'chunk_size': not an integer: 'big'"),
    ("bad-float", "report.sigma = high", "key 'report.sigma': not a number: 'high'"),
    ("bad-state-float", "state.s = half", "key 'state.s': not a number: 'half'"),
    ("nan", "report.sigma = nan", "key 'report.sigma': must be finite, got 'nan'"),
    ("inf", "state.phi = inf", "key 'state.phi': must be finite, got 'inf'"),
    ("bad-component", "directions.a.x = q\ndirections.a.y = 0\ndirections.a.z = 0",
     "directions.a: key 'directions.a.x': not a number: 'q'"),
    ("missing-theta", "directions.b.phi = 0.5",
     "directions.b: missing required key 'directions.b.theta'"),
    ("missing-y", "directions.a.x = 1\ndirections.a.z = 0",
     "directions.a: missing required key 'directions.a.y'"),
    ("both-forms", "directions.c.x = 1\ndirections.c.theta = 0",
     "directions.c: give either .x/.y/.z or .theta/.phi, not both"),
    ("both-forms-state", "state.e.theta = 0\nstate.e.x = 1",
     "state.e: give either .x/.y/.z or .theta/.phi, not both"),
    ("not-unit", "directions.a.x = 1\ndirections.a.y = 1\ndirections.a.z = 0",
     "directions.a: direction must be a unit vector, |v| = 1.4142135623730951"),
    ("state-under-lhv", "model = lhv\nstate.s = 1\nstate.foo = 2",
     "state.* keys require model = quantum: ['state.foo', 'state.s']"),
    ("weights-under-quantum", "lhv.weights.a+b+c+ = 1\nlhv.weights.zz = 1",
     "lhv.weights.* keys require model = lhv: ['lhv.weights.a+b+c+', 'lhv.weights.zz']"),
    ("prep-outside-prepared", "prep.setting = B\nprep.other = 1",
     "prep.* keys require mode = prepared: ['prep.other', 'prep.setting']"),
    ("unknown-label", "model = lhv\nlhv.weights.a+b- = 1", "unknown triple label in 'lhv.weights.a+b-'"),
    ("bad-weight", "model = lhv\nlhv.weights.a-b+c- = lots",
     "key 'lhv.weights.a-b+c-': not a number: 'lots'"),
    ("bad-prep-setting", "mode = prepared\nprep.setting = D", "prep.setting must be A, B or C, got 'D'"),
    ("bad-prep-sign", "mode = prepared\nprep.sign = 1", "prep.sign must be +1 or -1, got '1'"),
    ("bad-log-runs", "output.log_runs = yes", "output.log_runs must be true or false, got 'yes'"),
    ("bad-objective", "optimizer.objective = eq17", "optimizer.objective must be eq16 or eq18, got 'eq17'"),
    ("optimizer-value", "optimizer.starts = 0", "optimizer: n_starts must be >= 1, got 0"),
    ("optimizer-seed", "optimizer.seed = 18446744073709551616",
     "optimizer: seed must be a non-negative 64-bit integer, got 18446744073709551616"),
    ("optimizer-int", "optimizer.max_iterations = ten",
     "key 'optimizer.max_iterations': not an integer: 'ten'"),
    ("optimizer-float", "optimizer.grid_resolution = fine",
     "key 'optimizer.grid_resolution': not a number: 'fine'"),
    ("unknown", "modee = free\nstate.foo = 1\nlhv.other = 1\noptimizer.foo = 2",
     "unknown config keys: ['lhv.other', 'modee', 'optimizer.foo', 'state.foo']"),
    ("no-equals", "seed 3", "line 1: expected 'key = value', got 'seed 3'"),
    ("empty-value", "seed =", "line 1: empty key or value in 'seed ='"),
    ("duplicate", "seed = 1\nseed = 2", "line 2: duplicate key 'seed'"),
    ("report-format", "report.format = json", "report.format must be tabular or structured, got 'json'"),
    ("sigma-range", "report.sigma = 0", "report.sigma must be finite and > 0, got 0.0"),
    ("runs-range", "n_runs = 0", "n_runs must be >= 1, got 0"),
    ("seed-range", "seed = 18446744073709551616",
     "seed must be a non-negative 64-bit integer, got 18446744073709551616"),
    ("chunk-low", "chunk_size = 0", "chunk_size must be >= 1, got 0"),
    ("chunk-range", "chunk_size = 4194305", "chunk_size must be <= 4194304, got 4194305"),
    ("bad-amplitude", "state.s = 2", "state: amplitude s must lie in [0, 1], got 2.0"),
    ("zero-weights", "model = lhv\n" + _weights_text(lambda label: 0),
     "lhv.weights: weights must have positive total mass"),
    ("no-support",
     "model = lhv\nmode = prepared\nprep.sign = -1\n" + _weights_text(lambda label: int(label[1] == "+")),
     "conditioning on A=-1 leaves zero mass"),
    ("two:format-then-unknown", "report.format = json\nmodee = free", "unknown config keys: ['modee']"),
    ("two:mode-then-runs", "n_runs = many\nmode = sometimes",
     "key 'mode': expected one of free, two-series, prepared, got 'sometimes'"),
    ("two:directions-then-state-gate", "model = lhv\nstate.s = 1\ndirections.a.theta = x",
     "directions.a: key 'directions.a.theta': not a number: 'x'"),
    ("two:state-then-prep-gate", "prep.setting = B\nstate.s = 2",
     "state: amplitude s must lie in [0, 1], got 2.0"),
    ("two:label-then-prep-gate", "model = lhv\nprep.setting = B\nlhv.weights.zz = 1",
     "unknown triple label in 'lhv.weights.zz'"),
    ("two:optimizer-then-unknown", "modee = free\noptimizer.starts = 0",
     "optimizer: n_starts must be >= 1, got 0"),
    ("two:sigma-then-runs", "n_runs = 0\nreport.sigma = 0", "report.sigma must be finite and > 0, got 0.0"),
    ("two:line-then-value", "mode = sometimes\nseed = 1\nseed = 2", "line 3: duplicate key 'seed'"),
    ("two:runs-then-seed", "seed = -1\nn_runs = 0", "n_runs must be >= 1, got 0"),
]


@pytest.mark.parametrize("text, message", [pytest.param(t, m, id=i) for i, t, m in CONFIG_ERRORS])
def test_config_error_message_is_pinned(text, message):
    with pytest.raises(ConfigError) as caught:
        parse_config(text)
    assert str(caught.value) == message


# (id, a call, its exception type and full message): input checks that only
# the Python API reaches
_X = Direction(1.0, 0.0, 0.0)
API_ERRORS = [
    ("no-state", lambda: ProtocolConfig(state=None), ConfigError,
     "quantum model requires an initial state"),
    ("no-weights", lambda: ProtocolConfig(model=Model.LHV), ConfigError,
     "lhv model requires a triple distribution"),
    ("tuple-direction", lambda: ProtocolConfig(a=(1.0, 0.0, 0.0)), ConfigError,
     "directions must be three unit vectors (a, b, c)"),
    ("nan-weights", lambda: TripleDistribution([math.nan] * 8), ValueError, "weights must be finite"),
    ("count-shape", lambda: HiddenCountTable(np.zeros(7)), ValueError,
     "expected counts of shape (8,), got (7,)"),
    ("overlap-frames", lambda: overlap(PureState(1.0, 0.0, Z_AXIS), PureState(1.0, 0.0, _X)),
     ValueError, "overlap requires both states in the same reference frame"),
    ("nan-phase", lambda: eigenstate(_X, Outcome.PLUS, Z_AXIS, math.nan), ValueError,
     "phase must be finite, got nan"),
    ("angle-count", lambda: TripleConfiguration.from_array([0.0] * 5), ValueError,
     "expected 6 angles, got shape (5,)"),
]


@pytest.mark.parametrize("call, kind, message", [pytest.param(*e, id=i) for i, *e in API_ERRORS])
def test_api_error_message_is_pinned(call, kind, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (kind, message)


def _directions():
    return st.builds(
        direction_from_spherical, st.floats(0.0, math.pi), st.floats(-2 * math.pi, 2 * math.pi)
    )


@st.composite
def _configs(draw):
    """Any valid config, with a state, weights and a preparation drawn for
    every model and mode: the config holds only those that it reads."""
    settings = dict(
        mode=draw(st.sampled_from(Mode)),
        model=draw(st.sampled_from(Model)),
        n_runs=draw(st.integers(1, 10**12)),
        seed=draw(st.integers(0, 2**64 - 1)),
        chunk_size=draw(st.integers(1, 2**22)),
        disturbance=draw(st.sampled_from(Disturbance)),
        a=draw(_directions()),
        b=draw(_directions()),
        c=draw(_directions()),
        state=PureState(draw(st.floats(0.0, 1.0)), draw(st.floats(-10.0, 10.0)), draw(_directions())),
        weights=tuple(draw(st.lists(st.floats(0.0, 4.0), min_size=8, max_size=8))),
        prep_setting=draw(st.sampled_from(Setting)),
        prep_sign=draw(st.sampled_from(Outcome)),
        report_format=draw(st.sampled_from(REPORT_FORMATS)),
        sigma=draw(st.floats(1e-3, 1e3)),
        out_dir=draw(st.none() | st.text()),
        log_runs=draw(st.booleans()),
        optimizer=draw(st.none() | st.builds(
            SearchConfig,
            objective=st.sampled_from(["eq16", "EQ18"]),
            n_starts=st.integers(1, 1000),
            step_tolerance=st.floats(1e-15, 1.0),
            max_iterations=st.integers(1, 10**6),
            seed=st.integers(0, 2**32),
            grid_resolution=st.floats(0.005, 1.0),
        )),
    )
    try:
        return ExperimentConfig(**settings)
    except ConfigError:  # weights with no mass or none on the preparation, or an
        assume(False)  # out_dir that a config file cannot hold


class TestRoundTrip:
    @pytest.mark.parametrize("text", ["", LHV_TEXT, PREPARED_TEXT])
    def test_parse_serialize_parse_is_identity(self, text):
        config = parse_config(text)
        again = parse_config(config.to_text())
        assert again == config

    def test_round_trip_with_optimizer_and_output(self):
        config = parse_config(
            "optimizer.objective = eq18\noptimizer.starts = 7\n"
            "output.dir = /tmp/x\noutput.log_runs = true\nreport.format = structured"
        )
        assert config.optimizer == SearchConfig(objective="eq18", n_starts=7)
        assert parse_config(config.to_text()) == config

    def test_digest_tracks_protocol_only(self):
        base = parse_config("")
        same_physics = replace(base, report_format="structured", sigma=3.0)
        assert same_physics.digest() == base.digest()
        other = replace(base, seed=43)
        assert other.digest() != base.digest()

    @pytest.mark.parametrize("out_dir", ["", " lead", "trail\t", "two\nlines", "a\u2028b"])
    def test_out_dir_that_a_file_cannot_hold_rejected(self, out_dir):
        with pytest.raises(ConfigError, match="^output.dir must be one non-empty line"):
            ExperimentConfig(out_dir=out_dir)

    @given(_configs())
    def test_random_config_round_trips(self, config):
        again = parse_config(config.to_text())
        assert again == config
        assert again.digest() == config.digest()

    def test_one_table_row_adds_a_key(self, monkeypatch):
        # a protocol key written only when not its default, as a new key would be
        @dataclass(frozen=True)
        class WithReadout(ExperimentConfig):
            readout: float = 0.0

        before = parse_config(LHV_TEXT)
        before_text, before_digest = before.to_text(), before.digest()
        row = config_module._key("noise.readout", "readout", *config_module.FLOAT, skip=(0.0,))
        monkeypatch.setattr(config_module, "ExperimentConfig", WithReadout)
        monkeypatch.setattr(config_module, "KEYS", config_module.KEYS + (row,))
        unset = parse_config(LHV_TEXT)
        assert unset.readout == 0.0
        assert (unset.to_text(), unset.digest()) == (before_text, before_digest)
        config = parse_config(LHV_TEXT + "noise.readout = 0.25\n")
        assert config.readout == 0.25
        assert "noise.readout = 0.25" in config.protocol_lines()
        assert config.digest() != before_digest
        assert parse_config(config.to_text()) == config
        with pytest.raises(ConfigError, match="key 'noise.readout': not a number: 'high'"):
            parse_config("noise.readout = high")


_SIGMA_COMMANDS = (["predict"], ["simulate", "--runs", "100"])
_SEED_ERROR = "seed must be a non-negative 64-bit integer, got -1"
_RUNS_ERROR = "n_runs must be >= 1, got 0"
_OUT_ERROR = "output.dir must be one non-empty line, not padded, got {!r}"

# (argv, the message after "error: "); CONFIG stands for a valid config file
BAD_FLAGS = [
    pytest.param(
        command + ["--sigma", value],
        f"report.sigma must be finite and > 0, got {float(value)!r}",
        id=f"{value}-command{i}",
    )
    for value in ("nan", "inf", "0", "-1")
    for i, command in enumerate(_SIGMA_COMMANDS)
] + [
    pytest.param(["simulate", "--runs", "0"], _RUNS_ERROR, id="runs"),
    pytest.param(["simulate", "--config", "CONFIG", "--runs", "0"], _RUNS_ERROR, id="runs-config"),
    pytest.param(["simulate", "--seed", "-1"], _SEED_ERROR, id="seed"),
    pytest.param(["simulate", "--config", "CONFIG", "--seed", "-1"], _SEED_ERROR, id="seed-config"),
    # the flag also reaches the search settings; the protocol check comes first
    pytest.param(["optimize", "--seed", "-1"], _SEED_ERROR, id="seed-optimize"),
    pytest.param(
        ["optimize", "--config", "CONFIG", "--seed", "-1"], _SEED_ERROR, id="seed-optimize-config"
    ),
    pytest.param(
        ["simulate", "--config", "CONFIG", "--sigma", "nan"],
        "report.sigma must be finite and > 0, got nan",
        id="nan-config",
    ),
    # a config file cannot hold these: the flag is checked as strictly
    pytest.param(["predict", "--out", ""], _OUT_ERROR.format(""), id="out-empty"),
    pytest.param(["simulate", "--runs", "10", "--out", " out"], _OUT_ERROR.format(" out"), id="out-padded"),
]


class TestCli:
    def test_predict_reports_reference_value(self, capsys):
        assert main(["predict", "--format", "structured"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("closed.lhs16 = ")[1].split("\n")[0])
        assert abs(value - SQRT2) < 1e-12
        assert "inequality.EQ16.violated = true" in out

    def test_predict_prep_at_eq18_configuration(self, capsys, tmp_path):
        text = (
            "mode = prepared\n"
            "directions.a.x = 1\ndirections.a.y = 0\ndirections.a.z = 0\n"
            "directions.b.x = 0.7071067811865476\ndirections.b.y = 0.7071067811865476\n"
            "directions.b.z = 0\n"
            "directions.c.x = 0\ndirections.c.y = 1\ndirections.c.z = 0\n"
        )
        path = tmp_path / "eq18.cfg"
        path.write_text(text)
        assert main(["predict", "--config", str(path), "--prep", "--format", "structured"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("closed.lhs18 = ")[1].split("\n")[0])
        assert abs(value - (SQRT2 + 0.5)) < 1e-12
        assert "inequality.EQ7.violated = true" in out

    def test_predict_coincident_directions_zero_margins(self, capsys, tmp_path):
        text = (
            "directions.a.x = 0\ndirections.a.y = 0\ndirections.a.z = 1\n"
            "directions.b.x = 0\ndirections.b.y = 0\ndirections.b.z = 1\n"
            "directions.c.x = 0\ndirections.c.y = 0\ndirections.c.z = 1\n"
        )
        path = tmp_path / "same.cfg"
        path.write_text(text)
        assert main(["predict", "--config", str(path), "--format", "structured"]) == 0
        out = capsys.readouterr().out
        for eq in ("EQ16", "EQ18", "EQ10"):
            assert f"inequality.{eq}.margin = 0.0" in out
            assert f"inequality.{eq}.violated = false" in out

    def test_invalid_direction_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("directions.a.x = 2\ndirections.a.y = 0\ndirections.a.z = 0\n")
        assert main(["predict", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", BAD_FLAGS)
    def test_bad_sigma_flag_rejected(self, argv, error, tmp_path, monkeypatch, capsys):
        # a bad --sigma, --runs, --seed or --out fails as the config is built,
        # with the config file's message, before any output is written
        path = tmp_path / "run.cfg"
        path.write_text("n_runs = 100\noptimizer.starts = 1\n")
        argv = [str(path) if arg == "CONFIG" else arg for arg in argv]
        monkeypatch.chdir(tmp_path)
        assert main(argv if "--out" in argv else argv + ["--out", "out"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {error}"]
        assert not captured.err.startswith("error: optimizer:")
        assert captured.out == "" and [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command", ["simulate", "predict", "optimize"])
    def test_non_utf8_config_rejected(self, command, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"n_runs = 100\n# caf\xe9\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {path}: not UTF-8 text (byte 18)"]
        assert captured.out == "" and not out.exists()

    def test_non_utf8_offset_counts_the_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfab\xff")
        assert main(["predict", "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: not UTF-8 text (byte 5)"]

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["simulate", "--config", "CONFIG"], 1),
            (["simulate", "--runs", "100"], 1),
            (["optimize", "--config", "CONFIG"], 1),
            # the second is the replace(config, mode=...) of cli._exact_pair_probs
            (["predict", "--config", "CONFIG", "--prep"], 2),
        ],
    )
    def test_config_checked_once(self, argv, calls, tmp_path, monkeypatch, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(
            "n_runs = 100\noptimizer.starts = 1\noptimizer.grid_resolution = 0.5\n"
        )
        validate, count = ProtocolConfig.validate, [0]

        def counting(config):
            count[0] += 1
            validate(config)

        monkeypatch.setattr(ProtocolConfig, "validate", counting)
        assert main([str(path) if arg == "CONFIG" else arg for arg in argv]) == 0
        capsys.readouterr()
        assert count[0] == calls

    @pytest.mark.parametrize("report_format", ["tabular", "structured"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--runs", "100"],
            ["simulate", "--config", "CONFIG"],
            ["predict"],
            ["predict", "--config", "CONFIG", "--prep"],
        ],
    )
    def test_protocol_serialized_once(self, argv, report_format, tmp_path, monkeypatch, capsys):
        # the digest and the structured config block share one serialization
        path = tmp_path / "two.cfg"
        path.write_text("mode = two-series\nn_runs = 100\n")
        protocol_lines, count = ExperimentConfig.protocol_lines, [0]

        def counting(config):
            count[0] += 1
            return protocol_lines(config)

        monkeypatch.setattr(ExperimentConfig, "protocol_lines", counting)
        argv = [str(path) if arg == "CONFIG" else arg for arg in argv]
        assert main(argv + ["--format", report_format]) == 0
        assert capsys.readouterr().out
        assert count[0] == 1

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_workers_rejected(self, value, capsys):
        assert main(["simulate", "--runs", "100", "--workers", value]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--starts", "0"],
            ["optimize", "--starts", "-2"],
            ["verify", "--seed", "-1"],
            ["verify", "--seed", str(2**64)],
        ],
    )
    def test_bad_search_flags_rejected(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", [["simulate", "--runs", "10"], ["optimize"], ["predict"]])
    def test_bad_out_dir_fails_before_any_work(self, command, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output directory was made")

        monkeypatch.setattr(cli, "run_ensemble", no_work)
        monkeypatch.setattr(cli, "maximize", no_work)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(command + ["--out", str(blocker / "out")]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_log_runs_without_out_dir_rejected_before_any_work(self, source, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started although no run log can be written")

        monkeypatch.setattr(cli, "run_ensemble", no_work)
        path = tmp_path / "log.cfg"
        path.write_text("output.log_runs = true\n")
        argv = ["--log-runs"] if source == "flag" else ["--config", str(path)]
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--runs", "100", *argv]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "--out" in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.cfg"]

    def test_log_runs_with_out_dir_from_either_source(self, tmp_path, capsys):
        path = tmp_path / "log.cfg"
        path.write_text(f"output.dir = {tmp_path / 'file'}\n")
        assert main(["simulate", "--runs", "100", "--config", str(path), "--log-runs"]) == 0
        path.write_text("output.log_runs = true\n")
        assert main(["simulate", "--runs", "100", "--config", str(path), "--out", str(tmp_path / "flag")]) == 0
        capsys.readouterr()
        for name in ("file", "flag"):
            assert (tmp_path / name / "runs.csv").read_text().count("\n") == 101

    def test_predict_writes_to_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "exact"
        path = tmp_path / "predict.cfg"
        path.write_text(f"output.dir = {out_dir}\nreport.format = structured\n")
        assert main(["predict", "--config", str(path), "--prep"]) == 0
        stdout = capsys.readouterr().out
        assert (out_dir / "predict.txt").read_text() == stdout
        assert sorted(p.name for p in out_dir.iterdir()) == ["predict.txt"]

    def test_simulate_structured_deterministic(self, capsys):
        argv = ["simulate", "--runs", "30000", "--seed", "5", "--format", "structured"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "inequality.EQ10.violated = true" in first

    def test_simulate_workers_do_not_change_output(self, capsys):
        base = ["simulate", "--runs", "30000", "--seed", "9", "--format", "structured"]
        assert main(base + ["--workers", "1"]) == 0
        one = capsys.readouterr().out
        assert main(base + ["--workers", "8"]) == 0
        eight = capsys.readouterr().out
        assert one == eight

    def test_simulate_violation_exit_status_zero(self, capsys):
        # a violated inequality is a result, not an error
        assert main(["simulate", "--runs", "20000", "--seed", "2"]) == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert (
            main(
                [
                    "simulate",
                    "--runs",
                    "2000",
                    "--seed",
                    "4",
                    "--format",
                    "structured",
                    "--out",
                    str(out_dir),
                    "--log-runs",
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        report = (out_dir / "report.txt").read_text()
        assert report == stdout
        counts = (out_dir / "counts.csv").read_text().strip().split("\n")
        assert len(counts) == 37
        runs = (out_dir / "runs.csv").read_text().strip().split("\n")
        assert len(runs) == 2001

    def test_simulate_two_series(self, capsys, tmp_path):
        path = tmp_path / "two.cfg"
        path.write_text("mode = two-series\nn_runs = 50000\nseed = 6\n")
        assert main(["simulate", "--config", str(path), "--format", "structured"]) == 0
        out = capsys.readouterr().out
        assert "result.series_plus_runs = 50000" in out
        assert "inequality.EQ10.violated = true" in out

    def test_simulate_prepared_at_eq18_optimum_violates(self, capsys, tmp_path):
        inv = 1 / math.sqrt(2)
        path = tmp_path / "prep18.cfg"
        path.write_text(
            "mode = prepared\nn_runs = 1000000\nseed = 4\n"
            "directions.a.x = 1\ndirections.a.y = 0\ndirections.a.z = 0\n"
            f"directions.b.x = {inv!r}\ndirections.b.y = {inv!r}\ndirections.b.z = 0\n"
            "directions.c.x = 0\ndirections.c.y = 1\ndirections.c.z = 0\n"
            "state.s = 1\nstate.e.x = 1\nstate.e.y = 0\nstate.e.z = 0\n"
        )
        assert main(["simulate", "--config", str(path), "--format", "structured"]) == 0
        out = capsys.readouterr().out
        assert "inequality.EQ7.violated = true" in out
        n_sigma = float(out.split("inequality.EQ7.n_sigma = ")[1].split("\n")[0])
        assert n_sigma <= -5.0
        lhs18_hat = float(out.split("derived.lhs18.value = ")[1].split("\n")[0])
        assert 1.85 <= lhs18_hat <= 1.97

    def test_simulate_lhv_includes_eq4_and_ratios(self, capsys, tmp_path):
        path = tmp_path / "lhv.cfg"
        path.write_text("model = lhv\nn_runs = 50000\n")
        assert main(["simulate", "--config", str(path), "--format", "structured"]) == 0
        out = capsys.readouterr().out
        assert "inequality.EQ4.violated = false" in out
        assert "eq5.A+.B-.ratio = " in out
        for eq in ("EQ6", "EQ7", "EQ8", "EQ10"):
            assert f"inequality.{eq}.violated = false" in out

    def test_optimize_deterministic_and_flags_reference_start(self, capsys):
        argv = ["optimize", "--objective", "eq16", "--starts", "3", "--seed", "1", "--format", "structured"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "discrepancy = false" in first

        assert (
            main(
                [
                    "optimize",
                    "--objective",
                    "eq16",
                    "--starts",
                    "1",
                    "--reference-start",
                    "--format",
                    "structured",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        value = float(out.split("search.value = ")[1].split("\n")[0])
        assert value >= SQRT2 - 1e-12

    def test_optimize_rejects_bad_objective(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--objective", "eq99"])
        assert err.value.code == 2

    def test_verify_passes_and_is_seed_stable(self, capsys):
        assert main(["verify", "--format", "structured"]) == 0
        first = capsys.readouterr().out
        assert "verify.ok = true" in first
        assert main(["verify", "--format", "structured"]) == 0
        assert capsys.readouterr().out == first

    def test_verify_accepts_the_last_64_bit_seed(self, capsys):
        # its checks' later ensembles wrap round to seeds 0, 1, ...
        main(["verify", "--seed", str(2**64 - 1), "--format", "structured"])
        captured = capsys.readouterr()
        assert "error:" not in captured.err
        assert [line for line in captured.out.splitlines() if line.startswith("verify.ok = ")]

    def test_verify_literal_misprint_fails(self, capsys):
        assert main(["verify", "--use-literal-eq3", "--format", "structured"]) == 1
        out = capsys.readouterr().out
        assert "check.eq4_identity = fail" in out



class TestDerivedLines:
    """The derived.* lines of a structured simulate report, pinned to the
    estimator formulas written out from the raw counts."""

    @staticmethod
    def _expected(counts):
        """The four derived lines, and the sum of squares under the lhs16 stderr."""
        nan = float("nan")
        values, errs = [], []
        for x, y in ((0, 1), (1, 2), (0, 2)):  # E(a,b), E(b,c), E(a,c)
            block = counts[x, y]
            n = int(block.sum())
            value = float(block[0, 0] + block[1, 1] - block[0, 1] - block[1, 0]) / n if n else nan
            values.append(value)
            errs.append(math.sqrt(max(0.0, 1.0 - value * value) / n) if n else nan)
        square_sum = sum(e**2 for e in errs)
        probs = []
        # P(a+,c-), P(a+,b-), P(b+,c-); outcome index 0 is +1
        for x, sx, y, sy in ((0, 0, 2, 1), (0, 0, 1, 1), (1, 0, 2, 1)):
            n = int(counts[x, y].sum())
            if n:
                p = int(counts[x, y, sx, sy]) / n
                probs.append((p, math.sqrt(p * (1.0 - p) / n)))
        if len(probs) == 3:
            (p_ac, s_ac), (p_ab, s_ab), (p_bc, s_bc) = probs
            lhs18 = 1.0 - 4.0 * (p_ab + p_bc - p_ac)
            lhs18_err = 4.0 * math.sqrt(s_ac**2 + s_ab**2 + s_bc**2)
        else:
            lhs18 = lhs18_err = nan
        lines = [
            kv_line("derived.lhs16.value", values[0] + values[1] - values[2]),
            kv_line("derived.lhs16.stderr", square_sum**0.5),
            kv_line("derived.lhs18.value", lhs18),
            kv_line("derived.lhs18.stderr", lhs18_err),
        ]
        return lines, square_sum

    def test_derived_lines_match_formulas(self):
        config = ExperimentConfig(report_format="structured")
        tabular_config = ExperimentConfig(report_format="tabular")
        rng = np.random.default_rng(0)
        roots_differ = 0
        for i in range(3000):
            counts = rng.integers(0, (5, 50, 200, 2000)[i % 4], size=(3, 3, 2, 2))
            if i % 2:
                counts[rng.random((3, 3, 2, 2)) < 0.2] = 0
            result = SimpleNamespace(table=RunCountTable(counts), hidden=None)
            text = cli.build_simulate_report(config, result)
            derived = [line for line in text.splitlines() if line.startswith("derived.")]
            expected, square_sum = self._expected(counts)
            assert derived == expected, f"table {i}"
            tabular = cli.build_simulate_report(tabular_config, result)
            assert tabular == tabular_from_structured(text), f"table {i}"
            roots_differ += math.isfinite(square_sum) and square_sum**0.5 != math.sqrt(square_sum)
        # the lhs16 stderr is `** 0.5`; a table where math.sqrt rounds
        # differently shows that this test would catch a switch
        assert roots_differ >= 1


def kv_line(key, value):
    """One structured line, as the reports wrote them one at a time."""
    return f"{key} = {fmt_value(value)}"


def reference_fmt_value(value):
    """fmt_value as first written: a chain of isinstance tests."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_report_body(table, hidden, sigma):
    """The estimate, inequality and eq5 lines of a structured lhv report,
    one kv_line call per line, keys written out per line."""
    expectations, probs, reports = evaluate_table(table, sigma)
    reports.append(check_count_inequality(hidden, sigma))
    sign = {1: "+", -1: "-"}
    lines = []
    estimates = [(f"E.{x.name}.{y.name}", est) for (x, y), est in expectations.items()]
    estimates += [
        (f"P.{x.name}{sign[sx]}.{y.name}{sign[sy]}", est) for (x, sx, y, sy), est in probs.items()
    ]
    for name, est in estimates:
        prefix = f"estimate.{name}"
        lines += [
            kv_line(f"{prefix}.defined", est.defined),
            kv_line(f"{prefix}.value", est.value),
            kv_line(f"{prefix}.stderr", est.stderr),
            kv_line(f"{prefix}.n", est.n_conditioning),
            kv_line(f"{prefix}.low_stats", est.low_stats),
        ]
    for r in reports:
        prefix = f"inequality.{r.inequality_id}"
        lines.append(kv_line(f"{prefix}.defined", r.defined))
        if r.defined:
            fields = ("lhs", "rhs", "margin", "stderr_margin", "n_sigma", "sigma_threshold", "violated")
            lines += [kv_line(f"{prefix}.{field}", getattr(r, field)) for field in fields]
    for x, sx, y, sy in PAIR_MARGINAL_KEYS:
        ratio = eq5_ratio(hidden, table, x, sx, y, sy)
        prefix = f"eq5.{x.name}{sign[sx]}.{y.name}{sign[sy]}"
        lines.append(kv_line(f"{prefix}.defined", ratio.defined))
        if ratio.defined:
            for field in ("ratio", "stderr", "marginal", "observed"):
                lines.append(kv_line(f"{prefix}.{field}", getattr(ratio, field)))
    return lines


def tabular_from_structured(text):
    """The tabular simulate report, written out line by line from the values
    of the structured report of the same table at the tabular precision."""
    kv = dict(line.split(" = ", 1) for line in text.splitlines())

    def num(key):
        return float(kv[key])

    def estimate(label, name, sign):
        p = f"estimate.{name}"
        flag = "  [low statistics]" if kv[f"{p}.low_stats"] == "true" else ""
        value, stderr = num(f"{p}.value"), num(f"{p}.stderr")
        return f"  {label} = {value:{sign}.6f} +/- {stderr:.6f}  [n={kv[f'{p}.n']}]{flag}"

    same = int(kv["result.same_setting_runs"])
    agreement = f"{num('result.same_setting_agreement'):.6f}" if same else "undefined"
    lines = [
        f"run ensemble report ({kv['config.model']}, {kv['config.mode']} mode)",
        f"config digest: {kv['config.digest']}",
        f"runs: {kv['result.total_runs']}   seed: {kv['config.seed']}",
        f"same-setting runs: {same}   agreement: {agreement}",
        "",
        "expectation estimates:",
    ]
    lines += [estimate(f"E({x},{y})", f"E.{x}.{y}", "+") for x, y in ("AB", "BC", "AC")]
    lines += ["", "pair probability estimates:"]
    probs = ("A+C-", "A+B-", "B+C-", "A-C+", "A-B+", "B-C+")
    lines += [estimate(f"P({p[:2]},{p[2:]})", f"P.{p[:2]}.{p[2:]}", "") for p in probs]
    lines.append("")
    for name in ("lhs16", "lhs18"):
        value, stderr = num(f"derived.{name}.value"), num(f"derived.{name}.stderr")
        lines.append(f"derived {name} = {value:+.6f} +/- {stderr:.6f}")
    lines += ["", "inequalities:"]
    for eq in ("EQ6", "EQ7", "EQ8", "EQ10", "EQ4"):
        p = f"inequality.{eq}"
        if f"{p}.defined" not in kv:
            continue
        if kv[f"{p}.defined"] == "false":
            lines.append(f"  {eq:<5} undefined (insufficient statistics)")
            continue
        lhs, rhs, margin = num(f"{p}.lhs"), num(f"{p}.rhs"), num(f"{p}.margin")
        stderr, n_sigma = num(f"{p}.stderr_margin"), num(f"{p}.n_sigma")
        verdict = "VIOLATED" if kv[f"{p}.violated"] == "true" else "satisfied"
        lines.append(
            f"  {eq:<5} lhs={lhs: .6f}  rhs={rhs: .6f}  margin={margin: .6f} +/- {stderr:.6f}"
            f"  [{n_sigma:+.2f} sigma]  {verdict}"
        )
    if "inequality.EQ4.defined" in kv:
        lines += ["", "sampling-factor ratios (expected 1):"]
        for p in probs:
            q = f"eq5.{p[:2]}.{p[2:]}"
            if kv[f"{q}.defined"] == "true":
                ratio, stderr = num(f"{q}.ratio"), num(f"{q}.stderr")
                lines.append(f"  9 N[{p}] / N(...) = {ratio:.6f} +/- {stderr:.6f}")
    return "\n".join(lines) + "\n"


class TestReportFormatting:
    def test_fmt_value_matches_isinstance_chain(self):
        values = [0.1, 1e-300, math.nan, -math.inf, 3, -7, 2**70, True, False]
        values += [Mode.FREE, Setting.B, Outcome.MINUS, "text", None]
        for value in values:
            assert fmt_value(value) == reference_fmt_value(value)
        # a numpy scalar reads as its Python value
        for value in [np.float64(0.5), np.float32(0.1), np.int64(4), np.True_, np.False_]:
            assert fmt_value(value) == reference_fmt_value(value.item())
        assert [fmt_value(np.float64(0.5)), fmt_value(np.True_)] == ["0.5", "true"]

    def test_lhv_report_lines_as_written_line_by_line(self):
        config = ExperimentConfig(report_format="structured")
        tabular_config = replace(config, report_format="tabular")
        rng = np.random.default_rng(5)
        tables = []
        for i in range(300):
            counts = rng.integers(0, (3, 30, 3000)[i % 3], size=(3, 3, 2, 2))
            counts[rng.random((3, 3, 2, 2)) < 0.3] = 0
            hidden = rng.integers(0, 2000, size=8) * (rng.random(8) < 0.7)
            tables.append((counts, hidden))
        # and one table without a same-setting run
        counts = rng.integers(0, 30, size=(3, 3, 2, 2))
        counts[[0, 1, 2], [0, 1, 2]] = 0
        tables.append((counts, rng.integers(0, 2000, size=8)))
        seen = set()
        for i, (counts, hidden) in enumerate(tables):
            table, hidden = RunCountTable(counts), HiddenCountTable(hidden)
            result = SimpleNamespace(table=table, hidden=hidden)
            text = cli.build_simulate_report(config, result)
            body = [
                line for line in text.splitlines()
                if line.startswith(("estimate.", "inequality.", "eq5."))
            ]
            assert body == reference_report_body(table, hidden, config.sigma), f"table {i}"
            tabular = cli.build_simulate_report(tabular_config, result)
            assert tabular == tabular_from_structured(text), f"table {i}"
            for mark in ("[low statistics]", "undefined (insufficient", "agreement: undefined"):
                if mark in tabular:
                    seen.add(mark)
        assert len(seen) == 3


class TestRender:
    """One list of rows holding every row kind, written in both formats."""

    ROWS = [
        ("tabular only {}", (), ("x",)),
        (None, ("only.structured = ",), (1.5,)),
        ("both {:.3f} and {}", ("both.value = ", "both.flag = "), (0.25, True)),
        ("past the last key: {} {}", ("past.n = ",), (3, "tabular {0} only")),
        ("a {{0}} detail: {}", ("braces = ",), ("{1} {x}",)),
        inequality_row(undefined_report("EQ7")),
        inequality_row(InequalityReport("EQ16", 1.5, 1.0)),
    ]

    def test_structured_line_by_line(self):
        text = render("structured", "demo", "not shown", None, self.ROWS)
        assert text.splitlines() == [
            "format = structured",
            "command = demo",
            "only.structured = 1.5",
            "both.value = 0.25",
            "both.flag = true",
            "past.n = 3",
            "braces = {1} {x}",
            "inequality.EQ7.defined = false",
            "inequality.EQ16.defined = true",
            "inequality.EQ16.lhs = 1.5",
            "inequality.EQ16.rhs = 1.0",
            "inequality.EQ16.margin = -0.5",
            "inequality.EQ16.stderr_margin = 0.0",
            "inequality.EQ16.n_sigma = -inf",
            "inequality.EQ16.sigma_threshold = 5.0",
            "inequality.EQ16.violated = true",
        ]
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_tabular_line_by_line(self):
        text = render("tabular", "demo", "a title", None, self.ROWS)
        assert text.splitlines() == [
            "a title",
            "tabular only x",
            "both 0.250 and True",
            "past the last key: 3 tabular {0} only",
            "a {0} detail: {1} {x}",
            "  EQ7   undefined (insufficient statistics)",
            "  EQ16  lhs= 1.500000  rhs= 1.000000  margin=-0.500000 +/- 0.000000"
            "  [-inf sigma]  VIOLATED",
        ]
        assert render("tabular", "demo", None, None, self.ROWS[:1]) == "tabular only x\n"

    def test_config_header(self):
        config = ExperimentConfig(report_format="structured")
        protocol = [f"config.{line}" for line in config.protocol_lines()]
        assert render("structured", "demo", None, config, []).splitlines() == [
            "format = structured",
            "command = demo",
            f"config.digest = {config.digest()}",
            *protocol,
        ]
        assert render("tabular", "demo", "a title", config, []).splitlines() == [
            "a title",
            f"config digest: {config.digest()}",
        ]
