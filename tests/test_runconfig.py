import json
import math
import re
from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from seqcast.models import MODEL_KINDS, REGISTRY, ModelConfig
from seqcast.runconfig import (
    ADF_CHOICES,
    ConfigError,
    RunConfig,
    canonical_text,
    config_echo,
    parse_config_file,
    parse_config_text,
)
from seqcast.training import TrainConfig

SAMPLE = """\
[run]
data = prices.csv
output_dir = results
lookback = 48
horizon = 20
seed = 7

[lstm]
hidden = 16
learning_rate = 0.005

[transformer]
d_model = 16
n_heads = 4
"""


# Pinned byte forms of SAMPLE: --print-config prints the first, and every
# artifact embeds the second, so neither may change under a refactor.
SAMPLE_CANONICAL = """\
[run]
data = prices.csv
output_dir = results
lookback = 48
horizon = 20
val_frac = 0.1
seed = 7
adf_on = monthly-high

[lstm]
hidden = 16
learning_rate = 0.005
beta1 = 0.9
beta2 = 0.999
epsilon = 1e-08
batch_size = 32
max_epochs = 100
patience = 10
grad_clip_norm = 5.0

[gru]
hidden = 64
learning_rate = 0.001
beta1 = 0.9
beta2 = 0.999
epsilon = 1e-08
batch_size = 32
max_epochs = 100
patience = 10
grad_clip_norm = 5.0

[transformer]
d_model = 16
n_heads = 4
n_layers = 2
d_ff = 128
learning_rate = 0.001
beta1 = 0.9
beta2 = 0.999
epsilon = 1e-08
batch_size = 32
max_epochs = 100
patience = 10
grad_clip_norm = 5.0
"""

SAMPLE_ECHO_JSON = """\
{
  "data": "prices.csv",
  "output_dir": "results",
  "lookback": 48,
  "horizon": 20,
  "val_frac": 0.1,
  "seed": 7,
  "adf_on": "monthly-high",
  "models": {
    "lstm": {
      "model": {
        "kind": "lstm",
        "hidden": 16
      },
      "train": {
        "learning_rate": 0.005,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-08,
        "batch_size": 32,
        "max_epochs": 100,
        "patience": 10,
        "grad_clip_norm": 5.0,
        "seed": 8
      }
    },
    "gru": {
      "model": {
        "kind": "gru",
        "hidden": 64
      },
      "train": {
        "learning_rate": 0.001,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-08,
        "batch_size": 32,
        "max_epochs": 100,
        "patience": 10,
        "grad_clip_norm": 5.0,
        "seed": 9
      }
    },
    "transformer": {
      "model": {
        "kind": "transformer",
        "d_model": 16,
        "n_heads": 4,
        "n_layers": 2,
        "d_ff": 128
      },
      "train": {
        "learning_rate": 0.001,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-08,
        "batch_size": 32,
        "max_epochs": 100,
        "patience": 10,
        "grad_clip_norm": 5.0,
        "seed": 10
      }
    }
  }
}
"""


class TestDefaults:
    def test_field_defaults(self):
        cfg = RunConfig()
        assert cfg.data is None
        assert cfg.output_dir == "out"
        assert (cfg.lookback, cfg.horizon) == (60, 30)
        assert cfg.val_frac == 0.1
        assert cfg.adf_on == "monthly-high"

    def test_default_model_configs(self):
        cfg = RunConfig()
        assert cfg.model_config("lstm").dims == (("hidden", 64),)
        tr = cfg.model_config("transformer")
        assert tr.dims == (("d_model", 64), ("n_heads", 2), ("n_layers", 2), ("d_ff", 128))

    def test_per_model_seed_offsets(self):
        cfg = RunConfig(seed=100)
        assert cfg.train_config("lstm").seed == 101
        assert cfg.train_config("gru").seed == 102
        assert cfg.train_config("transformer").seed == 103


class TestParse:
    def test_sample_file(self):
        cfg = parse_config_text(SAMPLE)
        assert cfg.data == "prices.csv"
        assert cfg.output_dir == "results"
        assert cfg.lookback == 48
        assert cfg.horizon == 20
        assert cfg.seed == 7
        assert cfg.model_config("lstm").dims == (("hidden", 16),)
        assert cfg.train_config("lstm").learning_rate == 0.005
        assert cfg.model_config("gru").dims == (("hidden", 64),)  # untouched default
        assert dict(cfg.model_config("transformer").dims)["n_heads"] == 4

    def test_parse_from_file(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(SAMPLE)
        assert parse_config_file(p) == parse_config_text(SAMPLE)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(tmp_path / "absent.ini")

    def test_non_utf8_file_named(self, tmp_path):
        latin1 = tmp_path / "latin1.ini"
        latin1.write_bytes("[run]\ndata = caf\xe9.csv\n".encode("latin-1"))
        message = f"{latin1}: not UTF-8 text, invalid continuation byte at byte 16"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_file(latin1)

    def test_unknown_run_key(self):
        with pytest.raises(ConfigError, match="unknown key 'volume'"):
            parse_config_text("[run]\nvolume = 3\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[rnn\]"):
            parse_config_text("[rnn]\nhidden = 8\n")

    def test_unknown_model_key(self):
        with pytest.raises(ConfigError, match=r"in section \[lstm\]"):
            parse_config_text("[lstm]\nd_model = 8\n")

    def test_unreadable_value(self):
        with pytest.raises(ConfigError, match="cannot read 'many'"):
            parse_config_text("[run]\nlookback = many\n")

    def test_malformed_ini(self):
        with pytest.raises(ConfigError):
            parse_config_text("not an ini file at all\n")


# Plain text, and short runs of characters the config text or its file treats specially.
_PATHS = st.text(max_size=12) | st.text(" a\t\n\r\x00\x0b\x85#;", max_size=5)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lookback": 0},
            {"horizon": 0},
            {"val_frac": 0.0},
            {"val_frac": 1.0},
            {"adf_on": "weekly-low"},
            {"seed": -1},
        ],
    )
    def test_bad_run_values(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    # The echo would write 60.0 or true, which parsing the text back refuses.
    @pytest.mark.parametrize(
        "key,value", [("lookback", 60.0), ("horizon", 30.5), ("seed", 1.0), ("lookback", True)]
    )
    def test_run_count_that_is_no_int_refused(self, key, value):
        message = re.escape(f"[run] {key}: cannot read {value!r} as int")
        with pytest.raises(ConfigError, match=message):
            RunConfig(**{key: value})

    def test_data_path_equal_to_output_dir(self):
        with pytest.raises(ConfigError, match="distinct"):
            RunConfig(data="out", output_dir="out")

    # configparser strips a value and ends it at a newline, so these paths
    # would print as a config that reads back another path or none at all; a
    # config file is read with universal newlines, so a carriage return ends
    # a line there too; and a NUL names no file.
    @pytest.mark.parametrize("key", ["data", "output_dir"])
    @pytest.mark.parametrize(
        "path", [" prices.csv", "a\x1c", " a", "a\n b", "a\nb", "a\x00b", "a\rb", "a\r"]
    )
    def test_path_the_config_text_cannot_hold_refused(self, key, path):
        message = re.escape(f"[run] {key}: {path!r} has a newline, a NUL or whitespace at an end")
        with pytest.raises(ConfigError, match=message):
            RunConfig(**{key: path})

    @pytest.mark.parametrize("key", ["data", "output_dir"])
    @pytest.mark.parametrize("path", ["a\x0bb", "a\x85b", "a\u2028b", "#a", "a;b", "%(x)s", ""])
    def test_path_the_config_text_holds_round_trips(self, key, path):
        cfg = RunConfig(**{key: path})
        assert getattr(parse_config_text(canonical_text(cfg)), key) == path

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(["data", "output_dir"]), path=_PATHS)
    def test_accepted_path_survives_a_printed_config_file(self, tmp_path, key, path):
        # --print-config saved to a file: its bytes, read back with the
        # universal newlines a config file is read with.
        try:
            cfg = RunConfig(**{key: path})
        except ConfigError:
            reject()
        printed = tmp_path / "printed.ini"
        printed.write_bytes(canonical_text(cfg).encode("utf-8"))
        assert config_echo(parse_config_file(printed)) == config_echo(cfg)

    def test_bad_model_value_surfaces_early(self):
        with pytest.raises(ConfigError, match=r"\[gru\]"):
            RunConfig(model_overrides=(("gru", "hidden", 0),))

    def test_bad_train_value_surfaces_early(self):
        with pytest.raises(ConfigError, match=r"\[lstm\]"):
            RunConfig(model_overrides=(("lstm", "learning_rate", -1.0),))

    @given(
        kind=st.sampled_from(MODEL_KINDS),
        key=st.sampled_from([f.name for f in fields(TrainConfig) if f.type == "float"]),
        value=st.sampled_from([math.inf, -math.inf, math.nan]),
    )
    def test_non_finite_train_value_rejected(self, kind, key, value):
        with pytest.raises(ValueError):
            TrainConfig(**{key: value})
        with pytest.raises(ConfigError, match=rf"\[{kind}\]"):
            parse_config_text(f"[{kind}]\n{key} = {value}\n")

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig(model_overrides=(("lstm", "dropout", 0.5),))

    def test_unknown_override_section(self):
        with pytest.raises(ConfigError, match=r"unknown model section \[rnn\]"):
            RunConfig(model_overrides=(("rnn", "hidden", 8),))

    # The INI path cannot give any of these: configparser refuses a repeated
    # key, an int key does not read 8.7, and the parser hands over no bool,
    # None or str for a float key.
    @pytest.mark.parametrize(
        "overrides,message",
        [
            ((("lstm", "hidden", 8.7),), r"\[lstm\] hidden: cannot read 8.7 as int"),
            ((("gru", "max_epochs", 12.9),), r"\[gru\] max_epochs: cannot read 12.9 as int"),
            ((("transformer", "d_model", 8.0),), r"\[transformer\] d_model: cannot read 8.0 as"),
            ((("gru", "hidden", True),), r"\[gru\] hidden: cannot read True as int"),
            ((("lstm", "learning_rate", True),), r"\[lstm\] learning_rate: cannot read True as float$"),
            ((("lstm", "learning_rate", None),), r"\[lstm\] learning_rate: cannot read None as float$"),
            ((("lstm", "learning_rate", "0.1"),), r"\[lstm\] learning_rate: cannot read '0.1' as float$"),
            ((("lstm", "learning_rate", "abc"),), r"\[lstm\] learning_rate: cannot read 'abc' as float$"),
            (
                (("lstm", "hidden", 8), ("lstm", "hidden", 16)),
                r"duplicate key 'hidden' in section \[lstm\]",
            ),
        ],
        ids=[
            "float-hidden", "float-max-epochs", "float-d-model", "bool-hidden",
            "bool-rate", "none-rate", "str-rate", "word-rate", "repeated-key",
        ],
    )
    def test_override_the_ini_path_refuses(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(model_overrides=overrides)

    def test_int_override_for_a_float_key(self):
        cfg = RunConfig(model_overrides=(("lstm", "learning_rate", 1), ("lstm", "hidden", 8)))
        assert cfg.train_config("lstm").learning_rate == 1.0
        assert cfg.model_config("lstm").dims == (("hidden", 8),)

    # Each of these ended in a TypeError from a comparison or was accepted.
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"val_frac": None}, "[run] val_frac: cannot read None as float"),
            ({"val_frac": "0.5"}, "[run] val_frac: cannot read '0.5' as float"),
            ({"data": 5}, "[run] data: cannot read 5 as str"),
            ({"output_dir": None}, "[run] output_dir: cannot read None as str"),
        ],
        ids=["none-val-frac", "str-val-frac", "int-data", "none-output-dir"],
    )
    def test_wrong_type_fails_loudly(self, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            RunConfig(**kwargs)
        assert str(exc.value) == message


# Every setting as (where it is set, its name, its type): the [run] keys,
# then TrainConfig's fields, then each kind's dims.
SETTINGS = [
    ("run", f.name, str if f.default is None else type(f.default))
    for f in fields(RunConfig)
    if f.name != "model_overrides"
]
SETTINGS += [("train", f.name, type(f.default)) for f in fields(TrainConfig)]
SETTINGS += [(kind, key, int) for kind in MODEL_KINDS for key in REGISTRY[kind].arch_keys]


def _refusals(where, name, value):
    """Each way to give the setting value, with the error it must be refused with."""
    message = f"{name}: cannot read {value!r} as "
    if where == "run":
        return [(partial(RunConfig, **{name: value}), ConfigError, f"[run] {message}")]
    if where == "train":
        kinds = MODEL_KINDS if name != "seed" else ()  # the per-model seed is derived
        ways = [(partial(TrainConfig, **{name: value}), ValueError, message)]
    else:
        kinds = (where,)
        ways = [(partial(ModelConfig, where, **{name: value}), ValueError, message)]
    for kind in kinds:
        override = partial(RunConfig, model_overrides=((kind, name, value),))
        ways.append((override, ConfigError, f"[{kind}] {message}"))
    return ways


class TestOneRule:
    @given(
        setting=st.sampled_from(SETTINGS),
        value=st.one_of(
            st.booleans(), st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=2)
        ),
    )
    def test_value_of_another_type_refused(self, setting, value):
        where, name, kast = setting
        if value is None and (where, name) == ("run", "data"):
            return  # data alone may be None
        if isinstance(value, str) and kast is str:
            return
        for make, error, message in _refusals(where, name, value):
            with pytest.raises(error) as exc:  # a TypeError fails the test
                make()
            assert str(exc.value) == message + kast.__name__

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.25)])
    @pytest.mark.parametrize(
        "key", [key for where, key, kast in SETTINGS if where == "train" and kast is float]
    )
    def test_numpy_float_stored_as_float(self, key, value):
        for cfg in (
            TrainConfig(**{key: value}),
            RunConfig(model_overrides=(("gru", key, value),)).train_config("gru"),
        ):
            assert type(getattr(cfg, key)) is float
            assert getattr(cfg, key) == value
        assert type(RunConfig(val_frac=value).val_frac) is float

    @pytest.mark.parametrize("key", ["learning_rate", "epsilon", "grad_clip_norm"])
    def test_int_stored_as_float(self, key):
        assert type(getattr(TrainConfig(**{key: 1}), key)) is float
        echo = config_echo(RunConfig(model_overrides=(("gru", key, 1),)))
        assert repr(echo["models"]["gru"]["train"][key]) == "1.0"


_POSITIVE = st.floats(min_value=0, exclude_min=True, allow_infinity=False) | st.integers(1, 10)
_UNIT = st.floats(0, 1, exclude_min=True, exclude_max=True)
_OVERRIDES = {
    "hidden": st.integers(1, 64),
    "d_model": st.sampled_from([4, 8, 16]),
    "n_heads": st.sampled_from([1, 2, 4]),
    "n_layers": st.integers(1, 3),
    "d_ff": st.integers(1, 64),
    "learning_rate": _POSITIVE,
    "beta1": _UNIT,
    "beta2": _UNIT,
    "epsilon": _POSITIVE,
    "batch_size": st.integers(1, 512),
    "max_epochs": st.integers(10, 200),  # never below a default or drawn patience
    "patience": st.integers(1, 10),
    "grad_clip_norm": _POSITIVE,
}


@st.composite
def _run_configs(draw):
    """A valid RunConfig with drawn [run] settings and overrides in drawn order."""
    train_keys = [f.name for f in fields(TrainConfig) if f.name != "seed"]
    overrides = []
    for kind in MODEL_KINDS:
        keys = st.sampled_from([*REGISTRY[kind].arch_keys, *train_keys])
        overrides += [(kind, key, draw(_OVERRIDES[key])) for key in draw(st.lists(keys, unique=True))]
    try:
        return RunConfig(
            data=draw(st.none() | _PATHS),
            output_dir=draw(_PATHS),
            lookback=draw(st.integers(1, 10**6)),
            horizon=draw(st.integers(1, 10**6)),
            val_frac=draw(_UNIT),
            seed=draw(st.integers(0, 2**64)),
            adf_on=draw(st.sampled_from(ADF_CHOICES)),
            model_overrides=tuple(draw(st.permutations(overrides))),
        )
    except ConfigError:
        reject()  # a path the config text cannot hold, or data and output_dir name one path


class TestCanonical:
    def test_round_trip_is_fixed_point(self):
        cfg = parse_config_text(SAMPLE)
        text = canonical_text(cfg)
        assert canonical_text(parse_config_text(text)) == text

    def test_round_trip_from_defaults(self):
        text = canonical_text(RunConfig(data="x.csv", seed=3))
        assert canonical_text(parse_config_text(text)) == text

    def test_sample_canonical_bytes(self):
        assert canonical_text(parse_config_text(SAMPLE)) == SAMPLE_CANONICAL

    @given(_run_configs())
    def test_text_gives_back_the_echo(self, cfg):
        # Parsing the text back spells out every default as an override, so
        # the config is not equal to cfg; its echo and its text are.
        text = canonical_text(cfg)
        again = parse_config_text(text)
        assert config_echo(again) == config_echo(cfg)
        assert canonical_text(again) == text

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=_run_configs())
    def test_text_saved_in_any_form_gives_back_the_echo(self, tmp_path, bom, newline, cfg):
        # A config file is read like a CSV: UTF-8, a BOM dropped, any line end.
        saved = tmp_path / "saved.ini"
        saved.write_bytes(bom + canonical_text(cfg).replace("\n", newline).encode("utf-8"))
        assert config_echo(parse_config_file(saved)) == config_echo(cfg)

    def test_canonical_lists_every_section(self):
        text = canonical_text(RunConfig())
        for header in ("[run]", *(f"[{kind}]" for kind in MODEL_KINDS)):
            assert header in text


class TestEcho:
    def test_echo_shape(self):
        echo = config_echo(parse_config_text(SAMPLE))
        assert echo["data"] == "prices.csv"
        assert echo["seed"] == 7
        assert set(echo["models"]) == set(MODEL_KINDS)
        assert echo["models"]["lstm"]["model"] == {"kind": "lstm", "hidden": 16}
        assert echo["models"]["lstm"]["train"]["seed"] == 8

    def test_sample_echo_bytes(self):
        assert json.dumps(config_echo(parse_config_text(SAMPLE)), indent=2) + "\n" == SAMPLE_ECHO_JSON

    def test_echo_is_deterministic(self):
        cfg = parse_config_text(SAMPLE)
        assert json.dumps(config_echo(cfg)) == json.dumps(config_echo(cfg))
