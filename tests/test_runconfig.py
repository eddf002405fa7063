import json
import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcast.models import MODEL_KINDS
from seqcast.runconfig import (
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
        assert cfg.model_config("lstm").hidden == 64
        tr = cfg.model_config("transformer")
        assert (tr.d_model, tr.n_heads, tr.n_layers, tr.d_ff) == (64, 2, 2, 128)

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
        assert cfg.model_config("lstm").hidden == 16
        assert cfg.train_config("lstm").learning_rate == 0.005
        assert cfg.model_config("gru").hidden == 64  # untouched default
        assert cfg.model_config("transformer").n_heads == 4

    def test_parse_from_file(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(SAMPLE)
        assert parse_config_file(p) == parse_config_text(SAMPLE)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(tmp_path / "absent.ini")

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

    def test_data_path_equal_to_output_dir(self):
        with pytest.raises(ConfigError, match="distinct"):
            RunConfig(data="out", output_dir="out")

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
