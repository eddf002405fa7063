import pytest

from seqcast.models import MODEL_KINDS
from seqcast.runconfig import (
    ConfigError,
    RunConfig,
    apply_flags,
    canonical_text,
    config_echo,
    parse_config_file,
    parse_config_text,
)

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


class TestDefaults:
    def test_field_defaults(self):
        cfg = RunConfig()
        assert cfg.data_path is None
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
        assert cfg.data_path == "prices.csv"
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
        ],
    )
    def test_bad_run_values(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_data_path_equal_to_output_dir(self):
        with pytest.raises(ConfigError, match="distinct"):
            RunConfig(data_path="out", output_dir="out")

    def test_bad_model_value_surfaces_early(self):
        with pytest.raises(ConfigError, match=r"\[gru\]"):
            RunConfig(model_overrides=(("gru", "hidden", 0),))

    def test_bad_train_value_surfaces_early(self):
        with pytest.raises(ConfigError, match=r"\[lstm\]"):
            RunConfig(model_overrides=(("lstm", "learning_rate", -1.0),))

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig(model_overrides=(("lstm", "dropout", 0.5),))


class TestFlags:
    def test_flags_override_file_values(self):
        cfg = parse_config_text(SAMPLE)
        out = apply_flags(cfg, data="other.csv", seed=9, horizon=5, out="elsewhere")
        assert out.data_path == "other.csv"
        assert out.seed == 9
        assert out.horizon == 5
        assert out.output_dir == "elsewhere"
        # untouched fields survive
        assert out.lookback == 48
        assert out.model_config("lstm").hidden == 16

    def test_no_flags_returns_same_config(self):
        cfg = parse_config_text(SAMPLE)
        assert apply_flags(cfg) is cfg


class TestCanonical:
    def test_round_trip_is_fixed_point(self):
        cfg = parse_config_text(SAMPLE)
        text = canonical_text(cfg)
        assert canonical_text(parse_config_text(text)) == text

    def test_round_trip_from_defaults(self):
        text = canonical_text(RunConfig(data_path="x.csv", seed=3))
        assert canonical_text(parse_config_text(text)) == text

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

    def test_echo_is_deterministic(self):
        import json

        cfg = parse_config_text(SAMPLE)
        assert json.dumps(config_echo(cfg)) == json.dumps(config_echo(cfg))
