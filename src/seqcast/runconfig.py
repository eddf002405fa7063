"""Run configuration: INI file, flag overrides, canonical echo.

Layout (all keys optional, defaults below):

    [run]
    data = prices.csv          ; input CSV path
    output_dir = out           ; all artifacts land here
    lookback = 60              ; window length fed to the models
    horizon = 30               ; forecast steps / held-out test length
    val_frac = 0.1             ; validation share of the pre-test rows
    seed = 0                   ; run seed; per-model seeds derive from it
    adf_on = monthly-high      ; series under the unit-root test

    [lstm] / [gru]             ; hidden, plus any training key
    [transformer]              ; d_model, n_heads, n_layers, d_ff, training keys

Training keys: learning_rate, beta1, beta2, epsilon, batch_size,
max_epochs, patience, grad_clip_norm. Per-model seeds are derived
(run seed + fixed offset), never read from the file. Unknown sections or
keys are errors, not warnings. ``canonical_text`` emits the fully merged
form; parsing that text back yields an identical config.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace
from pathlib import Path

from .models import MODEL_KINDS, REGISTRY, ModelConfig
from .training import TrainConfig

ADF_CHOICES = ("monthly-high", "daily-high")

_TRAIN_KEYS = {
    "learning_rate": float,
    "beta1": float,
    "beta2": float,
    "epsilon": float,
    "batch_size": int,
    "max_epochs": int,
    "patience": int,
    "grad_clip_norm": float,
}
_RUN_KEYS = {
    "data": str,
    "output_dir": str,
    "lookback": int,
    "horizon": int,
    "val_frac": float,
    "seed": int,
    "adf_on": str,
}


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    data_path: str | None = None
    output_dir: str = "out"
    lookback: int = 60
    horizon: int = 30
    val_frac: float = 0.1
    seed: int = 0
    adf_on: str = "monthly-high"
    model_overrides: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self):
        if self.lookback < 1:
            raise ConfigError(f"lookback must be >= 1, got {self.lookback}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 < self.val_frac < 1.0:
            raise ConfigError(f"val_frac must be in (0, 1), got {self.val_frac}")
        if self.adf_on not in ADF_CHOICES:
            raise ConfigError(f"adf_on must be one of {ADF_CHOICES}, got {self.adf_on!r}")
        if self.data_path is not None:
            if Path(self.data_path).resolve() == Path(self.output_dir).resolve():
                raise ConfigError("data path and output_dir must be distinct")
        for kind, key, _ in self.model_overrides:
            if kind not in MODEL_KINDS:
                raise ConfigError(f"unknown model section [{kind}]")
            if key not in _TRAIN_KEYS and key not in REGISTRY[kind].arch_keys:
                raise ConfigError(f"unknown key {key!r} in section [{kind}]")
        # Surface invalid values now rather than mid-run.
        for kind in MODEL_KINDS:
            try:
                self.model_config(kind)
                self.train_config(kind)
            except ValueError as exc:
                raise ConfigError(f"[{kind}] {exc}") from None

    def _section(self, kind: str) -> dict[str, float]:
        return {key: value for k, key, value in self.model_overrides if k == kind}

    def model_config(self, kind: str) -> ModelConfig:
        sect = self._section(kind)
        arch = {key: int(sect[key]) for key in REGISTRY[kind].arch_keys if key in sect}
        return ModelConfig(kind=kind, **arch)

    def train_config(self, kind: str) -> TrainConfig:
        sect = self._section(kind)
        kwargs = {key: kast(sect[key]) for key, kast in _TRAIN_KEYS.items() if key in sect}
        return TrainConfig(seed=self.seed + REGISTRY[kind].seed_offset, **kwargs)


def _convert(section: str, key: str, raw: str, kast):
    try:
        return kast(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot read {raw!r} as {kast.__name__}") from None


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None

    run_kwargs: dict = {}
    overrides: list[tuple[str, str, float]] = []
    for section in parser.sections():
        if section == "run":
            for key, raw in parser.items(section):
                if key not in _RUN_KEYS:
                    raise ConfigError(f"unknown key {key!r} in section [run]")
                value = _convert(section, key, raw, _RUN_KEYS[key])
                run_kwargs["data_path" if key == "data" else key] = value
        elif section in MODEL_KINDS:
            known = dict.fromkeys(REGISTRY[section].arch_keys, int) | _TRAIN_KEYS
            for key, raw in parser.items(section):
                if key not in known:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                overrides.append((section, key, _convert(section, key, raw, known[key])))
        else:
            raise ConfigError(f"unknown section [{section}]")
    return RunConfig(model_overrides=tuple(overrides), **run_kwargs)


def parse_config_file(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(encoding="utf-8"), source=str(p))


def apply_flags(cfg: RunConfig, *, data=None, seed=None, horizon=None, out=None) -> RunConfig:
    """Command-line flags win over file values."""
    updates = {}
    if data is not None:
        updates["data_path"] = str(data)
    if seed is not None:
        updates["seed"] = int(seed)
    if horizon is not None:
        updates["horizon"] = int(horizon)
    if out is not None:
        updates["output_dir"] = str(out)
    return replace(cfg, **updates) if updates else cfg


def canonical_text(cfg: RunConfig) -> str:
    """The fully merged config as INI text; parses back to an equal config."""
    out = io.StringIO()
    out.write("[run]\n")
    if cfg.data_path is not None:
        out.write(f"data = {cfg.data_path}\n")
    out.write(f"output_dir = {cfg.output_dir}\n")
    out.write(f"lookback = {cfg.lookback}\n")
    out.write(f"horizon = {cfg.horizon}\n")
    out.write(f"val_frac = {cfg.val_frac!r}\n")
    out.write(f"seed = {cfg.seed}\n")
    out.write(f"adf_on = {cfg.adf_on}\n")
    for kind in MODEL_KINDS:
        out.write(f"\n[{kind}]\n")
        for key, value in REGISTRY[kind].dims(cfg.model_config(kind)).items():
            out.write(f"{key} = {value}\n")
        train = cfg.train_config(kind)
        for key, kast in _TRAIN_KEYS.items():
            value = getattr(train, key)
            out.write(f"{key} = {value!r}\n" if kast is float else f"{key} = {value}\n")
    return out.getvalue()


def config_echo(cfg: RunConfig) -> dict:
    """Config as a JSON-ready dict, embedded in every artifact."""
    return {
        "data": cfg.data_path,
        "output_dir": cfg.output_dir,
        "lookback": cfg.lookback,
        "horizon": cfg.horizon,
        "val_frac": cfg.val_frac,
        "seed": cfg.seed,
        "adf_on": cfg.adf_on,
        "models": {
            kind: {
                "model": cfg.model_config(kind).as_dict(),
                "train": cfg.train_config(kind).as_dict(),
            }
            for kind in MODEL_KINDS
        },
    }

