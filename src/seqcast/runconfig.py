"""Run configuration: INI file, canonical echo; CLI flags override the [run] keys.

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

One table states the schema: ``_section_keys(section)``, each INI
section's key -> type map. The ``[run]`` keys are ``RunConfig``'s fields
less ``model_overrides``; each is also the CLI flag's argparse dest and the
echo key. A model section takes its kind's ``REGISTRY`` architecture keys
and the training keys, ``TrainConfig``'s fields less ``seed``. The parser,
the flags, ``config_echo`` and ``canonical_text`` all follow that table,
and ``canonical_text`` renders ``config_echo``, so the printed config and
the artifacts' echo cannot drift apart; parsing the text back yields a
config with the same echo and text. Per-model seeds are derived (run
seed + fixed offset), never read from the file. Unknown sections or keys
are errors, not warnings.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .data import read_text
from .models import MODEL_KINDS, REGISTRY, ModelConfig, typed
from .training import TrainConfig

ADF_CHOICES = ("monthly-high", "daily-high")


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    data: str | None = None
    output_dir: str = "out"
    lookback: int = 60
    horizon: int = 30
    val_frac: float = 0.1
    seed: int = 0
    adf_on: str = "monthly-high"
    model_overrides: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self):
        for key, kast in _RUN_KEYS.items():
            if key != "data" or self.data is not None:
                try:
                    object.__setattr__(self, key, typed(key, getattr(self, key), kast))
                except ValueError as exc:
                    raise ConfigError(f"[run] {exc}") from None
        for key in ("data", "output_dir"):
            path = getattr(self, key)
            # configparser strips a value and ends it at a newline, and a config
            # file read back turns a carriage return into one; no path holds a NUL.
            if path is not None and (path != path.strip() or any(c in path for c in "\n\r\0")):
                raise ConfigError(f"[run] {key}: {path!r} has a newline, a NUL or whitespace "
                                  "at an end, which the config text cannot hold")
        if self.lookback < 1:
            raise ConfigError(f"lookback must be >= 1, got {self.lookback}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 < self.val_frac < 1.0:
            raise ConfigError(f"val_frac must be in (0, 1), got {self.val_frac}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.adf_on not in ADF_CHOICES:
            raise ConfigError(f"adf_on must be one of {ADF_CHOICES}, got {self.adf_on!r}")
        if self.data is not None:
            # realpath, unlike Path.resolve before Python 3.13, returns on a symlink loop.
            if os.path.realpath(self.data) == os.path.realpath(self.output_dir):
                raise ConfigError("data path and output_dir must be distinct")
        # An override holds what the INI parser could give: a known key, once.
        seen = set()
        for kind, key, _ in self.model_overrides:
            if kind not in MODEL_KINDS:
                raise ConfigError(f"unknown model section [{kind}]")
            if key not in _section_keys(kind):
                raise ConfigError(f"unknown key {key!r} in section [{kind}]")
            if (kind, key) in seen:
                raise ConfigError(f"duplicate key {key!r} in section [{kind}]")
            seen.add((kind, key))
        # Surface invalid values, a wrong type included, now rather than mid-run.
        for kind in MODEL_KINDS:
            try:
                self.model_config(kind)
                self.train_config(kind)
            except ValueError as exc:
                raise ConfigError(f"[{kind}] {exc}") from None

    def _section(self, kind: str) -> dict[str, float]:
        return {key: value for k, key, value in self.model_overrides if k == kind}

    def model_config(self, kind: str) -> ModelConfig:
        arch = REGISTRY[kind].arch_keys
        return ModelConfig(kind, **{k: v for k, v in self._section(kind).items() if k in arch})

    def train_config(self, kind: str) -> TrainConfig:
        kwargs = {k: v for k, v in self._section(kind).items() if k in _TRAIN_KEYS}
        return TrainConfig(seed=self.seed + REGISTRY[kind].seed_offset, **kwargs)


def _key_types(cls, skip: str) -> dict[str, type]:
    """Field name -> INI type, taken from the default; a None default is a path string."""
    return {
        f.name: str if f.default is None else type(f.default)
        for f in fields(cls)
        if f.name != skip
    }


_RUN_KEYS = _key_types(RunConfig, skip="model_overrides")
_TRAIN_KEYS = _key_types(TrainConfig, skip="seed")


def _section_keys(section: str) -> dict[str, type]:
    if section == "run":
        return _RUN_KEYS
    return dict.fromkeys(REGISTRY[section].arch_keys, int) | _TRAIN_KEYS


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
        if section != "run" and section not in MODEL_KINDS:
            raise ConfigError(f"unknown section [{section}]")
        known = _section_keys(section)
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            value = _convert(section, key, raw, known[key])
            if section == "run":
                run_kwargs[key] = value
            else:
                overrides.append((section, key, value))
    return RunConfig(model_overrides=tuple(overrides), **run_kwargs)


def parse_config_file(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = read_text(p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # Universal newlines, as a text-mode read gives: a CR-only file still parses.
    return parse_config_text(text.replace("\r\n", "\n").replace("\r", "\n"), source=str(p))


def config_echo(cfg: RunConfig) -> dict:
    """Config as a JSON-ready dict, embedded in every artifact."""
    return {
        **{key: getattr(cfg, key) for key in _RUN_KEYS},
        "models": {
            kind: {
                "model": cfg.model_config(kind).as_dict(),
                "train": cfg.train_config(kind).as_dict(),
            }
            for kind in MODEL_KINDS
        },
    }


def canonical_text(cfg: RunConfig) -> str:
    """The fully merged config as INI text; it parses back to the same echo and text.

    It renders ``config_echo``: each section lists the keys it accepts, a
    float as its shortest round-tripping repr, and ``data`` only when set.
    """
    echo = config_echo(cfg)
    sections = {"run": echo}
    sections.update((kind, e["model"] | e["train"]) for kind, e in echo["models"].items())
    blocks = []
    for name, values in sections.items():
        lines = [f"[{name}]"]
        lines += [f"{key} = {values[key]}" for key in _section_keys(name) if values[key] is not None]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
