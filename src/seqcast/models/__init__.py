"""The three sequence forecasters and their shared dispatch surface.

Each model module exposes ``shapes`` (its ordered name -> shape table) plus
``init_params``, ``forward`` and ``backward``; every kind's parameters are
one ``Params``. ``REGISTRY`` is the one place that says what a model kind
is; everything here dispatches through it so training and forecasting stay
model-agnostic. Forward/backward are pure given (params, input): params are
never mutated by model code.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType

import numpy as np

from . import gru, lstm, transformer
from .params import Params


@dataclass(frozen=True)
class ModelKind:
    """What differs between model kinds.

    arch_keys name the architecture values in the order the weight-file
    header states them and reports echo them. Each is an attribute of
    ModelConfig and a keyword of the module's ``shapes`` and ``init_params``.
    Per-model seed = run seed + seed_offset, so models never share an init
    stream.
    """

    module: ModuleType
    arch_keys: tuple[str, ...]
    seed_offset: int

    def dims(self, cfg) -> dict[str, int]:
        """The architecture values of a ModelConfig, in key order."""
        return {key: getattr(cfg, key) for key in self.arch_keys}


REGISTRY = {
    "lstm": ModelKind(lstm, ("hidden",), 1),
    "gru": ModelKind(gru, ("hidden",), 2),
    "transformer": ModelKind(transformer, ("d_model", "n_heads", "n_layers", "d_ff"), 3),
}
MODEL_KINDS = tuple(REGISTRY)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters for one forecaster."""

    kind: str
    hidden: int = 64  # lstm / gru state width
    d_model: int = 64  # transformer embedding width
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 128

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        for field in ("hidden", "d_model", "n_heads", "n_layers", "d_ff"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.kind == "transformer" and self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")

    def as_dict(self) -> dict:
        """The kind and its own architecture keys, as echoed in reports."""
        return {"kind": self.kind, **REGISTRY[self.kind].dims(self)}


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> Params:
    entry = REGISTRY[cfg.kind]
    return entry.module.init_params(rng, **entry.dims(cfg))


def rebuild(params: Params, theta: np.ndarray) -> Params:
    """Params of the same kind and dims over theta (optimizer plumbing)."""
    return Params(params.kind, params.dims, theta)


def forward(params: Params, x: np.ndarray):
    """Batched forward pass: x is (batch, steps), result is ((batch,), cache)."""
    return REGISTRY[params.kind].module.forward(params, x)


def backward(params: Params, cache, d_preds: np.ndarray) -> Params:
    """Gradient of sum_b d_preds[b] * prediction_b w.r.t. every parameter."""
    return REGISTRY[params.kind].module.backward(params, cache, d_preds)


def predict(params: Params, window: np.ndarray) -> float:
    """Single-window prediction: window is (steps,), result a scalar."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1:
        raise ValueError(f"predict expects a 1-D window, got shape {window.shape}")
    preds, _ = forward(params, window[None, :])
    return float(preds[0])
