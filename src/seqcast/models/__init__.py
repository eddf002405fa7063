"""The three sequence forecasters and their shared dispatch surface.

Each model module exposes ``shapes`` (its ordered name -> shape table) plus
``init_params``, ``forward`` and ``backward``; every kind's parameters are
one ``Params``. ``REGISTRY`` is the one place that says what a model kind
is; everything here dispatches through it so training and forecasting stay
model-agnostic.

Every kind is an encoder under one scalar head, prediction = head_w s + head_b,
where s is the (batch, width) state the module's ``forward`` returns. This
module owns what the kinds share: the input checks, the head and its
gradient, and the check that a cache belongs to the params it is used with.
Forward/backward are pure given (params, input): params are never mutated by
model code.
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

    def shapes(self, dims: dict[str, int]) -> dict[str, tuple[int, ...]]:
        """The layout table for dims; ValueError if a dim is below 1 or the kind rejects them."""
        for key, value in dims.items():
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        return self.module.shapes(**dims)


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
        REGISTRY[self.kind].shapes(REGISTRY[self.kind].dims(self))

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
    """Batched forward pass: x is (batch, steps), result is ((batch,), cache).

    The cache records the kind, dims, input and encoder state it came from.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"expected input of shape (batch, steps), got {x.shape}")
    state, cache = REGISTRY[params.kind].module.forward(params, x)
    cache.update(kind=params.kind, dims=params.dims, x=x, state=state)
    return (state @ params.head_w.T + params.head_b).ravel(), cache


def backward(params: Params, cache: dict, d_preds: np.ndarray) -> Params:
    """Gradient of sum_b d_preds[b] * prediction_b w.r.t. every parameter."""
    made_by = (cache.get("kind"), cache.get("dims"))
    if made_by != (params.kind, params.dims):
        raise ValueError(f"cache of {made_by[0]} {made_by[1]} does not match "
                         f"{params.kind} {params.dims} parameters")
    d_preds = np.asarray(d_preds, dtype=np.float64).ravel()
    state = cache["state"]
    if d_preds.shape != (len(state),):
        raise ValueError(f"need one upstream gradient per sample, got {d_preds.shape}")
    grads = Params(params.kind, params.dims)
    grads.head_w += d_preds[None, :] @ state
    grads.head_b += d_preds.sum(keepdims=True)
    REGISTRY[params.kind].module.backward(params, cache, d_preds[:, None] * params.head_w, grads)
    return grads


def predict(params: Params, window: np.ndarray) -> float:
    """Single-window prediction: window is (steps,), result a scalar."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1:
        raise ValueError(f"predict expects a 1-D window, got shape {window.shape}")
    preds, _ = forward(params, window[None, :])
    return float(preds[0])
