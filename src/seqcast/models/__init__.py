"""The three sequence forecasters and their shared dispatch surface.

Each model module exposes ``shapes`` (its ordered name -> shape table) plus
``init_params``, which fills a zero ``Params`` of that table in place,
``forward`` and ``backward``, and a recurrent one ``lanes``. ``REGISTRY`` is
the one place that says what a model kind is; everything here dispatches
through it so training and forecasting stay model-agnostic.

Every kind is an encoder under one scalar head, prediction = head_w s + head_b,
where s is the (batch, width) state the module's ``forward`` returns. This
module owns what the kinds share: the input checks, the head and its
gradient, the check that a cache belongs to the params it is used with, and
the recursive forecast. Forward/backward are pure given (params, input):
params are never mutated by model code.
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
    ModelConfig and a keyword of the module's ``shapes``.
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
    """Fresh parameters for cfg, drawn from rng by the kind's module."""
    params = Params(cfg.kind, REGISTRY[cfg.kind].dims(cfg))
    REGISTRY[cfg.kind].module.init_params(params, rng)
    return params


def rebuild(params: Params, theta: np.ndarray) -> Params:
    """Params of the same kind and dims over theta, such as a saved copy of a trained vector."""
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
    return _head(params, state), cache


def _head(params: Params, state: np.ndarray) -> np.ndarray:
    return (state @ params.head_w.T + params.head_b).ravel()


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


def forecast(params: Params, window: np.ndarray, horizon: int) -> np.ndarray:
    """The scaled recursive path: step s predicts from values s .. s+L-1 of window + path.

    Step 0 is ``predict``, and so is every step of a kind without ``lanes``.
    The others run on a ring of exactly L = len(window) lanes: window s resets
    lane s mod L at tick s and ends at tick s+L-1, and every lane reads value
    t at tick t. With the width fixed, a path's prefix has the same bits at
    every horizon, though a step can differ from ``predict`` in the last bits.
    """
    seq = np.concatenate([window, np.empty(horizon)])
    size = len(window)
    lanes = getattr(REGISTRY[params.kind].module, "lanes", None)
    advance = lanes(params, size) if lanes else None
    # An overflow shows as a non-finite value, which the check below names.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(horizon):
            if s == 0 or advance is None:
                value = predict(params, seq[s : s + size])
            else:
                for tick in range(s + size - 1 if s > 1 else 1, s + size):
                    state = advance(seq[tick], tick % size)
                value = float(_head(params, state[s % size : s % size + 1])[0])
            if not np.isfinite(value):
                raise ValueError(f"non-finite prediction at forecast step {s}")
            seq[size + s] = value
    return seq[size:]
