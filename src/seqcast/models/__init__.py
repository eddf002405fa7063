"""The three sequence forecasters and their shared dispatch surface.

Each model module exposes ``shapes`` (its ordered name -> shape table),
``init_params`` (fills a zero ``Params`` in place), ``forward``, ``backward``
and, if recurrent, ``lanes``. ``REGISTRY`` says what a model kind is, and all
dispatch goes through it; ``ModelConfig`` alone checks a kind's dims and reads
its table, and ``Params`` and the forward cache carry that config.

Every kind is an encoder under one scalar head, prediction = head_w s + head_b,
where s is the (batch, width) state the module's ``forward`` returns. This
module owns what the kinds share: the input checks, the head and its
gradient, the check that a cache belongs to the params it is used with, and
the recursive forecast. Forward/backward are pure given (params, input):
params are never mutated by model code. They compute in the dtype of
``params.theta``, float64 or float32, and so does ``lanes``. A training run
passes them a workspace to draw their arrays from; the results are bit for
bit those of a call without one.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType

import numpy as np

from ..numerics import buffer
from . import gru, lstm, transformer
from .params import Params


@dataclass(frozen=True)
class ModelKind:
    """What differs between model kinds.

    arch_keys maps each keyword of the module's ``shapes`` to its default,
    in the order weight-file headers state them and reports echo them.
    Per-model seed = run seed + seed_offset, so models never share an init
    stream. train_dtype is the dtype of the working copy each training
    batch's forward and backward run on; the weights themselves, the
    optimizer and inference stay float64. shard_rows, if set, is the fixed
    number of rows a training batch is cut into, each part run forward and
    backward on its own (see ``training``); None keeps every batch whole.
    """

    module: ModuleType
    arch_keys: dict[str, int]
    seed_offset: int
    train_dtype: type
    shard_rows: int | None = None


# The Transformer trains in float64: in float32 its sine R2 fell on some seeds. Its
# large products release the GIL, so its 16-row shards can run on two cores at once;
# the LSTM's and GRU's many small calls hold it, and smaller batches would mean more calls.
REGISTRY = {
    "lstm": ModelKind(lstm, dict(hidden=64), 1, np.float32),
    "gru": ModelKind(gru, dict(hidden=64), 2, np.float32),
    "transformer": ModelKind(
        transformer, dict(d_model=64, n_heads=2, n_layers=2, d_ff=128), 3, np.float64, 16
    ),
}
MODEL_KINDS = tuple(REGISTRY)


def typed(name: str, value, kast: type):
    """value as a kast setting: exactly a kast, or for float an int or NumPy float; never a bool."""
    if kast is float and isinstance(value, (int, float, np.floating)) and not isinstance(value, bool):
        return float(value)
    if type(value) is not kast:
        raise ValueError(f"{name}: cannot read {value!r} as {kast.__name__}")
    return value


@dataclass(frozen=True, init=False)
class ModelConfig:
    """A forecaster's kind and its dims in key order: the given ones, else REGISTRY's defaults."""

    kind: str
    dims: tuple[tuple[str, int], ...]

    def __init__(self, kind: str, **dims: int):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
        keys = REGISTRY[kind].arch_keys
        for key in dims:
            if key not in keys:
                raise ValueError(f"{kind} has no key {key!r}, expected one of {tuple(keys)}")
        dims = keys | dims
        for key, value in dims.items():
            if typed(key, value, int) < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dims", tuple(dims.items()))
        self.shapes()  # the module's layout rule, such as d_model divisible by n_heads

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """The kind module's name -> shape table for these dims: the parameter layout."""
        return REGISTRY[self.kind].module.shapes(**dict(self.dims))

    def as_dict(self) -> dict:
        """The kind and its own architecture keys, as echoed in reports."""
        return {"kind": self.kind, **dict(self.dims)}


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> Params:
    """Fresh parameters for cfg, drawn from rng by the kind's module."""
    params = Params(cfg)
    REGISTRY[cfg.kind].module.init_params(params, rng)
    return params


def rebuild(params: Params, theta: np.ndarray) -> Params:
    """Params of the same config over theta, such as a saved copy of a trained vector."""
    return Params(params.cfg, theta)


def forward(params: Params, x: np.ndarray, workspace: dict | None = None):
    """Batched forward pass: x is (batch, steps), result is ((batch,), cache).

    The input is cast to the params' dtype, which every array of the result
    shares. The cache records the config, input and encoder state it came from.
    With a workspace, the cache's arrays are drawn from it (see ``backward``).
    """
    x = np.asarray(x, dtype=params.theta.dtype)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"expected input of shape (batch, steps), got {x.shape}")
    state, cache = REGISTRY[params.kind].module.forward(params, x, workspace)
    cache.update(cfg=params.cfg, x=x, state=state)
    return _head(params, state), cache


def _head(params: Params, state: np.ndarray) -> np.ndarray:
    return (state @ params.head_w.T + params.head_b).ravel()


def backward(
    params: Params, cache: dict, d_preds: np.ndarray, workspace: dict | None = None
) -> Params:
    """Gradient of sum_b d_preds[b] * prediction_b w.r.t. every parameter, in the params' dtype.

    A workspace is a dict that one training run passes to every forward and
    backward: the kind's module then writes each full-size array of a step
    into the one it holds under that array's name (``numerics.buffer``), and
    the gradient vector too. Without one, every call allocates its own. A
    cache or gradient made with a workspace stays valid until the next call
    with it, so a workspace belongs to one shard of one run, one call at a
    time.
    """
    made_by = cache["cfg"]
    if made_by != params.cfg:
        raise ValueError(f"cache of {made_by.kind} {dict(made_by.dims)} does not match "
                         f"{params.kind} {params.dims} parameters")
    d_preds = np.asarray(d_preds, dtype=params.theta.dtype).ravel()
    state = cache["state"]
    if d_preds.shape != (len(state),):
        raise ValueError(f"need one upstream gradient per sample, got {d_preds.shape}")
    grads = Params(params.cfg, buffer(workspace, "grads", params.theta.shape, params.theta.dtype))
    grads.theta[...] = 0.0
    grads.head_w += d_preds[None, :] @ state
    grads.head_b += d_preds.sum(keepdims=True)
    REGISTRY[params.kind].module.backward(
        params, cache, d_preds[:, None] * params.head_w, grads, workspace
    )
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
    The path is returned unchecked: ``recursive_forecast`` names a step that is inf or NaN.
    """
    seq = np.concatenate([window, np.empty(horizon)])
    size = len(window)
    lanes = getattr(REGISTRY[params.kind].module, "lanes", None)
    advance = lanes(params, size) if lanes else None
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(horizon):
            if s == 0 or advance is None:
                value = predict(params, seq[s : s + size])
            else:
                for tick in range(s + size - 1 if s > 1 else 1, s + size):
                    state = advance(seq[tick], tick % size)
                value = float(_head(params, state[s % size : s % size + 1])[0])
            seq[size + s] = value
    return seq[size:]
