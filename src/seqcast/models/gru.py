"""GRU cell with a scalar head.

Per step, with v_t = [h_{t-1}, x_t]:

    z_t = sigmoid(W_z v_t + b_z)                    update gate
    r_t = sigmoid(W_r v_t + b_r)                    reset gate
    g_t = tanh(W_h [r_t * h_{t-1}, x_t] + b_h)      candidate state
    h_t = (1 - z_t) * h_{t-1} + z_t * g_t

The update gate weights the candidate, so a saturated-low z freezes the
state. The new state is a convex combination of h_{t-1} and g_t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import init_xavier, sigmoid


@dataclass
class GruParams:
    w_z: np.ndarray  # (hidden, hidden + input)
    w_r: np.ndarray
    w_h: np.ndarray
    b_z: np.ndarray  # (hidden,)
    b_r: np.ndarray
    b_h: np.ndarray
    head_w: np.ndarray  # (1, hidden)
    head_b: np.ndarray  # (1,)

    def __post_init__(self):
        shape = self.w_z.shape
        if self.w_r.shape != shape or self.w_h.shape != shape:
            raise ValueError("all three gate matrices must share one shape")
        h = shape[0]
        for name in ("b_z", "b_r", "b_h"):
            if getattr(self, name).shape != (h,):
                raise ValueError(f"bias {name} has shape {getattr(self, name).shape}, expected ({h},)")
        if self.head_w.shape != (1, h) or self.head_b.shape != (1,):
            raise ValueError("head shapes do not match the hidden width")

    @property
    def hidden(self) -> int:
        return self.w_z.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_z.shape[1] - self.w_z.shape[0]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("w_z", self.w_z), ("w_r", self.w_r), ("w_h", self.w_h),
            ("b_z", self.b_z), ("b_r", self.b_r), ("b_h", self.b_h),
            ("head_w", self.head_w), ("head_b", self.head_b),
        ]

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], **dims: int) -> "GruParams":
        """The array shapes fix every dimension, so architecture keywords go unused."""
        return cls(**arrays)


def init_params(rng: np.random.Generator, hidden: int) -> GruParams:
    d = hidden + 1
    return GruParams(
        w_z=init_xavier(rng, hidden, d),
        w_r=init_xavier(rng, hidden, d),
        w_h=init_xavier(rng, hidden, d),
        b_z=np.zeros(hidden),
        b_r=np.zeros(hidden),
        b_h=np.zeros(hidden),
        head_w=init_xavier(rng, 1, hidden),
        head_b=np.zeros(1),
    )


def forward(params: GruParams, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run the cell over x of shape (batch, steps); h_0 = 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"expected input of shape (batch, steps), got {x.shape}")
    if params.input_size != 1:
        raise ValueError(f"scalar sequences need input_size 1, params have {params.input_size}")
    batch, steps = x.shape
    h = params.hidden
    h_t = np.zeros((batch, h))
    cache = {"x": x, "v": [], "z": [], "r": [], "g": [], "u": [], "h_prev": [], "hidden": h}
    for t in range(steps):
        x_t = x[:, t : t + 1]
        v = np.concatenate([h_t, x_t], axis=1)
        z = sigmoid(v @ params.w_z.T + params.b_z)
        r = sigmoid(v @ params.w_r.T + params.b_r)
        u = np.concatenate([r * h_t, x_t], axis=1)
        g = np.tanh(u @ params.w_h.T + params.b_h)
        cache["h_prev"].append(h_t)
        h_t = (1.0 - z) * h_t + z * g
        for key, val in (("v", v), ("z", z), ("r", r), ("g", g), ("u", u)):
            cache[key].append(val)
    cache["h_last"] = h_t
    preds = (h_t @ params.head_w.T + params.head_b).ravel()
    return preds, cache


def backward(params: GruParams, cache: dict, d_preds: np.ndarray) -> GruParams:
    """BPTT gradient of sum_b d_preds[b] * pred_b, shaped like the params."""
    if cache.get("hidden") != params.hidden:
        raise ValueError("cache does not match these parameters")
    d_preds = np.asarray(d_preds, dtype=np.float64).ravel()
    x = cache["x"]
    batch, steps = x.shape
    if d_preds.shape != (batch,):
        raise ValueError(f"need one upstream gradient per sample, got {d_preds.shape}")
    h = params.hidden

    grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    grads["head_w"] += d_preds[None, :] @ cache["h_last"]
    grads["head_b"] += d_preds.sum(keepdims=True)

    dh = d_preds[:, None] * params.head_w
    for t in reversed(range(steps)):
        v, z, r, g, u = (cache[k][t] for k in ("v", "z", "r", "g", "u"))
        h_prev = cache["h_prev"][t]
        dz_gate = dh * (g - h_prev)
        dg = dh * z
        dh_prev = dh * (1.0 - z)
        da_g = dg * (1.0 - g**2)
        grads["w_h"] += da_g.T @ u
        grads["b_h"] += da_g.sum(axis=0)
        du = da_g @ params.w_h
        drh = du[:, :h]  # gradient w.r.t. r * h_prev
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r
        da_z = dz_gate * z * (1.0 - z)
        da_r = dr * r * (1.0 - r)
        grads["w_z"] += da_z.T @ v
        grads["b_z"] += da_z.sum(axis=0)
        grads["w_r"] += da_r.T @ v
        grads["b_r"] += da_r.sum(axis=0)
        dv = da_z @ params.w_z + da_r @ params.w_r
        dh = dh_prev + dv[:, :h]
    return GruParams.from_arrays(grads)
