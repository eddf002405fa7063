"""LSTM cell with a scalar head, unrolled over the lookback window.

Per step, with z_t = [h_{t-1}, x_t]:

    f_t = sigmoid(W_f z_t + b_f)        forget gate
    i_t = sigmoid(W_i z_t + b_i)        input gate
    g_t = tanh(W_c z_t + b_c)           candidate cell state
    c_t = f_t * c_{t-1} + i_t * g_t
    o_t = sigmoid(W_o z_t + b_o)        output gate
    h_t = o_t * tanh(c_t)

prediction = head_w h_T + head_b. The backward pass is hand-derived BPTT
through the full window; gradients sum over the batch so that a mean-loss
upstream gradient yields the mean of per-sample gradients.
"""

from __future__ import annotations

import numpy as np

from ..numerics import init_xavier, sigmoid
from .params import Params


def shapes(hidden: int) -> dict[str, tuple[int, ...]]:
    """Gate matrices act on [h_{t-1}, x_t], so they have hidden + 1 columns."""
    gate, bias = (hidden, hidden + 1), (hidden,)
    return {
        "w_f": gate, "w_i": gate, "w_c": gate, "w_o": gate,
        "b_f": bias, "b_i": bias, "b_c": bias, "b_o": bias,
        "head_w": (1, hidden), "head_b": (1,),
    }


def init_params(rng: np.random.Generator, hidden: int) -> Params:
    """Xavier-uniform gate matrices, zero biases except the forget gate.

    The forget bias is 1.0, which keeps early cell-state retention high and
    stabilizes training.
    """
    p = Params("lstm", {"hidden": hidden})
    for w in (p.w_f, p.w_i, p.w_c, p.w_o, p.head_w):
        w[...] = init_xavier(rng, *w.shape)
    p.b_f[...] = 1.0
    return p


def forward(params: Params, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run the cell over x of shape (batch, steps); h_0 = c_0 = 0.

    Returns predictions (batch,) and the cache the backward pass needs.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"expected input of shape (batch, steps), got {x.shape}")
    batch, steps = x.shape
    h = params.dims["hidden"]
    h_t = np.zeros((batch, h))
    c_t = np.zeros((batch, h))
    cache = {"x": x, "z": [], "f": [], "i": [], "g": [], "o": [],
             "c_prev": [], "tanh_c": [], "hidden": h}
    for t in range(steps):
        z = np.concatenate([h_t, x[:, t : t + 1]], axis=1)
        f = sigmoid(z @ params.w_f.T + params.b_f)
        i = sigmoid(z @ params.w_i.T + params.b_i)
        g = np.tanh(z @ params.w_c.T + params.b_c)
        o = sigmoid(z @ params.w_o.T + params.b_o)
        cache["c_prev"].append(c_t)
        c_t = f * c_t + i * g
        tanh_c = np.tanh(c_t)
        h_t = o * tanh_c
        for key, val in (("z", z), ("f", f), ("i", i), ("g", g), ("o", o), ("tanh_c", tanh_c)):
            cache[key].append(val)
    cache["h_last"] = h_t
    preds = (h_t @ params.head_w.T + params.head_b).ravel()
    return preds, cache


def backward(params: Params, cache: dict, d_preds: np.ndarray) -> Params:
    """BPTT: gradient of sum_b d_preds[b] * pred_b, shaped like the params."""
    if cache.get("hidden") != params.dims["hidden"]:
        raise ValueError("cache does not match these parameters")
    d_preds = np.asarray(d_preds, dtype=np.float64).ravel()
    x = cache["x"]
    batch, steps = x.shape
    if d_preds.shape != (batch,):
        raise ValueError(f"need one upstream gradient per sample, got {d_preds.shape}")
    h = params.dims["hidden"]

    grads = Params("lstm", params.dims)
    grads.head_w += d_preds[None, :] @ cache["h_last"]
    grads.head_b += d_preds.sum(keepdims=True)

    dh = d_preds[:, None] * params.head_w  # (batch, hidden)
    dc = np.zeros((batch, h))
    for t in reversed(range(steps)):
        z, f, i, g, o = (cache[k][t] for k in ("z", "f", "i", "g", "o"))
        c_prev, tanh_c = cache["c_prev"][t], cache["tanh_c"][t]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c**2)
        da_f = dc * c_prev * f * (1.0 - f)
        da_i = dc * g * i * (1.0 - i)
        da_g = dc * i * (1.0 - g**2)
        da_o = do * o * (1.0 - o)
        dc = dc * f
        grads.w_f += da_f.T @ z
        grads.w_i += da_i.T @ z
        grads.w_c += da_g.T @ z
        grads.w_o += da_o.T @ z
        grads.b_f += da_f.sum(axis=0)
        grads.b_i += da_i.sum(axis=0)
        grads.b_c += da_g.sum(axis=0)
        grads.b_o += da_o.sum(axis=0)
        dz = da_f @ params.w_f + da_i @ params.w_i + da_g @ params.w_c + da_o @ params.w_o
        dh = dz[:, :h]
    return grads
