"""LSTM cell with a scalar head, unrolled over the lookback window.

Per step, with z_t = [h_{t-1}, x_t]:

    f_t = sigmoid(W_f z_t + b_f)        forget gate
    i_t = sigmoid(W_i z_t + b_i)        input gate
    g_t = tanh(W_c z_t + b_c)           candidate cell state
    c_t = f_t * c_{t-1} + i_t * g_t
    o_t = sigmoid(W_o z_t + b_o)        output gate
    h_t = o_t * tanh(c_t)

The encoder state is h_T; the scalar head on it lives in ``seqcast.models``.
The backward pass is hand-derived BPTT through the full window; gradients
sum over the batch so that a mean-loss upstream gradient yields the mean of
per-sample gradients.
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

    Returns h_T (batch, hidden) and the cache the backward pass needs.
    """
    batch, steps = x.shape
    h = params.dims["hidden"]
    h_t = np.zeros((batch, h))
    c_t = np.zeros((batch, h))
    cache = {"z": [], "f": [], "i": [], "g": [], "o": [], "c_prev": [], "tanh_c": []}
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
    return h_t, cache


def backward(params: Params, cache: dict, dh: np.ndarray, grads: Params) -> None:
    """BPTT from dh, the gradient w.r.t. h_T; adds the cell's gradients into grads."""
    h = params.dims["hidden"]
    dc = np.zeros_like(dh)
    for t in reversed(range(len(cache["z"]))):
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
