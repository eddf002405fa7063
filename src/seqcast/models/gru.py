"""GRU cell, unrolled over the lookback window.

Per step, with v_t = [h_{t-1}, x_t]:

    z_t = sigmoid(W_z v_t + b_z)                    update gate
    r_t = sigmoid(W_r v_t + b_r)                    reset gate
    g_t = tanh(W_h [r_t * h_{t-1}, x_t] + b_h)      candidate state
    h_t = (1 - z_t) * h_{t-1} + z_t * g_t

The update gate weights the candidate, so a saturated-low z freezes the
state. The new state is a convex combination of h_{t-1} and g_t. The
encoder state is h_T; the scalar head on it lives in ``seqcast.models``.
"""

from __future__ import annotations

import numpy as np

from ..numerics import init_xavier, sigmoid
from .params import Params


def shapes(hidden: int) -> dict[str, tuple[int, ...]]:
    """Gate matrices act on [h_{t-1}, x_t], so they have hidden + 1 columns."""
    gate, bias = (hidden, hidden + 1), (hidden,)
    return {
        "w_z": gate, "w_r": gate, "w_h": gate,
        "b_z": bias, "b_r": bias, "b_h": bias,
        "head_w": (1, hidden), "head_b": (1,),
    }


def init_params(rng: np.random.Generator, hidden: int) -> Params:
    """Xavier-uniform gate matrices and head, zero biases."""
    p = Params("gru", {"hidden": hidden})
    for w in (p.w_z, p.w_r, p.w_h, p.head_w):
        w[...] = init_xavier(rng, *w.shape)
    return p


def forward(params: Params, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run the cell over x of shape (batch, steps); h_0 = 0. Returns h_T and the cache."""
    batch, steps = x.shape
    h = params.dims["hidden"]
    h_t = np.zeros((batch, h))
    cache = {"v": [], "z": [], "r": [], "g": [], "u": [], "h_prev": []}
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
    return h_t, cache


def backward(params: Params, cache: dict, dh: np.ndarray, grads: Params) -> None:
    """BPTT from dh, the gradient w.r.t. h_T; adds the cell's gradients into grads."""
    h = params.dims["hidden"]
    for t in reversed(range(len(cache["v"]))):
        v, z, r, g, u = (cache[k][t] for k in ("v", "z", "r", "g", "u"))
        h_prev = cache["h_prev"][t]
        dz_gate = dh * (g - h_prev)
        dg = dh * z
        dh_prev = dh * (1.0 - z)
        da_g = dg * (1.0 - g**2)
        grads.w_h += da_g.T @ u
        grads.b_h += da_g.sum(axis=0)
        du = da_g @ params.w_h
        drh = du[:, :h]  # gradient w.r.t. r * h_prev
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r
        da_z = dz_gate * z * (1.0 - z)
        da_r = dr * r * (1.0 - r)
        grads.w_z += da_z.T @ v
        grads.b_z += da_z.sum(axis=0)
        grads.w_r += da_r.T @ v
        grads.b_r += da_r.sum(axis=0)
        dv = da_z @ params.w_z + da_r @ params.w_r
        dh = dh_prev + dv[:, :h]
