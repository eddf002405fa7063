"""GRU cell, unrolled over the lookback window.

Per step, with v_t = [h_{t-1}, x_t]:

    z_t = sigmoid(W_z v_t + b_z)                    update gate
    r_t = sigmoid(W_r v_t + b_r)                    reset gate
    g_t = tanh(W_h [r_t * h_{t-1}, x_t] + b_h)      candidate state
    h_t = (1 - z_t) * h_{t-1} + z_t * g_t

The update gate weights the candidate, so a saturated-low z freezes the
state. The new state is a convex combination of h_{t-1} and g_t. The
encoder state is h_T; the scalar head on it lives in ``seqcast.models``.

The steps run gate-major: ``Params.stacked`` views the adjacent W_z and W_r
as one (2, h, h+1) array and b_z, b_r as one (2, h). A step makes one
stacked matmul and one ``sigmoid`` call for both gates, then the candidate's
own matmul and ``tanh``. Each gate's arithmetic is the per-gate form's, in
the same order, so outputs and gradients are bit-identical to it. ``cell``
fills the step-major cache, allocated once per call; ``lanes`` runs it too.
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


def init_params(p: Params, rng: np.random.Generator) -> None:
    """Fill zero p: Xavier-uniform gate matrices and head, zero biases."""
    for w in (p.w_z, p.w_r, p.w_h, p.head_w):
        w[...] = init_xavier(rng, *w.shape)


def _gate_views(p: Params) -> tuple[np.ndarray, np.ndarray]:
    """w_z, w_r as one (2, h, h+1) view and b_z, b_r as one (2, 1, h) view."""
    return p.stacked("w_z", "w_r"), p.stacked("b_z", "b_r")[:, None]


def cell(params: Params):
    """The step v_t (n, h+1) -> h_t; u_t[:, -1] must hold x_t, and h_out may be v_t[:, :-1]."""
    w, b = _gate_views(params)
    # Transposed views, not copies: each gate's product is then the same BLAS
    # call as v @ w_z.T, bit for bit, where a transposed copy is not.
    wt, wt_h, b_h = w.transpose(0, 2, 1), params.w_h.T, params.b_h
    def step(v_t, u_t, a, g_t, h_out=None) -> np.ndarray:
        np.matmul(v_t, wt, out=a)
        a += b
        a[...] = sigmoid(a)
        z, r = a
        h_prev = v_t[:, :-1]
        np.multiply(r, h_prev, out=u_t[:, :-1])
        np.matmul(u_t, wt_h, out=g_t)
        g_t += b_h
        np.tanh(g_t, out=g_t)
        return np.add((1.0 - z) * h_prev, z * g_t, out=h_out)
    return step


def forward(params: Params, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run the cell over x of shape (batch, steps); h_0 = 0. Returns h_T and the cache.

    The cache is step-major: ``v`` and ``u`` (steps, batch, h+1) hold v_t and
    [r_t * h_{t-1}, x_t]; ``gates`` (steps, 2, batch, h) holds z_t and r_t;
    ``g`` (steps, batch, h) holds the candidate. h_{t-1} is ``v[t, :, :h]``.
    """
    batch, steps = x.shape
    h = params.dims["hidden"]
    step = cell(params)
    v = np.zeros((steps, batch, h + 1))
    v[:, :, h] = x.T
    u = v.copy()
    gates = np.empty((steps, 2, batch, h))
    g = np.empty((steps, batch, h))
    for t, (v_t, u_t, a, g_t) in enumerate(zip(v, u, gates, g)):
        h_t = step(v_t, u_t, a, g_t, v[t + 1, :, :h] if t + 1 < steps else None)
    return h_t, {"v": v, "u": u, "gates": gates, "g": g}


def lanes(params: Params, n: int):
    """advance(x, reset) over n cells for ``seqcast.models.forecast``: zero lane reset, step all."""
    h, step = params.dims["hidden"], cell(params)
    v, u, a, g = np.zeros((n, h + 1)), np.zeros((n, h + 1)), np.empty((2, n, h)), np.empty((n, h))
    def advance(x: float, reset: int) -> np.ndarray:
        v[reset] = 0.0
        v[:, h] = u[:, h] = x
        return step(v, u, a, g, v[:, :h])
    return advance


def backward(params: Params, cache: dict, dh: np.ndarray, grads: Params) -> None:
    """BPTT from dh, the gradient w.r.t. h_T; adds the cell's gradients into grads."""
    h = params.dims["hidden"]
    w, _ = _gate_views(params)
    gw, gb = _gate_views(grads)
    v, u, gates, g_all = (cache[k] for k in ("v", "u", "gates", "g"))
    d_pre = np.empty((2,) + dh.shape)  # gradients w.r.t. z_t and r_t, then their pre-activations
    for t in reversed(range(len(v))):
        zr = gates[t]
        z, r = zr
        g, h_prev = g_all[t], v[t, :, :h]
        np.multiply(dh, g - h_prev, out=d_pre[0])
        dg = dh * z
        dh_prev = dh * (1.0 - z)
        da_g = dg * (1.0 - g**2)
        grads.w_h += da_g.T @ u[t]
        grads.b_h += da_g.sum(axis=0)
        drh = (da_g @ params.w_h)[:, :h]  # gradient w.r.t. r * h_prev
        np.multiply(drh, h_prev, out=d_pre[1])
        dh_prev = dh_prev + drh * r
        d_pre *= zr
        d_pre *= 1.0 - zr
        gw += np.matmul(d_pre.transpose(0, 2, 1), v[t])
        gb += d_pre.sum(axis=1, keepdims=True)
        dv = np.matmul(d_pre, w)
        dh = dh_prev + (dv[0] + dv[1])[:, :h]
