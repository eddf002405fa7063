"""GRU cell, unrolled over the lookback window.

Per step, with v_t = [h_{t-1}, x_t]:

    z_t = sigmoid(W_z v_t + b_z)                    update gate
    r_t = sigmoid(W_r v_t + b_r)                    reset gate
    g_t = tanh(W_h [r_t * h_{t-1}, x_t] + b_h)      candidate state
    h_t = (1 - z_t) * h_{t-1} + z_t * g_t

The update gate weights the candidate, so a saturated-low z freezes the
state. The new state is a convex combination of h_{t-1} and g_t. The
encoder state is h_T; the scalar head on it lives in ``seqcast.models``.

State, gates and cache are feature-major, (hidden, batch), so each gate is
one contiguous block of rows, at float64 and float32 alike. ``Params.packed``
gives [W | b] of z, r and the candidate as one (3h, h+2) matrix. A step
makes one GEMM for both gates against [v_t; 1] and one ``sigmoid`` call on
their rows; the candidate keeps its own GEMM on the last h rows, as it needs
r_t. Backward makes one GEMM per step for the z and r rows' dv, summing over
both gates, and [dW | db] adds up in the packed layout. ``cell`` is the
step; ``forward`` runs it over the window, and ``lanes`` over a ring of
forecast windows. Every array of ``forward`` and ``backward`` comes from
``numerics.buffer``.
"""

from __future__ import annotations

import numpy as np

from ..numerics import buffer, init_xavier, sigmoid
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


# The packed pairs in the order the cache's and the gradient's rows keep: the gates
# z and r, then the candidate.
_GATES = (("w_z", "b_z"), ("w_r", "b_r"), ("w_h", "b_h"))


def cell(params: Params, workspace: dict | None = None):
    """The step v_t = [h_{t-1}; x_t; 1] (h+2, n) -> h_t in h_out, which may be v_t[:h].

    u_t[h:] must hold [x_t; 1]; a gets z_t over r_t, and g_t the candidate.
    """
    h = params.dims["hidden"]
    w = params.packed(_GATES, workspace)
    w_zr, w_h = w[: 2 * h], w[2 * h :]
    def step(v_t, u_t, a, g_t, tmp, h_out) -> np.ndarray:
        h_prev = v_t[:h]
        np.matmul(w_zr, v_t, out=a)
        sigmoid(a, out=a)
        np.multiply(a[h:], h_prev, out=u_t[:h])
        np.matmul(w_h, u_t, out=g_t)
        np.tanh(g_t, out=g_t)
        # h_t = h_{t-1} + z_t * (g_t - h_{t-1})
        np.subtract(g_t, h_prev, out=tmp)
        tmp *= a[:h]
        return np.add(h_prev, tmp, out=h_out)
    return step


def forward(
    params: Params, x: np.ndarray, workspace: dict | None = None
) -> tuple[np.ndarray, dict]:
    """Run the cell over x of shape (batch, steps); h_0 = 0. Returns h_T and the cache.

    The cache is feature-major: ``v`` (steps, h+2, batch) holds [h_{t-1}; x_t;
    1] and ``u`` [r_t * h_{t-1}; x_t; 1], whose last rows make the GEMMs add
    the biases; ``gates`` (steps, 2h, batch) holds z_t over r_t, and ``g``
    (steps, h, batch) the candidate. h_{t-1} is ``v[t, :h]``.
    """
    batch, steps = x.shape
    h, dtype = params.dims["hidden"], params.theta.dtype
    step = cell(params, workspace)
    v = buffer(workspace, "v", (steps, h + 2, batch), dtype)
    v[0, :h] = 0.0
    v[:, h] = x.T
    v[:, h + 1] = 1.0
    u = buffer(workspace, "u", v.shape, dtype)
    u[:, h:] = v[:, h:]
    gates = buffer(workspace, "gates", (steps, 2 * h, batch), dtype)
    g = buffer(workspace, "g", (steps, h, batch), dtype)
    state = buffer(workspace, "state", (h, batch), dtype)
    tmp = buffer(workspace, "tmp", (h, batch), dtype)
    for t in range(steps):
        step(v[t], u[t], gates[t], g[t], tmp, v[t + 1, :h] if t + 1 < steps else state)
    return state.T, {"v": v, "u": u, "gates": gates, "g": g}


def lanes(params: Params, n: int):
    """advance(x, reset) over n cells for ``seqcast.models.forecast``: zero lane reset, step all."""
    h, dtype = params.dims["hidden"], params.theta.dtype
    step = cell(params)
    v, u = np.zeros((h + 2, n), dtype), np.zeros((h + 2, n), dtype)
    v[h + 1] = u[h + 1] = 1.0
    a, g, tmp = np.empty((2 * h, n), dtype), np.empty((h, n), dtype), np.empty((h, n), dtype)
    def advance(x: float, reset: int) -> np.ndarray:
        v[:h, reset] = 0.0
        v[h] = u[h] = x
        return step(v, u, a, g, tmp, v[:h]).T
    return advance


def backward(params: Params, cache: dict, dh: np.ndarray, grads: Params,
             workspace: dict | None = None) -> None:
    """BPTT from dh, the gradient w.r.t. h_T; adds the cell's gradients into grads."""
    v, u, gates, g_all = (cache[k] for k in ("v", "u", "gates", "g"))
    steps, h, batch, dtype = len(v), params.dims["hidden"], dh.shape[0], dh.dtype

    def take(name, shape):
        return buffer(workspace, name, shape, dtype)

    w = params.packed(_GATES, workspace)
    w_zr, w_hh = w[: 2 * h, :h], w[2 * h :, :h]  # h_{t-1}'s columns
    dh_t = take("dh", (h, batch))
    dh_t[...] = dh.T
    dh_prev, tmp = take("dh_prev", (h, batch)), take("tmp", (h, batch))
    da = take("da", (3 * h, batch))  # pre-activation gradients, rows z, r, candidate
    d_z, d_r, d_g, d_zr = da[:h], da[h : 2 * h], da[2 * h :], da[: 2 * h]
    slope = take("slope", (2 * h, batch))
    # [dW | db] of z, r and the candidate, and one step's term of it
    gw, product = take("gw", (3 * h, h + 2)), take("gw_step", (3 * h, h + 2))
    gw[...] = 0.0
    for t in reversed(range(steps)):
        a, g, h_prev = gates[t], g_all[t], v[t, :h]
        np.subtract(g, h_prev, out=d_z)
        d_z *= dh_t
        np.multiply(dh_t, a[:h], out=d_g)
        np.subtract(dh_t, d_g, out=dh_prev)  # dh * (1 - z)
        np.multiply(g, g, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        d_g *= tmp
        np.matmul(w_hh.T, d_g, out=tmp)  # the gradient w.r.t. r * h_{t-1}
        np.multiply(tmp, h_prev, out=d_r)
        tmp *= a[h:]
        dh_prev += tmp
        # s (1 - s) for the z and r rows at once
        np.subtract(1.0, a, out=slope)
        slope *= a
        d_zr *= slope
        np.matmul(d_zr, v[t].T, out=product[: 2 * h])
        np.matmul(d_g, u[t].T, out=product[2 * h :])
        gw += product
        np.matmul(w_zr.T, d_zr, out=dh_t)
        dh_t += dh_prev
    grads.add_packed(_GATES, gw)
