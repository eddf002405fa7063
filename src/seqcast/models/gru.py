"""GRU cell, unrolled over the lookback window.

Per step, with v_t = [h_{t-1}, x_t]:

    z_t = sigmoid(W_z v_t + b_z)                    update gate
    r_t = sigmoid(W_r v_t + b_r)                    reset gate
    g_t = tanh(W_h [r_t * h_{t-1}, x_t] + b_h)      candidate state
    h_t = (1 - z_t) * h_{t-1} + z_t * g_t

The update gate weights the candidate, so a saturated-low z freezes the
state. The new state is a convex combination of h_{t-1} and g_t. The
encoder state is h_T; the scalar head on it lives in ``seqcast.models``.

``forward`` and ``backward`` take one of two layouts by the params' dtype.

Float64 runs gate-major, the layout of validation, ``predict`` and the
forecast: ``Params.packed`` copies [W | b] of z, r and the candidate into
one (3, h, h+2) array, and each W and b is a view of it. A step makes one
batched matmul and one ``sigmoid`` call for both gates, then the candidate's
own matmul and ``tanh``; backward adds [dW | db] up in that layout for
``Params.add_packed``. Each gate's arithmetic is the per-gate form's, in
the same order, so outputs and gradients are bit-identical to it. ``cell``
fills the step-major cache, allocated once per call, or with a workspace
drawn from it by name; ``lanes`` runs it too, at either dtype.

Float32, the working copy that training runs on, is feature-major: state,
gates and cache are (hidden, batch), so each gate is one contiguous block of
rows. ``Params.packed`` gives [W | b] of z, r and the candidate as one
(3h, h+2) matrix with the z and r rows halved. A step makes one GEMM for
both gates against [v_t; 1], one in-place ``tanh`` and ``*= 0.5; += 0.5``;
the candidate keeps its own GEMM on the last h rows, as it needs r_t.
Backward makes one GEMM per step for the z and r rows' dv, summing over both
gates, and [dW | db] adds up in the packed layout. Every array comes from
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


# The packed pairs in the order both layouts keep: the gates z and r, then the candidate.
_GATES = (("w_z", "b_z"), ("w_r", "b_r"), ("w_h", "b_h"))


def cell(params: Params):
    """The step v_t (n, h+1) -> h_t; u_t[:, -1] must hold x_t, and h_out may be v_t[:, :-1]."""
    h = params.dims["hidden"]
    w = params.packed(_GATES).reshape(3, h, h + 2)
    # Transposed views, not copies: each gate's product is then the same BLAS
    # call as v @ w_z.T, bit for bit, where a transposed copy is not.
    wt, b = w[:2, :, :-1].transpose(0, 2, 1), w[:2, None, :, -1]
    wt_h, b_h = w[2, :, :-1].T, w[2, :, -1]
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


def forward(
    params: Params, x: np.ndarray, workspace: dict | None = None
) -> tuple[np.ndarray, dict]:
    """Run the cell over x of shape (batch, steps); h_0 = 0. Returns h_T and the cache.

    The cache is step-major: ``v`` and ``u`` (steps, batch, h+1) hold v_t and
    [r_t * h_{t-1}, x_t]; ``gates`` (steps, 2, batch, h) holds z_t and r_t;
    ``g`` (steps, batch, h) holds the candidate. h_{t-1} is ``v[t, :, :h]``.
    Float32 params take ``_forward_packed``, whose cache is feature-major.
    """
    if params.theta.dtype == np.float32:
        return _forward_packed(params, x, workspace)
    batch, steps = x.shape
    h, dtype = params.dims["hidden"], params.theta.dtype
    step = cell(params)
    v = buffer(workspace, "v", (steps, batch, h + 1), dtype)
    v[0, :, :h] = 0.0
    v[:, :, h] = x.T
    u = buffer(workspace, "u", v.shape, dtype)
    u[:, :, h] = x.T
    gates = buffer(workspace, "gates", (steps, 2, batch, h), dtype)
    g = buffer(workspace, "g", (steps, batch, h), dtype)
    for t, (v_t, u_t, a, g_t) in enumerate(zip(v, u, gates, g)):
        h_t = step(v_t, u_t, a, g_t, v[t + 1, :, :h] if t + 1 < steps else None)
    return h_t, {"v": v, "u": u, "gates": gates, "g": g}


def lanes(params: Params, n: int):
    """advance(x, reset) over n cells for ``seqcast.models.forecast``: zero lane reset, step all."""
    h, step, dtype = params.dims["hidden"], cell(params), params.theta.dtype
    v, u = np.zeros((n, h + 1), dtype), np.zeros((n, h + 1), dtype)
    a, g = np.empty((2, n, h), dtype), np.empty((n, h), dtype)
    def advance(x: float, reset: int) -> np.ndarray:
        v[reset] = 0.0
        v[:, h] = u[:, h] = x
        return step(v, u, a, g, v[:, :h])
    return advance


def backward(params: Params, cache: dict, dh: np.ndarray, grads: Params,
             workspace: dict | None = None) -> None:
    """BPTT from dh, the gradient w.r.t. h_T; adds the cell's gradients into grads."""
    if params.theta.dtype == np.float32:
        return _backward_packed(params, cache, dh, grads, workspace)
    h = params.dims["hidden"]
    packed = params.packed(_GATES).reshape(3, h, h + 2)
    w, w_h, gw = packed[:2, :, :-1], packed[2, :, :-1], np.zeros_like(packed)  # gw: [dW | db]
    v, u, gates, g_all = (cache[k] for k in ("v", "u", "gates", "g"))
    # gradients w.r.t. z_t and r_t, then their pre-activations
    d_pre = buffer(workspace, "d_pre", (2,) + dh.shape, dh.dtype)
    for t in reversed(range(len(v))):
        zr = gates[t]
        z, r = zr
        g, h_prev = g_all[t], v[t, :, :h]
        np.multiply(dh, g - h_prev, out=d_pre[0])
        dg = dh * z
        dh_prev = dh * (1.0 - z)
        da_g = dg * (1.0 - g**2)
        gw[2, :, :-1] += da_g.T @ u[t]
        gw[2, :, -1] += da_g.sum(axis=0)
        drh = (da_g @ w_h)[:, :h]  # gradient w.r.t. r * h_prev
        np.multiply(drh, h_prev, out=d_pre[1])
        dh_prev = dh_prev + drh * r
        d_pre *= zr
        d_pre *= 1.0 - zr
        gw[:2, :, :-1] += np.matmul(d_pre.transpose(0, 2, 1), v[t])
        gw[:2, :, -1] += d_pre.sum(axis=1)
        dv = np.matmul(d_pre, w)
        dh = dh_prev + (dv[0] + dv[1])[:, :h]
    grads.add_packed(_GATES, gw)


def _forward_packed(params: Params, x: np.ndarray, workspace: dict | None):
    """``forward`` feature-major. The cache's ``v`` (steps, h+2, batch) holds
    [h_{t-1}; x_t; 1] and ``u`` [r_t * h_{t-1}; x_t; 1], whose last rows make
    the GEMMs add the biases; ``gates`` (steps, 2h, batch) holds z_t over r_t,
    and ``g`` (steps, h, batch) the candidate."""
    batch, steps = x.shape
    h, dtype = params.dims["hidden"], params.theta.dtype
    w = params.packed(_GATES, workspace, halved=2)
    w_zr, w_h = w[: 2 * h], w[2 * h :]
    v = buffer(workspace, "v", (steps, h + 2, batch), dtype)
    v[0, :h] = 0.0
    v[:, h] = x.T
    v[:, h + 1] = 1.0
    u = buffer(workspace, "u", v.shape, dtype)
    u[:, h:] = v[:, h:]
    gates = buffer(workspace, "gates", (steps, 2 * h, batch), dtype)
    g = buffer(workspace, "g", (steps, h, batch), dtype)
    state = buffer(workspace, "state", (h, batch), dtype)
    step = buffer(workspace, "step", (h, batch), dtype)
    for t in range(steps):
        a, g_t, h_prev = gates[t], g[t], v[t, :h]
        np.matmul(w_zr, v[t], out=a)
        np.tanh(a, out=a)
        a *= 0.5
        a += 0.5
        np.multiply(a[h:], h_prev, out=u[t, :h])
        np.matmul(w_h, u[t], out=g_t)
        np.tanh(g_t, out=g_t)
        # h_t = h_{t-1} + z_t * (g_t - h_{t-1})
        np.subtract(g_t, h_prev, out=step)
        step *= a[:h]
        np.add(h_prev, step, out=v[t + 1, :h] if t + 1 < steps else state)
    return state.T, {"v": v, "u": u, "gates": gates, "g": g}


def _backward_packed(params: Params, cache: dict, dh: np.ndarray, grads: Params,
                workspace: dict | None) -> None:
    """``backward`` over ``_forward_packed``'s cache."""
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
