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

``forward`` and ``backward`` take one of two layouts by the params' dtype.

Float64 runs gate-major, the layout of validation, ``predict`` and the
forecast: ``Params.packed`` copies the four gates' [W | b] into one
(4, h, h+2) array, and W and b are views of it. A step makes one batched
matmul, one ``sigmoid`` call for f, i and o, and one ``tanh`` for the
candidate; backward adds all four weight gradients with one batched matmul
per step, in that layout, for ``Params.add_packed``. Each gate's arithmetic
is the per-gate form's, in the same order, so outputs and gradients are
bit-identical to it. ``cell`` fills the step-major cache, allocated once
per call, or with a workspace drawn from it by name; ``lanes`` runs it
too, at either dtype.

Float32, the working copy that training runs on, is feature-major: state,
gates and cache are (hidden, batch), so each gate is one contiguous block of
rows. ``Params.packed`` gives the four gates' [W | b] as one (4h, h+2)
matrix with the f, i, o rows halved, so a step makes one GEMM against
[z_t; 1], one in-place ``tanh`` and then ``*= 0.5; += 0.5`` on the f, i, o
rows. Backward makes one GEMM per step for dz, summing over the gates, and
one for [dW | db], which adds up in that layout. Every array comes from
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
        "w_f": gate, "w_i": gate, "w_c": gate, "w_o": gate,
        "b_f": bias, "b_i": bias, "b_c": bias, "b_o": bias,
        "head_w": (1, hidden), "head_b": (1,),
    }


def init_params(p: Params, rng: np.random.Generator) -> None:
    """Fill zero p: Xavier-uniform gate matrices, zero biases except the forget gate.

    The forget bias is 1.0, which keeps early cell-state retention high and
    stabilizes training.
    """
    for w in (p.w_f, p.w_i, p.w_c, p.w_o, p.head_w):
        w[...] = init_xavier(rng, *w.shape)
    p.b_f[...] = 1.0


# The gates in step order, the sigmoids first: f, i, o, then the candidate g,
# whose arrays are w_c and b_c. Both layouts keep it, in cache and gradient rows.
_GATES = tuple((f"w_{gate}", f"b_{gate}") for gate in "fioc")


def cell(params: Params):
    """The step z_t (n, h+1) -> h_t; a gets f, i, o, g, c_t may be c_prev, h_out z_t[:, :-1]."""
    h = params.dims["hidden"]
    # Packing copies the gate matrices but keeps each one row-major. The
    # transpose must stay a view: each gate's product is then the same BLAS
    # call as z @ w_f.T, bit for bit, where a transposed copy is not.
    w = params.packed(_GATES).reshape(4, h, h + 2)
    wt, b = w[..., :-1].transpose(0, 2, 1), w[:, None, :, -1]
    def step(z_t, a, c_prev, c_t, tanh_c_t, h_out=None) -> np.ndarray:
        np.matmul(z_t, wt, out=a)
        a += b
        a[:3] = sigmoid(a[:3])
        f, i, o, g = a
        np.tanh(g, out=g)
        np.multiply(f, c_prev, out=c_t)
        c_t += i * g
        np.tanh(c_t, out=tanh_c_t)
        return np.multiply(o, tanh_c_t, out=h_out)
    return step


def forward(
    params: Params, x: np.ndarray, workspace: dict | None = None
) -> tuple[np.ndarray, dict]:
    """Run the cell over x of shape (batch, steps); h_0 = c_0 = 0.

    Returns h_T (batch, hidden) and the step-major cache the backward pass
    needs: ``z`` (steps, batch, h+1) holds z_t; ``gates`` (steps, 4, batch, h)
    holds f_t, i_t, o_t, g_t in that order; ``c`` (steps+1, batch, h) holds
    c_0 ... c_T; ``tanh_c`` (steps, batch, h) holds tanh(c_t). Float32
    params take ``_forward_packed``, whose cache is feature-major.
    """
    if params.theta.dtype == np.float32:
        return _forward_packed(params, x, workspace)
    batch, steps = x.shape
    h, dtype = params.dims["hidden"], params.theta.dtype
    step = cell(params)
    z = buffer(workspace, "z", (steps, batch, h + 1), dtype)
    z[0, :, :h] = 0.0
    z[:, :, h] = x.T
    gates = buffer(workspace, "gates", (steps, 4, batch, h), dtype)
    c = buffer(workspace, "c", (steps + 1, batch, h), dtype)
    c[0] = 0.0
    tanh_c = buffer(workspace, "tanh_c", (steps, batch, h), dtype)
    for t, (z_t, a, c_prev, c_t, tanh_c_t) in enumerate(zip(z, gates, c, c[1:], tanh_c)):
        h_t = step(z_t, a, c_prev, c_t, tanh_c_t, z[t + 1, :, :h] if t + 1 < steps else None)
    return h_t, {"z": z, "gates": gates, "c": c, "tanh_c": tanh_c}


def lanes(params: Params, n: int):
    """advance(x, reset) over n cells for ``seqcast.models.forecast``: zero lane reset, step all."""
    h, step, dtype = params.dims["hidden"], cell(params), params.theta.dtype
    z, c = np.zeros((n, h + 1), dtype), np.zeros((n, h), dtype)
    a, tanh_c = np.empty((4, n, h), dtype), np.empty((n, h), dtype)
    def advance(x: float, reset: int) -> np.ndarray:
        z[reset] = c[reset] = 0.0
        z[:, h] = x
        return step(z, a, c, c, tanh_c, z[:, :h])
    return advance


def backward(params: Params, cache: dict, dh: np.ndarray, grads: Params,
             workspace: dict | None = None) -> None:
    """BPTT from dh, the gradient w.r.t. h_T; adds the cell's gradients into grads."""
    if params.theta.dtype == np.float32:
        return _backward_packed(params, cache, dh, grads, workspace)
    h = params.dims["hidden"]
    packed = params.packed(_GATES).reshape(4, h, h + 2)
    w, gw = packed[..., :-1], np.zeros_like(packed)  # gw: [dW | db] of the four gates
    z, gates, c, tanh_c = (cache[k] for k in ("z", "gates", "c", "tanh_c"))
    da = buffer(workspace, "da", (4,) + dh.shape, dh.dtype)  # pre-activation gradients
    dc = np.zeros_like(dh)
    for t in reversed(range(len(z))):
        f, i, o, g = gates[t]
        do = dh * tanh_c[t]
        dc = dc + dh * o * (1.0 - tanh_c[t] ** 2)
        np.multiply(dc * c[t] * f, 1.0 - f, out=da[0])
        np.multiply(dc * g * i, 1.0 - i, out=da[1])
        np.multiply(do * o, 1.0 - o, out=da[2])
        np.multiply(dc * i, 1.0 - g**2, out=da[3])
        dc = dc * f
        gw[..., :-1] += np.matmul(da.transpose(0, 2, 1), z[t])
        gw[..., -1] += da.sum(axis=1)
        dz = np.matmul(da, w)
        dh = (dz[0] + dz[1] + dz[3] + dz[2])[:, :h]  # the per-gate form's sum order f, i, g, o
    grads.add_packed(_GATES, gw)


def _forward_packed(params: Params, x: np.ndarray, workspace: dict | None):
    """``forward`` feature-major. The cache's ``z`` (steps, h+2, batch) holds
    [h_{t-1}; x_t; 1], whose last row makes the GEMM add the biases; ``gates``
    (steps, 4h, batch) holds f, i, o, g; ``c`` (steps+1, h, batch) and
    ``tanh_c`` (steps, h, batch) are as in ``forward``."""
    batch, steps = x.shape
    h, dtype = params.dims["hidden"], params.theta.dtype
    w = params.packed(_GATES, workspace, halved=3)
    z = buffer(workspace, "z", (steps, h + 2, batch), dtype)
    z[0, :h] = 0.0
    z[:, h] = x.T
    z[:, h + 1] = 1.0
    gates = buffer(workspace, "gates", (steps, 4 * h, batch), dtype)
    c = buffer(workspace, "c", (steps + 1, h, batch), dtype)
    c[0] = 0.0
    tanh_c = buffer(workspace, "tanh_c", (steps, h, batch), dtype)
    state = buffer(workspace, "state", (h, batch), dtype)
    ig = buffer(workspace, "ig", (h, batch), dtype)
    for t in range(steps):
        a = gates[t]
        np.matmul(w, z[t], out=a)
        np.tanh(a, out=a)  # tanh(v / 2) on the halved rows
        a[: 3 * h] *= 0.5
        a[: 3 * h] += 0.5
        f, i, o, g = a[:h], a[h : 2 * h], a[2 * h : 3 * h], a[3 * h :]
        np.multiply(f, c[t], out=c[t + 1])
        c[t + 1] += np.multiply(i, g, out=ig)
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=z[t + 1, :h] if t + 1 < steps else state)
    return state.T, {"z": z, "gates": gates, "c": c, "tanh_c": tanh_c}


def _backward_packed(params: Params, cache: dict, dh: np.ndarray, grads: Params,
                workspace: dict | None) -> None:
    """``backward`` over ``_forward_packed``'s cache."""
    z, gates, c, tanh_c = (cache[k] for k in ("z", "gates", "c", "tanh_c"))
    steps, h, batch, dtype = len(z), params.dims["hidden"], dh.shape[0], dh.dtype

    def take(name, shape):
        return buffer(workspace, name, shape, dtype)

    w_h = params.packed(_GATES, workspace)[:, :h]  # h_{t-1}'s columns
    dh_t = take("dh", (h, batch))
    dh_t[...] = dh.T
    dc = take("dc", (h, batch))
    dc[...] = 0.0
    tmp = take("tmp", (h, batch))
    da = take("da", (4 * h, batch))  # pre-activation gradients, rows f, i, o, g
    d_f, d_i, d_o, d_g = da[:h], da[h : 2 * h], da[2 * h : 3 * h], da[3 * h :]
    d_sig, slope = da[: 3 * h], take("slope", (3 * h, batch))
    # [dW | db] of the four gates, and one step's term of it
    gw, product = take("gw", (4 * h, h + 2)), take("gw_step", (4 * h, h + 2))
    gw[...] = 0.0
    for t in reversed(range(steps)):
        a, tc = gates[t], tanh_c[t]
        sig, o, g = a[: 3 * h], a[2 * h : 3 * h], a[3 * h :]
        np.multiply(dh_t, tc, out=d_o)
        # dc += dh * o * (1 - tanh(c_t)^2)
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= o
        tmp *= dh_t
        dc += tmp
        np.multiply(dc, c[t], out=d_f)
        np.multiply(dc, g, out=d_i)
        np.multiply(g, g, out=d_g)
        np.subtract(1.0, d_g, out=d_g)
        d_g *= a[h : 2 * h]
        d_g *= dc
        # s (1 - s) for the f, i and o rows at once
        np.subtract(1.0, sig, out=slope)
        slope *= sig
        d_sig *= slope
        dc *= a[:h]
        gw += np.matmul(da, z[t].T, out=product)
        np.matmul(w_h.T, da, out=dh_t)
    grads.add_packed(_GATES, gw)
